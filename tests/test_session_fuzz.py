"""Property tests: any task line, however malformed, is either a ParseError or
runs into entries that carry no Python-level failure (an IndexError, TypeError
or KeyError raised because the handler got something its spec rules out); any
coker declaration is either a ParseError at its line or a graded module that
the module tasks run on.  Differential tests: the statement scanner against a
loop over every character, and the report writer against json.dumps."""

import json
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modcore.errors import ParseError  # noqa: E402
from modcore.modalg import vector_degree  # noqa: E402
from modcore.session import SPECS, Report, _statements, emit_report, parse_session, run_session  # noqa: E402

HEADER = (
    "ring R = GF(32003)[x,y];\n"
    "ideal I = (x^2, x*y, y^2);\n"
    "module E = ideal I;\n"
    "submodule U = span(E; [1, 0, 0], [0, 0, 1]);\n"
)

# ops that finish in milliseconds on m^2, randomized ones among them
CHEAP_OPS = (
    "groebner", "height", "dim", "hilbert", "mu", "quotient", "intersect", "rank", "pdim",
    "fitting", "analytic_spread", "is_reduction", "check_gs", "random_reduction",
    "reduction_number", "verify_free_quotient", "ideal_module_verdicts", "frobnicate",
)
# tokens of each kind, and the tokens a line may hold anywhere
POOLS = {"ideal": ("I",), "module": ("I", "E"), "submodule": ("U",), "int": ("-1", "0", "1", "2", "3")}
ANY = ("I", "E", "U", "-1", "0", "1", "2", "3", "plus_free", "abc")


def _token(kind):
    """Mostly a token of `kind`, sometimes any token."""
    pool = kind if isinstance(kind, tuple) else POOLS[kind]
    return st.one_of(st.sampled_from(pool), st.sampled_from(pool), st.sampled_from(ANY))


@st.composite
def task_lines(draw):
    """Lines near the shape of their op's spec, so that many of them parse:
    about the right number of arguments, mostly of the right kinds, the op's
    flags among --seed and --bogus."""
    op = draw(st.sampled_from(CHEAP_OPS))
    spec = SPECS.get(op)
    required, kinds = (spec.args, spec.args + spec.optional) if spec else ((), ())
    flag_kinds = dict(spec.flags if spec else {}, seed="int", bogus="int")
    arity = st.integers(max(0, len(required) - 1), len(kinds) + 1)
    toks = [
        draw(_token(kinds[i] if i < len(kinds) else "module"))
        for i in range(draw(st.one_of(st.just(len(required)), st.just(len(required)), arity)))
    ]
    for key in draw(st.lists(st.sampled_from(sorted(flag_kinds)), max_size=2, unique=True)):
        toks += [f"--{key.replace('_', '-')}", draw(_token(flag_kinds[key]))]
    return " ".join(["task", op, *toks]) + ";"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(task_lines())
def test_task_line_is_parse_error_or_clean_entry(line):
    try:
        session = parse_session(HEADER + line + "\n")
    except ParseError as exc:
        assert str(exc).endswith(" at line 5")
        return
    for task in run_session(session).payload["tasks"]:
        if task["status"] == "error":
            assert not task["value"]["error"].startswith(("IndexError", "TypeError", "KeyError")), line


# coker entries: mostly linear forms and zeros, so that many columns are
# homogeneous, and now and then forms of degree 0 or 2, an inhomogeneous
# one, or text that is no polynomial of the ring
LINEAR = ("0", "", "x", "y", "x + y", "2*x - y")
ENTRIES = LINEAR + ("1", "3", "x^2", "x*y + y^2", "x^2 + y", "z", "x +", "(x")


@st.composite
def coker_lines(draw):
    """coker declarations near their shape, about one in five malformed: a
    few generator degrees, now and then no integer, and columns mostly of the
    right length, now and then unbracketed or unclosed, after a ';' that is
    now and then missing."""
    rnd = random.Random(draw(st.integers(0, 2**32)))

    def pick(common, rare):
        return rnd.choice(rare if rnd.random() < 0.06 else common)

    degrees = [pick(("0", "0", "0", "1", "-1"), ("a", "")) for _ in range(rnd.randint(1, 3))]
    cols = []
    for _ in range(rnd.randint(0, 3)):
        length = len(degrees) if rnd.random() < 0.9 else rnd.randint(0, 4)
        col = ", ".join(pick(LINEAR, ENTRIES) for _ in range(length))
        cols.append(pick((f"[{col}]",), (col, f"[{col}")))
    sep = pick(("; ",), (", ", " "))
    return f"module C = coker({', '.join(degrees)}{sep}{', '.join(cols)});"


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(coker_lines())
def test_coker_line_is_parse_error_or_a_graded_module(line):
    try:
        session = parse_session("ring R = GF(32003)[x,y];\n" + line + "\ntask mu C;\ntask rank C;\ntask pdim C;\n")
    except ParseError as exc:
        assert str(exc).endswith(" at line 2"), (line, exc)
        return
    C = session.modules["C"]
    for col in C.relations:
        vector_degree(col, C.gen_degrees)
    assert [task["status"] for task in run_session(session).payload["tasks"]] == ["ok"] * 3, line


# -- the statement scanner against a loop over every character ----------------------


def _statements_by_character(src):
    """The oracle for session._statements: the same (line, statement) pairs
    and ParseErrors, by one step per character."""
    buf = []
    start = None
    depth = 0
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        for ch in line:
            if start is None and not ch.isspace():
                start = lineno
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError("unbalanced ')'", lineno)
            if ch == ";" and depth == 0:
                stmt = "".join(buf).strip()
                if stmt:
                    yield start, stmt
                buf = []
                start = None
            else:
                buf.append(ch)
        buf.append(" ")
    if "".join(buf).strip():
        raise ParseError("unterminated statement (missing ';')", start)


def _scan(scanner, src):
    """The pairs `scanner` yields for `src`, then the message of the
    ParseError that ends them, or None."""
    pairs = []
    try:
        for pair in scanner(src):
            pairs.append(pair)
    except ParseError as exc:
        return pairs, str(exc)
    return pairs, None


# text near the shape of a session: the fuzzers' lines, and runs of the
# characters that move the scanner (parens, ';', '#', blanks and the line
# breaks str.splitlines knows) among a few others
SCANNER_TEXT = st.text(alphabet=st.sampled_from(list("();#;( )\n\n\r\t\x0c\u2028 \u00a0abx=,[]")), max_size=80)
SESSIONS = st.one_of(
    task_lines().map(lambda line: HEADER + line + "\n"),
    coker_lines().map(lambda line: "ring R = GF(32003)[x,y];\n" + line + "\ntask mu C;\n"),
    st.lists(st.one_of(task_lines(), coker_lines(), SCANNER_TEXT), max_size=6).map("\n".join),
    SCANNER_TEXT,
)


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(SESSIONS)
def test_statement_scanner_matches_the_character_loop(src):
    assert _scan(_statements, src) == _scan(_statements_by_character, src)


# -- the report writer against json.dumps -------------------------------------------


class _Int(int):
    def __repr__(self):
        return "not JSON"


class _Str(str):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


_TEXT = st.text(st.one_of(st.characters(), st.characters(categories=["Cs", "Cc"])), max_size=8)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0.0, 1e300]),
    _TEXT,
    st.integers().map(_Int),
    _TEXT.map(_Str),
)
_KEYS = st.one_of(_TEXT, _TEXT, st.integers(), st.floats(), st.booleans(), st.none())
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(inner, max_size=3).map(_List),
        st.dictionaries(_TEXT, inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(_TEXT, inner, max_size=3).map(_Dict),
    ),
    max_leaves=24,
)


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(_VALUES)
def test_report_writer_matches_json_dumps(value):
    # emit_report writes what json.dumps(indent=2) writes, byte for byte,
    # for every value json can write; a report payload is a dict, but the
    # writer takes any value
    assert emit_report(Report(value)) == (json.dumps(value, indent=2) + "\n").encode()
