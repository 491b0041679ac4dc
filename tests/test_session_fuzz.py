"""Property tests: any task line, however malformed, is either a ParseError or
runs into entries that carry no Python-level failure (an IndexError, TypeError
or KeyError raised because the handler got something its spec rules out); any
coker declaration is either a ParseError at its line or a graded module that
the module tasks run on."""

import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modcore.errors import ParseError  # noqa: E402
from modcore.modalg import vector_degree  # noqa: E402
from modcore.session import SPECS, parse_session, run_session  # noqa: E402

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
