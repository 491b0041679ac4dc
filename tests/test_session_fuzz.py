"""Property test: any task line, however malformed, is either a ParseError or
runs into entries that carry no Python-level failure (an IndexError, TypeError
or KeyError raised because the handler got something its spec rules out)."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from modcore.errors import ParseError  # noqa: E402
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
