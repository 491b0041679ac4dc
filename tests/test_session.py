"""Session DSL parsing, task running, report schema, CLI exit codes."""

import gc
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

from modcore.errors import ModcoreError, ParseError
from modcore.modalg import PresentedModule, depth, projective_dimension
from modcore.poly import PolyRing
from modcore.session import SPECS, emit_report, parse_session, run_session

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"
# a session that runs most task ops, its report pinned byte for byte
ALL_TASKS = Path(__file__).resolve().parent / "all_tasks.mc"


def _normalize(payload_bytes):
    payload = json.loads(payload_bytes)
    for t in payload["tasks"]:
        t["elapsed_ms"] = 0
    return payload


def _zero_timings(report_bytes):
    """The report bytes with every elapsed_ms set to 0, as the goldens hold them."""
    return re.sub(rb'"elapsed_ms": \d+', b'"elapsed_ms": 0', report_bytes)


def test_parse_edge_corpus_file():
    src = (CORPUS / "square_edge_ideal.mc").read_text()
    s = parse_session(src)
    assert s.ring.nvars == 4
    assert len(s.ideals["Isq"].gens) == 4
    assert len(s.tasks) == 6


def test_empty_session_valid():
    s = parse_session("ring R = GF(32003)[x,y];\n")
    rep = run_session(s)
    assert rep.payload["tasks"] == []
    assert rep.exit_code() == 0


def test_undeclared_name_is_named_in_error():
    src = "ring R = GF(32003)[x,y];\ntask height Nope;\n"
    with pytest.raises(ParseError, match="Nope"):
        parse_session(src)


def test_unterminated_statement():
    with pytest.raises(ParseError, match="unterminated"):
        parse_session("ring R = GF(32003)[x,y]\n")


def test_unknown_task_op():
    src = "ring R = GF(32003)[x,y];\ntask frobnicate R;\n"
    with pytest.raises(ParseError, match="frobnicate"):
        parse_session(src)


@pytest.mark.parametrize("body, degrees", [("free 2", (0, 0)), ("free 2 twist 3", (3, 3)), ("free  1   twist  -1", (-1,))])
def test_free_module_expression(body, degrees):
    session = parse_session(f"ring R = GF(32003)[x,y];\nmodule F = {body};\n")
    F = session.modules["F"]
    assert F.gen_degrees == degrees and not F.relations


@pytest.mark.parametrize("body", ["free", "free 2 twist", "free 2 3", "free -2", "free 2 twist 1 twist 1", "free 2 twist x"])
def test_malformed_free_module_expression(body):
    with pytest.raises(ParseError, match=re.escape(f"unknown module expression {body!r} at line 2")):
        parse_session(f"ring R = GF(32003)[x,y];\nmodule F = {body};\n")


def test_duplicate_name_rejected():
    src = "ring R = GF(32003)[x,y];\nideal I = (x);\nideal I = (y);\n"
    with pytest.raises(ParseError, match="already declared"):
        parse_session(src)


def test_ring_redeclaration_rejected():
    src = "ring R = GF(32003)[x,y];\nring S = GF(7)[a,b];\n"
    with pytest.raises(ParseError, match="ring already declared"):
        parse_session(src)


def test_declaration_before_ring_rejected():
    with pytest.raises(ParseError, match="before the ring"):
        parse_session("ideal I = (x);\n")


def test_submodule_vector_must_be_bracketed():
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x^2, x*y, y^2);\n"
        "module E = ideal I;\n"
        "submodule U = span(E; x^2, 0, 0);\n"
    )
    with pytest.raises(ParseError, match="bracketed"):
        parse_session(src)


def test_submodule_vector_length_checked():
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x^2, x*y, y^2);\n"
        "module E = ideal I;\n"
        "submodule U = span(E; [1, 0]);\n"
    )
    with pytest.raises(ParseError, match="coordinates"):
        parse_session(src)


@pytest.mark.parametrize("vector, why", [
    ("[1 + x, 0, 0]", "coordinate 0 is not homogeneous"),
    ("[x, 1, 0]", "vector coordinates disagree in degree"),
])
def test_submodule_vector_must_be_homogeneous(vector, why):
    # a non-graded V used to pass `is_reduction` (which reads only constant
    # parts) while `verify_free_quotient E V` ended in NotHomogeneousError
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x^2, x*y, y^2);\n"
        "module E = ideal I;\n"
        f"submodule V = span(E; {vector}, [0, 0, 1]);\n"
        "task is_reduction V;\n"
    )
    with pytest.raises(ParseError, match=re.escape(f"submodule vector {vector} is not homogeneous ({why}) at line 4")):
        parse_session(src)
    # twisted generator degrees count: x*e_1 + e_4 is homogeneous in E + R(-3)
    graded = src.replace("module E = ideal I;", "module MI = ideal I;\nmodule F = free 1 twist 3;\nmodule E = sum(MI, F);")
    ok = graded.replace(f"{vector}, [0, 0, 1]", "[x, 0, 0, 1]")
    assert len(parse_session(ok).submodules["V"].gens) == 1


@pytest.mark.parametrize("decl, why", [
    ("coker(0, 0; [x, y, 1])", "column has 3 coordinates, module has 2 generators"),
    ("coker(0, 1; [x, y], [x, 1])", "coker column [x, y] is not homogeneous (vector coordinates disagree in degree)"),
    ("coker(0; [1 + x])", "coker column [1 + x] is not homogeneous (coordinate 0 is not homogeneous)"),
    ("coker(0, a; [x, y])", "coker generator degrees must be integers, got '0, a'"),
    ("coker(0, 0 [x, y])", "coker takes generator degrees, then ';', then columns"),
    ("coker(0, 0; x, y)", "coker columns are bracketed poly lists"),
    ("coker(0, 0; [x, w])", "in polynomial 'w': unknown variable 'w'"),
])
def test_coker_errors_name_their_line(decl, why):
    # the columns of a coker are checked as they are parsed: their length,
    # their homogeneity under the generator degrees, and every entry; each
    # error names the declaration's line
    src = f"ring R = GF(32003)[x,y];\n# a comment line\nmodule C = {decl};\ntask mu C;\n"
    with pytest.raises(ParseError, match=re.escape(why) + ".* at line 3$"):
        parse_session(src)


def test_coker_declares_a_presented_module():
    # generator degrees may be negative or mixed; a column homogeneous under
    # them is a relation, an empty coordinate is 0, and coker(d; ) is free
    session = parse_session(
        "ring R = GF(32003)[x,y];\n"
        "module C = coker(-1, 0, 1; [x^2, x, ], [0, y^2, x - y]);\n"
        "module F = coker(2;);\n"
        "task pdim C;\ntask mu F;\n"
    )
    C, F = session.modules["C"], session.modules["F"]
    x, y = session.ring.gens()
    zero = session.ring.zero()
    assert C.gen_degrees == (-1, 0, 1) and C.relations == ((x**2, x, zero), (zero, y**2, x - y))
    assert F.gen_degrees == (2,) and F.relations == ()
    assert run_session(session).exit_code() == 0


def _render_coker(E):
    cols = ", ".join("[" + ", ".join(str(f) for f in col) + "]" for col in E.relations)
    return f"coker({', '.join(map(str, E.gen_degrees))}; {cols})"


@pytest.mark.parametrize("p", [32003, 7])
def test_coker_render_parse_round_trip(p):
    # a presentation written out as a coker declaration, entries as their
    # text, parses back to the same generator degrees and relations: the
    # ladder rungs and seeded random presentations, with mixed generator
    # degrees, constant entries and zero coordinates
    from conftest import generic_cokernel, random_presentation, seeded

    rng = seeded(p + 41)
    R = PolyRing(p, ("x", "y", "z"))
    modules = [generic_cokernel(3, 5, 3, p), generic_cokernel(4, 6, 4, p)]
    modules += [random_presentation(R, rng) for _ in range(40)]
    assert any(len(set(E.gen_degrees)) > 1 for E in modules)
    for E in modules:
        src = f"ring R = GF({p})[{','.join(E.ring.vars)}];\nmodule C = {_render_coker(E)};\n"
        C = parse_session(src).modules["C"]
        assert C.gen_degrees == E.gen_degrees
        assert [[f.terms for f in col] for col in C.relations] == [[f.terms for f in col] for col in E.relations]


def test_generic_pd1_corpus_is_the_5x3_rung():
    # the corpus session writes the 5 x 3 rung's entries as literals
    from conftest import generic_cokernel

    E = parse_session((CORPUS / "generic_pd1.mc").read_text()).modules["E"]
    rung = generic_cokernel(3, 5, 3)
    assert E.gen_degrees == rung.gen_degrees
    assert [[f.terms for f in col] for col in E.relations] == [[f.terms for f in col] for col in rung.relations]


def test_wide_task_vocabulary():
    src = ALL_TASKS.read_text()
    rep = run_session(parse_session(src))
    statuses = [t["status"] for t in rep.payload["tasks"]]
    assert statuses == ["ok"] * len(statuses)
    values = {t["op"]: t["value"] for t in rep.payload["tasks"]}
    assert values["quotient"] == ["x", "y"]
    assert values["fitting"] == ["x", "y"]
    assert values["dim"] == 0
    assert values["hilbert"] == 2
    assert values["graded_component"]["mu"] == 5
    assert values["depth"] == 1


def test_degree_mixing_reduction_task_errors():
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x, y^2);\n"
        "module E = ideal I;\n"
        "task core E --samples 4 --seed 1;\n"
    )
    rep = run_session(parse_session(src))
    task = rep.payload["tasks"][0]
    assert task["status"] == "error"
    assert "DegreeMix" in task["value"]["error"]
    assert rep.exit_code() == 4


def test_seed_mandatory_for_randomized_tasks():
    src = "ring R = GF(32003)[x,y];\nideal I = (x^2, x*y, y^2);\nmodule E = ideal I;\ntask core E --samples 4;\n"
    rep = run_session(parse_session(src))
    assert rep.payload["tasks"][0]["status"] == "error"
    assert "seed" in rep.payload["tasks"][0]["value"]["error"]


def test_caps_and_ring_variables_named_like_rees_variables():
    # the ring's own T1, T2 push the Rees variables to TT1..TT3, and a degree
    # above a cap makes its task inconclusive, not an error
    src = (
        "ring R = GF(32003)[T1,T2];\n"
        "ideal I = (T1^2, T1*T2, T2^2);\n"
        "module E = ideal I;\n"
        "task analytic_spread E;\n"
        "task fiber_ideal E;\n"
        "task graded_component E 7;\n"
        "task hilbert I 11;\n"
    )
    rep = run_session(parse_session(src))
    tasks = rep.payload["tasks"]
    assert [t["status"] for t in tasks] == ["ok", "ok", "inconclusive", "inconclusive"]
    assert tasks[0]["value"] == 2
    assert tasks[1]["value"] == ["TT2^2 - TT1*TT3"]
    assert tasks[2]["value"] == {"cap": "T-degree 7 exceeds the cap 6"}
    assert tasks[3]["value"] == {"cap": "degree 11 exceeds --max-x-degree 10"}
    assert rep.exit_code() == 2


def test_reduction_number_inconclusive_status():
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x^2, x*y, y^2);\n"
        "module E = ideal I;\n"
        "submodule U = span(E; [1, 0, 0]);\n"
        "task reduction_number E --submodule U --max-degree 2;\n"
    )
    rep = run_session(parse_session(src))
    task = rep.payload["tasks"][0]
    assert task["status"] == "inconclusive"
    assert task["value"]["max_degree"] == 2
    assert rep.exit_code() == 2


def test_core_that_does_not_stabilize_is_inconclusive():
    # the sample count is a cap: at 12 draws the Monte Carlo core of m^2
    # + m^2 has not stabilized for seed 1, and with 30 it stops at 13
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal msq = (x^2, x*y, y^2);\n"
        "module E = power_sum(msq, 2);\n"
        "task core E --seed 1;\n"
        "task core E --seed 1 --samples 30;\n"
    )
    rep = run_session(parse_session(src))
    capped, stable = rep.payload["tasks"]
    assert capped["status"] == "inconclusive"
    assert capped["value"] == {"samples": 12, "seed": 1}
    assert stable["status"] == "ok" and stable["value"]["samples_used"] == 13
    assert rep.exit_code() == 2


def test_pd1_core_that_does_not_stabilize_is_inconclusive():
    # m^2 + m^2 meets every hypothesis of the pd-1 formula, but its Monte
    # Carlo core needs 13 draws for seed 1, past the cap of 12: the verdict
    # is partial, with neither equality decided, as verify_balanced's is
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal msq = (x^2, x*y, y^2);\n"
        "module E = power_sum(msq, 2);\n"
        "task verify_pd1_core E --seed 1;\n"
        "task verify_balanced E --reductions 2 --seed 1;\n"
    )
    rep = run_session(parse_session(src))
    pd1, balanced = rep.payload["tasks"]
    assert pd1["status"] == balanced["status"] == "inconclusive"
    v = pd1["value"]
    assert (v["status"], v["pd"], v["torsionfree"], v["gs_ok"]) == ("partial", 1, True, True)
    assert v["r_value"] <= v["r_bound"]
    assert v["fitting_equals_core"] is None and v["colons_equal_fitting"] is None
    assert v["fitting_ideal"] == ["x*y^2", "x^2*y", "x^3", "y^3"]
    assert balanced["value"]["status"] == "partial"
    assert rep.exit_code() == 2


def test_error_isolated_per_task():
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x^2, x*y, y^2);\n"
        "module E = ideal I;\n"
        "task core E --samples 4;\n"   # error: missing seed
        "task height I;\n"
    )
    rep = run_session(parse_session(src))
    assert rep.payload["tasks"][0]["status"] == "error"
    assert rep.payload["tasks"][1]["status"] == "ok"
    assert rep.payload["tasks"][1]["value"] == 2


def _cli_run(tmp_path, src):
    f = tmp_path / "s.mc"
    f.write_text(src)
    return subprocess.run(
        [sys.executable, "-m", "modcore.cli", "run", str(f)], capture_output=True, text=True
    )


def test_task_missing_argument_is_a_parse_error(tmp_path):
    out = _cli_run(tmp_path, "ring R = GF(32003)[x,y];\ntask height;\n")
    assert out.returncode == 4 and "Traceback" not in out.stderr
    assert out.stdout == ""
    assert "task height takes `ideal`, got 0 argument(s) at line 2" in out.stderr


def test_flag_of_wrong_kind_is_a_parse_error(tmp_path):
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x^2, x*y, y^2);\n"
        "module E = ideal I;\n"
        "task core E --samples abc --seed 1;\n"
    )
    out = _cli_run(tmp_path, src)
    assert out.returncode == 4 and "Traceback" not in out.stderr
    assert out.stdout == ""
    assert "task core: --samples must be an integer, got 'abc' at line 4" in out.stderr


_HEADER = (
    "ring R = GF(32003)[x,y];\n"
    "ideal I = (x^2, x*y, y^2);\n"
    "module E = ideal I;\n"
    "submodule U = span(E; [1, 0, 0], [0, 0, 1]);\n"
)


@pytest.mark.parametrize(
    "line,message",
    [
        ("task hilbert I;", r"task hilbert takes `ideal int`, got 1 argument"),  # missing argument
        ("task height I I;", r"task height takes `ideal`, got 2 argument"),  # extra argument
        ("task verify_free_quotient E U U;", r"takes `module \[submodule\]`, got 3"),
        ("task height E;", r"argument 1 must be a declared ideal, got 'E'"),  # wrong kind of name
        ("task is_reduction E;", r"argument 1 must be a declared submodule, got 'E'"),
        ("task fitting E I;", r"argument 2 must be an integer, got 'I'"),
        ("task mu 3;", r"argument 1 must be a declared module, got 3"),
        ("task mu I --bogus 3;", r"task mu has no flag --bogus"),  # unknown flag
        ("task core E --samples abc --seed 1;", r"--samples must be an integer, got 'abc'"),
        ("task core E --samples 4 --seed abc;", r"--seed must be an integer, got 'abc'"),
        ("task reduction_number E --submodule E;", r"--submodule must be a declared submodule"),
        ("task ideal_module_verdicts I --mode bogus;", r"--mode must be one of plus_free, power_sum"),
        ("task core E --seed;", r"flag --seed needs a value"),  # flag with no value
        ("task core E --seed --samples 4;", r"flag --seed needs a value"),
        ("task core E --seed 1 --seed 2;", r"flag --seed given twice"),
        ("task core E --window 3 --seed 1;", r"task core has no flag --window"),  # a fixed window of 3
    ],
)
def test_malformed_task_line_is_a_parse_error_at_its_line(line, message):
    with pytest.raises(ParseError, match=message + r".* at line 5$"):
        parse_session(_HEADER + line + "\n")


@pytest.mark.parametrize(
    "line,message",
    [
        ("task random_reduction E --count 0 --seed 1;", r"random_reduction needs count >= 1, got 0"),
        ("task random_reduction E --count -1 --seed 1;", r"random_reduction needs count >= 1, got -1"),
        ("task check_an E --trials -1 --seed 1;", r"check_an needs trials >= 1, got -1"),
        ("task check_an E --trials 0 --seed 1;", r"check_an needs trials >= 1, got 0"),
        ("task check_an E --s 0 --seed 1;", r"check_an needs s >= rank\(E\) = 1, got s = 0"),
        ("task reduction_number E --max-degree -1 --seed 1;", r"reduction_number needs max_degree >= 0, got -1"),
        ("task core E --samples 2 --seed 1;", r"core_monte_carlo needs samples >= 3, got 2"),
        ("task verify_balanced E --reductions 0 --seed 1;", r"verify_balanced needs reductions >= 1, got 0"),
        # a submodule of F = (x, y) against E = m^2, and U against F
        (
            "ideal J = (x, y); module F = ideal J; submodule V = span(F; [1, 0]);"
            " task reduction_number E --submodule V;",
            r"U is not a submodule of E",
        ),
        (
            "ideal J = (x, y); module F = ideal J; task reduction_number F --submodule U;",
            r"U is not a submodule of E",
        ),
        # homogeneous, but not a field combination of the generators; a
        # vector that is not homogeneous is a ParseError at its span(...)
        (
            "submodule V = span(E; [x, 0, 0]); task reduction_number E --submodule V;",
            r"DegreeMixError: reduction elements must be field combinations of the generators",
        ),
    ],
)
def test_out_of_range_count_is_an_error_entry(line, message):
    # a message names its error class unless that is ModcoreError itself
    rep = run_session(parse_session(_HEADER + line + "\n"))
    (task,) = rep.payload["tasks"]
    assert task["status"] == "error"
    if not re.match(r"\w+Error: ", message):
        message = "ModcoreError: " + message
    assert re.fullmatch(message, task["value"]["error"])
    assert rep.exit_code() == 4


@pytest.mark.parametrize(
    "declaration",
    ["ideal J = (x, {poly});", "submodule V = span(E; [{poly}, 0, 0]);"],
    ids=["ideal", "span_vector"],
)
def test_deeply_nested_parentheses_are_a_parse_error(tmp_path, declaration):
    # the parser recurses once per level; past its fixed limit the nesting
    # is a ParseError at its line, never a RecursionError
    poly = "(" * 400 + "x^2" + ")" * 400
    src = _HEADER + declaration.format(poly=poly) + "\n"
    with pytest.raises(ParseError, match=r"parentheses nested deeper than 100 at col 101 at line 5$"):
        parse_session(src)
    out = _cli_run(tmp_path, src)
    assert out.returncode == 4 and "Traceback" not in out.stderr
    assert "nested deeper than 100" in out.stderr and "line 5" in out.stderr
    shallow = "(" * 100 + "x^2" + ")" * 100
    parse_session(_HEADER + declaration.format(poly=shallow) + "\n")


def test_polynomial_parse_errors_quote_a_short_excerpt():
    # a long polynomial is quoted only around the faulty column; the message
    # still names the column and the line
    deep = "(" * 5000 + "x^2" + ")" * 5000
    long_sum = "x + " * 100 + "* y"
    for poly, tail, col in ((deep, "((((...'", 101), (long_sum, "+ x + * y'", 401)):
        with pytest.raises(ParseError) as exc:
            parse_session(_HEADER + f"ideal J = (x, {poly});\n")
        message = str(exc.value)
        assert len(message) < 200
        assert "in polynomial '..." in message and tail in message
        assert message.endswith(f" at col {col} at line 5")


def test_residual_s_is_the_argument_or_the_flag_not_both():
    tasks = ["task residual_intersection E 2 --seed 3;", "task residual_intersection E --s 2 --seed 3;",
             "task residual_intersection E 1 --s 2 --seed 3;"]
    rep = run_session(parse_session(_HEADER + "\n".join(tasks) + "\n"))
    positional, flag, both = rep.payload["tasks"]
    assert positional["status"] == flag["status"] == "ok"
    assert positional["value"] == flag["value"] and flag["value"]["s"] == 2
    assert both["status"] == "error" and rep.exit_code() == 4
    assert both["value"]["error"] == "ModcoreError: residual_intersection takes s once, got the argument 1 and --s 2"


def test_residual_s_below_the_rank_is_an_error_entry():
    src = "ring R = GF(32003)[x,y];\nmodule F = free 2;\ntask residual_intersection F 1 --seed 1;\n"
    rep = run_session(parse_session(src))
    (task,) = rep.payload["tasks"]
    assert task["status"] == "error" and rep.exit_code() == 4
    assert task["value"]["error"] == "ModcoreError: residual_intersection needs s >= rank(E) = 2, got s = 1"


def test_core_with_no_proper_reduction_is_labeled_exact():
    # ell = mu = 3 for (xy,xz,yz): F(E) is a polynomial ring, so every
    # reduction of E is E and core(E) = E with no draw; m^2 has ell < mu and
    # keeps the Monte Carlo label
    src = "ring R = GF(32003)[x,y,z];\nideal I = (x*y, x*z, y*z);\nideal M = (x^2, x*y, y^2);\n"
    src += "task core I --samples 4 --seed 1;\ntask core M --samples 12 --seed 1;\n"
    exact, sampled = (t["value"] for t in run_session(parse_session(src)).payload["tasks"])
    assert (exact["samples_used"], exact["label"]) == (0, "exact: analytic spread equals mu")
    assert exact["gens"] == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    assert sampled["samples_used"] > 0 and sampled["label"] == "Monte Carlo upper approximation"


def test_balanced_report_names_its_module():
    # the hypothesis report names the module as the task wrote it, a declared
    # module or an ideal taken as one; nothing else in the report changes
    src = "ring R = GF(32003)[x,y];\nideal msq = (x^2, x*y, y^2);\nmodule M = ideal msq;\nmodule E = ideal msq;\n"
    src += "".join(f"task verify_balanced {name} --reductions 2 --seed 42;\n" for name in ("M", "msq", "E"))
    tasks = run_session(parse_session(src)).payload["tasks"]
    assert [t["status"] for t in tasks] == ["ok"] * 3
    assert [t["value"]["hypothesis"]["module"] for t in tasks] == ["M", "msq", "E"]
    for t in tasks:
        t["value"]["hypothesis"]["module"] = "E"
    assert tasks[0]["value"] == tasks[1]["value"] == tasks[2]["value"]


def test_ideal_module_report_counts_minimal_relations():
    # H is presented by its two Hilbert-Burch syzygies, not by the three of
    # its syzygy basis: H + R(-2) has 2 relations and H + H has 4, the first
    # Betti numbers; every verdict is the same either way
    src = "ring R = GF(32003)[x0,x1,x2,x3];\nideal H = (x1*x3 - x2^2, x0*x3 - x1*x2, x0*x2 - x1^2);\n"
    src += "task ideal_module_verdicts H --rank 2;\ntask ideal_module_verdicts H --rank 2 --mode power_sum;\n"
    plus, power = (t["value"] for t in run_session(parse_session(src)).payload["tasks"])
    assert plus["module"] == {"generators": 4, "relations": 2, "degrees": [2] * 4, "mu": 4, "rank": 2}
    assert power["module"] == {"generators": 6, "relations": 4, "degrees": [2] * 6, "mu": 6, "rank": 2}
    verdicts = {"mode": "plus_free", "e": 2, "ell_I": 3, "ell_E": 4, "spread_additive": True, "nonfree_codim": 2,
                "height_I": 2, "nonfree_matches_height": True, "mu_I": 3, "mu_E": 4, "mu_expected": 4,
                "mu_exceeds_spread": False}
    assert plus["verdicts"] == verdicts
    assert power["verdicts"] == {**verdicts, "mode": "power_sum", "mu_E": 6, "mu_expected": 6,
                                 "mu_exceeds_spread": True}


def test_unbalanced_close_paren_is_named_at_its_line():
    src = "ring R = GF(32003)[x,y];\nideal I = (x));\ntask height I;\n"
    with pytest.raises(ParseError, match=r"^unbalanced '\)' at line 2$"):
        parse_session(src)


def test_power_sum_needs_a_positive_power():
    src = "ring R = GF(32003)[x,y];\nideal I = (x^2, x*y, y^2);\nmodule P = power_sum(I, 0);\n"
    with pytest.raises(ParseError, match="power_sum needs a power of at least 1 at line 3"):
        parse_session(src)
    rep = run_session(parse_session(src.replace("0);", "2);") + "task mu P;\n"))
    assert rep.payload["tasks"][0]["value"] == 6


def test_readme_task_table_lists_every_spec():
    """The README's task table names each op once, with exactly its flags."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Tasks", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \|[^|]*\|([^|]*)\|$", section, re.M)
    listed = {op: sorted(re.findall(r"(?:^|;)\s*`--([\w-]+)`", flags.strip())) for op, flags in rows}
    assert len(listed) == len(rows)
    assert listed == {
        op: sorted(key.replace("_", "-") for key in spec.flags) for op, spec in SPECS.items()
    }


def test_exponent_overflow_is_a_parse_error(tmp_path):
    src = "ring R = GF(32003)[x,y];\nideal I = (x^40000);\n"
    with pytest.raises(ParseError, match="exponent too large.* at line 2"):
        parse_session(src)
    out = _cli_run(tmp_path, src)
    assert out.returncode == 4 and "Traceback" not in out.stderr
    assert "exponent too large" in out.stderr and "line 2" in out.stderr


def test_determinism_byte_identical_modulo_timings():
    src = (CORPUS / "msq_core.mc").read_text()
    a = _normalize(emit_report(run_session(parse_session(src))))
    b = _normalize(emit_report(run_session(parse_session(src))))
    assert json.dumps(a) == json.dumps(b)


@pytest.mark.parametrize(
    "name,expected_exit",
    [
        ("square_edge_ideal.mc", 0),
        ("msq_core.mc", 0),
        ("twisted_cubic.mc", 0),
        ("negative_control.mc", 3),
        ("boundary_cubics.mc", 0),
        ("generic_pd1.mc", 0),
    ],
)
def test_corpus_golden(name, expected_exit):
    # bytes, not parsed JSON: the writer's whitespace is part of the format
    src = (CORPUS / name).read_text()
    rep = run_session(parse_session(src))
    assert rep.exit_code() == expected_exit
    got = _zero_timings(emit_report(rep))
    assert got == (GOLDEN / (name.replace(".mc", ".json"))).read_bytes()


def test_all_tasks_golden():
    # bytes, not parsed JSON: key order and value types of every verdict are
    # part of the report format
    rep = run_session(parse_session(ALL_TASKS.read_text()))
    got = _zero_timings(emit_report(rep))
    assert got == (GOLDEN / "all_tasks.json").read_bytes()


def test_inconclusive_entries_bytes():
    # each cap writes its own value: the caps a task took (reduction_number,
    # core) or the cap's message
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal msq = (x^2, x*y, y^2);\n"
        "module E = power_sum(msq, 2);\n"
        "module M = ideal msq;\n"
        "submodule U = span(M; [1, 0, 0]);\n"
        "task reduction_number M --submodule U --max-degree 2;\n"
        "task core E --seed 1;\n"
        "task hilbert msq 11;\n"
    )
    rep = run_session(parse_session(src))
    got = _zero_timings(emit_report(rep))
    values = [
        b'"value": {\n        "max_degree": 2\n      },',
        b'"value": {\n        "samples": 12,\n        "seed": 1\n      },',
        b'"value": {\n        "cap": "degree 11 exceeds --max-x-degree 10"\n      },',
    ]
    for value in values:
        assert b'"status": "inconclusive",\n      ' + value + b'\n      "elapsed_ms": 0' in got
    assert rep.exit_code() == 2


def test_a_session_leaves_no_cyclic_garbage():
    # a session's objects are freed by reference counting when it ends: no
    # memo holds its owner, no closure refers to itself and the report
    # writer makes no json encoder, so the garbage collector has nothing to
    # free (with the collector off, DEBUG_SAVEALL keeps whatever only it
    # would free in gc.garbage)
    src = (CORPUS / "twisted_cubic.mc").read_text()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        emit_report(run_session(parse_session(src)))
        gc.collect()
        kinds = sorted({type(o).__name__ for o in gc.garbage})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert not {"function", "cell", "JSONEncoder"} & set(kinds)
    assert kinds == []


def test_cli_end_to_end_exit_codes(tmp_path):
    out = subprocess.run(
        [sys.executable, "-m", "modcore.cli", "run", str(CORPUS / "square_edge_ideal.mc")],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    payload = json.loads(out.stdout)
    assert payload["tasks"][0]["value"] == 2  # height
    neg = subprocess.run(
        [sys.executable, "-m", "modcore.cli", "run", str(CORPUS / "negative_control.mc")],
        capture_output=True,
        text=True,
    )
    assert neg.returncode == 3


def test_cli_missing_file():
    out = subprocess.run(
        [sys.executable, "-m", "modcore.cli", "run", "no_such_session.mc"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 4


def test_cli_char_override(tmp_path):
    f = tmp_path / "s.mc"
    f.write_text("ring R = GF(32003)[x,y];\nideal I = (x^2 - 101*y^2);\ntask groebner I;\n")
    out = subprocess.run(
        [sys.executable, "-m", "modcore.cli", "run", str(f), "--char", "101"],
        capture_output=True,
        text=True,
    )
    payload = json.loads(out.stdout)
    assert payload["options"]["char"] == 101
    assert payload["tasks"][0]["value"] == ["x^2"]


def test_cli_reports_a_session_file_that_is_not_utf8(tmp_path):
    f = tmp_path / "bad.mc"
    f.write_bytes(b"ring R = GF(7)[x];\n\xff\xfe task\n")
    out = subprocess.run([sys.executable, "-m", "modcore.cli", "run", str(f)], capture_output=True, text=True)
    assert out.returncode == 4 and out.stdout == "" and "Traceback" not in out.stderr
    assert out.stderr.startswith(f"modcore: cannot read {f}: 'utf-8' codec can't decode")


def test_cli_rejects_negative_caps(tmp_path):
    # the parser rejects a negative cap by its flag, as it does a non-prime
    # --char, so no task runs on it
    f = tmp_path / "s.mc"
    f.write_text("ring R = GF(32003)[x,y];\nideal I = (x^2, x*y, y^2);\nmodule E = ideal I;\n"
                 "task hilbert I 0;\ntask reduction_number E --seed 1;\n")
    for flag, cap in (("--max-t-degree", "-1"), ("--max-x-degree", "-5")):
        out = subprocess.run([sys.executable, "-m", "modcore.cli", "run", str(f), flag, cap],
                             capture_output=True, text=True)
        assert out.returncode == 4 and out.stdout == "" and "Traceback" not in out.stderr
        assert f"{flag} must be >= 0, got {cap}" in out.stderr
    with pytest.raises(ModcoreError, match="--max-x-degree must be >= 0, got -1"):
        parse_session("ring R = GF(32003)[x,y];\n", x_cap=-1)
    # a zero cap is a cap: m^2 has reduction number 1, inconclusive below it
    out = subprocess.run([sys.executable, "-m", "modcore.cli", "run", str(f), "--max-t-degree", "0",
                          "--max-x-degree", "0"], capture_output=True, text=True)
    tasks = json.loads(out.stdout)["tasks"]
    assert out.returncode == 2 and [t["status"] for t in tasks] == ["ok", "inconclusive"]
    assert tasks[0]["value"] == 1 and tasks[1]["value"] == {"max_degree": 0}


def test_zero_module_has_projective_dimension_minus_infinity():
    # pd 0 means a nonzero free module; the zero module, of depth infinity,
    # has pd -infinity, also when presented as the cokernel of a unit
    src = "ring R = GF(32003)[x,y];\nmodule E = free 0;\nmodule F = free 1;\n"
    src += "task pdim E;\ntask depth E;\ntask pdim F;\ntask depth F;\n"
    report = run_session(parse_session(src))
    assert [t["value"] for t in report.payload["tasks"]] == ["-infinity", "infinity", 0, 2]
    R = PolyRing(32003, ("x", "y"))
    unit = PresentedModule(R, (0,), [(R.one(),)])
    assert projective_dimension(unit) == -math.inf and depth(unit) == math.inf


def test_text_format_renders():
    src = (CORPUS / "square_edge_ideal.mc").read_text()
    rep = run_session(parse_session(src))
    text = emit_report(rep, "text").decode()
    assert "height Isq" in text and "exit code 0" in text


def test_report_schema_fields():
    src = (CORPUS / "msq_core.mc").read_text()
    payload = json.loads(emit_report(run_session(parse_session(src))))
    assert payload["schema_version"] == 1
    assert payload["tool"] == "modcore"
    assert len(payload["session_hash"]) == 64
    for t in payload["tasks"]:
        assert t["status"] in ("ok", "inconclusive", "failed-hypothesis", "error")
        assert "elapsed_ms" in t
        if t["op"] == "core" and t["status"] == "ok":
            assert t["value"]["seed"] is not None
            assert "samples" in t["value"]


def test_random_reduction_of_a_module_with_ell_equal_to_mu_is_the_module():
    # ell(E) = mu(E) = 4 for (xy,xz,yz) + R(-2): every reduction is E, so
    # the task lists E's generators, with or without --count
    src = (
        "ring R = GF(32003)[x,y,z];\nideal I = (x*y, x*z, y*z);\nmodule MI = ideal I;\n"
        "module F = free 1 twist 2;\nmodule E = sum(MI, F);\n"
        "task random_reduction E --seed 3;\ntask random_reduction E --count 4 --seed 3;\n"
    )
    report = run_session(parse_session(src))
    identity = [[str(int(i == j)) for j in range(4)] for i in range(4)]
    assert [t["value"] for t in report.payload["tasks"]] == [{"seed": 3, "gens": identity}] * 2
