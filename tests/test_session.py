"""Session DSL parsing, task running, report schema, CLI exit codes."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from modcore.errors import ParseError
from modcore.session import SPECS, emit_report, parse_session, run_session

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
GOLDEN = Path(__file__).resolve().parent / "golden"


def _normalize(payload_bytes):
    payload = json.loads(payload_bytes)
    for t in payload["tasks"]:
        t["elapsed_ms"] = 0
    return payload


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


def test_wide_task_vocabulary():
    src = (
        "ring R = GF(32003)[x,y];\n"
        "ideal I = (x^2, x*y, y^2);\n"
        "ideal J = (x^2, y^2);\n"
        "module E = ideal I;\n"
        "task groebner I;\n"
        "task dim I;\n"
        "task hilbert I 1;\n"
        "task quotient J I;\n"
        "task intersect I J;\n"
        "task rank E;\n"
        "task pdim E;\n"
        "task depth E;\n"
        "task fitting E 2;\n"
        "task sym_ideal E;\n"
        "task fiber_ideal E;\n"
        "task graded_component E 2;\n"
        "task check_gs E 2;\n"
        "task check_ext_vanishing E;\n"
        "task check_cm_rees E;\n"
        "task random_reduction E --seed 3;\n"
        "task residual_intersection E --s 2 --seed 3;\n"
        "task check_an E --trials 2 --seed 3;\n"
        "task verify_free_quotient E --seed 3;\n"
        "task verify_pd1_core E --seed 3;\n"
    )
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
    ],
)
def test_malformed_task_line_is_a_parse_error_at_its_line(line, message):
    with pytest.raises(ParseError, match=message + r".* at line 5$"):
        parse_session(_HEADER + line + "\n")


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
    ],
)
def test_corpus_golden(name, expected_exit):
    src = (CORPUS / name).read_text()
    rep = run_session(parse_session(src))
    assert rep.exit_code() == expected_exit
    got = _normalize(emit_report(rep))
    golden_path = GOLDEN / (name.replace(".mc", ".json"))
    golden = json.loads(golden_path.read_text())
    assert got == golden


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
