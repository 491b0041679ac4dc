"""The benchmark's three workloads, each a list of sessions with a checker.

A workload builds the `SessionSpec`s of one pass.  A pass runs every spec
in order through `parse_session` -> `run_session` -> `emit_report` and hands
the report to the spec's checker.  An item is one top-level task; the
checker returns one message per failed item.  The randomized workloads draw
every task seed from the workload seed, so one seed gives one input.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

P = 32003

# The criterion-6 ideals: m^2 in k[x,y], (xy,xz,yz) in k[x,y,z], and the
# twisted cubic H.  Each is minimally generated by its three quadrics, so
# mu = 3 and the ideal module has rank e = 1.
IDEALS = {
    "msq": ("x,y", "x^2, x*y, y^2"),
    "tri": ("x,y,z", "x*y, x*z, y*z"),
    "H": ("x0,x1,x2,x3", "x1*x3 - x2^2, x0*x3 - x1*x2, x0*x2 - x1^2"),
}
IDEAL_MU = 3
IDEAL_RANK = 1

# corpus session -> (exit code the golden report pins, runs per pass).  The
# four cheap sessions (about 0.5 s together; their 25 tasks hold the p50 and
# the p90) run twelve times a pass, so that their tasks' median runs settle,
# while the 10 s boundary_cubics session runs once.
CORPUS = {
    "boundary_cubics": (0, 1),
    "msq_core": (0, 12),
    "negative_control": (3, 12),
    "square_edge_ideal": (0, 12),
    "twisted_cubic": (0, 12),
}

RESIDUAL_SEEDS_PER_S = 20
MODULE_CORE_SEEDS = 17  # 102 items, so at least ten lie beyond the p90


@dataclass
class SessionSpec:
    name: str
    source: str
    items: int
    check: Callable[[dict, int], list]  # (report payload, exit code) -> failure messages
    runs: int = 1  # runs per untraced pass


def _strip_elapsed(payload: dict) -> dict:
    out = dict(payload)
    out["tasks"] = [{k: v for k, v in t.items() if k != "elapsed_ms"} for t in payload["tasks"]]
    return out


def corpus(seed: int, root: Path) -> list:
    """The committed corpus sessions; each report must equal its golden file.
    The seed does not change them."""
    specs = []
    for name, (want_exit, runs) in CORPUS.items():
        source = (root / "corpus" / f"{name}.mc").read_text()
        golden = _strip_elapsed(json.loads((root / "tests" / "golden" / f"{name}.json").read_text()))

        def check(payload, exit_code, name=name, golden=golden, want_exit=want_exit):
            got = _strip_elapsed(payload)
            if exit_code != want_exit:
                return [f"{name}: exit code {exit_code}, golden {want_exit}"] * len(golden["tasks"])
            head = {k: v for k, v in got.items() if k != "tasks"}
            if head != {k: v for k, v in golden.items() if k != "tasks"}:
                return [f"{name}: report header differs from golden"] * len(golden["tasks"])
            fails = []
            for i, want in enumerate(golden["tasks"]):
                if i >= len(got["tasks"]) or got["tasks"][i] != want:
                    fails.append(f"{name}: task {i} ({want['op']}) differs from golden")
            return fails

        specs.append(SessionSpec(name, source, len(golden["tasks"]), check, runs))
    return specs


def _ideal_header(vars_: str, gens: str) -> str:
    return f"ring R = GF({P})[{vars_}];\nideal I = ({gens});\n"


def residual_an(seed: int, root: Path) -> list:
    """s-residual intersections of the three ideal modules for every s from
    e to min(mu, d+e-1): each proper K must be CM with height s-e+1.  One
    session per ideal and s, so its tasks share the module's caches."""
    rng = random.Random(f"residual_an:{seed}")
    specs = []
    for name, (vars_, gens) in IDEALS.items():
        d = len(vars_.split(","))
        e = IDEAL_RANK
        for s in range(e, min(IDEAL_MU, d + e - 1) + 1):
            lines = [_ideal_header(vars_, gens), "module E = ideal I;\n"]
            for _ in range(RESIDUAL_SEEDS_PER_S):
                lines.append(f"task residual_intersection E {s} --seed {rng.randrange(1, 2**31)};\n")
            label = f"residual_an/{name}/s={s}"

            def check(payload, exit_code, label=label, s=s, e=e):
                tasks = payload["tasks"]
                if len(tasks) != RESIDUAL_SEEDS_PER_S:
                    return [f"{label}: {len(tasks)} task entries"] * RESIDUAL_SEEDS_PER_S
                fails = []
                for t in tasks:
                    v = t["value"]
                    if t["status"] != "ok":
                        fails.append(f"{label} task {t['index']}: status {t['status']}: {v}")
                    elif v["s"] != s:
                        fails.append(f"{label} task {t['index']}: s = {v['s']}")
                    elif v["proper"] and not (v["cm"] is True and v["height_K"] == s - e + 1):
                        fails.append(f"{label} task {t['index']}: cm = {v['cm']}, height_K = {v['height_K']}")
                return fails

            specs.append(SessionSpec(label, "".join(lines), RESIDUAL_SEEDS_PER_S, check))
    return specs


_MODULE_CORE_TRUE = {
    "verify_balanced": ("independent", "products_equal", "equals_core"),
    "verify_pd1_core": ("fitting_equals_core", "colons_equal_fitting"),
}


def module_core(seed: int, root: Path) -> list:
    """verify_balanced and verify_pd1_core on each ideal plus R(-2), one fresh
    session per task so every item starts with cold caches."""
    rng = random.Random(f"module_core:{seed}")
    specs = []
    for _ in range(MODULE_CORE_SEEDS):
        for name, (vars_, gens) in IDEALS.items():
            for op, flags in (("verify_balanced", "--reductions 6 "), ("verify_pd1_core", "")):
                source = (
                    _ideal_header(vars_, gens)
                    + "module MI = ideal I;\nmodule F = free 1 twist 2;\nmodule E = sum(MI, F);\n"
                    + f"task {op} E {flags}--seed {rng.randrange(1, 2**31)};\n"
                )
                label = f"module_core/{name}/{op}"

                def check(payload, exit_code, label=label, op=op):
                    (t,) = payload["tasks"]
                    v = t["value"]
                    if t["status"] != "ok" or not isinstance(v, dict) or v.get("status") != "ok":
                        return [f"{label}: status {t['status']}: {v}"]
                    false = [k for k in _MODULE_CORE_TRUE[op] if v.get(k) is not True]
                    return [f"{label}: {', '.join(false)} not true"] if false else []

                specs.append(SessionSpec(label, source, 1, check))
    return specs


WORKLOADS = {"corpus": corpus, "residual_an": residual_an, "module_core": module_core}
