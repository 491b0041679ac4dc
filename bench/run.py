"""modcore benchmark: end-to-end and per-layer numbers for one workload.

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

One process, one caller, closed loop: each task starts when the previous one
returns, as in `modcore run`.  A pass runs every session of the workload
through parse_session -> run_session -> emit_report and checks each report.
Every pass repeats the same inputs, until --seconds have gone by and at
least 3 passes are made.  A session with `runs` > 1 runs that many times
back to back in each untraced pass, to give its tasks more tries.

Times are at reference machine speed (see speed.py): a shared machine's
speed swings too much within a run for raw times to compare.  setup_s is the
median set-up, wall_s adds up each session's median run over the run's
passes, and the task latency quantiles are taken over each task's median
run.  The detail line keeps the raw times.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced pass,
then wraps the program's layers (see tracer.py) and prints the per-layer
metrics of the median traced pass; the spans go to bench/out/.  The last
line of output is the result object; the line before it holds the
environment and per-pass detail.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPS = 3  # per pass, so the set-up samples spread over the run
CALIB_SPINS = 100
MIN_PASSES = 3
MAX_MEASURE_S = 140  # start no pass past this, so a run ends within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("task_ms_p50", "ms"),
    ("task_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)

# Runs in a fresh interpreter: import modcore and parse one pass's sessions,
# under the speed probe; prints the raw and the reference-speed time.
SETUP_CHILD = """
import json, sys
sources = json.loads(sys.stdin.read())
sys.path.insert(0, sys.argv[2])
from speed import SpeedProbe
probe = SpeedProbe()
probe.start()
a = probe.now()
sys.path.insert(0, sys.argv[1])
from modcore.session import parse_session
for src in sources:
    parse_session(src)
b = probe.now()
probe.stop()
print(json.dumps([b - a, probe.ref_s(a, b)]))
"""


def setup_once(sources) -> list:
    """[raw seconds, reference-speed seconds] of one set-up."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CHILD, str(SRC), str(BENCH)],
        input=json.dumps(sources),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def calibrate() -> float:
    """Median spin time in ms: the machine's speed now."""
    return statistics.median(speed.spin() for _ in range(CALIB_SPINS)) * 1000.0


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


class TaskClock:
    """Per-task latency: the program-clock interval of each handler call in
    modcore.session.TASKS."""

    def __init__(self, session_mod, now):
        self.spans = []
        for op, fn in list(session_mod.TASKS.items()):
            session_mod.TASKS[op] = self._timed(fn, now)

    def _timed(self, fn, now):
        spans = self.spans

        def timed(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                spans.append((t0, now()))

        return timed


def run_pass(specs, msession, clock, now, repeat=True) -> dict:
    """One closed-loop pass over the workload, every report checked.  With
    `repeat`, each session runs `spec.runs` times back to back."""
    items = 0
    messages = []
    session_runs = []  # per spec: [((start, end), [task (start, end), ...]), ...]
    t0, c0 = now(), time.process_time()
    for spec in specs:
        runs = []
        for _ in range(spec.runs if repeat else 1):
            items += spec.items
            first = len(clock.spans)
            ts = now()
            try:
                rep = msession.run_session(msession.parse_session(spec.source))
                payload = json.loads(msession.emit_report(rep))
                fails = spec.check(payload, rep.exit_code())
            except Exception as exc:  # a session that raises fails all its items
                fails = [f"{spec.name}: {type(exc).__name__}: {exc}"] * spec.items
            runs.append(((ts, now()), clock.spans[first:]))
            messages += fails
        session_runs.append(runs)
    return {
        "wall_s": now() - t0,
        "cpu_s": time.process_time() - c0,
        "items": items,
        "failed": len(messages),
        "messages": messages[:5],
        "session_runs": session_runs,
    }


def percentile(sorted_xs, q: float) -> float:
    """Nearest-rank percentile."""
    k = math.ceil(len(sorted_xs) * q - 1e-9) - 1
    return sorted_xs[max(0, k)]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    needed = [SRC / "modcore" / "session.py", ROOT / "corpus", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"bench: not a modcore checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    from modcore import session as msession

    specs = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    sources = [s.source for s in specs]
    calib_before = calibrate()
    setup_s = []  # [raw, reference-speed] per set-up
    probe = speed.SpeedProbe()
    clock = TaskClock(msession, probe.now)

    tracer = None
    untraced = None
    if args.trace:
        import tracer as tracing

        untraced = run_pass(specs, msession, clock, probe.now, repeat=False)
        tracer = tracing.Tracer()
        tracer.install()
    passes = []
    t_start = time.perf_counter()
    while True:
        if tracer:
            tracer.reset()
            p = run_pass(specs, msession, clock, probe.now, repeat=False)
            p["trace"] = tracing.PassTrace(tracer, p["wall_s"])
        else:
            setup_s += [setup_once(sources) for _ in range(SETUP_REPS)]
            probe.start()
            try:
                p = run_pass(specs, msession, clock, probe.now)
            finally:
                probe.stop()
        passes.append(p)
        elapsed = time.perf_counter() - t_start
        if elapsed >= args.seconds and (tracer or len(passes) >= MIN_PASSES):
            break
        if elapsed + p["wall_s"] > MAX_MEASURE_S:
            break
    if tracer:
        tracer.uninstall()
    calib_after = calibrate()

    checked = passes + ([untraced] if untraced else [])
    attempted = sum(p["items"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "cpu": cpu_model(),
            "nproc": len(os.sched_getaffinity(0)),
            "spin_ms_before": calib_before,
            "spin_ms_after": calib_after,
            "spin_ms_ref": speed.REF_SPIN_S * 1000.0,
        },
        "load": "closed loop, one process, one caller",
        "passes": [{k: p[k] for k in ("wall_s", "cpu_s", "items", "failed")} for p in passes],
        "failures": [m for p in checked for m in p["messages"]][:10],
    }
    if tracer:
        traces = [p["trace"] for p in passes]
        median_pass = sorted(traces, key=lambda t: t.wall_s)[(len(traces) - 1) // 2]
        metrics = tracing.layer_metrics(median_pass, untraced["wall_s"])
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}.tsv"
        with open(spans_path, "w", encoding="utf-8") as fh:
            fh.write("pass\tid\tparent\tname\tstart_s\tend_s\n")
            for k, t in enumerate(traces):
                t.write_spans(fh, k)
        detail["trace_detail"] = {
            "untraced_pass_s": untraced["wall_s"],
            "counts_repeat": all(t.calls == traces[0].calls for t in traces),
            "spans_file": str(spans_path.relative_to(ROOT)),
            "spans": sum(len(t.spans[0]) for t in traces),
            "unmatched_metrics": tracing.unmatched(tracer.names),
            "calls": {k: v for k, v in traces[0].calls.items() if v},
        }
    else:
        # every run of session i, over all passes, at reference speed
        runs = [[r for p in passes for r in p["session_runs"][i]] for i in range(len(specs))]
        session_s = [statistics.median(probe.ref_s(*span) for span, _ in rs) for rs in runs]
        task_ms = sorted(
            statistics.median(probe.ref_s(*span) for span in spans) * 1000.0
            for rs in runs
            for spans in zip(*(task_spans for _, task_spans in rs))
        )
        detail["tasks"] = len(task_ms)
        detail["setup_samples_s"] = setup_s
        detail["raw_wall_s"] = sum(statistics.median(b - a for (a, b), _ in rs) for rs in runs)
        values = {
            "setup_s": statistics.median(ref for _, ref in setup_s),
            "wall_s": sum(session_s),
            "task_ms_p50": statistics.median(task_ms),
            "task_ms_p90": percentile(task_ms, 0.9),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_frac": (attempted - failed) / attempted,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
