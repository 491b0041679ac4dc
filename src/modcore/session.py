"""Session DSL: declarations of rings/ideals/modules/submodules plus a task
list, executed into a JSON-serializable report.

The DSL is line-oriented; statements end with ';' and '#' starts a comment.
Sessions are written by hand, reports are emitted as versioned JSON (or
plain text); any Monte Carlo value carries its seed and sample count.
"""

from __future__ import annotations

import hashlib
import json
import re
import time
from dataclasses import dataclass, field

from . import __version__
from .errors import CapExceededError, ModcoreError, ParseError
from .groebner import (
    Ideal,
    height,
    hilbert_function,
    intersect,
    krull_dimension,
    quotient_ideal,
)
from .modalg import (
    PresentedModule,
    Submodule,
    depth,
    direct_sum,
    fitting_ideal,
    free_module,
    module_from_ideal,
    mu,
    projective_dimension,
    rank,
    span,
)
from .poly import PolyRing, parse_poly
from .rees import (
    analytic_spread,
    core_monte_carlo,
    fiber_ideal,
    graded_component,
    is_reduction,
    random_reduction,
    reduction_number,
    rees_ideal,
    sym_ideal,
)
from .modalg import whole_module
from .checks import (
    build_ideal_module,
    check_an,
    check_cm_rees,
    check_ext_vanishing,
    check_gs,
    residual_intersection,
    verify_balanced,
    verify_free_quotient,
    verify_pd1_core,
)

SCHEMA_VERSION = 1


@dataclass
class Task:
    op: str
    args: list
    flags: dict
    line: int


@dataclass
class Session:
    source: str
    ring_name: str
    ring: PolyRing
    ideals: dict
    modules: dict
    submodules: dict
    tasks: list
    options: dict
    _coerced: dict = field(default_factory=dict)

    def lookup_ideal(self, name, line=None):
        if name in self.ideals:
            return self.ideals[name]
        raise ParseError(f"undeclared ideal {name!r}", line)

    def lookup_module(self, name, line=None):
        if name in self.modules:
            return self.modules[name]
        if name in self.ideals:
            M = self._coerced.get(name)
            if M is None:
                M = module_from_ideal(self.ideals[name])
                self._coerced[name] = M
            return M
        raise ParseError(f"undeclared module {name!r}", line)

    def lookup_submodule(self, name, line=None):
        if name in self.submodules:
            return self.submodules[name]
        raise ParseError(f"undeclared submodule {name!r}", line)


# -- parsing ------------------------------------------------------------------------

_RING_RE = re.compile(
    r"^ring\s+(?P<name>\w+)\s*=\s*GF\(\s*(?P<char>\d+)\s*\)\s*\[(?P<vars>[^\]]*)\]$"
)
_IDEAL_RE = re.compile(r"^ideal\s+(?P<name>\w+)\s*=\s*\((?P<body>.*)\)$", re.S)
_MODULE_RE = re.compile(r"^module\s+(?P<name>\w+)\s*=\s*(?P<body>.*)$", re.S)
_SUB_RE = re.compile(
    r"^submodule\s+(?P<name>\w+)\s*=\s*span\(\s*(?P<parent>\w+)\s*;(?P<body>.*)\)$", re.S
)
_TASK_RE = re.compile(r"^task\s+(?P<op>\w+)(?P<rest>.*)$", re.S)


def _split_top(s: str, sep: str = ","):
    """Split on `sep` at zero paren/bracket depth."""
    out = []
    depth_p = depth_b = 0
    cur = []
    for ch in s:
        if ch == "(":
            depth_p += 1
        elif ch == ")":
            depth_p -= 1
        elif ch == "[":
            depth_b += 1
        elif ch == "]":
            depth_b -= 1
        if ch == sep and depth_p == 0 and depth_b == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return [p.strip() for p in out]


def _statements(src: str):
    """Yield (line_number, statement) pairs.  '#' comments; ';' terminates a
    statement, but only at zero paren depth (span(...) uses ';' internally)."""
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


def _names_unique(name, session, line):
    if name in session.ideals or name in session.modules or name in session.submodules:
        raise ParseError(f"name {name!r} already declared", line)


RANDOMIZED_OPS = {
    "random_reduction",
    "reduction_number",
    "core",
    "residual_intersection",
    "check_an",
    "verify_balanced",
    "verify_pd1_core",
    "verify_free_quotient",
}


def parse_session(src: str, char_override: int | None = None, t_cap: int = 6, x_cap: int = 10) -> Session:
    session = Session(
        source=src,
        ring_name="",
        ring=None,
        ideals={},
        modules={},
        submodules={},
        tasks=[],
        options={"char": char_override, "max_t_degree": t_cap, "max_x_degree": x_cap},
    )
    for line, stmt in _statements(src):
        head = stmt.split(None, 1)[0]
        if head == "ring":
            m = _RING_RE.match(stmt)
            if not m:
                raise ParseError("malformed ring declaration", line)
            if session.ring is not None:
                raise ParseError("ring already declared", line)
            chars = int(m.group("char")) if char_override is None else char_override
            vars_ = tuple(v.strip() for v in m.group("vars").split(",") if v.strip())
            if not vars_:
                raise ParseError("ring needs at least one variable", line)
            session.ring_name = m.group("name")
            session.ring = PolyRing(chars, vars_)
        elif head == "ideal":
            m = _IDEAL_RE.match(stmt)
            if not m:
                raise ParseError("malformed ideal declaration", line)
            _require_ring(session, line)
            name = m.group("name")
            _names_unique(name, session, line)
            gens = []
            for part in _split_top(m.group("body")):
                if part:
                    gens.append(_parse_poly_at(part, session.ring, line))
            session.ideals[name] = Ideal(session.ring, gens)
        elif head == "module":
            m = _MODULE_RE.match(stmt)
            if not m:
                raise ParseError("malformed module declaration", line)
            _require_ring(session, line)
            name = m.group("name")
            _names_unique(name, session, line)
            session.modules[name] = _module_expr(m.group("body").strip(), session, line)
        elif head == "submodule":
            m = _SUB_RE.match(stmt)
            if not m:
                raise ParseError("malformed submodule declaration", line)
            _require_ring(session, line)
            name = m.group("name")
            _names_unique(name, session, line)
            parent = session.lookup_module(m.group("parent"), line)
            vecs = []
            for part in _split_top(m.group("body")):
                if not part:
                    continue
                if not (part.startswith("[") and part.endswith("]")):
                    raise ParseError("submodule vectors are bracketed poly lists", line)
                coords = [
                    _parse_poly_at(c, session.ring, line) if c.strip() else session.ring.zero()
                    for c in _split_top(part[1:-1])
                ]
                if len(coords) != parent.n:
                    raise ParseError(
                        f"vector has {len(coords)} coordinates, module has {parent.n} generators",
                        line,
                    )
                vecs.append(tuple(coords))
            session.submodules[name] = span(parent, vecs)
        elif head == "task":
            m = _TASK_RE.match(stmt)
            if not m:
                raise ParseError("malformed task", line)
            args, flags = _task_args(m.group("rest"), line)
            session.tasks.append(Task(op=m.group("op"), args=args, flags=flags, line=line))
        else:
            raise ParseError(f"unknown statement {head!r}", line)
    if session.ring is None and (session.ideals or session.modules or session.tasks):
        raise ParseError("no ring declared", 1)
    _resolve_task_names(session)
    return session


def _require_ring(session, line):
    if session.ring is None:
        raise ParseError("declaration before the ring", line)


def _parse_poly_at(src, ring, line):
    try:
        return parse_poly(src, ring)
    except ParseError as exc:
        raise ParseError(f"in polynomial {src!r}: {exc}", line) from None


def _module_expr(body, session, line):
    if body.startswith("ideal "):
        iname = body[len("ideal "):].strip()
        return module_from_ideal(session.lookup_ideal(iname, line))
    m = re.match(r"^free\s+(\d+)\s+twist\s+(-?\d+)$", body)
    if m:
        return free_module(session.ring, int(m.group(1)), int(m.group(2)))
    m = re.match(r"^free\s+(\d+)$", body)
    if m:
        return free_module(session.ring, int(m.group(1)), 0)
    m = re.match(r"^sum\((.*)\)$", body, re.S)
    if m:
        parts = _split_top(m.group(1))
        if len(parts) != 2:
            raise ParseError("sum takes two module names", line)
        return direct_sum(
            session.lookup_module(parts[0], line), session.lookup_module(parts[1], line)
        )
    m = re.match(r"^power_sum\(\s*(\w+)\s*,\s*(\d+)\s*\)$", body)
    if m:
        EI = module_from_ideal(session.lookup_ideal(m.group(1), line))
        E = EI
        for _ in range(int(m.group(2)) - 1):
            E = direct_sum(E, EI)
        return E
    raise ParseError(f"unknown module expression {body!r}", line)


def _task_args(rest, line):
    toks = rest.split()
    args = []
    flags = {}
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.startswith("--"):
            key = t[2:].replace("-", "_")
            if i + 1 >= len(toks):
                raise ParseError(f"flag {t} needs a value", line)
            val = toks[i + 1]
            try:
                flags[key] = int(val)
            except ValueError:
                flags[key] = val
            i += 2
        else:
            try:
                args.append(int(t))
            except ValueError:
                args.append(t)
            i += 1
    return args, flags


def _resolve_task_names(session):
    """Fail fast on tasks referencing undeclared objects."""
    for task in session.tasks:
        spec = TASKS.get(task.op)
        if spec is None:
            raise ParseError(f"unknown task op {task.op!r}", task.line)
        for a in task.args:
            if isinstance(a, str) and not (
                a in session.ideals or a in session.modules or a in session.submodules
            ):
                raise ParseError(f"undeclared name {a!r} in task {task.op}", task.line)
        sub = task.flags.get("submodule")
        if isinstance(sub, str) and sub not in session.submodules:
            raise ParseError(f"undeclared submodule {sub!r} in task {task.op}", task.line)


# -- task execution -------------------------------------------------------------------


def _ideal_value(I: Ideal):
    return sorted(str(g) for g in I.groebner_basis())


def _submodule_value(U: Submodule):
    return [[str(c) for c in v] for v in U.reduced_gens()]


def _module_value(E: PresentedModule):
    return {
        "generators": E.n,
        "relations": len(E.relations),
        "degrees": list(E.gen_degrees),
        "mu": mu(E),
        "rank": rank(E),
    }


def _run_groebner(s, t):
    return _ideal_value(s.lookup_ideal(t.args[0]))


def _run_height(s, t):
    return height(s.lookup_ideal(t.args[0]))


def _run_dim(s, t):
    return krull_dimension(s.lookup_ideal(t.args[0]))


def _run_hilbert(s, t):
    deg = int(t.args[1])
    if deg > s.options["max_x_degree"]:
        raise CapExceededError(f"degree {deg} exceeds --max-x-degree {s.options['max_x_degree']}")
    return hilbert_function(s.lookup_ideal(t.args[0]), deg)


def _run_mu(s, t):
    return mu(s.lookup_module(t.args[0]))


def _run_quotient(s, t):
    return _ideal_value(quotient_ideal(s.lookup_ideal(t.args[0]), s.lookup_ideal(t.args[1])))


def _run_intersect(s, t):
    return _ideal_value(intersect(s.lookup_ideal(t.args[0]), s.lookup_ideal(t.args[1])))


def _run_rank(s, t):
    return rank(s.lookup_module(t.args[0]))


def _run_pdim(s, t):
    return projective_dimension(s.lookup_module(t.args[0]))


def _run_depth(s, t):
    d = depth(s.lookup_module(t.args[0]))
    return "infinity" if d == float("inf") else d


def _run_fitting(s, t):
    return _ideal_value(fitting_ideal(s.lookup_module(t.args[0]), int(t.args[1])))


def _run_spread(s, t):
    return analytic_spread(s.lookup_module(t.args[0]))


def _run_sym(s, t):
    return _ideal_value(sym_ideal(s.lookup_module(t.args[0])))


def _run_rees(s, t):
    return _ideal_value(rees_ideal(s.lookup_module(t.args[0])))


def _run_fiber(s, t):
    return _ideal_value(fiber_ideal(s.lookup_module(t.args[0])))


def _run_component(s, t):
    E = s.lookup_module(t.args[0])
    j = int(t.args[1])
    Ej = graded_component(E, j, s.options["max_t_degree"])
    return _module_value(Ej)


def _run_is_reduction(s, t):
    U = s.lookup_submodule(t.args[0])
    return is_reduction(U, U.parent)


def _run_random_reduction(s, t):
    E = s.lookup_module(t.args[0])
    U = random_reduction(E, count=t.flags.get("count"), rng=t.flags["seed"])
    return {"seed": t.flags["seed"], "gens": _submodule_value(U)}


def _run_reduction_number(s, t):
    E = s.lookup_module(t.args[0])
    sub = t.flags.get("submodule")
    if sub is not None:
        U = s.lookup_submodule(sub)
    else:
        U = random_reduction(E, rng=t.flags["seed"])
    maxdeg = t.flags.get("max_degree", s.options["max_t_degree"])
    r = reduction_number(U, E, maxdeg)
    if not r.exact:
        raise CapExceededError(json.dumps({"max_degree": maxdeg}))
    return {"r": r.value, "seed": t.flags.get("seed"), "max_degree": maxdeg}


def _run_core(s, t):
    E = s.lookup_module(t.args[0])
    samples = t.flags.get("samples", 12)
    window = t.flags.get("window", 3)
    C, used = core_monte_carlo(E, samples=samples, stabilization_window=window, rng=t.flags["seed"])
    return {
        "seed": t.flags["seed"],
        "samples": samples,
        "samples_used": used,
        "label": "Monte Carlo upper approximation",
        "gens": _submodule_value(C),
    }


def _run_check_gs(s, t):
    return check_gs(s.lookup_module(t.args[0]), int(t.args[1])).to_dict()


def _run_residual(s, t):
    E = s.lookup_module(t.args[0])
    sub = t.flags.get("submodule")
    W = s.lookup_submodule(sub) if sub is not None else whole_module(E)
    cert = residual_intersection(E, W, int(t.flags.get("s", t.args[1] if len(t.args) > 1 else 1)), t.flags["seed"])
    out = cert.to_dict()
    out["seed"] = t.flags["seed"]
    return out


def _run_check_an(s, t):
    E = s.lookup_module(t.args[0])
    rows = check_an(E, s=t.flags.get("s"), trials=t.flags.get("trials", 10), rng=t.flags["seed"])
    return {"seed": t.flags["seed"], "rows": [r.to_dict() for r in rows]}


def _run_ext(s, t):
    return check_ext_vanishing(s.lookup_module(t.args[0]), s.options["max_t_degree"]).to_dict()


def _run_cm_rees(s, t):
    return check_cm_rees(s.lookup_module(t.args[0])).to_dict()


def _run_free_quotient(s, t):
    E = s.lookup_module(t.args[0])
    if len(t.args) > 1:
        U = s.lookup_submodule(t.args[1])
    else:
        U = random_reduction(E, rng=t.flags["seed"])
    return verify_free_quotient(E, U).to_dict()


def _run_balanced(s, t):
    E = s.lookup_module(t.args[0])
    rep = verify_balanced(E, reductions=t.flags.get("reductions", 6), rng=t.flags["seed"])
    return rep


def _run_pd1(s, t):
    return verify_pd1_core(s.lookup_module(t.args[0]), rng=t.flags["seed"])


def _run_ideal_module(s, t):
    I = s.lookup_ideal(t.args[0])
    E, verdicts = build_ideal_module(I, int(t.flags.get("rank", 2)), t.flags.get("mode", "plus_free"))
    return {"module": _module_value(E), "verdicts": verdicts.to_dict()}


TASKS = {
    "groebner": _run_groebner,
    "height": _run_height,
    "dim": _run_dim,
    "hilbert": _run_hilbert,
    "mu": _run_mu,
    "quotient": _run_quotient,
    "intersect": _run_intersect,
    "rank": _run_rank,
    "pdim": _run_pdim,
    "depth": _run_depth,
    "fitting": _run_fitting,
    "analytic_spread": _run_spread,
    "sym_ideal": _run_sym,
    "rees_ideal": _run_rees,
    "fiber_ideal": _run_fiber,
    "graded_component": _run_component,
    "is_reduction": _run_is_reduction,
    "random_reduction": _run_random_reduction,
    "reduction_number": _run_reduction_number,
    "core": _run_core,
    "check_gs": _run_check_gs,
    "residual_intersection": _run_residual,
    "check_an": _run_check_an,
    "check_ext_vanishing": _run_ext,
    "check_cm_rees": _run_cm_rees,
    "verify_free_quotient": _run_free_quotient,
    "verify_balanced": _run_balanced,
    "verify_pd1_core": _run_pd1,
    "ideal_module_verdicts": _run_ideal_module,
}


@dataclass
class Report:
    payload: dict

    def exit_code(self) -> int:
        return self.payload["exit_code"]


def run_session(session: Session) -> Report:
    tasks_out = []
    statuses = []
    for idx, task in enumerate(session.tasks):
        entry = {
            "index": idx,
            "op": task.op,
            "args": list(task.args),
            "flags": dict(task.flags),
        }
        t0 = time.perf_counter()
        try:
            needs_seed = task.op in RANDOMIZED_OPS and "seed" not in task.flags
            if needs_seed and task.op == "reduction_number" and "submodule" in task.flags:
                needs_seed = False
            if needs_seed and task.op == "verify_free_quotient" and len(task.args) > 1:
                needs_seed = False
            if needs_seed:
                raise ModcoreError(f"task {task.op} is randomized; --seed is mandatory")
            handler = TASKS[task.op]
            value = handler(session, task)
            status = "ok"
            if hasattr(value, "status"):  # balanced / pd1 verdict objects
                status = {
                    "failed-hypothesis": "failed-hypothesis",
                    "hypotheses-unmet": "failed-hypothesis",
                    "partial": "inconclusive",
                }.get(value.status, "ok")
                value = value.to_dict()
            entry["status"] = status
            entry["value"] = value
        except CapExceededError as exc:
            entry["status"] = "inconclusive"
            try:
                entry["value"] = json.loads(str(exc))
            except (json.JSONDecodeError, ValueError):
                entry["value"] = {"cap": str(exc)}
        except Exception as exc:
            # the task boundary: a malformed task (a missing argument, a flag
            # of the wrong kind) fails inside its handler, and that failure
            # becomes this task's error entry while the session goes on
            entry["status"] = "error"
            entry["value"] = {"error": f"{type(exc).__name__}: {exc}"}
        entry["elapsed_ms"] = int((time.perf_counter() - t0) * 1000)
        statuses.append(entry["status"])
        tasks_out.append(entry)
    if "error" in statuses:
        code = 4
    elif "failed-hypothesis" in statuses:
        code = 3
    elif "inconclusive" in statuses:
        code = 2
    else:
        code = 0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "tool": "modcore",
        "tool_version": __version__,
        "session_hash": hashlib.sha256(session.source.encode()).hexdigest(),
        "options": dict(session.options),
        "tasks": tasks_out,
        "exit_code": code,
    }
    return Report(payload)


def emit_report(report: Report, format: str = "json") -> bytes:
    if format == "json":
        return (json.dumps(report.payload, indent=2) + "\n").encode()
    if format == "text":
        lines = [
            f"modcore {report.payload['tool_version']} report "
            f"(schema {report.payload['schema_version']}, session {report.payload['session_hash'][:12]})"
        ]
        for t in report.payload["tasks"]:
            args = " ".join(str(a) for a in t["args"])
            flags = " ".join(f"--{k} {v}" for k, v in t["flags"].items())
            headline = " ".join(x for x in (t["op"], args, flags) if x)
            lines.append(f"[{t['status']:>17}] {headline}")
            lines.append(f"{'':>19}  {json.dumps(t['value'])}")
        lines.append(f"exit code {report.payload['exit_code']}")
        return ("\n".join(lines) + "\n").encode()
    raise ModcoreError(f"unknown report format {format!r}")
