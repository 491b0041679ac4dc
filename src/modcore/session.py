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
from typing import Callable

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

    def declares(self, kind, name) -> bool:
        """Whether `name` can stand for a `kind`: "ideal", "submodule", or
        "module", which an ideal name also is."""
        return name in self._table(kind) or (kind == "module" and name in self.ideals)

    def lookup(self, kind, name, line=None):
        """The object `name` stands for as a `kind`; an ideal looked up as a
        module becomes its module, once per session."""
        table = self._table(kind)
        if name in table:
            return table[name]
        if not self.declares(kind, name):
            raise ParseError(f"undeclared {kind} {name!r}", line)
        if name not in self._coerced:
            self._coerced[name] = module_from_ideal(self.ideals[name])
        return self._coerced[name]

    def _table(self, kind):
        return {"ideal": self.ideals, "module": self.modules, "submodule": self.submodules}[kind]


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


def _names_unique(name, session, line):
    if name in session.ideals or name in session.modules or name in session.submodules:
        raise ParseError(f"name {name!r} already declared", line)


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
            parent = session.lookup("module", m.group("parent"), line)
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
    for task in session.tasks:
        _check_task(session, task)
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
        return module_from_ideal(session.lookup("ideal", iname, line))
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
            session.lookup("module", parts[0], line), session.lookup("module", parts[1], line)
        )
    m = re.match(r"^power_sum\(\s*(\w+)\s*,\s*(\d+)\s*\)$", body)
    if m:
        EI = module_from_ideal(session.lookup("ideal", m.group(1), line))
        power = int(m.group(2))
        if power < 1:
            raise ParseError("power_sum needs a power of at least 1", line)
        E = EI
        for _ in range(power - 1):
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
            if i + 1 >= len(toks) or toks[i + 1].startswith("--"):
                raise ParseError(f"flag {t} needs a value", line)
            if key in flags:
                raise ParseError(f"flag {t} given twice", line)
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


def _check_task(session, task):
    """Hold a task line to its op's spec: the number of arguments, the kind
    of each argument and flag, and no flag the op does not take."""
    spec = SPECS.get(task.op)
    if spec is None:
        raise ParseError(f"unknown task op {task.op!r}", task.line)
    kinds = spec.args + spec.optional
    if not len(spec.args) <= len(task.args) <= len(kinds):
        usage = " ".join(list(spec.args) + [f"[{k}]" for k in spec.optional])
        raise ParseError(f"task {task.op} takes `{usage}`, got {len(task.args)} argument(s)", task.line)
    given = [(f"argument {i}", kind, a) for i, (kind, a) in enumerate(zip(kinds, task.args), 1)]
    for key, value in task.flags.items():
        if key not in spec.flags:
            raise ParseError(f"task {task.op} has no flag --{key.replace('_', '-')}", task.line)
        given.append((f"--{key.replace('_', '-')}", spec.flags[key], value))
    for what, kind, value in given:
        if kind == "int":
            ok, want = isinstance(value, int), "an integer"
        elif isinstance(kind, tuple):
            ok, want = value in kind, "one of " + ", ".join(kind)
        else:
            ok, want = isinstance(value, str) and session.declares(kind, value), f"a declared {kind}"
        if not ok:
            raise ParseError(f"task {task.op}: {what} must be {want}, got {value!r}", task.line)


# -- task execution -------------------------------------------------------------------


@dataclass(frozen=True)
class Spec:
    """What a task takes, and the handler that runs it.

    `args` and `optional` are the kinds of the required and the optional
    positional arguments; `flags` maps each flag, as a keyword, to its kind.
    A kind is "ideal", "module" (an ideal name is taken too), "submodule",
    "int", or a tuple of the words allowed.  The parser holds every task line
    to its spec; calling the spec with (session, task) looks up the names
    and runs `run(session, *args, **flags)`.  A flag not given takes the
    handler's keyword default."""

    run: Callable
    args: tuple
    optional: tuple = ()
    flags: dict = field(default_factory=dict)

    def __call__(self, session, task):
        kinds = self.args + self.optional
        args = [_value(session, kind, a) for kind, a in zip(kinds, task.args)]
        flags = {key: _value(session, self.flags[key], v) for key, v in task.flags.items()}
        try:
            return self.run(session, *args, **flags)
        except _Unseeded:
            raise ModcoreError(f"task {task.op} is randomized; --seed is mandatory") from None


def _value(session, kind, token):
    return session.lookup(kind, token) if kind in ("ideal", "module", "submodule") else token


class _Unseeded(Exception):
    """A task drew at random without --seed; its spec names the op."""


def _seed(seed):
    """The seed of a random draw.  --seed is mandatory exactly where a task
    draws, so every Monte Carlo value in a report carries its seed."""
    if seed is None:
        raise _Unseeded
    return seed


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


def _run_hilbert(session, I, deg):
    cap = session.options["max_x_degree"]
    if deg > cap:
        raise CapExceededError(f"degree {deg} exceeds --max-x-degree {cap}")
    return hilbert_function(I, deg)


def _run_depth(_, E):
    d = depth(E)
    return "infinity" if d == float("inf") else d


def _run_random_reduction(_, E, *, count=None, seed=None):
    U = random_reduction(E, count=count, rng=_seed(seed))
    return {"seed": seed, "gens": _submodule_value(U)}


def _run_reduction_number(session, E, *, submodule=None, max_degree=None, seed=None):
    U = submodule if submodule is not None else random_reduction(E, rng=_seed(seed))
    if max_degree is None:
        max_degree = session.options["max_t_degree"]
    r = reduction_number(U, E, max_degree)
    if not r.exact:
        raise CapExceededError(json.dumps({"max_degree": max_degree}))
    return {"r": r.value, "seed": seed, "max_degree": max_degree}


def _run_core(_, E, *, samples=12, window=3, seed=None):
    C, used = core_monte_carlo(E, samples=samples, stabilization_window=window, rng=_seed(seed))
    return {
        "seed": seed,
        "samples": samples,
        "samples_used": used,
        "label": "Monte Carlo upper approximation",
        "gens": _submodule_value(C),
    }


def _run_residual(_, E, n=1, *, s=None, submodule=None, seed=None):
    rng = _seed(seed)
    W = submodule if submodule is not None else whole_module(E)
    out = residual_intersection(E, W, n if s is None else s, rng).to_dict()
    out["seed"] = seed
    return out


def _run_check_an(_, E, *, s=None, trials=10, seed=None):
    rows = check_an(E, s=s, trials=trials, rng=_seed(seed))
    return {"seed": seed, "rows": [r.to_dict() for r in rows]}


def _run_free_quotient(_, E, U=None, *, seed=None):
    if U is None:
        U = random_reduction(E, rng=_seed(seed))
    return verify_free_quotient(E, U).to_dict()


def _run_ideal_module(_, I, *, rank=2, mode="plus_free"):
    E, verdicts = build_ideal_module(I, rank, mode)
    return {"module": _module_value(E), "verdicts": verdicts.to_dict()}


# Handlers call the library through this module's names, never through a
# reference taken when the table is built, so that tools which rebind those
# names (such as the benchmark's tracer) see every call.
SPECS = {
    "groebner": Spec(lambda _, I: _ideal_value(I), ("ideal",)),
    "height": Spec(lambda _, I: height(I), ("ideal",)),
    "dim": Spec(lambda _, I: krull_dimension(I), ("ideal",)),
    "hilbert": Spec(_run_hilbert, ("ideal", "int")),
    "mu": Spec(lambda _, E: mu(E), ("module",)),
    "quotient": Spec(lambda _, I, J: _ideal_value(quotient_ideal(I, J)), ("ideal", "ideal")),
    "intersect": Spec(lambda _, I, J: _ideal_value(intersect(I, J)), ("ideal", "ideal")),
    "rank": Spec(lambda _, E: rank(E), ("module",)),
    "pdim": Spec(lambda _, E: projective_dimension(E), ("module",)),
    "depth": Spec(_run_depth, ("module",)),
    "fitting": Spec(lambda _, E, j: _ideal_value(fitting_ideal(E, j)), ("module", "int")),
    "analytic_spread": Spec(lambda _, E: analytic_spread(E), ("module",)),
    "sym_ideal": Spec(lambda _, E: _ideal_value(sym_ideal(E)), ("module",)),
    "rees_ideal": Spec(lambda _, E: _ideal_value(rees_ideal(E)), ("module",)),
    "fiber_ideal": Spec(lambda _, E: _ideal_value(fiber_ideal(E)), ("module",)),
    "graded_component": Spec(
        lambda session, E, j: _module_value(graded_component(E, j, session.options["max_t_degree"])),
        ("module", "int"),
    ),
    "is_reduction": Spec(lambda _, U: is_reduction(U, U.parent), ("submodule",)),
    "random_reduction": Spec(_run_random_reduction, ("module",), flags={"count": "int", "seed": "int"}),
    "reduction_number": Spec(
        _run_reduction_number,
        ("module",),
        flags={"submodule": "submodule", "max_degree": "int", "seed": "int"},
    ),
    "core": Spec(_run_core, ("module",), flags={"samples": "int", "window": "int", "seed": "int"}),
    "check_gs": Spec(lambda _, E, s: check_gs(E, s).to_dict(), ("module", "int")),
    "residual_intersection": Spec(
        _run_residual, ("module",), ("int",), {"s": "int", "submodule": "submodule", "seed": "int"}
    ),
    "check_an": Spec(_run_check_an, ("module",), flags={"s": "int", "trials": "int", "seed": "int"}),
    "check_ext_vanishing": Spec(
        lambda session, E: check_ext_vanishing(E, session.options["max_t_degree"]).to_dict(), ("module",)
    ),
    "check_cm_rees": Spec(lambda _, E: check_cm_rees(E).to_dict(), ("module",)),
    "verify_free_quotient": Spec(_run_free_quotient, ("module",), ("submodule",), {"seed": "int"}),
    "verify_balanced": Spec(
        lambda _, E, *, reductions=6, seed=None: verify_balanced(E, reductions=reductions, rng=_seed(seed)),
        ("module",),
        flags={"reductions": "int", "seed": "int"},
    ),
    "verify_pd1_core": Spec(
        lambda _, E, *, seed=None: verify_pd1_core(E, rng=_seed(seed)), ("module",), flags={"seed": "int"}
    ),
    "ideal_module_verdicts": Spec(
        _run_ideal_module, ("ideal",), flags={"rank": "int", "mode": ("plus_free", "power_sum")}
    ),
}

# The handlers run_session calls: op -> callable(session, task).  A copy of
# SPECS, so that a caller may wrap these (the benchmark times each task this
# way) while the parser keeps checking task lines against the specs.
TASKS = dict(SPECS)


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
            value = TASKS[task.op](session, task)
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
            # the task boundary: whatever fails inside a task becomes its
            # error entry, and the session goes on
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
