"""Session DSL: declarations of rings/ideals/modules/submodules plus a task
list, executed into a JSON-serializable report.

The DSL is line-oriented; statements end with ';' and '#' starts a comment.
Sessions are written by hand, reports are emitted as versioned JSON (or
plain text); any Monte Carlo value carries its seed and sample count.
"""

from __future__ import annotations

import json
import re
import time
from json.encoder import encode_basestring_ascii as _json_str
from types import MappingProxyType

from . import __version__
from .errors import CapExceededError, ModcoreError, NotHomogeneousError, ParseError, RetryExhaustedError
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
    vector_degree,
    whole_module,
)
from .poly import Polynomial, PolyRing, parse_poly
from .record import Record
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
_EXCERPT = 40  # characters of a polynomial that a parse error in it quotes


class Task(Record):
    op: str
    args: list
    flags: dict
    line: int


class Session(Record):
    source: str
    ring_name: str
    ring: PolyRing
    ideals: dict
    modules: dict
    submodules: dict
    tasks: list
    options: dict

    def declares(self, kind, name) -> bool:
        """Whether `name` can stand for a `kind`: "ideal", "submodule", or
        "module", which an ideal name also is."""
        return name in self._table(kind) or (kind == "module" and name in self.ideals)

    def lookup(self, kind, name, line=None):
        """The object `name` stands for as a `kind`; an ideal looked up as a
        module is its module, the one `module_from_ideal` keeps per ideal."""
        table = self._table(kind)
        if name in table:
            return table[name]
        if not self.declares(kind, name):
            raise ParseError(f"undeclared {kind} {name!r}", line)
        return module_from_ideal(self.ideals[name])

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


_SCAN_RE = re.compile(r"[();]")  # the characters that move a statement's paren depth or end it


def _statements(src: str):
    """Yield (line_number, statement) pairs.  '#' comments; ';' terminates a
    statement, but only at zero paren depth (span(...) uses ';' internally).
    A statement's line is that of its first non-blank character, and each
    line it spans adds one space to its text."""
    buf = []
    start = None
    depth = 0
    for lineno, raw in enumerate(src.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        pos = 0
        for m in _SCAN_RE.finditer(line):
            ch = m.group()
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise ParseError("unbalanced ')'", lineno)
            elif depth == 0:
                end = m.start()
                buf.append(line[pos:end])
                stmt = "".join(buf).strip()
                if stmt:
                    yield (lineno if start is None else start), stmt
                buf = []
                start = None
                pos = end + 1
        rest = line[pos:]
        if start is None and rest.strip():
            start = lineno
        buf.append(rest)
        buf.append(" ")
    if "".join(buf).strip():
        raise ParseError("unterminated statement (missing ';')", start)


def _names_unique(name, session, line):
    if name in session.ideals or name in session.modules or name in session.submodules:
        raise ParseError(f"name {name!r} already declared", line)


def parse_session(src: str, char_override: int | None = None, t_cap: int = 6, x_cap: int = 10) -> Session:
    for flag, cap in (("--max-t-degree", t_cap), ("--max-x-degree", x_cap)):
        if cap < 0:
            raise ModcoreError(f"{flag} must be >= 0, got {cap}")
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
            vecs = _vectors(m.group("body"), parent.gen_degrees, "submodule vector", session.ring, line)
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
        raise ParseError(f"in polynomial {_excerpt(src, exc.col)!r}: {exc}", line) from None


def _excerpt(src, col):
    """At most _EXCERPT characters of `src` around column `col` (1-based, or
    None for the start), with '...' on each side that is cut."""
    start = max(0, min((col or 1) - 1 - _EXCERPT // 2, len(src) - _EXCERPT))
    end = start + _EXCERPT
    return ("..." if start else "") + src[start:end] + ("..." if end < len(src) else "")


def _vectors(body, degrees, what, ring, line):
    """The bracketed poly lists of `body`, comma-separated, each `what`
    ("submodule vector" or "coker column") a homogeneous vector with one
    coordinate per generator of the degrees `degrees`; an empty coordinate
    is 0.  Any other list is a parse error at `line`."""
    noun = what.split()[-1]
    vecs = []
    for part in _split_top(body):
        if not part:
            continue
        if not (part.startswith("[") and part.endswith("]")):
            raise ParseError(f"{what}s are bracketed poly lists", line)
        coords = [_parse_poly_at(c, ring, line) if c.strip() else ring.zero() for c in _split_top(part[1:-1])]
        if len(coords) != len(degrees):
            raise ParseError(f"{noun} has {len(coords)} coordinates, module has {len(degrees)} generators", line)
        try:
            vector_degree(coords, degrees)
        except NotHomogeneousError as exc:
            raise ParseError(f"{what} {part} is not homogeneous ({exc})", line) from None
        vecs.append(tuple(coords))
    return vecs


def _coker(body, session, line):
    """coker(d_1, ..., d_n; [col], ...): the module on generators of the
    integer degrees d_i with the homogeneous columns as its relations."""
    head, sep, cols = body.partition(";")
    if not sep:
        raise ParseError("coker takes generator degrees, then ';', then columns", line)
    try:
        degrees = [int(d) for d in _split_top(head)]
    except ValueError:
        raise ParseError(f"coker generator degrees must be integers, got {head.strip()!r}", line) from None
    relations = _vectors(cols, degrees, "coker column", session.ring, line)
    return PresentedModule(session.ring, degrees, relations, _validate=False)


def _module_expr(body, session, line):
    if body.startswith("ideal "):
        iname = body[len("ideal "):].strip()
        return module_from_ideal(session.lookup("ideal", iname, line))
    m = re.match(r"^free\s+(\d+)(?:\s+twist\s+(-?\d+))?$", body)
    if m:
        return free_module(session.ring, int(m.group(1)), int(m.group(2) or 0))
    m = re.match(r"^sum\((.*)\)$", body, re.S)
    if m:
        parts = _split_top(m.group(1))
        if len(parts) != 2:
            raise ParseError("sum takes two module names", line)
        return direct_sum(
            session.lookup("module", parts[0], line), session.lookup("module", parts[1], line)
        )
    m = re.match(r"^coker\((.*)\)$", body, re.S)
    if m:
        return _coker(m.group(1), session, line)
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


class Spec(Record):
    """What a task takes, and the handler that runs it.

    `args` and `optional` are the kinds of the required and the optional
    positional arguments; `flags` maps each flag, as a keyword, to its kind.
    A kind is "ideal", "module" (an ideal name is taken too), "submodule",
    "int", or a tuple of the words allowed.  The parser holds every task line
    to its spec; calling the spec with (session, task) looks up the names
    and runs `run(session, *args, **flags)`.  A flag not given takes the
    handler's keyword default.  A `named` spec also passes its first
    argument as written, as `name`."""

    run: object  # the handler, called as run(session, *args, **flags)
    args: tuple
    optional: tuple = ()
    flags: dict = MappingProxyType({})  # shared by every spec without flags, so read-only
    named: bool = False

    def __call__(self, session, task):
        kinds = self.args + self.optional
        args = [_value(session, kind, a) for kind, a in zip(kinds, task.args)]
        flags = {key: _value(session, self.flags[key], v) for key, v in task.flags.items()}
        if self.named:
            flags["name"] = task.args[0]
        return self.run(session, *args, **flags)


def _value(session, kind, token):
    return session.lookup(kind, token) if kind in ("ideal", "module", "submodule") else token


# the JSON scalar types, by exact type, each with the text `_write_json`
# writes for it; `_report_value` passes their values on as they are
_JSON_SCALARS = {
    str: _json_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def _report_value(value):
    """A task's value as report data, the one place verdicts become JSON.

    A record becomes its fields in declaration order, an ideal its sorted
    reduced basis, a submodule its generators reduced modulo the parent's
    relations, and a polynomial its text; dict keys become strings and
    tuples lists."""
    if type(value) in _JSON_SCALARS:
        return value
    if isinstance(value, Ideal):
        return sorted(str(g) for g in value.groebner_basis())
    if isinstance(value, Submodule):
        return _report_value(value.reduced_gens())
    if isinstance(value, Polynomial):
        return str(value)
    if isinstance(value, Record):
        return {f: _report_value(getattr(value, f)) for f in value._fields}
    if isinstance(value, dict):
        return {str(k): _report_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_report_value(v) for v in value]
    return value


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


def _named_infinity(d):
    """d, with the zero module's sentinels pd = -inf and depth = +inf named."""
    return {float("inf"): "infinity", -float("inf"): "-infinity"}.get(d, d)


def _run_random_reduction(_, E, *, count=None, seed=None):
    U = random_reduction(E, count=count, rng=seed)
    return {"seed": seed, "gens": U}


def _run_reduction_number(session, E, *, submodule=None, max_degree=None, seed=None):
    U = submodule if submodule is not None else random_reduction(E, rng=seed)
    if max_degree is None:
        max_degree = session.options["max_t_degree"]
    r = reduction_number(U, E, max_degree)
    if r is None:
        raise CapExceededError(f"no reduction number up to degree {max_degree}", {"max_degree": max_degree})
    return {"r": r, "seed": seed, "max_degree": max_degree}


def _run_core(_, E, *, samples=12, seed=None):
    try:
        C, used = core_monte_carlo(E, samples=samples, rng=seed)
    except RetryExhaustedError:
        # the sample count is a cap: a core that has not stabilized by then
        # is inconclusive, not an error
        raise CapExceededError(
            f"the core has not stabilized after {samples} samples", {"samples": samples, "seed": seed}
        ) from None
    return {
        "seed": seed,
        "samples": samples,
        "samples_used": used,
        # no draw is taken only when ell(E) = mu(E), and then core(E) = E
        "label": "exact: analytic spread equals mu" if used == 0 else "Monte Carlo upper approximation",
        "gens": C,
    }


def _run_residual(_, E, n=None, *, s=None, submodule=None, seed=None):
    """s is the optional argument or --s, not both; 1 when neither is given."""
    if s is None:
        s = 1 if n is None else n
    elif n is not None:
        raise ModcoreError(f"residual_intersection takes s once, got the argument {n} and --s {s}")
    W = submodule if submodule is not None else whole_module(E)
    cert = residual_intersection(E, W, s, seed)
    return {**vars(cert), "seed": seed}


def _run_check_an(_, E, *, s=None, trials=10, seed=None):
    return {"seed": seed, "rows": check_an(E, s=s, trials=trials, rng=seed)}


def _run_free_quotient(_, E, U=None, *, seed=None):
    if U is None:
        U = random_reduction(E, rng=seed)
    return verify_free_quotient(E, U)


def _run_balanced(_, E, *, name, reductions=6, seed=None):
    report = verify_balanced(E, reductions=reductions, rng=seed)
    report.hypothesis.module = name
    return report


def _run_ideal_module(_, I, *, rank=2, mode="plus_free"):
    E, verdicts = build_ideal_module(I, rank, mode)
    return {"module": _module_value(E), "verdicts": verdicts}


# Handlers call the library through this module's names, never through a
# reference taken when the table is built, so that tools which rebind those
# names (such as the benchmark's tracer) see every call.
SPECS = {
    "groebner": Spec(lambda _, I: I, ("ideal",)),
    "height": Spec(lambda _, I: height(I), ("ideal",)),
    "dim": Spec(lambda _, I: krull_dimension(I), ("ideal",)),
    "hilbert": Spec(_run_hilbert, ("ideal", "int")),
    "mu": Spec(lambda _, E: mu(E), ("module",)),
    "quotient": Spec(lambda _, I, J: quotient_ideal(I, J), ("ideal", "ideal")),
    "intersect": Spec(lambda _, I, J: intersect(I, J), ("ideal", "ideal")),
    "rank": Spec(lambda _, E: rank(E), ("module",)),
    "pdim": Spec(lambda _, E: _named_infinity(projective_dimension(E)), ("module",)),
    "depth": Spec(lambda _, E: _named_infinity(depth(E)), ("module",)),
    "fitting": Spec(lambda _, E, j: fitting_ideal(E, j), ("module", "int")),
    "analytic_spread": Spec(lambda _, E: analytic_spread(E), ("module",)),
    "sym_ideal": Spec(lambda _, E: sym_ideal(E), ("module",)),
    "rees_ideal": Spec(lambda _, E: rees_ideal(E), ("module",)),
    "fiber_ideal": Spec(lambda _, E: fiber_ideal(E), ("module",)),
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
    "core": Spec(_run_core, ("module",), flags={"samples": "int", "seed": "int"}),
    "check_gs": Spec(lambda _, E, s: check_gs(E, s), ("module", "int")),
    "residual_intersection": Spec(
        _run_residual, ("module",), ("int",), {"s": "int", "submodule": "submodule", "seed": "int"}
    ),
    "check_an": Spec(_run_check_an, ("module",), flags={"s": "int", "trials": "int", "seed": "int"}),
    "check_ext_vanishing": Spec(
        lambda session, E: check_ext_vanishing(E, session.options["max_t_degree"]), ("module",)
    ),
    "check_cm_rees": Spec(lambda _, E: check_cm_rees(E), ("module",)),
    "verify_free_quotient": Spec(_run_free_quotient, ("module",), ("submodule",), {"seed": "int"}),
    "verify_balanced": Spec(_run_balanced, ("module",), flags={"reductions": "int", "seed": "int"}, named=True),
    "verify_pd1_core": Spec(
        lambda _, E, *, seed=None: verify_pd1_core(E, rng=seed), ("module",), flags={"seed": "int"}
    ),
    "ideal_module_verdicts": Spec(
        _run_ideal_module, ("ideal",), flags={"rank": "int", "mode": ("plus_free", "power_sum")}
    ),
}

# The handlers run_session calls: op -> callable(session, task).  A copy of
# SPECS, so that a caller may wrap these (the benchmark times each task this
# way) while the parser keeps checking task lines against the specs.
TASKS = dict(SPECS)


class Report(Record):
    payload: dict

    def exit_code(self) -> int:
        return self.payload["exit_code"]


def run_session(session: Session) -> Report:
    # imported here, where the hash is taken, so that importing modcore
    # does not pay for it (a CLI run still does, once)
    import hashlib

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
            entry["status"] = status
            entry["value"] = _report_value(value)
        except CapExceededError as exc:
            entry["status"] = "inconclusive"
            entry["value"] = exc.detail if exc.detail is not None else {"cap": str(exc)}
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


def _write_json(value, nl, out):
    """Append to the list `out` the text that json.dumps(value, indent=2)
    writes for `value` at the indent `nl`, a newline and the spaces before a
    line at the depth of `value`.

    Exact dicts with str keys, lists, tuples, strs, ints, bools and None are
    written here; any other value, floats, dicts with a key that is no str
    and subclasses among them, is written by json.dumps.  A module-level
    recursion, not a closure: writing a report makes no reference cycle."""
    kind = type(value)
    scalar = _JSON_SCALARS.get(kind)
    if scalar is not None:
        out.append(scalar(value))
    elif kind is dict and value:
        mark = len(out)
        inner = nl + "  "
        sep = "{" + inner
        for key, v in value.items():
            if type(key) is not str:
                del out[mark:]
                out.append(json.dumps(value, indent=2).replace("\n", nl))
                return
            scalar = _JSON_SCALARS.get(type(v))
            if scalar is not None:
                out.append(sep + _json_str(key) + ": " + scalar(v))
            else:
                out.append(sep + _json_str(key) + ": ")
                _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif (kind is list or kind is tuple) and value:
        inner = nl + "  "
        sep = "[" + inner
        for v in value:
            scalar = _JSON_SCALARS.get(type(v))
            if scalar is not None:
                out.append(sep + scalar(v))
            else:
                out.append(sep)
                _write_json(v, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif kind is dict:
        out.append("{}")
    elif kind is list or kind is tuple:
        out.append("[]")
    elif isinstance(value, (dict, list, tuple)):
        # a JSON text holds no raw newline but the indent's own
        out.append(json.dumps(value, indent=2).replace("\n", nl))
    else:
        # a scalar: json.dumps writes it alike with or without an indent,
        # and without one it makes no encoder of its own
        out.append(json.dumps(value))


def emit_report(report: Report, format: str = "json") -> bytes:
    """The report as bytes.  format="json" gives exactly the bytes of
    json.dumps(report.payload, indent=2) + "\n", written by `_write_json`."""
    if format == "json":
        out = []
        _write_json(report.payload, "\n", out)
        out.append("\n")
        return "".join(out).encode()
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
