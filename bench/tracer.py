"""Outside-in tracer for modcore: wraps functions from the benchmark's side,
so no source file of the program changes.

`from .poly import mono_div` copies a binding, so a wrapper set only in the
defining module misses calls made through the copy.  `Tracer.install`
therefore rebinds every `modcore*` namespace (module or class) that holds
the original function object.

Span wrappers record (id, parent id, name, start, end) in memory and keep a
running self time per name: a span's duration minus the time its child
spans cover.  Count wrappers only count calls; they sit on the monomial
helpers, which run millions of times per pass, and their cost lands in the
calling span.  Time no span covers is the residue: the benchmark's own loop
and output checks.
"""

from __future__ import annotations

import inspect
import itertools
import sys
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("poly", "groebner", "modalg", "rees", "checks", "session")

# Hot leaf helpers whose calls are counted without a span.
COUNT_ONLY = {"poly": ("mono_mul", "mono_div", "mono_lcm", "mono_deg")}

# Methods traced besides the public module-level functions: (class, method).
METHODS = {
    "poly": (("Polynomial", "__mul__"),),
    "groebner": (("Ideal", "groebner_basis"),),
    "rees": tuple(
        ("ReesPackage", m)
        for m in ("__init__", "sym_ideal", "rees_ideal", "fiber_ideal", "analytic_spread",
                  "component_relations", "graded_component", "is_reduction")
    ),
}


def _bump(key, value_of):
    def observe(extra, result):
        extra[key] += value_of(result)

    return observe


def _track_max(key):
    def observe(extra, result):
        extra[key] = max(extra[key], len(result))

    return observe


# Counters read off return values, into `Tracer.extra`.
OBSERVERS = {
    "groebner.nf_dict": _bump("nf_dict.zero", lambda r: not r),
    "modalg.mod_nf_dict": _bump("mod_nf_dict.zero", lambda r: not r),
    "groebner.buchberger": _track_max("buchberger.len_max"),
    "modalg.mod_buchberger": _track_max("mod_buchberger.len_max"),
    "checks.residual_intersection": _bump("residual.retries", lambda r: r.retries),
    "rees.ReesPackage.is_reduction": _bump("is_reduction.true", bool),
}


def metric_name(layer: str, path: str) -> str:
    """`Polynomial.__mul__` in poly -> `poly.Polynomial.mul`."""
    return f"{layer}." + ".".join(part.strip("_") for part in path.split("."))


def _namespaces():
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "modcore" or modname.startswith("modcore.")):
            continue
        yield mod
        for obj in list(vars(mod).values()):
            if inspect.isclass(obj) and obj.__module__ == modname:
                yield obj


class PassTrace:
    """What one traced pass recorded."""

    def __init__(self, tracer: "Tracer", wall_s: float):
        self.names = tracer.names
        self.layer_of = tracer.layer_of
        self.calls = dict(zip(tracer.names, tracer.calls))
        self.self_s = dict(zip(tracer.names, tracer.self_s))
        self.extra = Counter(tracer.extra)
        self.covered_s = tracer.root[1]
        self.wall_s = wall_s
        self.spans = tuple(a[:] for a in tracer.spans)

    def nested_calls(self, child: str, parent: str) -> int:
        """Spans named `child` whose parent span is named `parent`."""
        ids, parents, names = self.spans[:3]
        if child not in self.names or parent not in self.names:
            return 0
        ci, pi = self.names.index(child), self.names.index(parent)
        parent_ids = {sid for sid, nm in zip(ids, names) if nm == pi}
        return sum(1 for par, nm in zip(parents, names) if nm == ci and par in parent_ids)

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s[name] for name, lay in zip(self.names, self.layer_of) if lay == layer)

    def write_spans(self, fh, pass_no: int):
        ids, parents, names, t0s, t1s = self.spans
        base = min(t0s) if t0s else 0.0
        for sid, par, nm, t0, t1 in zip(ids, parents, names, t0s, t1s):
            fh.write(f"{pass_no}\t{sid}\t{par}\t{self.names[nm]}\t{t0 - base:.9f}\t{t1 - base:.9f}\n")


class Tracer:
    """Wraps modcore's layers: `install` once, then `reset` before each pass and
    take a `PassTrace` after it."""

    def __init__(self):
        self.names = []  # metric name per wrapped callable, indexed by name id
        self.layer_of = []
        self.calls = []
        self.self_s = []
        self.extra = Counter()
        self.root = [0.0, 0.0, 0]  # frame: [start, time covered by child spans, span id]
        self.stack = [self.root]
        self.spans = (array("q"), array("q"), array("i"), array("d"), array("d"))
        self._ids = itertools.count(1)
        self._patches = []  # (namespace, attribute, original)

    def install(self):
        """Wrap every public function of the traced layers and the METHODS."""
        for layer in LAYERS:
            mod = sys.modules[f"modcore.{layer}"]
            targets = [
                (attr, obj) for attr, obj in vars(mod).items()
                if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__
            ]
            for cls_name, meth in METHODS.get(layer, ()):
                obj = getattr(getattr(mod, cls_name, None), "__dict__", {}).get(meth)
                if inspect.isfunction(obj):
                    targets.append((f"{cls_name}.{meth}", obj))
            for path, orig in targets:
                name = metric_name(layer, path)
                idx = len(self.names)
                self.names.append(name)
                self.layer_of.append(layer)
                self.calls.append(0)
                self.self_s.append(0.0)
                if path in COUNT_ONLY.get(layer, ()):
                    wrapper = self._counted(idx, orig)
                else:
                    wrapper = self._spanned(idx, orig, OBSERVERS.get(name))
                for ns in _namespaces():
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._patches.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)

    def uninstall(self):
        for ns, attr, orig in reversed(self._patches):
            setattr(ns, attr, orig)
        self._patches = []

    def reset(self):
        """Clear every counter and span, in place, before a traced pass."""
        self.calls[:] = [0] * len(self.calls)
        self.self_s[:] = [0.0] * len(self.self_s)
        self.extra.clear()
        self.root[1] = 0.0
        for a in self.spans:
            del a[:]

    def _counted(self, idx, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return counted

    def _spanned(self, idx, fn, observer):
        calls, self_s, stack, ids, extra = self.calls, self.self_s, self.stack, self._ids, self.extra
        a_id, a_parent, a_name, a_t0, a_t1 = self.spans

        def spanned(*args, **kwargs):
            parent = stack[-1]
            frame = [perf_counter(), 0.0, next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                t0 = frame[0]
                dur = t1 - t0
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                parent[1] += dur
                a_id.append(frame[2])
                a_parent.append(parent[2])
                a_name.append(idx)
                a_t0.append(t0)
                a_t1.append(t1)
            if observer is not None:
                observer(extra, result)
            return result

        return spanned


def _frac(num, den):
    return num / den if den else 0.0


GROEBNER_FNS = ("buchberger", "nf_dict", "quotient_ideal", "intersect", "saturate", "krull_dimension")
MODALG_FNS = ("mod_buchberger", "mod_nf_dict", "syzygies", "free_resolution", "minimal_presentation",
              "annihilator", "colon_into", "submodule_intersect", "fitting_ideal", "ext_module")
REES_FNS = ("random_reduction", "core_monte_carlo", "reduction_number")
CHECKS_FNS = ("check_cm_rees", "residual_intersection", "verify_balanced", "verify_pd1_core",
              "check_gs", "check_ext_vanishing")


def _calls_and_self(layer, fns):
    out = []
    for f in fns:
        out += [(f"{layer}.{f}.calls", "count"), (f"{layer}.{f}.self_s", "s")]
    return out


# (metric, unit) in the order the benchmark reports them.
PER_LAYER = (
    [("poly.mono_div.calls", "count"), ("poly.mono_mul.calls", "count"),
     ("poly.Polynomial.mul.calls", "count"), ("poly.Polynomial.mul.self_s", "s")]
    + _calls_and_self("groebner", GROEBNER_FNS)
    + [("groebner.nf_dict.zero_frac", "ratio"), ("groebner.basis_len_max", "count"),
       ("groebner.gb_cache_hit_frac", "ratio")]
    + _calls_and_self("modalg", MODALG_FNS)
    + [("modalg.mod_nf_dict.zero_frac", "ratio"), ("modalg.basis_len_max", "count")]
    + [("rees.rees_package.calls", "count"), ("rees.package_cache_hit_frac", "ratio"),
       ("rees.ReesPackage.rees_ideal.self_s", "s")]
    + _calls_and_self("rees", REES_FNS)
    + [("rees.draw_accept_frac", "ratio")]
    + _calls_and_self("checks", CHECKS_FNS)
    + [("checks.residual_intersection.retries", "count")]
    + [("session.parse_session.self_s", "s"), ("session.run_session.self_s", "s"),
       ("session.emit_report.self_s", "s")]
    + [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [("trace.wall_s", "s"), ("trace.residue_s", "s"), ("trace.overhead_frac", "ratio")]
)


def unmatched(names) -> list:
    """PER_LAYER metrics of a function or method that is not among `names`,
    the callables the tracer found; they read 0."""
    out = []
    for metric, _ in PER_LAYER:
        base, _, stat = metric.rpartition(".")
        if stat in ("calls", "self_s") and base not in LAYERS and base not in names:
            out.append(metric)
    return out


def layer_metrics(pt: PassTrace, untraced_wall_s: float) -> dict:
    """Every PER_LAYER value from one traced pass."""
    ex = pt.extra
    values = {}
    for name, unit in PER_LAYER:
        base, _, stat = name.rpartition(".")
        if stat == "calls":
            values[name] = pt.calls.get(base, 0)
        elif stat == "self_s" and base in LAYERS:
            values[name] = pt.layer_self_s(base)
        elif stat == "self_s":
            values[name] = pt.self_s.get(base, 0.0)
    gb_calls = pt.calls.get("groebner.Ideal.groebner_basis", 0)
    pkg_calls = pt.calls.get("rees.rees_package", 0)
    values.update({
        "groebner.nf_dict.zero_frac": _frac(ex["nf_dict.zero"], pt.calls.get("groebner.nf_dict", 0)),
        "groebner.basis_len_max": ex["buchberger.len_max"],
        "groebner.gb_cache_hit_frac": _frac(
            gb_calls - pt.nested_calls("groebner.buchberger", "groebner.Ideal.groebner_basis"), gb_calls),
        "modalg.mod_nf_dict.zero_frac": _frac(ex["mod_nf_dict.zero"], pt.calls.get("modalg.mod_nf_dict", 0)),
        "modalg.basis_len_max": ex["mod_buchberger.len_max"],
        "rees.package_cache_hit_frac": _frac(
            pkg_calls - pt.nested_calls("rees.ReesPackage.init", "rees.rees_package"), pkg_calls),
        "rees.draw_accept_frac": _frac(ex["is_reduction.true"], pt.calls.get("rees.ReesPackage.is_reduction", 0)),
        "checks.residual_intersection.retries": ex["residual.retries"],
        "trace.wall_s": pt.wall_s,
        "trace.residue_s": pt.wall_s - pt.covered_s,
        "trace.overhead_frac": pt.wall_s / untraced_wall_s - 1.0,
    })
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
