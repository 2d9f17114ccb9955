"""Per-layer trace of the program, taken from outside it.

`Tracer.installed()` wraps the public functions of each `proxipair` layer
wherever a module has bound them by name (module globals and module-level
tables such as `instances.SOLVERS`), plus the methods named in `METHODS`.
A wrapped call becomes a span: its self time (duration minus that of its
child spans) is charged to one metric, and a hook may add counts from the
call's arguments or result.  Count-only wrappers add counts and no span, so
their time stays with the caller.  Spans and counts are kept in memory and
written out once, at the end.
"""

from __future__ import annotations

import csv
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from pathlib import Path

import numpy as np


def _rows(X) -> int:
    return int(np.shape(X)[0]) if np.ndim(X) == 2 else 1


def _solver_iterations(tracer, args, kwargs, result):
    # A reduction runs an inner solver; count the iterations of the outer
    # call only, since it reports the inner trace as its own.
    if not tracer.inside("solvers.self_s"):
        tracer.counts["solvers.iterations"] += result.trace.iterations_used


# (module, function, self-time metric, count metric incremented per call,
#  hook(tracer, args, kwargs, result) adding further counts)
FUNCTIONS = [
    ("geometry", "distance_between", "geometry.distance_s", None,
     lambda t, a, k, r: t.add("geometry.distance_iters", r.iterations)),
    ("mappings", "certify_mode", "mappings.certify_mode_s",
     "mappings.certify_mode_calls", None),
    ("mappings", "certify_contraction", "mappings.certify_contraction_s",
     "mappings.certify_contraction_calls",
     lambda t, a, k, r: t.add("mappings.contraction_pairs", r.samples)),
    ("operators", "compose_with_projector", "operators.compose_s",
     "operators.compose_calls", None),
    ("operators", "verify_projector_properties", "operators.property_checks_s",
     None, None),
    ("operators", "check_commutation", "operators.commutation_s", None, None),
    ("solvers", "picard_cyclic", "solvers.self_s", "solvers.calls",
     _solver_iterations),
    ("solvers", "noncyclic_projection_iteration", "solvers.self_s", "solvers.calls",
     _solver_iterations),
    ("solvers", "solve_cyclic_via_reduction", "solvers.self_s", "solvers.calls",
     _solver_iterations),
    ("solvers", "solve_noncyclic_via_reduction", "solvers.self_s", "solvers.calls",
     _solver_iterations),
    ("instances", "build", "instances.build_s", None, None),
    ("verification", "run_verification", "verification.self_s", None,
     lambda t, a, k, r: t.add("verification.checks", len(r.checks))),
    ("cli", "main", "cli.self_s", None, None),
]

# (module, class, method, self-time metric or None for count-only,
#  count metric incremented per call, hook) -- wrapped on the class itself.
METHODS = [
    ("geometry", "ConvexBody", "sample", "geometry.body_sample_s", None, None),
    ("geometry", "Box", "sample", "geometry.body_sample_s", None, None),
    ("geometry", "Polytope", "sample", "geometry.body_sample_s", None, None),
    ("geometry", "ProximityInstance", "sample_proximal", "geometry.proximal_sample_s",
     None, None),
    ("operators", "ProximalProjector", "project_many", "operators.projector_s",
     "operators.projector_calls",
     lambda t, a, k, r: t.add("operators.projector_rows", _rows(a[1]))),
] + [
    ("geometry", cls, "project_many", None, "geometry.project_calls",
     lambda t, a, k, r: t.add("geometry.project_rows", _rows(a[1])))
    for cls in ("Ball", "Box", "Polytope")
] + [
    ("mappings", "MapSpec", "apply", None, None,
     lambda t, a, k, r: t.add("mappings.rowwise_evals", a[0].func is not None)),
]

TIME_METRICS = sorted({f[2] for f in FUNCTIONS} | {m[3] for m in METHODS if m[3]})
COUNT_METRICS = sorted(
    {f[3] for f in FUNCTIONS if f[3]} | {m[4] for m in METHODS if m[4]}
    | {"geometry.distance_iters", "mappings.contraction_pairs",
       "operators.projector_rows", "geometry.project_rows", "mappings.rowwise_evals",
       "solvers.iterations", "verification.checks"})


class Tracer:
    """Spans and counts of traced calls, one request per `installed()` block."""

    def __init__(self):
        self.spans = []          # (request, span, parent, name, start, end)
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []         # [span id, metric, time covered by children]
        self._next_span = 0
        self._request = 0
        self._clock_zero = time.perf_counter()

    def add(self, metric: str, n) -> None:
        self.counts[metric] += int(n)

    def inside(self, metric: str) -> bool:
        return any(frame[1] == metric for frame in self._stack)

    def _span(self, name: str, metric: str, count, hook, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            if count:
                self.counts[count] += 1
            span = self._next_span
            self._next_span += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span, metric, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                self.self_s[metric] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans.append((self._request, span, parent, name,
                                   start - self._clock_zero, end - self._clock_zero))
            if hook:
                hook(self, args, kwargs, result)
            return result
        return wrapper

    def _counter(self, count, hook, fn):
        @wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if count:
                self.counts[count] += 1
            hook(self, args, kwargs, result)
            return result
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function and method for the duration of the
        block; the spans of one block share one request id."""
        mods = {name: importlib.import_module(f"proxipair.{name}")
                for name in {f[0] for f in FUNCTIONS} | {m[0] for m in METHODS}}
        package = [m for n, m in sys.modules.items()
                   if n == "proxipair" or n.startswith("proxipair.")]
        undo = []
        for mod, fname, metric, count, hook in FUNCTIONS:
            original = getattr(mods[mod], fname)
            wrapper = self._span(f"{mod}.{fname}", metric, count, hook, original)
            for module in package:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        undo.append((setattr, module, attr, original))
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is original:
                                value[key] = wrapper
                                undo.append((dict.__setitem__, value, key, original))
        for mod, cname, meth, metric, count, hook in METHODS:
            cls = getattr(mods[mod], cname)
            original = cls.__dict__[meth]
            wrapper = (self._span(f"{mod}.{cname}.{meth}", metric, count, hook, original)
                       if metric else self._counter(count, hook, original))
            setattr(cls, meth, wrapper)
            undo.append((setattr, cls, meth, original))
        try:
            yield self
        finally:
            for restore, target, key, original in reversed(undo):
                restore(target, key, original)
            self._request += 1

    def per_instance(self, instances: int) -> dict:
        """Every per-layer metric as a total divided by the instance count."""
        out = {m: self.self_s.get(m, 0.0) / instances for m in TIME_METRICS}
        out.update({m: self.counts.get(m, 0) / instances for m in COUNT_METRICS})
        return out

    def write(self, directory: Path) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        with open(directory / "spans.csv", "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["request", "span", "parent", "name", "start_s", "end_s"])
            writer.writerows(sorted(self.spans, key=lambda s: s[1]))
        with open(directory / "counts.json", "w", encoding="utf-8") as handle:
            json.dump({"self_s": dict(self.self_s), "counts": dict(self.counts)},
                      handle, indent=2, sort_keys=True)
            handle.write("\n")
