"""Span tracer for the benchmark's traced runs.

`Tracer.install()` replaces the public functions of every expgrowth module,
and the public methods of its evaluator classes, by timing wrappers.  Each
wrapper sits at the name its caller resolves (`expgrowth.product.lc_add`,
`expgrowth.cli.F_eval`, the class attribute `ProductEvaluator.eval_log_f`),
so no code under `src/` changes.  Spans (name, start, end, parent) are kept
in flat arrays in memory and written out once, by `save_spans`, when the
worker ends; per-name calls, inclusive time and self time (span time minus
child spans) are accumulated as the spans close.

Scalar helpers called once per series term or per lattice point inside
another function's loop (`lognum.cis`, `lognum.wrap_angle`,
`borel.term_envelope`, the `CoefficientStream` indexers, `ZeroLattice.zero`)
stay unwrapped: they are not layer boundaries, and wrapping them would
multiply the tracing overhead.  Their time counts as self time of the
function that calls them.
"""
from __future__ import annotations

import functools
import inspect
import os
import time
from array import array

MODULES = (
    "lognum", "lattice", "product", "borel", "contours",
    "diagnostics", "csvio", "svg", "cli",
)

#: classes whose public methods are layer entry points
TRACED_CLASSES = {
    "lattice": ("ZeroLattice",),
    "product": ("ProductEvaluator",),
    "borel": ("BorelEvaluator",),
}

UNWRAPPED = {
    "lognum.cis", "lognum.wrap_angle", "borel.term_envelope",
    "lattice.ZeroLattice.zero",
}


class Tracer:
    """Collects spans and per-name aggregates for one worker process."""

    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = {}
        self.total_s = {}
        self.self_s = {}
        #: per layer: inclusive time of spans whose parent is another layer
        self.busy_s = {}
        self.counts = {}
        self._stack = []
        self._patched = []
        self._seen_g = set()
        self._seen_circles = set()

    # -- counters recorded at the boundaries --------------------------------

    def count(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def _after_g(self, args, kwargs, result, dur):
        key = (id(args[0]), complex(args[1]))
        if key not in self._seen_g:
            self._seen_g.add(key)
            self.count("borel.g_fresh")
            self.count("borel.g_fresh_s", dur)

    def _after_profile_on(self, args, kwargs, result, dur):
        self.count("product.profile_points", len(result.radii))

    def _after_integrate(self, args, kwargs, result, dur):
        from expgrowth import contours

        path = args[1] if len(args) > 1 else kwargs["path"]
        spec = args[3] if len(args) > 3 else kwargs.get("spec")
        if spec is None:
            spec = contours.QuadratureSpec()
        segments = len(path.segments) if isinstance(path, contours.Contour) else 1
        level = result.refinements
        # every level evaluates initial_panels * points_per_panel * 2^level
        # nodes per segment, for the trapezoid and the Gauss rule alike
        per_level = segments * spec.initial_panels * spec.points_per_panel
        self.count("contours.nodes", per_level * ((2 << level) - 1))
        self.count("contours.returned")
        self.count("contours.refinements", level)
        self.counts["contours.refinements_max"] = max(
            self.counts.get("contours.refinements_max", 0), level)
        if result.error > spec.target_rel_tol * abs(result.value):
            self.count("contours.floor_stopped")

    def _after_circle(self, args, kwargs, result, dur):
        key = (id(args[0]), args[1])
        if key not in self._seen_circles:
            self._seen_circles.add(key)
            self.count("lattice.zeros_materialized", len(result))

    def _after_write(self, layer):
        def hook(args, kwargs, result, dur):
            path = args[0] if layer == "csvio" else args[-1]
            self.count(layer + ".bytes", os.path.getsize(path))
        return hook

    def _hook_for(self, label):
        return {
            "borel.BorelEvaluator.__call__": self._after_g,
            "product.ProductEvaluator.profile_on": self._after_profile_on,
            "contours.integrate": self._after_integrate,
            "lattice.ZeroLattice.circle": self._after_circle,
            "csvio.write_rows": self._after_write("csvio"),
            "svg.write_counting_svg": self._after_write("svg"),
            "svg.write_profile_svg": self._after_write("svg"),
            "svg.write_decay_svg": self._after_write("svg"),
        }.get(label)

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, label, fn):
        name_id = len(self.names)
        self.names.append(label)
        self.calls[label] = 0
        self.total_s[label] = 0.0
        self.self_s[label] = 0.0
        layer = label.split(".", 1)[0]
        self.busy_s.setdefault(layer, 0.0)
        hook = self._hook_for(label)
        stack = self._stack
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        calls, total_s, self_s, busy_s = (
            self.calls, self.total_s, self.self_s, self.busy_s)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1][0] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            frame = [index, 0.0, layer]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                starts[index] = t0
                ends[index] = t1
                calls[label] += 1
                total_s[label] += dur
                self_s[label] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    if parent[2] != layer:
                        busy_s[layer] += dur
                else:
                    busy_s[layer] += dur
            if hook is not None:
                hook(args, kwargs, result, dur)
            return result

        return traced

    def install(self):
        """Wrap every traced name in the already imported expgrowth package."""
        import importlib

        package = importlib.import_module("expgrowth")
        modules = [package] + [
            importlib.import_module("expgrowth." + m) for m in MODULES]
        wrappers = {}

        def wrapper_for(fn, label):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(label, fn)
            return wrappers[fn]

        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(value):
                    continue
                home = value.__module__
                if not home.startswith("expgrowth."):
                    continue
                label = home.split(".", 1)[1] + "." + value.__name__
                if label in UNWRAPPED:
                    continue
                self._patched.append((module, attr, value))
                setattr(module, attr, wrapper_for(value, label))
        for short, classes in TRACED_CLASSES.items():
            module = importlib.import_module("expgrowth." + short)
            for cls_name in classes:
                cls = getattr(module, cls_name)
                for attr, value in list(vars(cls).items()):
                    if attr.startswith("_") and attr != "__call__":
                        continue
                    if not inspect.isfunction(value):
                        continue
                    label = "%s.%s.%s" % (short, cls_name, attr)
                    if label in UNWRAPPED:
                        continue
                    self._patched.append((cls, attr, value))
                    setattr(cls, attr, wrapper_for(value, label))
        return self

    def uninstall(self):
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def summary(self, scale=1.0):
        """Aggregates as plain JSON-ready dicts (names with no calls dropped).

        Every time is multiplied by `scale`, the worker's factor from wall
        time to reference speed.
        """
        used = [n for n in self.names if self.calls[n]]
        counts = dict(self.counts)
        if "borel.g_fresh_s" in counts:
            counts["borel.g_fresh_s"] *= scale
        return {
            "calls": {n: self.calls[n] for n in used},
            "total_s": {n: self.total_s[n] * scale for n in used},
            "self_s": {n: self.self_s[n] * scale for n in used},
            "busy_s": {k: v * scale for k, v in self.busy_s.items()},
            "counts": counts,
        }

    def save_spans(self, path):
        """Write the span arrays (name id, parent index, start, end) as .npz."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )


def merge(summaries):
    """Sum several `Tracer.summary()` dicts (maxima stay maxima)."""
    out = {"calls": {}, "total_s": {}, "self_s": {}, "busy_s": {}, "counts": {}}
    for s in summaries:
        for field in ("calls", "total_s", "self_s", "busy_s", "counts"):
            dst = out[field]
            for key, value in s[field].items():
                if key.endswith("_max"):
                    dst[key] = max(dst.get(key, value), value)
                else:
                    dst[key] = dst.get(key, 0) + value
    return out


def _mean(total, n, scale):
    return scale * total / n if n else 0.0


def layer_metrics(s, ops):
    """The per-layer metrics of BENCHMARK.json from merged summaries.

    Counts and seconds are reported per operation of the workload (`ops`
    operations were traced), so they do not depend on how many rounds fit
    in the run; means per call and ratios need no such scaling.
    """
    calls, total, self_s, counts = s["calls"], s["total_s"], s["self_s"], s["counts"]

    def n(label):
        return calls.get(label, 0)

    def layer_self(layer):
        return sum(v for k, v in self_s.items() if k.startswith(layer + "."))

    points = n("product.ProductEvaluator.eval_log_f")
    profile_points = counts.get("product.profile_points", 0)
    g_calls = n("borel.BorelEvaluator.__call__")
    g_fresh = counts.get("borel.g_fresh", 0)
    integrals = n("contours.integrate")
    returned = counts.get("contours.returned", 0)
    out = {
        "lognum.calls_per_point": (
            (n("lognum.lc_add") + n("lognum.lc_mul")) / points if points else 0.0),
        "lognum.self_s": layer_self("lognum"),
        "product.points": points / ops,
        "product.eval_log_f_us": _mean(
            total.get("product.ProductEvaluator.eval_log_f", 0.0), points, 1e6),
        "product.profile_on_ms_per_kpt": _mean(
            total.get("product.ProductEvaluator.profile_on", 0.0),
            profile_points / 1000.0, 1e3),
        "product.max_modulus_ms": _mean(
            total.get("product.ProductEvaluator.max_modulus", 0.0),
            n("product.ProductEvaluator.max_modulus"), 1e3),
        "product.self_s": layer_self("product"),
        "borel.g_calls": g_calls / ops,
        "borel.g_fresh_frac": g_fresh / g_calls if g_calls else 0.0,
        "borel.g_fresh_us": _mean(counts.get("borel.g_fresh_s", 0.0), g_fresh, 1e6),
        "borel.self_s": layer_self("borel"),
        "contours.integrals": integrals / ops,
        "contours.refinements_mean": (
            counts.get("contours.refinements", 0) / returned if returned else 0.0),
        "contours.refinements_max": counts.get("contours.refinements_max", 0),
        "contours.nodes": counts.get("contours.nodes", 0) / ops,
        "contours.floor_stopped_frac": (
            counts.get("contours.floor_stopped", 0) / integrals if integrals else 0.0),
        "contours.borel_inversion_ms": _mean(
            total.get("contours.borel_inversion", 0.0), n("contours.borel_inversion"), 1e3),
        "contours.u_eval_ms": _mean(
            total.get("contours.u_eval", 0.0), n("contours.u_eval"), 1e3),
        "contours.F_eval_ms": _mean(
            total.get("contours.F_eval", 0.0), n("contours.F_eval"), 1e3),
        "contours.self_s": layer_self("contours"),
        "diagnostics.window_stats_ms": _mean(
            total.get("diagnostics.window_stats", 0.0), n("diagnostics.window_stats"), 1e3),
        "diagnostics.classify_ms": _mean(
            total.get("diagnostics.classify", 0.0), n("diagnostics.classify"), 1e3),
        "diagnostics.type_estimate_ms": _mean(
            total.get("diagnostics.type_estimate", 0.0), n("diagnostics.type_estimate"), 1e3),
        "lattice.zeros_materialized": counts.get("lattice.zeros_materialized", 0) / ops,
        "lattice.verify_s": total.get("lattice.verify_counting_bounds", 0.0),
        "csvio.bytes": counts.get("csvio.bytes", 0) / ops,
        "csvio.write_s": s["busy_s"].get("csvio", 0.0),
        "svg.bytes": counts.get("svg.bytes", 0) / ops,
        "svg.write_s": s["busy_s"].get("svg", 0.0),
        "cli.self_s": layer_self("cli"),
    }
    for key in out:
        if key.endswith("_s"):
            out[key] /= ops
    return out

