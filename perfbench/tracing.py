"""Spans around every public function of the package's modules.

The tracer replaces each function listed in a module's ``__all__`` with a
wrapper, in every namespace of the package that holds it, so calls made
between modules (``cli`` calling ``match``) are caught as well as the
benchmark's own.  Nothing in the package changes; ``uninstall`` puts the
originals back.  Each span is ``[name, start, end, parent, info]``, where
``parent`` is the index of the enclosing span or -1 and ``info`` holds the
counts read from the call's arguments and result.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
import tracemalloc

import numpy as np

LAYERS = ("mesh", "spectral", "regions", "pursuit", "assignment", "matcher",
          "refine", "evaluate", "cli")

# per-layer metric -> function whose peak traced allocation it reports.
# tracemalloc runs only inside the first call of each, once per run: it
# more than doubles the detector's time, and the allocations repeat.
PEAK_ALLOC = {"regions.peak_alloc_mb": "regions.detect_stable_regions",
              "evaluate.peak_alloc_mb": "evaluate.correspondence_error"}


def _info(name, args, kwargs, result):
    if name == "mesh.geodesic_distance_matrix":
        sources = args[1] if len(args) > 1 else kwargs["sources"]
        return {"sources": len(np.atleast_1d(sources))}
    if name == "mesh.geodesic_distances":
        return {"sources": 1}
    if name == "regions.detect_stable_regions":
        return {"detected": len(result)}
    if name == "pursuit.solve_robust_sparse_coding":
        return {"iterations": result.iterations, "unconverged": int(not result.converged)}
    if name == "matcher.match":
        return {"outer_iterations": result.outer_iterations}
    if name == "refine.refine_icp":
        return {"iterations": result.iterations, "unconverged": int(not result.converged)}
    if name == "evaluate.correspondence_error":
        return {"mean": float(np.mean(result))}
    return None


class Tracer:
    """Records spans while installed; not thread-safe (the package calls
    its own functions from one thread)."""

    def __init__(self, package="shapecorr"):
        self.package = package
        self.spans = []
        self.peak_mb = {}  # function -> peak MB of its first call
        self._stack = []
        self._patched = []  # (namespace, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, peak_mb = self.spans, self._stack, self.peak_mb
        watched = name in PEAK_ALLOC.values()

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            index = len(spans)
            spans.append(span)
            stack.append(index)
            measure = watched and name not in peak_mb
            if measure:
                tracemalloc.start()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if measure:
                    peak_mb[name] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
            span[4] = _info(name, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        modules = [importlib.import_module(f"{self.package}.{layer}")
                   for layer in LAYERS]
        namespaces = [importlib.import_module(self.package)] + modules
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if id(value) in wrappers and inspect.isfunction(value):
                    self._patched.append((ns, attr, value))
                    setattr(ns, attr, wrappers[id(value)])

    def peak_metrics(self):
        """Peak traced allocation per watched function; 0 if never called."""
        return {metric: self.peak_mb.get(name, 0)
                for metric, name in PEAK_ALLOC.items()}

    def uninstall(self):
        for ns, attr, original in reversed(self._patched):
            setattr(ns, attr, original)
        self._patched.clear()


# per-layer metrics built from span durations: metric -> traced functions
TIMES = {
    "mesh.load_s": ("mesh.load_mesh",),
    "mesh.save_s": ("mesh.save_mesh",),
    "mesh.geodesic_s": ("mesh.geodesic_distances", "mesh.geodesic_distance_matrix"),
    "spectral.laplacian_s": ("spectral.cotangent_laplacian",),
    "spectral.eigensolve_s": ("spectral.eigenbasis",),
    "regions.detect_s": ("regions.detect_stable_regions",),
    "regions.load_s": ("regions.load_regions",),
    "regions.save_s": ("regions.save_regions",),
    "regions.coefficients_s": ("regions.region_coefficients",),
    "pursuit.solve_s": ("pursuit.solve_robust_sparse_coding",),
    "pursuit.step_size_s": ("pursuit.step_size",),
    "assignment.solve_s": ("assignment.solve_assignment",),
    "matcher.match_s": ("matcher.match",),
    "refine.icp_s": ("refine.refine_icp",),
    "refine.nearest_rows_s": ("refine.nearest_rows",),
    "evaluate.error_s": ("evaluate.correspondence_error",),
    "evaluate.export_s": ("evaluate.export_colored_ply",),
}

# per-layer metrics built from span info: metric -> (functions, key, reduce)
COUNTS = {
    "mesh.geodesic_sources": (TIMES["mesh.geodesic_s"], "sources", "sum"),
    "regions.detected": (TIMES["regions.detect_s"], "detected", "sum"),
    "pursuit.calls": (TIMES["pursuit.solve_s"], None, "count"),
    "pursuit.iterations": (TIMES["pursuit.solve_s"], "iterations", "sum"),
    "pursuit.unconverged": (TIMES["pursuit.solve_s"], "unconverged", "sum"),
    "assignment.calls": (TIMES["assignment.solve_s"], None, "count"),
    "matcher.outer_iterations": (TIMES["matcher.match_s"], "outer_iterations", "sum"),
    "refine.icp_iterations": (TIMES["refine.icp_s"], "iterations", "sum"),
    "refine.unconverged": (TIMES["refine.icp_s"], "unconverged", "sum"),
    "evaluate.mean_geo_err": (TIMES["evaluate.error_s"], "mean", "mean"),
}


def _outermost(spans, names):
    """Spans named in ``names`` that no other such span encloses.

    ``match`` calls itself when it swaps sides; only the outer call counts.
    """
    chosen = []
    for span in spans:
        if span[0] not in names:
            continue
        parent = span[3]
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            chosen.append(span)
    return chosen


def layer_self_times(spans):
    """Seconds per layer spent in its own spans, children excluded."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span[3] >= 0:
            child_time[span[3]] += span[2] - span[1]
    out = dict.fromkeys(LAYERS, 0.0)
    for span, children in zip(spans, child_time):
        out[span[0].split(".", 1)[0]] += (span[2] - span[1]) - children
    return out


def op_metrics(spans, op_seconds):
    """Per-layer metrics of one op from the spans it recorded.

    ``spans`` must be the op's own slice with parents renumbered to it
    (see :func:`rebase`).  A layer the op never reaches reads 0.
    """
    metrics = {}
    for metric, names in TIMES.items():
        metrics[metric] = sum(s[2] - s[1] for s in _outermost(spans, names))
    for metric, (names, key, reduce) in COUNTS.items():
        chosen = _outermost(spans, names)
        if reduce == "count":
            metrics[metric] = len(chosen)
            continue
        values = [s[4][key] for s in chosen]
        if not values:
            metrics[metric] = 0
        elif reduce == "sum":
            metrics[metric] = sum(values)
        else:
            metrics[metric] = sum(values) / len(values)
    metrics["cli.self_s"] = layer_self_times(spans)["cli"]
    top = sum(s[2] - s[1] for s in spans if s[3] < 0)
    metrics["trace.outside_share"] = max(op_seconds - top, 0.0) / op_seconds
    return metrics


def rebase(spans, first):
    """Copy of ``spans[first:]`` with parent indices relative to ``first``."""
    return [[s[0], s[1], s[2], s[3] - first if s[3] >= first else -1, s[4]]
            for s in spans[first:]]
