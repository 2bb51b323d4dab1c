"""Span tracing of cpmkm's public functions, installed from outside the package.

`install` wraps the named functions of each cpmkm module and rebinds every
cpmkm namespace that holds the original object, so by-name imports such as
`from .klr import klr_predict` in `baselines` are traced too.  Spans are kept
in memory in flat arrays and turned into per-function statistics (or written
to disk) only after the traced region ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, function) pairs traced as layer boundaries.  A `cli.<command>`
# entry wraps the callback of that click command.
TRACED = (
    ("kernel", "gram"),
    ("klr", "cv_select"), ("klr", "klr_fit"), ("klr", "klr_objective"),
    ("klr", "klr_gradient"), ("klr", "klr_predict"), ("klr", "softmax_scores"),
    ("klr", "truncate_simplex"),
    ("cpm", "cpm_solve"), ("cpm", "cpm_objective"), ("cpm", "cpm_gradient"),
    ("baselines", "confusion_estimate"), ("baselines", "bbse_solve"),
    ("baselines", "rlls_solve"), ("baselines", "mlls_em"),
    ("shiftlab", "run_benchmark"), ("shiftlab", "sample_target_test"),
    ("shiftlab", "estimate_weights"),
    ("adapt", "adapt_pipeline"), ("adapt", "predict_target"),
    ("adapt", "reweight_posterior"),
    ("data", "load_csv"), ("data", "load_feature_csv"),
    ("cli", "adapt"), ("cli", "benchmark"),
)


class Tracer:
    """In-memory span store; one span per call of a wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.depth = array("i")        # open spans around this one
        self.start = array("d")
        self.dur = array("d")
        self.child = array("d")        # time covered by direct child spans
        self._stack: list[float] = []  # child time of each open span
        self.counters: dict[str, float] = {}
        self.fits: list[tuple] = []    # (data, kernel, lam, alpha) per klr_fit

    def count(self, key: str, amount: float):
        self.counters[key] = self.counters.get(key, 0.0) + amount

    def wrap(self, name: str, fn, hook=None):
        nid = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = len(stack)
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += d
                self.name_id.append(nid)
                self.depth.append(depth)
                self.start.append(t0)
                self.dur.append(d)
                self.child.append(child)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        """Spans as columns in exit order; sort by `start` for entry order."""
        cols = {"name_id": self.name_id, "depth": self.depth, "start": self.start,
                "dur": self.dur, "child": self.child}
        return {k: np.frombuffer(v, dtype=np.int32 if v.typecode == "i" else float)
                for k, v in cols.items()}

    def by_name(self) -> dict[str, dict[str, np.ndarray]]:
        """Per-function durations and self times (duration minus child spans)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.dur, dtype=float)
        self_t = dur - np.frombuffer(self.child, dtype=float)
        return {name: {"dur": dur[nid == i], "self": self_t[nid == i]}
                for i, name in enumerate(self.names)}


def tail_percentile(n: int) -> float | None:
    """Highest of p99.9/p99/p90/p50 with at least 10 samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10.0 - 1e-9:
            return p
    return None


# Hooks record counts at the boundary where the work happens.

def _gram_hook(tracer, args, kwargs, result):
    rows, cols = result.values.shape
    tracer.count("kernel.gram.entries", rows * cols)


def _predict_hook(tracer, args, kwargs, result):
    tracer.count("klr.klr_predict.rows", result.shape[0])


def _fit_hook(tracer, args, kwargs, result):
    data = args[0] if args else kwargs["data"]
    tracer.fits.append((data, result.kernel, result.lam, result.alpha))


def _cv_hook(tracer, args, kwargs, result):
    grid = args[1] if len(args) > 1 else kwargs["cv_grid"]
    data = args[0] if args else kwargs["data"]
    c_star = 1.0 / (result.lam * len(data.labels))
    g_star = result.kernel.gamma_sq_inv
    edge_c = [min(grid.c_values), max(grid.c_values)]
    edge_g = [min(grid.g_values), max(grid.g_values)]
    on_edge = (any(np.isclose(c_star, v, rtol=1e-9) for v in edge_c)
               or any(np.isclose(g_star, v, rtol=1e-12) for v in edge_g))
    tracer.count("klr.cv_select.boundary", float(on_edge))


def _cpm_hook(tracer, args, kwargs, result):
    tracer.count("cpm.cpm_solve.at_start", float(np.all(result == 1.0)))


def _load_hook(tracer, args, kwargs, result):
    tracer.count("data.load_csv.rows", len(result.labels))


HOOKS = {
    "kernel.gram": _gram_hook,
    "klr.klr_predict": _predict_hook,
    "klr.klr_fit": _fit_hook,
    "klr.cv_select": _cv_hook,
    "cpm.cpm_solve": _cpm_hook,
    "data.load_csv": _load_hook,
}


def install(tracer: Tracer):
    """Wrap every TRACED function and rebind it in all cpmkm namespaces.

    Returns a function that restores the originals.
    """
    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "cpmkm" or name.startswith("cpmkm."))]
    undo = []
    for mod_name, fn_name in TRACED:
        layer = f"{mod_name}.{fn_name}"
        mod = importlib.import_module(f"cpmkm.{mod_name}")
        if mod_name == "cli":
            command = mod.main.commands[fn_name]
            original = command.callback
            command.callback = tracer.wrap(layer, original, HOOKS.get(layer))
            undo.append((command, "callback", original))
            continue
        original = getattr(mod, fn_name)
        wrapper = tracer.wrap(layer, original, HOOKS.get(layer))
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    undo.append((m, attr, original))

    def restore():
        for obj, attr, value in reversed(undo):
            setattr(obj, attr, value)

    return restore
