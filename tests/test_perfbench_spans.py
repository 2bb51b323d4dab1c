"""The benchmark's span tracer (perfbench/spans.py) still fits the package.

The tracer wraps cpmkm functions by name and its hooks read their results,
so a renamed function or a changed return type breaks traced benchmark runs;
this test makes such a break fail the suite instead.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import cpmkm.cli  # noqa: F401  (install wraps the CLI commands too)
from cpmkm.data import Dataset
from cpmkm.kernel import KernelParams

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def cpmkm_namespaces():
    """Every name bound in every loaded cpmkm module, by identity."""
    return {(name, attr): value
            for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == "cpmkm" or name.startswith("cpmkm."))
            for attr, value in vars(mod).items()}


def cli_callbacks():
    return {name: cmd.callback for name, cmd in cpmkm.cli.main.commands.items()}


def test_tracer_installs_runs_and_restores(spans):
    before, callbacks = cpmkm_namespaces(), cli_callbacks()
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        from cpmkm import kernel, klr

        wrapped = {f"{mod}.{fn}" for mod, fn in spans.TRACED}
        assert set(tracer.names) == wrapped
        rng = np.random.default_rng(0)
        x = rng.standard_normal((12, 2))
        labels = np.r_[1, 2, 3, rng.integers(1, 4, 9)]
        kernel_params = KernelParams(0.5)
        kernel.gram(x, x[:5], kernel_params)
        model = klr.klr_fit(Dataset(features=x, labels=labels, num_classes=3),
                            kernel_params, 0.01, 1e-8)
        grad = klr.klr_gradient(model.alpha, kernel.gram(x, x, kernel_params),
                                labels, model.lam)
        assert grad.shape == model.alpha.shape
    finally:
        restore()
    calls = {name: len(s["dur"]) for name, s in tracer.by_name().items()}
    # one direct Gram, the fit's own and the one handed to klr_gradient
    assert calls["kernel.gram"] == 3
    assert calls["klr.klr_fit"] == calls["klr.klr_gradient"] == 1
    assert tracer.counters["kernel.gram.entries"] == 12 * 5 + 2 * 12 * 12
    assert len(tracer.fits) == 1 and tracer.fits[0][3] is model.alpha
    after = cpmkm_namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert cli_callbacks() == callbacks


def test_cv_select_spans_match_benchmark_self_check(spans, monkeypatch):
    # the benchmark's traced runs expect one klr_fit and one klr_predict span
    # per (C, g, fold) cell, plus the refit
    self_grams = []
    gram_hook = spans.HOOKS["kernel.gram"]

    def count_self_grams(tracer, args, kwargs, result):
        self_grams.append(args[0] is args[1])
        gram_hook(tracer, args, kwargs, result)

    monkeypatch.setitem(spans.HOOKS, "kernel.gram", count_self_grams)
    from cpmkm.klr import CvGrid

    rng = np.random.default_rng(1)
    x = rng.standard_normal((24, 2))
    labels = np.repeat([1, 2, 3], 8)
    grid = CvGrid(c_values=(1e-3, 1.0), g_values=(0.25, 0.5, 1.0), folds=3)
    tracer = spans.Tracer()
    restore = spans.install(tracer)
    try:
        from cpmkm import klr

        klr.cv_select(Dataset(features=x, labels=labels, num_classes=3), grid, seed=0)
    finally:
        restore()
    calls = {name: len(s["dur"]) for name, s in tracer.by_name().items()}
    cells = 2 * 3 * 3
    assert calls["klr.cv_select"] == 1
    assert calls["klr.klr_fit"] == cells + 1
    assert calls["klr.klr_predict"] == cells
    # one factored training Gram per (g, fold), and the refit's
    assert sum(self_grams) == 3 * 3 + 1
