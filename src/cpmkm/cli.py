"""Command-line front-end for adaptation, baselines, and benchmarking.

Exit codes: 0 success; 1 validation failure (unreadable or malformed input,
unknown config key); 2 numerical failure (numpy.linalg.LinAlgError) or a
usage error click reports (a missing required flag, a flag or config value
of the wrong type); 3 selftest property failure.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, replace
from functools import reduce
from pathlib import Path

import click
import numpy as np

from .adapt import adapt_pipeline, predict_target, target_class_probs
from .data import load_csv, load_feature_csv, load_label_csv, standardize_columns
from .klr import CvGrid
from .shiftlab import (METHODS, ShiftSpec, aggregate, metric_acc, metric_mse,
                       run_benchmark, sample_shift_scenario)

SCHEMA_VERSION = 1


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


@contextmanager
def _exit_codes():
    """Exit 2 on a numerical failure and 1 on unreadable or rejected input."""
    try:
        yield
    except np.linalg.LinAlgError as exc:  # a ValueError subclass: caught first
        _fail(f"numerical failure: {exc}", 2)
    except (OSError, ValueError) as exc:
        _fail(str(exc), 1)


def _parse_grid(c_grid, g_grid, folds, trunc_t) -> CvGrid:
    values = {key: tuple(float(v) for v in text.split(","))
              for key, text in (("c_values", c_grid), ("g_values", g_grid)) if text}
    return CvGrid(folds=folds, trunc_t=trunc_t, **values)


def _load_config(ctx, param, path):
    """Make a JSON object of parameter values the command's defaults.

    Runs before the other parameters are processed, so flags still win, and
    config values are converted and checked by the flags' own types.
    """
    if path is None:
        return
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read config {path}: {exc}", 1)
    if not isinstance(cfg, dict):
        _fail(f"config {path} must be a JSON object", 1)
    unknown = set(cfg) - {p.name for p in ctx.command.params if p.expose_value}
    if unknown:
        _fail(f"unknown config keys: {sorted(unknown)}", 1)
    # floats as text, like flag values: click's INT truncates 3.9 but rejects "3.9"
    ctx.default_map = {k: repr(v) if isinstance(v, float) else v
                       for k, v in cfg.items()}


def _load_labeled(path, label_column, standardize):
    """load_csv, standardized if asked, and the map that rescales other points alike."""
    data = load_csv(path, label_column)
    if not standardize:
        return data, lambda x: x
    features, mean, std = standardize_columns(data.features)
    return replace(data, features=features), lambda x: (x - mean) / std


def _shift_spec(pool, alpha, mq, n_p, n_q, n_t, seed) -> ShiftSpec:
    """The scenario options as a ShiftSpec; without --mq every class is supported."""
    return ShiftSpec(alpha, pool.num_classes if mq is None else mq, n_p, n_q, n_t, seed)


def _read_json(path, what: str, read):
    """read(doc) of the JSON document at path; any failure is a ValueError naming path."""
    try:
        return read(json.loads(Path(path).read_text()))
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise ValueError(f"{path}: not {what} ({exc!r})")


def _write_text(path, text: str):
    """Write text to path, creating its parent directory first."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text)


def _write_json(path, payload):
    """Write payload as a JSON document whose first key is schema_version."""
    doc = {"schema_version": SCHEMA_VERSION, **payload}
    _write_text(path, json.dumps(doc, indent=2) + "\n")


def _write_csv(path, features, labels):
    """Header CSV of columns x0..x{d-1} and, unless labels is None, an integer `label`."""
    header = [f"x{i}" for i in range(features.shape[1])]
    rows = [[repr(float(v)) for v in row] for row in features]
    if labels is not None:
        header.append("label")
        for row, label in zip(rows, labels):
            row.append(str(int(label)))
    lines = [",".join(row) for row in [header, *rows]]
    _write_text(path, "\n".join(lines) + "\n")


@click.group()
def main():
    """Label shift adaptation via class probability matching."""


def _options(options):
    """One decorator applying a shared list of click options in order."""
    return lambda fn: reduce(lambda f, option: option(f), reversed(options), fn)


config_option = click.option(
    "--config", type=click.Path(), is_eager=True, expose_value=False,
    callback=_load_config, help="JSON object keyed by parameter name; flags override it.")

grid_options = _options([
    click.option("--c-grid", default=None, help="Comma-separated C values."),
    click.option("--g-grid", default=None, help="Comma-separated kernel coefficients."),
    click.option("--folds", default=CvGrid.folds, show_default=True),
    click.option("--trunc-t", default=CvGrid.trunc_t, show_default=True),
])

scenario_options = _options([
    click.option("--pool", "pool_path", required=True, type=click.Path()),
    click.option("--label-column", default="label", show_default=True),
    click.option("--alpha", default=1.0, show_default=True, help="Dirichlet concentration."),
    click.option("--mq", default=None, type=int,
                 help="Supported target classes, at least 1 (default M)."),
    click.option("--np", "n_p", default=500, show_default=True),
    click.option("--nq", "n_q", default=500, show_default=True),
    click.option("--nt", "n_t", default=500, show_default=True),
    click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0)),
])


@main.command("adapt")
@click.option("--source", "source_path", required=True, type=click.Path())
@click.option("--target", "target_path", required=True, type=click.Path())
@click.option("--label-column", default="label", show_default=True)
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", "out_path", default="adapted.json", show_default=True)
@config_option
@grid_options
@_exit_codes()
def cmd_adapt(source_path, target_path, label_column, standardize, seed, out_path,
              c_grid, g_grid, folds, trunc_t):
    """Fit the full pipeline and write the adapted model plus predictions."""
    source, rescale = _load_labeled(source_path, label_column, standardize)
    target_x = load_feature_csv(target_path)
    if target_x.shape[1] != source.dim:
        raise ValueError(f"target has {target_x.shape[1]} features, "
                         f"source has {source.dim}")
    target_x = rescale(target_x)
    grid = _parse_grid(c_grid, g_grid, folds, trunc_t)
    model, cv = adapt_pipeline(source, target_x, grid, seed)
    if cv.on_boundary:
        click.echo(f"warning: CV picked C*={cv.c:g}, g*={cv.kernel.gamma_sq_inv:g} "
                   "on the grid edge; the optimum may lie outside the grid", err=True)
    _, labels = predict_target(model, target_x)
    q_y = target_class_probs(model.weights, model.source_priors)
    _write_json(out_path, {
        "adapted_model": model.to_dict(),
        "w_hat": list(model.weights),
        "q_hat": list(q_y),
        "cv_table": [list(row) for row in cv.table],
        "target_labels": [int(v) for v in source.classes[labels - 1]],
    })
    click.echo(f"w_hat: {np.round(model.weights, 4).tolist()}")
    click.echo(f"q_hat: {np.round(q_y, 4).tolist()}")
    click.echo(f"wrote {out_path}")


@main.command("benchmark")
@scenario_options
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--methods", default=",".join(METHODS), show_default=True)
@click.option("--source-reps", default=10, show_default=True)
@click.option("--target-reps", default=10, show_default=True)
@click.option("--out", "out_path", default="benchmark.json", show_default=True)
@config_option
@grid_options
@_exit_codes()
def cmd_benchmark(pool_path, label_column, alpha, mq, n_p, n_q, n_t, seed, standardize,
                  methods, source_reps, target_reps, out_path,
                  c_grid, g_grid, folds, trunc_t):
    """Run the repeated-trial shift benchmark and write the JSON report."""
    method_list = tuple(m.strip() for m in methods.split(",") if m.strip())
    pool, _ = _load_labeled(pool_path, label_column, standardize)
    spec = _shift_spec(pool, alpha, mq, n_p, n_q, n_t, seed)
    grid = _parse_grid(c_grid, g_grid, folds, trunc_t)
    reports = run_benchmark(pool, spec, method_list, source_reps, target_reps, grid)
    table = aggregate(reports)
    _write_json(out_path, {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "spec": {**asdict(spec), "source_reps": source_reps,
                 "target_reps": target_reps, "methods": list(method_list)},
        "reports": reports,
        "aggregate": table,
    })
    for name, row in table.items():
        click.echo(f"{name}: ACC {row['acc_mean']:.4f} ({row['acc_std']:.4f})  "
                   f"MSE {row['mse_mean']:.6f} ({row['mse_std']:.6f})")
    click.echo(f"wrote {out_path}")


@main.command("simulate")
@scenario_options
@click.option("--out-dir", default="scenario", show_default=True)
@_exit_codes()
def cmd_simulate(pool_path, label_column, alpha, mq, n_p, n_q, n_t, seed, out_dir):
    """Generate one shift scenario (source/target/test CSVs plus q_true)."""
    pool = load_csv(pool_path, label_column)
    spec = _shift_spec(pool, alpha, mq, n_p, n_q, n_t, seed)
    source, target_x, test, q_true = sample_shift_scenario(pool, spec)
    out = Path(out_dir)
    _write_csv(out / "source.csv", source.features, pool.classes[source.labels - 1])
    _write_csv(out / "target.csv", target_x, None)
    _write_csv(out / "test.csv", test.features, pool.classes[test.labels - 1])
    _write_json(out / "q_true.json", {"q_true": q_true.tolist()})
    click.echo(f"wrote scenario to {out}/")


@main.command("evaluate")
@click.option("--predictions", required=True, type=click.Path(),
              help="CSV with a single column of predicted integer labels.")
@click.option("--truth", required=True, type=click.Path(),
              help="CSV with a single column of true integer labels.")
@click.option("--q-hat", default=None, type=click.Path(),
              help="JSON with a q_hat array (optional, for MSE).")
@click.option("--q-true", default=None, type=click.Path(),
              help="JSON with a q_true array (required with --q-hat, and only valid with it).")
@_exit_codes()
def cmd_evaluate(predictions, truth, q_hat, q_true):
    """Compute ACC (and MSE, if class probability files are given)."""
    if q_hat and not q_true:
        raise ValueError("--q-hat requires --q-true")
    if q_true and not q_hat:
        raise ValueError("--q-true requires --q-hat")
    lines = [f"ACC: {metric_acc(load_label_csv(predictions), load_label_csv(truth)):.6f}"]
    if q_hat:
        qh = _read_json(q_hat, "a q_hat report", lambda d: np.asarray(d["q_hat"], float))
        qt = _read_json(q_true, "a q_true report", lambda d: np.asarray(d["q_true"], float))
        lines.append(f"MSE: {metric_mse(qh, qt):.8f}")
    click.echo("\n".join(lines))


@main.command("plot-data")
@click.option("--reports", required=True, multiple=True, type=click.Path(),
              help="Benchmark JSON files (one per target sample size).")
@click.option("--metric", default="mse", type=click.Choice(["mse", "acc"]),
              show_default=True)
@click.option("--out", "out_path", default="plot_data.csv", show_default=True)
@_exit_codes()
def cmd_plot_data(reports, metric, out_path):
    """Flatten benchmark reports into (method, n_q, mean, std) rows."""
    def rows_of(doc):
        n_q = doc["spec"]["n_q"]
        return [(name, n_q, agg[f"{metric}_mean"], agg[f"{metric}_std"])
                for name, agg in doc["aggregate"].items()]

    rows = sorted(row for path in reports
                  for row in _read_json(path, "a benchmark report", rows_of))
    lines = ["method,n_q,mean,std"]
    lines += [f"{m},{n},{mean!r},{std!r}" for m, n, mean, std in rows]
    _write_text(out_path, "\n".join(lines) + "\n")
    click.echo(f"wrote {out_path}")


@main.command("selftest")
def cmd_selftest():
    """Run the fast invariant suite; exit 3 on any property failure."""
    from .selftest import CHECKS

    rng = np.random.default_rng(12345)
    failed = False
    for name, check in CHECKS:
        passed = check(rng)
        click.echo(f"{name}: {'PASS' if passed else 'FAIL'}")
        failed |= not passed
    if failed:
        sys.exit(3)


if __name__ == "__main__":
    main()
