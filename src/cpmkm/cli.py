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
from pathlib import Path

import click
import numpy as np

from .adapt import adapt_pipeline, predict_target, target_class_probs
from .data import apply_standardization, load_csv, load_feature_csv
from .klr import CvGrid
from .shiftlab import (ShiftSpec, aggregate, metric_acc, metric_mse,
                       run_benchmark, sample_shift_scenario)

SCHEMA_VERSION = 1


def _fail(message: str, code: int = 1):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _parse_grid(c_grid, g_grid, folds, trunc_t) -> CvGrid:
    kwargs = {"folds": folds, "trunc_t": trunc_t}
    if c_grid:
        kwargs["c_values"] = tuple(float(v) for v in c_grid.split(","))
    if g_grid:
        kwargs["g_values"] = tuple(float(v) for v in g_grid.split(","))
    return CvGrid(**kwargs)


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
        _fail(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        _fail(f"config {path} must be a JSON object")
    unknown = set(cfg) - {p.name for p in ctx.command.params if p.expose_value}
    if unknown:
        _fail(f"unknown config keys: {sorted(unknown)}")
    # floats as text, like flag values: click's INT truncates 3.9 but rejects "3.9"
    ctx.default_map = {k: repr(v) if isinstance(v, float) else v
                       for k, v in cfg.items()}


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _write_csv(path, features, labels=None):
    """Header CSV of columns x0..x{d-1}, plus an integer `label` column if given."""
    header = [f"x{i}" for i in range(features.shape[1])]
    if labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for i, row in enumerate(features):
        cells = [repr(float(v)) for v in row]
        if labels is not None:
            cells.append(str(int(labels[i])))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n")


@click.group()
def main():
    """Label shift adaptation via class probability matching."""


config_option = click.option(
    "--config", type=click.Path(), is_eager=True, expose_value=False,
    callback=_load_config, help="JSON object keyed by parameter name; flags override it.")

_grid_options = [
    click.option("--c-grid", default=None, help="Comma-separated C values."),
    click.option("--g-grid", default=None, help="Comma-separated kernel coefficients."),
    click.option("--folds", default=5, show_default=True),
    click.option("--trunc-t", default=1e-8, show_default=True),
]


def grid_options(fn):
    for opt in reversed(_grid_options):
        fn = opt(fn)
    return fn


@main.command("adapt")
@click.option("--source", "source_path", required=True, type=click.Path())
@click.option("--target", "target_path", required=True, type=click.Path())
@click.option("--label-column", default="label", show_default=True)
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", default="adapted.json", show_default=True)
@config_option
@grid_options
def cmd_adapt(source_path, target_path, label_column, standardize, seed, out_path,
              c_grid, g_grid, folds, trunc_t):
    """Fit the full pipeline and write the adapted model plus predictions."""
    try:
        source = load_csv(source_path, label_column, standardize)
        target_x = load_feature_csv(target_path)
        if target_x.shape[1] != source.dim:
            raise ValueError(f"target has {target_x.shape[1]} features, "
                             f"source has {source.dim}")
        if standardize:
            target_x = apply_standardization(target_x, source.feature_mean,
                                             source.feature_std)
        grid = _parse_grid(c_grid, g_grid, folds, trunc_t)
        model = adapt_pipeline(source, target_x, grid, seed)
        _, labels = predict_target(model, target_x)
        q_y = target_class_probs(model)
        _write_json(out_path, {
            "schema_version": SCHEMA_VERSION,
            "adapted_model": json.loads(model.to_json()),
            "w_hat": list(model.weights),
            "q_hat": list(q_y),
            "cv_table": [list(row) for row in model.cv_table],
            "target_labels": [int(v) for v in labels],
        })
    except np.linalg.LinAlgError as exc:  # a ValueError subclass: caught first
        _fail(f"numerical failure: {exc}", code=2)
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    click.echo(f"w_hat: {np.round(model.weights, 4).tolist()}")
    click.echo(f"q_hat: {np.round(q_y, 4).tolist()}")
    click.echo(f"wrote {out_path}")


@main.command("benchmark")
@click.option("--pool", "pool_path", required=True, type=click.Path())
@click.option("--label-column", default="label", show_default=True)
@click.option("--standardize/--no-standardize", default=True, show_default=True)
@click.option("--alpha", default=1.0, show_default=True, help="Dirichlet concentration.")
@click.option("--mq", default=None, type=int, help="Supported target classes (default M).")
@click.option("--np", "n_p", default=500, show_default=True)
@click.option("--nq", "n_q", default=500, show_default=True)
@click.option("--nt", "n_t", default=500, show_default=True)
@click.option("--methods", default="cpmkm,bbse,rlls,mlls", show_default=True)
@click.option("--source-reps", default=10, show_default=True)
@click.option("--target-reps", default=10, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_path", default="benchmark.json", show_default=True)
@config_option
@grid_options
def cmd_benchmark(pool_path, label_column, standardize, alpha, mq, n_p, n_q, n_t,
                  methods, source_reps, target_reps, seed, out_path,
                  c_grid, g_grid, folds, trunc_t):
    """Run the repeated-trial shift benchmark and write the JSON report."""
    method_list = tuple(m.strip() for m in methods.split(",") if m.strip())
    try:
        pool = load_csv(pool_path, label_column, standardize)
        spec = ShiftSpec(alpha=alpha, m_q=mq or pool.num_classes,
                         n_p=n_p, n_q=n_q, n_t=n_t, seed=seed)
        grid = _parse_grid(c_grid, g_grid, folds, trunc_t)
        reports = run_benchmark(pool, spec, method_list, source_reps, target_reps, grid)
        table = aggregate(reports)
        _write_json(out_path, {
            "schema_version": SCHEMA_VERSION,
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "spec": {"alpha": spec.alpha, "m_q": spec.m_q, "n_p": spec.n_p,
                     "n_q": spec.n_q, "n_t": spec.n_t, "seed": spec.seed,
                     "source_reps": source_reps, "target_reps": target_reps,
                     "methods": list(method_list)},
            "reports": [r.to_dict() for r in reports],
            "aggregate": table,
        })
    except np.linalg.LinAlgError as exc:  # a ValueError subclass: caught first
        _fail(f"numerical failure: {exc}", code=2)
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    for name, row in table.items():
        click.echo(f"{name}: ACC {row['acc_mean']:.4f} ({row['acc_std']:.4f})  "
                   f"MSE {row['mse_mean']:.6f} ({row['mse_std']:.6f})")
    click.echo(f"wrote {out_path}")


@main.command("simulate")
@click.option("--pool", "pool_path", required=True, type=click.Path())
@click.option("--label-column", default="label", show_default=True)
@click.option("--alpha", default=1.0, show_default=True)
@click.option("--mq", default=None, type=int)
@click.option("--np", "n_p", default=500, show_default=True)
@click.option("--nq", "n_q", default=500, show_default=True)
@click.option("--nt", "n_t", default=500, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out-dir", default="scenario", show_default=True)
def cmd_simulate(pool_path, label_column, alpha, mq, n_p, n_q, n_t, seed, out_dir):
    """Generate one shift scenario (source/target/test CSVs plus q_true)."""
    out = Path(out_dir)
    try:
        pool = load_csv(pool_path, label_column, standardize=False)
        spec = ShiftSpec(alpha=alpha, m_q=mq or pool.num_classes,
                         n_p=n_p, n_q=n_q, n_t=n_t, seed=seed)
        source, target_x, test, q_true = sample_shift_scenario(pool, spec)
        out.mkdir(parents=True, exist_ok=True)
        _write_csv(out / "source.csv", source.features, source.labels)
        _write_csv(out / "target.csv", target_x)
        _write_csv(out / "test.csv", test.features, test.labels)
        _write_json(out / "q_true.json", {"schema_version": SCHEMA_VERSION,
                                          "q_true": q_true.tolist()})
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    click.echo(f"wrote scenario to {out}/")


@main.command("evaluate")
@click.option("--predictions", required=True, type=click.Path(),
              help="CSV with a single column of predicted labels.")
@click.option("--truth", required=True, type=click.Path(),
              help="CSV with a single column of true labels.")
@click.option("--q-hat", default=None, type=click.Path(),
              help="JSON with a q_hat array (optional, for MSE).")
@click.option("--q-true", default=None, type=click.Path(),
              help="JSON with a q_true array (required with --q-hat).")
def cmd_evaluate(predictions, truth, q_hat, q_true):
    """Compute ACC (and MSE, if class probability files are given)."""
    try:
        pred = load_feature_csv(predictions).ravel().astype(int)
        true = load_feature_csv(truth).ravel().astype(int)
        click.echo(f"ACC: {metric_acc(pred, true):.6f}")
        if q_hat:
            if not q_true:
                _fail("--q-hat requires --q-true")
            qh = np.array(json.loads(Path(q_hat).read_text()).get("q_hat"))
            qt = np.array(json.loads(Path(q_true).read_text()).get("q_true"))
            click.echo(f"MSE: {metric_mse(qh, qt):.8f}")
    except (OSError, ValueError) as exc:
        _fail(str(exc))


@main.command("plot-data")
@click.option("--reports", required=True, multiple=True, type=click.Path(),
              help="Benchmark JSON files (one per target sample size).")
@click.option("--metric", default="mse", type=click.Choice(["mse", "acc"]),
              show_default=True)
@click.option("--out", "out_path", default="plot_data.csv", show_default=True)
def cmd_plot_data(reports, metric, out_path):
    """Flatten benchmark reports into (method, n_q, mean, std) rows."""
    rows = []
    try:
        for path in reports:
            try:
                doc = json.loads(Path(path).read_text())
                n_q = doc["spec"]["n_q"]
                rows += [(name, n_q, agg[f"{metric}_mean"], agg[f"{metric}_std"])
                         for name, agg in doc["aggregate"].items()]
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                raise ValueError(f"{path}: not a benchmark report ({exc!r})")
        rows.sort()
        lines = ["method,n_q,mean,std"]
        lines += [f"{m},{n},{mean!r},{std!r}" for m, n, mean, std in rows]
        Path(out_path).write_text("\n".join(lines) + "\n")
    except (OSError, ValueError) as exc:
        _fail(str(exc))
    click.echo(f"wrote {out_path}")


@main.command("selftest")
@click.option("--inject-fault", default=None, hidden=True,
              type=click.Choice(["truncation"]))
def cmd_selftest(inject_fault):
    """Run the fast invariant suite; exit 3 on any property failure."""
    from .selftest import run_selftest

    if not run_selftest(echo=click.echo, inject_fault=inject_fault):
        sys.exit(3)


if __name__ == "__main__":
    main()
