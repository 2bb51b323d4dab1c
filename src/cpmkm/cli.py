"""Command-line front-end for adaptation, baselines, and benchmarking.

Exit codes: 0 success, 1 validation failure, 2 numerical failure,
3 selftest property failure.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import click
import numpy as np

from .adapt import AdaptedModel, adapt_pipeline, predict_target, target_class_probs
from .data import Dataset, apply_standardization, load_csv, load_feature_csv
from .klr import CvGrid
from .shiftlab import (METHODS, ShiftSpec, aggregate, metric_acc, metric_mse,
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


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        _fail(f"cannot read config {path}: {exc}")
    if not isinstance(cfg, dict):
        _fail(f"config {path} must be a JSON object")
    return cfg


def _merged(ctx, config, known_keys):
    """Config-file values fill in parameters the flags left at their defaults."""
    unknown = set(config) - set(known_keys)
    if unknown:
        _fail(f"unknown config keys: {sorted(unknown)}")
    out = {}
    for key in known_keys:
        if key in config and ctx.get_parameter_source(key).name == "DEFAULT":
            out[key] = config[key]
        else:
            out[key] = ctx.params[key]
    return out


def _write_json(path, payload):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


@click.group()
def main():
    """Label shift adaptation via class probability matching."""


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
@click.option("--config", default=None, type=click.Path())
@grid_options
@click.pass_context
def cmd_adapt(ctx, source_path, target_path, label_column, standardize, seed,
              out_path, config, c_grid, g_grid, folds, trunc_t):
    """Fit the full pipeline and write the adapted model plus predictions."""
    cfg = _load_config(config)
    p = _merged(ctx, cfg, ["source_path", "target_path", "label_column",
                           "standardize", "seed", "out_path",
                           "c_grid", "g_grid", "folds", "trunc_t"])
    for path in (p["source_path"], p["target_path"]):
        if not Path(path).exists():
            _fail(f"file not found: {path}")
    try:
        source = load_csv(p["source_path"], p["label_column"], p["standardize"])
        target_x = load_feature_csv(p["target_path"])
        if target_x.shape[1] != source.dim:
            _fail(f"target has {target_x.shape[1]} features, source has {source.dim}")
        if p["standardize"]:
            target_x = apply_standardization(target_x, source.feature_mean,
                                             source.feature_std)
        grid = _parse_grid(p["c_grid"], p["g_grid"], p["folds"], p["trunc_t"])
    except ValueError as exc:
        _fail(str(exc))
    try:
        model = adapt_pipeline(source, target_x, grid, p["seed"])
        q_probs, labels = predict_target(model, target_x)
        q_y = target_class_probs(model)
    except ValueError as exc:
        _fail(str(exc))
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        _fail(f"numerical failure: {exc}", code=2)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "adapted_model": json.loads(model.to_json()),
        "w_hat": list(model.weights),
        "q_hat": list(q_y),
        "cv_table": [list(row) for row in model.cv_table],
        "target_labels": [int(v) for v in labels],
    }
    _write_json(p["out_path"], payload)
    click.echo(f"w_hat: {np.round(model.weights, 4).tolist()}")
    click.echo(f"q_hat: {np.round(q_y, 4).tolist()}")
    click.echo(f"wrote {p['out_path']}")


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
@click.option("--config", default=None, type=click.Path())
@grid_options
@click.pass_context
def cmd_benchmark(ctx, pool_path, label_column, standardize, alpha, mq, n_p, n_q,
                  n_t, methods, source_reps, target_reps, seed, out_path, config,
                  c_grid, g_grid, folds, trunc_t):
    """Run the repeated-trial shift benchmark and write the JSON report."""
    cfg = _load_config(config)
    p = _merged(ctx, cfg, ["pool_path", "label_column", "standardize", "alpha",
                           "mq", "n_p", "n_q", "n_t", "methods", "source_reps",
                           "target_reps", "seed", "out_path",
                           "c_grid", "g_grid", "folds", "trunc_t"])
    if not Path(p["pool_path"]).exists():
        _fail(f"file not found: {p['pool_path']}")
    method_list = tuple(m.strip() for m in p["methods"].split(",") if m.strip())
    for name in method_list:
        if name not in METHODS:
            _fail(f"unknown method {name!r}; expected one of {METHODS}")
    try:
        pool = load_csv(p["pool_path"], p["label_column"], p["standardize"])
        spec = ShiftSpec(alpha=p["alpha"], m_q=p["mq"] or pool.num_classes,
                         n_p=p["n_p"], n_q=p["n_q"], n_t=p["n_t"], seed=p["seed"])
        grid = _parse_grid(p["c_grid"], p["g_grid"], p["folds"], p["trunc_t"])
        reports = run_benchmark(pool, spec, method_list,
                                p["source_reps"], p["target_reps"], grid)
    except ValueError as exc:
        _fail(str(exc))
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        _fail(f"numerical failure: {exc}", code=2)
    table = aggregate(reports)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "spec": {"alpha": spec.alpha, "m_q": spec.m_q, "n_p": spec.n_p,
                 "n_q": spec.n_q, "n_t": spec.n_t, "seed": spec.seed,
                 "source_reps": p["source_reps"], "target_reps": p["target_reps"],
                 "methods": list(method_list)},
        "reports": [r.to_dict() for r in reports],
        "aggregate": table,
    }
    _write_json(p["out_path"], payload)
    for name, row in table.items():
        click.echo(f"{name}: ACC {row['acc_mean']:.4f} ({row['acc_std']:.4f})  "
                   f"MSE {row['mse_mean']:.6f} ({row['mse_std']:.6f})")
    click.echo(f"wrote {p['out_path']}")


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
    if not Path(pool_path).exists():
        _fail(f"file not found: {pool_path}")
    try:
        pool = load_csv(pool_path, label_column, standardize=False)
        spec = ShiftSpec(alpha=alpha, m_q=mq or pool.num_classes,
                         n_p=n_p, n_q=n_q, n_t=n_t, seed=seed)
        source, target_x, test, q_true = sample_shift_scenario(pool, spec)
    except ValueError as exc:
        _fail(str(exc))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_labeled_csv(out / "source.csv", source)
    _write_feature_csv(out / "target.csv", target_x)
    _write_labeled_csv(out / "test.csv", test)
    _write_json(out / "q_true.json", {"schema_version": SCHEMA_VERSION,
                                      "q_true": q_true.tolist()})
    click.echo(f"wrote scenario to {out}/")


def _write_labeled_csv(path, ds: Dataset):
    header = [f"x{i}" for i in range(ds.dim)] + ["label"]
    lines = [",".join(header)]
    for row, lab in zip(ds.features, ds.labels):
        lines.append(",".join(repr(float(v)) for v in row) + f",{int(lab)}")
    Path(path).write_text("\n".join(lines) + "\n")


def _write_feature_csv(path, x):
    header = [f"x{i}" for i in range(x.shape[1])]
    lines = [",".join(header)]
    for row in x:
        lines.append(",".join(repr(float(v)) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


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
    for path in filter(None, (predictions, truth, q_hat, q_true)):
        if not Path(path).exists():
            _fail(f"file not found: {path}")
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
    except ValueError as exc:
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
    for path in reports:
        if not Path(path).exists():
            _fail(f"file not found: {path}")
        doc = json.loads(Path(path).read_text())
        n_q = doc["spec"]["n_q"]
        for name, agg in doc["aggregate"].items():
            rows.append((name, n_q, agg[f"{metric}_mean"], agg[f"{metric}_std"]))
    rows.sort()
    lines = ["method,n_q,mean,std"]
    lines += [f"{m},{n},{mean!r},{std!r}" for m, n, mean, std in rows]
    Path(out_path).write_text("\n".join(lines) + "\n")
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
