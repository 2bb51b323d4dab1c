"""Workload definitions: seeded input generation, CLI arguments, output checks.

Every workload writes its inputs as CSV files, hands the program only those
files and CLI flags, and keeps the ground truth (q_true, target labels) to
itself for the output checks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cpmkm.shiftlab import gaussian_mixture_pool


class CheckFailed(Exception):
    """An output of the program failed a correctness check."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


@dataclass
class Inputs:
    args: list[str]         # CLI arguments, output path included
    out_path: Path
    truth: dict             # what the checks compare the output against


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, stream]))


def _write_csv(path: Path, features: np.ndarray, labels=None):
    cols = [f"x{i}" for i in range(features.shape[1])]
    if labels is None:
        data, fmt = features, "%.17g"
    else:
        cols.append("label")
        data = np.column_stack([features, labels])
        fmt = ["%.17g"] * features.shape[1] + ["%d"]
    np.savetxt(path, data, fmt=fmt, delimiter=",", header=",".join(cols), comments="")


def _counts(probs, n: int) -> np.ndarray:
    counts = np.floor(np.asarray(probs) * n).astype(int)
    counts[: n - counts.sum()] += 1
    return counts


def _pick(labels, counts, rng, taken):
    """Indices with `counts[y]` rows of class y+1, disjoint from `taken`."""
    idx = []
    for cls, want in enumerate(counts, start=1):
        free = np.flatnonzero((labels == cls) & ~taken)
        require(len(free) >= want, f"generator pool too small for class {cls}")
        idx.append(rng.choice(free, size=want, replace=False))
    idx = np.concatenate(idx)
    taken[idx] = True
    return idx


class AdaptGrid:
    """`cpmkm adapt` on a labeled source and an unlabeled target drawn with
    exact class counts: uniform for the source, q_true for the target."""

    name = "adapt-grid"
    params = {"command": "adapt", "num_classes": 3, "dim": 2, "n_p": 210, "n_q": 1000,
              "scale": 0.35, "pool_rows": 4000, "q_true": [0.6, 0.3, 0.1],
              # every third point of the default 7 x 7 grid: same range, 3 x 3 cells
              "c_grid": "1e-6,1e-3,1", "g_grid": "0.015625,0.125,1", "folds": 5}

    def sample(self, seed: int):
        """Returns source features, source labels, target features, target labels."""
        p = self.params
        pool = gaussian_mixture_pool(p["pool_rows"], seed, scale=p["scale"])
        rng = _rng(seed, 1)
        taken = np.zeros(len(pool), dtype=bool)
        src = _pick(pool.labels, _counts(np.full(3, 1 / 3), p["n_p"]), rng, taken)
        tgt = rng.permutation(_pick(pool.labels, _counts(p["q_true"], p["n_q"]), rng, taken))
        return pool.features[src], pool.labels[src], pool.features[tgt], pool.labels[tgt]

    def fits_per_op(self) -> int:
        p = self.params
        return len(p["c_grid"].split(",")) * len(p["g_grid"].split(",")) * p["folds"]

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        xs, ys, xt, yt = self.sample(seed)
        _write_csv(workdir / "source.csv", xs, ys)
        _write_csv(workdir / "target.csv", xt)
        out = workdir / "adapted.json"
        m = self.params["num_classes"]
        args = ["adapt", "--source", str(workdir / "source.csv"),
                "--target", str(workdir / "target.csv"), "--seed", str(seed),
                "--out", str(out), "--c-grid", self.params["c_grid"],
                "--g-grid", self.params["g_grid"], "--folds", str(self.params["folds"])]
        truth = {"q_true": np.asarray(self.params["q_true"]), "target_labels": yt,
                 "p_hat": np.bincount(ys - 1, minlength=m) / len(ys), "num_classes": m}
        return Inputs(args=args, out_path=out, truth=truth)

    def expected_calls(self) -> dict:
        # one fit per (C, g, fold) plus the refit; one predict per fold plus
        # the target posteriors in adapt_pipeline and in predict_target
        fits = self.fits_per_op()
        return {"cli.adapt": 1, "data.load_csv": 1, "data.load_feature_csv": 1,
                "adapt.adapt_pipeline": 1, "klr.cv_select": 1, "klr.klr_fit": fits + 1,
                "klr.klr_predict": fits + 2, "cpm.cpm_solve": 1, "adapt.predict_target": 1,
                "adapt.reweight_posterior": 1, "cli.benchmark": 0,
                "shiftlab.run_benchmark": 0, "baselines.mlls_em": 0}

    def check(self, out_path: Path, truth: dict) -> dict:
        doc = json.loads(out_path.read_text())
        m = truth["num_classes"]
        w = np.asarray(doc["w_hat"], dtype=float)
        q = np.asarray(doc["q_hat"], dtype=float)
        labels = np.asarray(doc["target_labels"])
        require(w.shape == (m,) and np.all(np.isfinite(w)) and np.all(w >= 0),
                "w_hat must be finite and >= 0 with one entry per class")
        require(q.shape == (m,) and np.all(q >= 0) and abs(q.sum() - 1.0) <= 1e-9,
                "q_hat must lie on the probability simplex")
        require(labels.shape == truth["target_labels"].shape
                and np.issubdtype(labels.dtype, np.integer)
                and labels.min() >= 1 and labels.max() <= m,
                "target_labels must hold n_q labels in 1..M")
        mse = float(np.mean((q - truth["q_true"]) ** 2))
        mse0 = float(np.mean((truth["p_hat"] - truth["q_true"]) ** 2))
        require(mse < mse0, f"q_hat (MSE {mse:.3g}) no better than no adaptation ({mse0:.3g})")
        acc = float(np.mean(labels == truth["target_labels"]))
        return {"cpmkm": {"mse": mse, "mse0": mse0, "acc": acc, "q_hat": q.tolist()}}


class ShiftCells:
    name = "shift-cells"
    params = {"command": "benchmark", "num_classes": 3, "dim": 20, "mean_spacing": 5.0,
              "pool_rows": 30000, "n_p": 600, "n_q": 2000, "n_t": 3000, "alpha": 1.0,
              "source_reps": 1, "target_reps": 100,
              "methods": ["cpmkm", "bbse", "rlls", "mlls"],
              "c_grid": "1", "g_grid": "0.0625", "folds": 5}

    def make_inputs(self, seed: int, workdir: Path) -> Inputs:
        p = self.params
        m, d = p["num_classes"], p["dim"]
        # class means on the first m axes: every pair of classes is equally
        # far apart, before and after the CLI's per-column standardization
        means = p["mean_spacing"] * np.eye(m, d)
        rng = _rng(seed, 2)
        labels = rng.permutation(np.repeat(np.arange(1, m + 1),
                                           _counts(np.full(m, 1 / m), p["pool_rows"])))
        features = means[labels - 1] + rng.standard_normal((len(labels), d))
        _write_csv(workdir / "pool.csv", features, labels)
        out = workdir / "benchmark.json"
        args = ["benchmark", "--pool", str(workdir / "pool.csv"),
                "--alpha", repr(p["alpha"]), "--np", str(p["n_p"]),
                "--nq", str(p["n_q"]), "--nt", str(p["n_t"]),
                "--methods", ",".join(p["methods"]),
                "--source-reps", str(p["source_reps"]),
                "--target-reps", str(p["target_reps"]), "--seed", str(seed),
                "--c-grid", p["c_grid"], "--g-grid", p["g_grid"],
                "--folds", str(p["folds"]), "--out", str(out)]
        # run_benchmark draws sources with uniform class counts
        p_hat = _counts(np.full(m, 1 / m), p["n_p"]) / p["n_p"]
        return Inputs(args=args, out_path=out, truth={"p_hat": p_hat, "num_classes": m})

    def cells_per_op(self) -> int:
        return self.params["source_reps"] * self.params["target_reps"]

    def expected_calls(self) -> dict:
        p = self.params
        cells, k = self.cells_per_op(), len(p["methods"])
        fits = p["source_reps"] * (p["folds"] + 1)
        return {"cli.benchmark": 1, "data.load_csv": 1, "data.load_feature_csv": 0,
                "shiftlab.run_benchmark": 1, "klr.cv_select": p["source_reps"],
                "klr.klr_fit": fits,
                # CV folds, the confusion holdout, then target and test per cell
                "klr.klr_predict": p["source_reps"] * (p["folds"] + 1) + 2 * cells,
                "baselines.confusion_estimate": p["source_reps"],
                "shiftlab.sample_target_test": cells,
                "shiftlab.estimate_weights": k * cells,
                "adapt.reweight_posterior": k * cells,
                "cpm.cpm_solve": cells, "baselines.bbse_solve": cells,
                "baselines.rlls_solve": cells, "baselines.mlls_em": cells,
                "cli.adapt": 0, "adapt.adapt_pipeline": 0}

    def check(self, out_path: Path, truth: dict) -> dict:
        p = self.params
        doc = json.loads(out_path.read_text())
        m, methods = truth["num_classes"], p["methods"]
        reports = doc["reports"]
        require(len(reports) == self.cells_per_op() * len(methods),
                "report count differs from cells x methods")
        mse0, q_cells = 0.0, []
        per = {name: {"acc": [], "mse": []} for name in methods}
        for r in reports:
            require(r["method"] in per, f"unexpected method {r['method']!r}")
            w = np.asarray(r["w_hat"], dtype=float)
            q = np.asarray(r["q_hat"], dtype=float)
            qt = np.asarray(r["q_true"], dtype=float)
            require(w.shape == (m,) and np.all(np.isfinite(w)) and np.all(w >= 0),
                    "w_hat must be finite and >= 0")
            for v in (q, qt):
                require(v.shape == (m,) and np.all(v >= 0) and abs(v.sum() - 1) <= 1e-9,
                        "q_hat and q_true must lie on the simplex")
            require(0.0 <= r["acc"] <= 1.0, "accuracy outside [0, 1]")
            require(np.isclose(r["mse"], np.mean((q - qt) ** 2), rtol=1e-9, atol=1e-15),
                    "reported MSE differs from its recomputation")
            per[r["method"]]["acc"].append(r["acc"])
            per[r["method"]]["mse"].append(r["mse"])
            if r["method"] == "cpmkm":   # once per cell
                mse0 += float(np.mean((truth["p_hat"] - qt) ** 2))
                q_cells.append(qt)
        # q_true comes from the program; check it against Dirichlet(alpha * 1),
        # whose mean is uniform (sd of the pooled mean is about 0.02 here)
        q_cells = np.array(q_cells)
        require(len(np.unique(q_cells, axis=0)) == len(q_cells),
                "q_true repeats across target cells")
        require(np.abs(q_cells.mean(axis=0) - 1 / m).max() < 0.1,
                "pooled q_true is far from the Dirichlet mean")
        agg = doc["aggregate"]
        require(sorted(agg) == sorted(methods), "aggregate methods differ from the run")
        out = {}
        for name, vals in per.items():
            accs, mses = np.array(vals["acc"]), np.array(vals["mse"])
            want = {"acc_mean": accs.mean(), "acc_std": accs.std(),
                    "mse_mean": mses.mean(), "mse_std": mses.std()}
            for key, value in want.items():
                require(np.isclose(agg[name][key], value, rtol=1e-12, atol=1e-15),
                        f"aggregate {name}.{key} differs from its recomputation")
            require(agg[name]["n_cells"] == len(accs), f"aggregate {name}.n_cells is wrong")
            out[name] = {"mse": float(mses.sum()), "mse0": mse0, "acc": float(accs.mean())}
        require(out["cpmkm"]["mse"] < mse0, "cpmkm q_hat no better than no adaptation")
        return out


WORKLOADS = {w.name: w for w in (AdaptGrid(), ShiftCells())}
