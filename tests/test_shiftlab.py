import numpy as np
import pytest

from cpmkm.data import (Dataset, load_csv, load_feature_csv, load_label_csv,
                        standardize_columns)
from cpmkm.klr import CvGrid
from cpmkm.shiftlab import (MIXTURE_MEANS, EvalReport, ShiftSpec, aggregate,
                            dirichlet_sample, gaussian_mixture_pool,
                            gaussian_mixture_posterior, metric_acc, metric_mse,
                            run_benchmark, sample_shift_scenario, sample_source,
                            sample_target_test)


# ---------------------------------------------------------------- load_csv

def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_reencodes_labels(tmp_path):
    path = write(tmp_path, "a,b,label\n1.0,2.0,5\n3.0,4.0,9\n")
    ds = load_csv(path, "label")
    assert ds.num_classes == 2
    assert list(ds.labels) == [1, 2]
    assert list(ds.classes) == [5, 9]
    assert list(ds.subset([1]).classes) == [5, 9]


def test_load_csv_standardizes_constant_column(tmp_path):
    path = write(tmp_path, "a,b,label\n7.0,1.0,1\n7.0,2.0,1\n7.0,3.0,2\n")
    features = standardize_columns(load_csv(path, "label").features)[0]
    assert np.allclose(features[:, 0], 0.0)
    assert features[:, 1].mean() == pytest.approx(0.0, abs=1e-12)
    assert features[:, 1].std() == pytest.approx(1.0)


def test_load_csv_header_only_rejected(tmp_path):
    path = write(tmp_path, "a,b,label\n")
    with pytest.raises(ValueError):
        load_csv(path, "label")


def test_load_csv_unparseable_cell_positioned(tmp_path):
    path = write(tmp_path, "a,b,label\n1.0,2.0,1\n1.0,oops,2\n")
    with pytest.raises(ValueError, match="row 3"):
        load_csv(path, "label")


@pytest.mark.parametrize("load, text, where", [
    (load_feature_csv, "a,b\n1.0,2.0\nnan,1.0\n", "non-finite value at row 3, column 1"),
    (load_feature_csv, "a,b\n1.0,2.0\n\n3.0\n", "row 4 has 1 cells"),
    (load_feature_csv, "a,b\n1.0,2.0\n3.0,x\n", "unparseable cell at row 3, column 2"),
    (lambda path: load_csv(path, "label"), "a,b,label\n1.0,2.0,1\n1.0,inf,2\n",
     "non-finite value at row 3, column 2"),
    (lambda path: load_csv(path, "label"), "a,b,label\n1.0,2.0,1\n1.0,2\n",
     "row 3 has 2 cells"),
    (lambda path: load_csv(path, "label"), "a,label,b\n1.0,1,2.0\n\n1.0,1.7,2.0\n",
     "non-integer label at row 4, column 2"),
    (load_label_csv, "label\n1\n1.7\n", "non-integer label at row 3, column 1"),
], ids=["feature-nan", "feature-short-row", "feature-bad-cell", "labeled-inf",
        "labeled-short-row", "labeled-fractional-label", "label-fractional"])
def test_csv_errors_positioned(tmp_path, load, text, where):
    with pytest.raises(ValueError, match=where):
        load(write(tmp_path, text))


def test_load_csv_single_class_rejected(tmp_path):
    path = write(tmp_path, "a,label\n1.0,4\n2.0,4\n")
    with pytest.raises(ValueError, match="one class"):
        load_csv(path, "label")


def test_load_csv_missing_label_column(tmp_path):
    path = write(tmp_path, "a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(path, "label")


# ------------------------------------------------------- scenario sampling

def test_dirichlet_concentration_limit():
    rng = np.random.default_rng(0)
    draws = np.array([dirichlet_sample(1e6, 3, rng) for _ in range(50)])
    assert np.abs(draws - 1 / 3).max() <= 0.02


def test_one_hot_for_single_supported_class():
    pool = gaussian_mixture_pool(600, seed=1)
    spec = ShiftSpec(alpha=1.0, m_q=1, n_p=90, n_q=60, n_t=60, seed=4)
    _, _, _, q_true = sample_shift_scenario(pool, spec)
    assert sorted(q_true)[:-1] == [0.0, 0.0]
    assert q_true.max() == 1.0


def test_scenario_disjointness():
    pool = gaussian_mixture_pool(800, seed=2)
    spec = ShiftSpec(alpha=2.0, m_q=3, n_p=120, n_q=100, n_t=100, seed=5)
    source, used = sample_source(pool, spec.n_p, spec.seed)
    q_true, target_x, test = sample_target_test(pool, spec, spec.seed, used)
    # target/test rows must come from outside the source index set
    src_rows = {tuple(r) for r in pool.features[used]}
    for row in target_x:
        assert tuple(row) not in src_rows
    for row in test.features:
        assert tuple(row) not in src_rows


def test_uniform_source_counts_with_remainder():
    pool = gaussian_mixture_pool(900, seed=3)
    source, _ = sample_source(pool, 100, seed=0)
    counts = np.bincount(source.labels - 1, minlength=3)
    assert sorted(counts, reverse=True) == [34, 33, 33]
    assert counts[0] == 34  # remainder goes to the lowest class index


def test_target_counts_track_q_true():
    pool = gaussian_mixture_pool(4000, seed=4)
    spec = ShiftSpec(alpha=5.0, m_q=3, n_p=60, n_q=300, n_t=30, seed=0)
    rows = {tuple(r): lab for r, lab in zip(pool.features, pool.labels)}
    n_draws = 200
    devs = np.zeros((n_draws, 3))
    var_sum = np.zeros(3)
    for s in range(n_draws):
        _, used = sample_source(pool, spec.n_p, (s,))
        q_true, tx, _ = sample_target_test(pool, spec, (s,), used)
        labs = np.array([rows[tuple(r)] for r in tx])
        counts = np.bincount(labs - 1, minlength=3)
        devs[s] = counts - spec.n_q * q_true
        var_sum += spec.n_q * q_true * (1 - q_true)
    se = np.sqrt(var_sum) / n_draws  # SE of the mean deviation per class
    assert np.all(np.abs(devs.mean(axis=0)) <= 3 * se + 1e-9)


def test_pool_exhaustion_names_class():
    pool = gaussian_mixture_pool(100, seed=6)
    spec = ShiftSpec(alpha=1.0, m_q=1, n_p=30, n_q=200, n_t=10, seed=1)
    with pytest.raises(ValueError, match="class"):
        sample_shift_scenario(pool, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        ShiftSpec(alpha=0.0, m_q=2, n_p=10, n_q=10, n_t=10)
    with pytest.raises(ValueError):
        ShiftSpec(alpha=1.0, m_q=0, n_p=10, n_q=10, n_t=10)
    with pytest.raises(ValueError):
        ShiftSpec(alpha=1.0, m_q=2, n_p=0, n_q=10, n_t=10)


# ----------------------------------------------------------------- metrics

def test_acc_examples():
    assert metric_acc([1, 2, 3], [1, 2, 3]) == 1.0
    assert metric_acc([1, 1], [2, 2]) == 0.0
    assert metric_acc([1, 2, 3], [1, 2, 1]) == pytest.approx(2 / 3)
    with pytest.raises(ValueError):
        metric_acc([1], [1, 2])


def test_mse_examples():
    assert metric_mse([0.5, 0.5], [0.5, 0.5]) == 0.0
    assert metric_mse([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert metric_mse([0.6, 0.4], [0.5, 0.5]) == pytest.approx(0.01)
    with pytest.raises(ValueError):
        metric_mse([0.9, 0.4], [0.5, 0.5])
    with pytest.raises(ValueError):
        metric_mse([np.nan, 0.5], [0.5, 0.5])


def test_mse_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = rng.random(4) + 0.01
        a /= a.sum()
        b = rng.random(4) + 0.01
        b /= b.sum()
        assert metric_mse(a, b) == metric_mse(b, a)


# --------------------------------------------------------------- benchmark

def tiny_benchmark(**kwargs):
    pool = gaussian_mixture_pool(1200, seed=10)
    spec = ShiftSpec(alpha=1.0, m_q=3, n_p=120, n_q=90, n_t=90, seed=2)
    grid = CvGrid(c_values=(1.0,), g_values=(1.0,), folds=3)
    defaults = dict(methods=("cpmkm", "bbse"), source_reps=1, target_reps=1,
                    cv_grid=grid)
    defaults.update(kwargs)
    return run_benchmark(pool, spec, **defaults)


def test_benchmark_single_cell():
    reports = tiny_benchmark(methods=("cpmkm",))
    assert len(reports) == 1
    assert isinstance(reports[0], EvalReport)
    assert 0.0 <= reports[0].acc <= 1.0


def test_benchmark_deterministic():
    r1 = tiny_benchmark(source_reps=2, target_reps=2)
    r2 = tiny_benchmark(source_reps=2, target_reps=2)
    assert r1 == r2


def test_benchmark_cell_count():
    reports = tiny_benchmark(methods=("cpmkm", "mlls"), source_reps=2, target_reps=3)
    assert len(reports) == 12
    agg = aggregate(reports)
    assert agg["cpmkm"]["n_cells"] == 6


def test_benchmark_shared_model_fingerprint():
    reports = tiny_benchmark(methods=("cpmkm", "bbse", "rlls", "mlls"),
                             source_reps=1, target_reps=2)
    fps = {r.model_fingerprint for r in reports}
    assert len(fps) == 1


def test_benchmark_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        tiny_benchmark(methods=("kmm",))
    with pytest.raises(ValueError, match="no method"):
        tiny_benchmark(methods=())


# -------------------------------------------------------- synthetic oracle

def test_mixture_posterior_rows_on_simplex():
    rng = np.random.default_rng(2)
    p = gaussian_mixture_posterior(rng.standard_normal((50, 2)))
    assert np.allclose(p.sum(axis=1), 1.0)
    assert np.all(p >= 0)


def test_mixture_posterior_at_means():
    # at a class mean the posterior should favor that class
    p = gaussian_mixture_posterior(MIXTURE_MEANS)
    assert np.array_equal(np.argmax(p, axis=1), np.arange(3))
