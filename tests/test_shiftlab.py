import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpmkm import shiftlab
from cpmkm.cli import _write_csv
from cpmkm.adapt import reweight_posterior
from cpmkm.baselines import confusion_estimate
from cpmkm.cpm import empirical_class_probs
from cpmkm.data import (Dataset, load_csv, load_feature_csv, load_label_csv,
                        standardize_columns)
from cpmkm.kernel import KernelParams, gram
from cpmkm.klr import CvGrid, klr_gradient, klr_objective, klr_predict
from cpmkm.shiftlab import (METHODS, MIXTURE_MEANS, ShiftSpec, aggregate,
                            estimate_weights, gaussian_mixture_pool,
                            metric_acc, metric_mse, run_benchmark,
                            sample_shift_scenario, sample_source, sample_target_test)
from mixture import gaussian_mixture_posterior


# ------------------------------------------------------------ label range

def _dataset(labels, m):
    Dataset(features=np.zeros((len(labels), 1)), labels=labels, num_classes=m)


def _klr_view(view):
    def call(labels, m):
        x = np.arange(len(labels), dtype=float)[:, None]
        view(np.zeros((len(labels), m - 1)), gram(x, x, KernelParams(1.0)), labels, 0.1)
    return call


LABEL_CHECKERS = {
    "Dataset": _dataset,
    "empirical_class_probs": empirical_class_probs,
    "klr_objective": _klr_view(klr_objective),
    "klr_gradient": _klr_view(klr_gradient),
}


@pytest.mark.parametrize("bad", [0, 4])
@pytest.mark.parametrize("caller", list(LABEL_CHECKERS))
def test_labels_outside_1_to_m_are_rejected(caller, bad):
    # every caller states the rule through data.check_labels, one message
    with pytest.raises(ValueError, match=r"^labels must lie in 1\.\.3$"):
        LABEL_CHECKERS[caller](np.array([1, 2, 3, bad]), 3)


def test_dataset_is_frozen_and_replace_rechecks_labels():
    data = Dataset(features=[[0.0], [1.0]], labels=[1, 2], num_classes=2)
    assert data.features.dtype == float and data.labels.dtype == int
    for name in ("features", "labels"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(data, name, getattr(data, name))
    with pytest.raises(ValueError, match=r"^labels must lie in 1\.\.2$"):
        dataclasses.replace(data, labels=np.array([0, 2]))


def test_dataset_arrays_are_read_only():
    # a write through the arrays cannot undo the checks; a label of 0 once
    # got past them here and failed later inside klr_fit's np.bincount
    features, labels = np.array([[0.0], [1.0]]), np.array([1, 2])
    data = Dataset(features=features, labels=labels, num_classes=2)
    with pytest.raises(ValueError, match="read-only"):
        data.labels[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        data.features[0, 0] = np.nan
    # the Dataset holds views: the caller's own arrays stay writable
    assert features.flags.writeable and labels.flags.writeable
    assert not data.subset([1]).labels.flags.writeable


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


def test_load_csv_empty_file_rejected(tmp_path):
    path = write(tmp_path, "")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: empty file$"):
        load_csv(path, "label")


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
    (load_feature_csv, "a,b\n\n1.0,2.0\n\n\nnan,1.0\n",
     "non-finite value at row 6, column 1"),
    (lambda path: load_csv(path, "label"), "a,label\n\n1.0,1\n\n2.0,1.5\n",
     "non-integer label at row 5, column 2"),
    (load_feature_csv, "a,b\n1.0\n2.0\n", "row 2 has 1 cells, the header has 2"),
    (load_feature_csv, "a,b\n1.0,2.0\n3.0,1_000\n", "unparseable cell at row 3, column 2"),
    (load_feature_csv, "a,b\n1.0,2.0\n\u0663,4.0\n", "unparseable cell at row 3, column 1"),
    (load_feature_csv, 'a,b\n"1\n",2\nnan,3\n', "non-finite value at row 4, column 1"),
    (load_feature_csv, 'a,b\n"1\n",3\n4,x\n', "unparseable cell at row 4, column 2"),
], ids=["feature-nan", "feature-short-row", "feature-bad-cell", "labeled-inf",
        "labeled-short-row", "labeled-fractional-label", "label-fractional",
        "feature-nan-after-blank-rows", "labeled-fractional-after-blank-rows",
        "feature-every-row-short", "feature-underscore-digits", "feature-non-ascii-digit",
        "feature-nan-after-multiline-cell", "feature-bad-cell-after-multiline-cell"])
def test_csv_errors_positioned(tmp_path, load, text, where):
    with pytest.raises(ValueError, match=where):
        load(write(tmp_path, text))


# A fault that _fault names: the cell written in place of a valid one (None
# drops the row's last cell) and the message, at the file row r and column c
# of that cell in a file of w columns.
CSV_FAULTS = {
    "short-row": (None, "row {r} has {n} cells, the header has {w}"),
    "letter": ("x", "unparseable cell at row {r}, column {c}"),
    "underscore": ("1_000", "unparseable cell at row {r}, column {c}"),
    "nan": ("nan", "non-finite value at row {r}, column {c}"),
    "inf": ("inf", "non-finite value at row {r}, column {c}"),
    "fractional-label": ("1.5", "non-integer label at row {r}, column {c}"),
}


def _cell(draw, value):
    """The cell text of a valid value, quoted at random."""
    text = repr(value)
    return f'"{text}"' if draw(st.booleans()) else text


@st.composite
def csv_files(draw):
    """(label column index or None, lines): a valid header CSV of finite
    floats, and integers in the label column, with random blank rows; a
    data line is a list of cells, a blank row the empty list."""
    width = draw(st.integers(2, 4))
    label = draw(st.none() | st.integers(0, width - 1))
    header = ["label" if c == label else f"x{c}" for c in range(width)]
    lines = [header]
    for _ in range(draw(st.integers(2, 6))):
        lines += [[]] * draw(st.integers(0, 2))
        lines.append([_cell(draw, draw(st.integers(-3, 3)) if c == label else
                            draw(st.floats(allow_nan=False, allow_infinity=False)))
                      for c in range(width)])
    return label, lines


def _write_lines(tmp_path_factory, lines):
    path = tmp_path_factory.getbasetemp() / "fault.csv"
    path.write_text("\n".join(",".join(line) for line in lines) + "\n")
    return path


@settings(deadline=None, max_examples=40)
@given(csv_files())
def test_valid_csv_reads_every_cell(tmp_path_factory, file):
    _, lines = file
    values = load_feature_csv(_write_lines(tmp_path_factory, lines))
    expect = [[float(cell.strip('"')) for cell in line] for line in lines[1:] if line]
    assert values.tolist() == expect


def _inject(data, label, lines, row):
    """Put a random fault into data line `row`; its kind, file row and column."""
    kinds = [k for k in CSV_FAULTS if label is not None or k != "fractional-label"]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    text = CSV_FAULTS[kind][0]
    line = list(lines[row])
    if text is None:
        line.pop()
        column = None
    else:
        column = label if kind == "fractional-label" else \
            data.draw(st.integers(0, len(line) - 1), label="column")
        line[column] = text
    lines[row] = line
    return kind, row + 1, column


def _load_fault(tmp_path_factory, label, lines):
    path = _write_lines(tmp_path_factory, lines)
    with pytest.raises(ValueError) as info:
        load_feature_csv(path) if label is None else load_csv(path, "label")
    return path, str(info.value)


def _message(path, lines, kind, r, column):
    w = len(lines[0])
    where = CSV_FAULTS[kind][1].format(r=r, n=w - 1, w=w, c=(column or 0) + 1)
    return f"{path}: {where}"


@settings(deadline=None, max_examples=120)
@given(csv_files(), st.data())
def test_csv_fault_named_at_its_row_and_column(tmp_path_factory, file, data):
    label, lines = file
    rows = [i for i, line in enumerate(lines) if i and line]
    kind, r, column = _inject(data, label, lines, data.draw(st.sampled_from(rows)))
    path, message = _load_fault(tmp_path_factory, label, lines)
    assert message == _message(path, lines, kind, r, column)


@settings(deadline=None, max_examples=120)
@given(csv_files(), st.data())
def test_csv_first_fault_in_file_order_named(tmp_path_factory, file, data):
    # a fractional label is a fault only once every cell parses and is
    # finite; of any other two, the earlier row is named, whichever check
    # (loadtxt's parse or the finite test on its result) fails first
    label, lines = file
    rows = [i for i, line in enumerate(lines) if i and line]
    picked = data.draw(st.lists(st.sampled_from(rows), min_size=2, max_size=2,
                                unique=True))
    faults = [_inject(data, label, lines, row) for row in picked]
    path, message = _load_fault(tmp_path_factory, label, lines)
    reading = [f for f in faults if f[0] != "fractional-label"]
    first = min(reading or faults, key=lambda f: f[1])
    assert message == _message(path, lines, *first)


@settings(deadline=None, max_examples=60)
@given(arrays(float, st.tuples(st.integers(2, 8), st.integers(1, 3)),
              elements=st.floats(allow_nan=False, allow_infinity=False)
              | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308])),
       st.lists(st.integers(-10**6, 10**6), min_size=8, max_size=8, unique=True))
def test_written_csv_reads_back_exactly(tmp_path_factory, features, label_values):
    # simulate's writer and load_csv: features bit for bit (±0 and
    # subnormals included), labels as the file's values
    labels = np.array(label_values[:len(features)])
    path = tmp_path_factory.getbasetemp() / "roundtrip.csv"
    _write_csv(path, features, labels)
    data = load_csv(path, "label")
    assert data.features.tobytes() == features.tobytes()
    assert data.classes[data.labels - 1].tolist() == labels.tolist()


@pytest.mark.parametrize("text", ["a,b,label\n", "a,b,label\n\n"],
                         ids=["header-only", "header-and-blank-row"])
def test_load_csv_header_only_no_warning(tmp_path, text):
    path = write(tmp_path, text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="no data rows"):
            load_csv(path, "label")


def test_load_csv_quoted_cells(tmp_path):
    ds = load_csv(write(tmp_path, 'a,"b",label\n"1.5",2.0,1\n3.0,"4e1","2"\n'), "label")
    assert ds.features.tolist() == [[1.5, 2.0], [3.0, 40.0]]
    assert list(ds.labels) == [1, 2]


def test_load_csv_single_class_rejected(tmp_path):
    path = write(tmp_path, "a,label\n1.0,4\n2.0,4\n")
    with pytest.raises(ValueError, match="one class"):
        load_csv(path, "label")


def test_load_csv_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark is not part of the first header name
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbflabel,x\n1,0.5\n2,1.5\n")
    ds = load_csv(path, "label")
    assert list(ds.labels) == [1, 2]
    assert ds.features.tolist() == [[0.5], [1.5]]


def test_load_csv_missing_label_column(tmp_path):
    path = write(tmp_path, "a,b\n1.0,2.0\n")
    with pytest.raises(ValueError, match="label"):
        load_csv(path, "label")


# ------------------------------------------------------- scenario sampling

def test_dirichlet_concentration_limit():
    pool = gaussian_mixture_pool(300, seed=0)
    spec = ShiftSpec(alpha=1e6, m_q=3, n_p=30, n_q=30, n_t=30)
    draws = np.array([sample_target_test(pool, spec, (s,), np.array([], dtype=int))[0]
                      for s in range(50)])
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
    _, used = sample_source(pool, spec.n_p, (spec.seed,))
    _, target_idx, test_idx = sample_target_test(pool, spec, (spec.seed,), used)
    assert (len(used), len(target_idx), len(test_idx)) == (spec.n_p, spec.n_q, spec.n_t)
    # source, target and test index sets are pairwise disjoint, without repeats
    drawn = np.concatenate([used, target_idx, test_idx])
    assert len(np.unique(drawn)) == len(drawn)


def test_scenario_streams_are_pinned():
    # each pool row's feature is its index, so the draws read back as indices;
    # any change to a scenario's random streams changes one of these lists
    n = 60
    pool = Dataset(features=np.c_[np.arange(n), np.zeros(n)],
                   labels=np.arange(n) % 3 + 1, num_classes=3)
    spec = ShiftSpec(alpha=1.0, m_q=3, n_p=9, n_q=8, n_t=8, seed=7)
    source, target_x, test, q_true = sample_shift_scenario(pool, spec)
    assert source.features[:, 0].tolist() == [3, 27, 18, 58, 19, 31, 38, 50, 26]
    assert target_x[:, 0].tolist() == [52, 28, 16, 1, 43, 20, 56, 17]
    assert test.features[:, 0].tolist() == [37, 49, 13, 55, 4, 40, 53, 44]
    assert q_true.tolist() == [0.0011285496136254282, 0.7704333528879649,
                               0.22843809749840974]


def test_uniform_source_counts_with_remainder():
    pool = gaussian_mixture_pool(900, seed=3)
    source, _ = sample_source(pool, 100, seed=(0,))
    counts = np.bincount(source.labels - 1, minlength=3)
    assert sorted(counts, reverse=True) == [34, 33, 33]
    assert counts[0] == 34  # remainder goes to the lowest class index


def test_target_counts_track_q_true():
    pool = gaussian_mixture_pool(4000, seed=4)
    spec = ShiftSpec(alpha=5.0, m_q=3, n_p=60, n_q=300, n_t=30, seed=0)
    n_draws = 200
    devs = np.zeros((n_draws, 3))
    var_sum = np.zeros(3)
    for s in range(n_draws):
        _, used = sample_source(pool, spec.n_p, (s,))
        q_true, target_idx, _ = sample_target_test(pool, spec, (s,), used)
        counts = np.bincount(pool.labels[target_idx] - 1, minlength=3)
        devs[s] = counts - spec.n_q * q_true
        var_sum += spec.n_q * q_true * (1 - q_true)
    se = np.sqrt(var_sum) / n_draws  # SE of the mean deviation per class
    assert np.all(np.abs(devs.mean(axis=0)) <= 3 * se + 1e-9)


def test_pool_exhaustion_names_class():
    # 100 rows in all, but the one supported class cannot give 60 target rows
    pool = gaussian_mixture_pool(100, seed=6)
    spec = ShiftSpec(alpha=1.0, m_q=1, n_p=30, n_q=60, n_t=10, seed=1)
    with pytest.raises(ValueError, match="^pool exhausted for class 2: need 60, have 21$"):
        sample_shift_scenario(pool, spec)


def test_spec_validation():
    with pytest.raises(ValueError):
        ShiftSpec(alpha=0.0, m_q=2, n_p=10, n_q=10, n_t=10)
    with pytest.raises(ValueError):
        ShiftSpec(alpha=1.0, m_q=0, n_p=10, n_q=10, n_t=10)
    with pytest.raises(ValueError):
        ShiftSpec(alpha=1.0, m_q=2, n_p=0, n_q=10, n_t=10)
    for alpha in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="alpha must be positive and finite"):
            ShiftSpec(alpha=alpha, m_q=2, n_p=10, n_q=10, n_t=10)


def test_spec_rejects_negative_seed():
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        ShiftSpec(alpha=1.0, m_q=3, n_p=30, n_q=30, n_t=30, seed=-1)


def test_draw_by_class_skips_zero_counts_without_using_the_generator():
    # a zero count draws nothing and leaves the generator where it was, so
    # counts (k1, 0, k3) pick what class 1 and then class 3 alone would
    pool = gaussian_mixture_pool(120, seed=2)
    available = np.ones(len(pool), dtype=bool)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    drawn = shiftlab._draw_by_class(pool, [4, 0, 6], rng, available)
    expected = [ref.choice(np.flatnonzero(pool.labels == cls), size=k, replace=False)
                for cls, k in ((1, 4), (3, 6))]
    assert drawn.tolist() == np.concatenate(expected).tolist()
    assert rng.random() == ref.random()
    empty = shiftlab._draw_by_class(pool, [0, 0, 0], rng, available)
    assert empty.dtype == np.int64 and empty.shape == (0,)


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
    assert list(reports[0]) == ["method", "acc", "mse", "w_hat", "q_hat", "q_true",
                                "seed_pair", "model_fingerprint"]
    assert 0.0 <= reports[0]["acc"] <= 1.0


def test_benchmark_deterministic():
    r1 = tiny_benchmark(source_reps=2, target_reps=2)
    r2 = tiny_benchmark(source_reps=2, target_reps=2)
    assert r1 == r2


def test_benchmark_cell_count():
    reports = tiny_benchmark(methods=("cpmkm", "mlls"), source_reps=2, target_reps=3)
    assert len(reports) == 12
    agg = aggregate(reports)
    assert agg["cpmkm"]["n_cells"] == 6


def test_aggregate_hand_built_rows():
    rows = [{"method": "mlls", "acc": 0.5, "mse": 0.01},
            {"method": "cpmkm", "acc": 0.75, "mse": 0.04},
            {"method": "mlls", "acc": 1.0, "mse": 0.03},
            {"method": "cpmkm", "acc": 0.25, "mse": 0.0},
            {"method": "cpmkm", "acc": 0.5, "mse": 0.02}]
    expected = {
        # population std: sqrt(mean of squared deviations)
        "cpmkm": {"acc_mean": 0.5, "acc_std": np.sqrt(1 / 24),
                  "mse_mean": 0.02, "mse_std": np.sqrt(0.0008 / 3), "n_cells": 3},
        "mlls": {"acc_mean": 0.75, "acc_std": 0.25,
                 "mse_mean": 0.02, "mse_std": 0.01, "n_cells": 2},
    }
    for table in (aggregate(rows), aggregate(json.loads(json.dumps(rows)))):
        assert list(table) == ["cpmkm", "mlls"]
        for name, row in expected.items():
            assert list(table[name]) == list(row)
            assert table[name]["n_cells"] == row["n_cells"]
            assert np.allclose([table[name][k] for k in row], list(row.values()),
                               rtol=1e-12, atol=0)


def test_benchmark_shared_model_fingerprint():
    reports = tiny_benchmark(methods=("cpmkm", "bbse", "rlls", "mlls"),
                             source_reps=1, target_reps=2)
    fps = {r["model_fingerprint"] for r in reports}
    assert len(fps) == 1


def test_benchmark_predicts_each_pool_row_once_per_source_draw(monkeypatch):
    # a small pool, so that the later cells of a draw bring no new rows
    pool = gaussian_mixture_pool(300, seed=11)
    spec = ShiftSpec(alpha=1.0, m_q=3, n_p=60, n_q=20, n_t=20, seed=3)
    grid = CvGrid(c_values=(1.0,), g_values=(1.0,), folds=3)
    source_reps, target_reps = 2, 30
    fits, calls = [], []  # (model, confusion) per draw; (draw, rows) per predict

    def recording_confusion(model, held):
        fits.append((model, confusion_estimate(model, held)))
        return fits[-1][1]

    def counting_predict(model, points):
        calls.append((len(fits) - 1, len(points)))
        return klr_predict(model, points)

    monkeypatch.setattr(shiftlab, "confusion_estimate", recording_confusion)
    monkeypatch.setattr(shiftlab, "klr_predict", counting_predict)
    reports = run_benchmark(pool, spec, METHODS, source_reps, target_reps, grid)

    # reference: every cell predicts its own rows afresh
    ref = []
    for s, (model, confusion) in enumerate(fits):
        source, used = sample_source(pool, spec.n_p, (spec.seed, s))
        priors = empirical_class_probs(source.labels, source.num_classes)
        drawn = set()
        for t in range(target_reps):
            _, target_idx, test_idx = sample_target_test(
                pool, spec, (spec.seed, s, t), used)
            drawn.update(target_idx, test_idx)
            target_probs = klr_predict(model, pool.features[target_idx])
            test_probs = klr_predict(model, pool.features[test_idx])
            for name in METHODS:
                w = estimate_weights(name, confusion, priors, target_probs)
                pred = np.argmax(reweight_posterior(test_probs, w), axis=1) + 1
                ref.append((w, metric_acc(pred, pool.labels[test_idx])))
        rows = [n for rep, n in calls if rep == s]
        assert len(rows) == 2 * target_reps
        # each row drawn in this draw is predicted exactly once
        assert sum(rows) == len(drawn) <= len(pool)
        assert rows[-1] == 0
    assert len(fits) == source_reps and len(reports) == len(ref)
    for report, (w, acc) in zip(reports, ref):
        # MLLS stops once a map moves q by at most 1e-8 in L1, so round-off
        # in the posteriors can move its stopping point by a map
        atol = 1e-5 if report["method"] == "mlls" else 1e-9
        assert np.allclose(report["w_hat"], w, rtol=0, atol=atol)
        assert report["acc"] == acc


def test_benchmark_all_zero_ratio_falls_back_to_ones(monkeypatch):
    monkeypatch.setattr(shiftlab, "bbse_solve", lambda confusion, mu: np.zeros(len(mu)))
    reports = tiny_benchmark(methods=("bbse", "cpmkm"), target_reps=2)
    pool = gaussian_mixture_pool(1200, seed=10)
    source, _ = sample_source(pool, 120, (2, 0))
    priors = empirical_class_probs(source.labels, source.num_classes)
    bbse = [r for r in reports if r["method"] == "bbse"]
    assert len(bbse) == 2
    for r in bbse:
        assert r["w_hat"] == (1.0, 1.0, 1.0)
        assert r["q_hat"] == tuple(priors)
    assert all(r["w_hat"] != (1.0, 1.0, 1.0) for r in reports if r["method"] == "cpmkm")


def test_benchmark_unknown_method_rejected():
    with pytest.raises(ValueError, match="unknown method"):
        tiny_benchmark(methods=("kmm",))
    with pytest.raises(ValueError, match="no method"):
        tiny_benchmark(methods=())
    # a repeated name would solve its method twice per cell and count one cell twice
    with pytest.raises(ValueError, match="repeated method"):
        tiny_benchmark(methods=("cpmkm", "cpmkm"))


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


# -------------------------------------------------------------- validation

REJECTED = {
    "dataset-count-mismatch": (lambda: Dataset(features=np.zeros((3, 1)), labels=[1, 2],
                                               num_classes=2),
                               r"^features and labels disagree on sample count$"),
    "dataset-empty": (lambda: Dataset(features=np.zeros((0, 1)), labels=np.zeros(0, int),
                                      num_classes=2),
                      r"^dataset must contain at least one sample$"),
    "dataset-nonfinite": (lambda: Dataset(features=[[0.0], [np.inf]], labels=[1, 2],
                                          num_classes=2),
                          r"^non-finite feature value$"),
    "mse-shape": (lambda: metric_mse([0.5, 0.5], [0.2, 0.3, 0.5]),
                  r"^q_hat has shape \(2,\), q_true \(3,\)$"),
    "weights-method": (lambda: estimate_weights("kmm", None, np.array([0.5, 0.5]),
                                                np.array([[0.5, 0.5]])),
                       r"^unknown method 'kmm'; expected one of \('cpmkm', 'bbse', "
                       r"'rlls', 'mlls'\)$"),
    "target-mq": (lambda: sample_target_test(gaussian_mixture_pool(30, seed=0),
                                             ShiftSpec(1.0, 4, 3, 3, 3), (0,),
                                             np.zeros(0, int)),
                  r"^m_q=4 exceeds class count 3$"),
}


@pytest.mark.parametrize("call, message", REJECTED.values(), ids=REJECTED.keys())
def test_invalid_input_rejected_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
