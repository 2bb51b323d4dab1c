import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cpmkm.kernel import GramMatrix, KernelParams, gram

finite_vec = arrays(np.float64, 3, elements=st.floats(-5, 5))


def kernel_eval(x, y, params: KernelParams) -> float:
    """The direct formula exp(-g ||x - y||^2), the reference gram is held to."""
    diff = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(np.exp(-params.gamma_sq_inv * np.sum(diff ** 2)))


def k(x, y, params: KernelParams) -> float:
    """gram's one entry for the single points x and y."""
    return float(gram([x], [y], params).values[0, 0])


def test_zero_distance_is_one():
    x = np.array([1.2, -0.4])
    assert k(x, x, KernelParams(3.7)) == 1.0


def test_direct_evaluation():
    assert k([0, 0], [1, 0], KernelParams(1.0)) == pytest.approx(np.exp(-1))
    assert k([0, 0], [2, 0], KernelParams(0.25)) == pytest.approx(np.exp(-1))


def test_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        k([0, 0], [0, 0, 0], KernelParams(1.0))


def test_invalid_params():
    for g in (0.0, -1.0, np.inf, np.nan):
        with pytest.raises(ValueError):
            KernelParams(g)


@given(finite_vec, finite_vec)
def test_symmetry(x, y):
    p = KernelParams(0.8)
    assert k(x, y, p) == k(y, x, p)


@given(finite_vec, finite_vec)
def test_bounded(x, y):
    v = k(x, y, KernelParams(1.3))
    assert 0 < v <= 1
    if not np.array_equal(x, y):
        assert v < 1 or np.allclose(x, y)


def test_gram_single_point():
    g = gram([[1.0, 2.0]], [[1.0, 2.0]], KernelParams(1.0))
    assert g.values.shape == (1, 1)
    assert g.values[0, 0] == 1.0


def test_gram_identical_points():
    pts = np.zeros((2, 3))
    g = gram(pts, pts, KernelParams(5.0))
    assert np.array_equal(g.values, np.ones((2, 2)))


def test_gram_rectangular():
    g = gram([[0.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]], KernelParams(1.0))
    assert g.values.ravel() == pytest.approx([np.exp(-1), 1.0])


def test_gram_empty_rejected():
    with pytest.raises(ValueError):
        gram(np.empty((0, 2)), np.zeros((1, 2)), KernelParams(1.0))


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 50), st.integers(0, 10_000))
def test_self_gram_psd(n, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, 3))
    g = gram(pts, pts, KernelParams(0.5))
    assert np.array_equal(g.values, g.values.T)
    assert np.allclose(np.diag(g.values), 1.0)
    assert np.linalg.eigvalsh(g.values).min() >= -1e-8


def test_gram_matrix_entries_in_unit_interval():
    rng = np.random.default_rng(0)
    g = gram(rng.standard_normal((8, 2)), rng.standard_normal((5, 2)),
             KernelParams(2.0))
    assert np.all(g.values > 0) and np.all(g.values <= 1)
    assert isinstance(g, GramMatrix)


def test_gram_matches_kernel_eval_in_d20():
    rng = np.random.default_rng(1)
    x, y = rng.standard_normal((30, 20)), rng.standard_normal((17, 20))
    p = KernelParams(0.0625)
    ref = np.array([[kernel_eval(a, b, p) for b in y] for a in x])
    assert np.abs(gram(x, y, p).values - ref).max() <= 1e-13


def test_gram_offset_features_keep_precision():
    # the expanded distance on uncentred points ~1e4 would lose ~1e-8
    rng = np.random.default_rng(2)
    x = 1e4 + rng.standard_normal((25, 5))
    y = 1e4 + rng.standard_normal((20, 5))
    ref = np.exp(-0.5 * ((x[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    assert np.abs(gram(x, y, KernelParams(0.5)).values - ref).max() <= 1e-12


def test_gram_shared_point_is_exactly_one():
    rng = np.random.default_rng(3)
    cols = 3.0 + rng.standard_normal((40, 20))
    rows = np.r_[rng.standard_normal((5, 20)), cols[7:8], cols[31:32]]
    g = gram(rows, cols, KernelParams(0.0625)).values
    assert g[5, 7] == 1.0 and g[6, 31] == 1.0


def test_gram_identical_rows_give_identical_rows():
    rng = np.random.default_rng(4)
    rows = rng.standard_normal((300, 20))
    rows[[17, 150, 299]] = rows[3]
    g = gram(rows, rng.standard_normal((90, 20)), KernelParams(0.1)).values
    for i in (17, 150, 299):
        assert np.array_equal(g[i], g[3])


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 80), st.integers(1, 30), st.integers(0, 10_000))
def test_self_gram_exactly_symmetric_unit_diagonal(n, d, seed):
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((n, d)) * rng.uniform(0.1, 10) + rng.uniform(-100, 100)
    g = gram(pts, pts, KernelParams(0.3)).values
    assert np.array_equal(g, g.T)
    assert np.all(np.diag(g) == 1.0)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 50), st.floats(2.0 ** -8, 4.0), st.floats(0.0, 1e4),
       st.integers(0, 10_000))
def test_gram_matches_kernel_eval_entrywise(d, g, offset, seed):
    rng = np.random.default_rng(seed)
    shift = offset * rng.uniform(-1, 1, d)
    rows = shift + rng.standard_normal((9, d)) * rng.uniform(0.1, 3)
    cols = shift + rng.standard_normal((6, d))
    rows[1] = cols[4]
    # g ||x - y||^2 > 800 from every column: the kernel underflows to 0
    rows[2] = shift
    rows[2, 0] += np.sqrt(800 / g) + 20
    p = KernelParams(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        k = gram(rows, cols, p).values
    ref = np.array([[kernel_eval(a, b, p) for b in cols] for a in rows])
    assert k[1, 4] == 1.0
    assert np.all(k[2] == 0.0) and np.all(ref[2] == 0.0)
    np.testing.assert_allclose(k, ref, rtol=1e-9, atol=1e-300)


def reference_gram(rows, cols, params: KernelParams) -> GramMatrix:
    """The reference that gram must match bit for bit: the version that built
    the augmented operands with np.column_stack and always scanned for the
    entries past the round-off bound."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if rows.size == 0 or cols.size == 0:
        raise ValueError("empty point set")
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(
            f"dimension mismatch: rows have d={rows.shape[1]}, cols d={cols.shape[1]}"
        )
    symmetric = rows is cols or (rows.shape == cols.shape and np.array_equal(rows, cols))
    center = cols.mean(axis=0)
    x = rows - center
    y = cols - center
    xx = np.einsum("ij,ij->i", x, x)
    yy = xx if symmetric else np.einsum("ij,ij->i", y, y)
    # a self-Gram adds its transpose below, so each half carries g/2
    g = params.gamma_sq_inv / (2.0 if symmetric else 1.0)
    s = (np.column_stack([x, xx, np.ones(len(x))])
         @ np.column_stack([2.0 * g * y, np.full(len(y), -g), -g * yy]).T)
    # the expansion errs by at most a few d * eps * (|x|^2 + |y|^2), times g
    bound = 4.0 * (x.shape[1] + 2) * np.finfo(float).eps * (xx.max() + yy.max())
    i, j = np.divmod(np.flatnonzero(s > -g * bound), s.shape[1])
    diff = x[i] - y[j]
    s[i, j] = -g * np.einsum("ij,ij->i", diff, diff)
    if symmetric:
        # the expansion's rounding is not symmetric; the sum of both halves is
        s += s.T.copy()
    return GramMatrix(values=np.exp(s, out=s))


@settings(deadline=None, max_examples=60)
@given(st.sampled_from([2, 20]), st.integers(1, 40), st.integers(2, 30),
       st.floats(2.0 ** -8, 4.0), st.sampled_from([0.0, 3.0, 1e4]),
       st.sampled_from(["cross", "symmetric", "shared-point", "far"]),
       st.integers(0, 10_000))
def test_gram_matches_reference_bit_for_bit(d, n_rows, n_cols, g, offset, case, seed):
    rng = np.random.default_rng(seed)
    shift = offset * rng.uniform(-1, 1, d)
    cols = shift + rng.standard_normal((n_cols, d))
    rows = shift + rng.standard_normal((n_rows, d)) * rng.uniform(0.1, 3)
    if case == "symmetric":
        rows = cols.copy()
    elif case == "shared-point":
        rows[0] = cols[-1]
    elif case == "far":
        # every row at least 50 from every column along the first axis
        rows[:, 0] = cols[:, 0].max() + 50.0 + np.abs(rows[:, 0])
    p = KernelParams(g)
    ref = reference_gram(rows, cols, p).values
    with mock.patch.object(np, "flatnonzero", wraps=np.flatnonzero) as scan:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            k = gram(rows, cols, p).values
    assert np.array_equal(k, ref)
    if case in ("symmetric", "shared-point"):
        # a point repeated exactly, and off the centre of two or more
        # columns, reaches the bound, so the scan runs
        assert scan.call_count == 1
        assert k[0, -1 if case == "shared-point" else 0] == 1.0
    elif case == "far":
        # no entry nears zero distance, so the scan is skipped
        assert scan.call_count == 0
