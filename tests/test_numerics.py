import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from emis.errors import NearZeroNorm, NonFiniteGradient, ShapeMismatch
from emis.head import (ATTENTION_FLAVORS, AttentionParams, Flavor, HeadDims, attention_rows,
                       init_params, pairwise_scores, prepare_gallery)
from emis.numerics import (NORM_ROWS, finite_diff_check, normalize_rows, pad_rows, row_norms,
                           softmax_rows)

import scalar_oracle
from conftest import oracle_from_params

finite_vecs = arrays(np.float64, st.integers(1, 12),
                     elements=st.floats(-50, 50, allow_nan=False))


def unit_gallery_row(v) -> np.ndarray:
    """One row through the head's L2 normalization (the gallery prepare step)."""
    v = np.asarray(v, dtype=np.float64)
    dims = HeadDims(v.size, v.size, 1)
    return prepare_gallery(v[None, :], dims, Flavor.IMAGE_ONLY).unit_rows(slice(None))[0]


# -- row padding ------------------------------------------------------------------

def test_pad_rows_appends_copies_of_the_first_row_in_c_order():
    rows = np.arange(12.0).reshape(3, 4)
    padded = pad_rows(rows, 4)
    assert padded.shape == (40, 4) and padded.flags.c_contiguous
    assert np.array_equal(padded[:3], rows) and np.all(padded[3:] == rows[0])
    assert pad_rows(padded, 4) is padded and pad_rows(rows[:0], 8).shape == (0, 4)
    assert pad_rows(np.ones((41, 2)), 8).shape == (48, 2)


# -- l2 normalization -------------------------------------------------------------

def test_l2_normalize_basic():
    np.testing.assert_allclose(unit_gallery_row([3.0, 4.0]), [0.6, 0.8], atol=1e-15)


def test_l2_normalize_zero_raises():
    with pytest.raises(NearZeroNorm):
        unit_gallery_row([0.0, 0.0])


@settings(max_examples=80, deadline=None)
@given(finite_vecs)
def test_l2_normalize_unit_norm_and_idempotent(v):
    if np.linalg.norm(v) <= 1e-6:
        return
    u = unit_gallery_row(v)
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(unit_gallery_row(u), u, atol=1e-15)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [0, 1, NORM_ROWS - 1, NORM_ROWS, NORM_ROWS + 1, 3 * NORM_ROWS + 5])
def test_row_norms_and_normalize_rows_match_the_whole_array_norm_bit_for_bit(n, dtype):
    rng = np.random.default_rng(n)
    rows = (rng.standard_normal((n, 100)) * rng.uniform(0.1, 10.0, (n, 1))).astype(dtype)
    wide = rows.astype(np.float64)
    want = np.linalg.norm(wide, axis=1, keepdims=True)
    norms = row_norms(rows)
    assert norms.dtype == np.float64 and norms.shape == (n,)
    assert norms.tobytes() == want.tobytes()
    assert normalize_rows(rows).tobytes() == (wide / want).tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("zero_first", [True, False])
def test_normalize_rows_names_the_global_row_of_a_degenerate_norm(dtype, zero_first):
    rows = np.ones((3 * NORM_ROWS, 4), dtype=dtype)
    zero, nan = (NORM_ROWS + 7, NORM_ROWS + 9) if zero_first else (NORM_ROWS + 9, NORM_ROWS + 7)
    rows[zero] = 0.0
    rows[nan, 2] = np.nan
    norms = row_norms(rows)
    assert norms[zero] == 0.0 and np.isnan(norms[nan])
    with pytest.raises(NearZeroNorm) as err:
        normalize_rows(rows)
    assert err.value.row == min(zero, nan)
    assert str(err.value) == "row to normalize has norm nan"
    rows[nan] = 1.0
    with pytest.raises(NearZeroNorm) as err:
        normalize_rows(rows)
    assert err.value.row == zero
    assert str(err.value) == "row to normalize has norm 0.0"


# -- softmax (the attention's row softmax, on plain arrays) ----------------------------

def softmax(v) -> np.ndarray:
    return softmax_rows(np.asarray(v, dtype=np.float64)[None, :])[0]


def test_softmax_matches_oracle():
    v = [0.3, -1.2, 2.0, 0.0]
    np.testing.assert_allclose(softmax(v), scalar_oracle.softmax(v), atol=1e-15)


def test_softmax_handles_large_inputs():
    out = softmax([1000.0, 1000.0])
    np.testing.assert_allclose(out, [0.5, 0.5], atol=1e-15)


@settings(max_examples=80, deadline=None)
@given(finite_vecs, st.floats(-30, 30, allow_nan=False))
def test_softmax_shift_invariance_and_simplex(v, shift):
    base = softmax(v)
    shifted = softmax(v + shift)
    np.testing.assert_allclose(base, shifted, atol=1e-12)
    assert base.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(base > 0.0)
    ordered = np.sort(v)
    if len(v) > 1 and ordered[-1] - ordered[-2] > 1e-9:  # argmax resolvable in float
        assert int(np.argmax(base)) == int(np.argmax(v))


# -- the attention MLP ---------------------------------------------------------------

def test_mlp2_matches_oracle():
    """An attention branch is softmax(relu(m @ w1 + b1) @ w2 + b2)."""
    rng = np.random.default_rng(0)
    m = rng.standard_normal((1, 5))
    branch = AttentionParams(w1=rng.standard_normal((5, 4)), b1=rng.standard_normal(4),
                             w2=rng.standard_normal((4, 3)), b2=rng.standard_normal(3))
    hidden = scalar_oracle.relu(scalar_oracle.affine(m[0].tolist(), branch.w1.tolist(),
                                                     branch.b1.tolist()))
    want = scalar_oracle.softmax(scalar_oracle.affine(hidden, branch.w2.tolist(),
                                                      branch.b2.tolist()))
    np.testing.assert_allclose(attention_rows(m, branch)[0], want, atol=1e-13)


def test_mlp2_shape_mismatches():
    """The attention MLP's input width is checked before any product."""
    dims = HeadDims(5, 3, 4)
    params = init_params(dims, seed=1)
    rng = np.random.default_rng(1)
    r, t = rng.standard_normal((2, 3)), rng.standard_normal((4, 3))
    for flavor in ATTENTION_FLAVORS:
        with pytest.raises(ShapeMismatch):
            pairwise_scores(r, rng.standard_normal((2, 6)), t, params, flavor)


# -- weighted cosine (the implicit-similarity branch) ------------------------------------

def test_weighted_cosine_matches_oracle():
    dims = HeadDims(6, 6, 4)
    params = init_params(dims, seed=2)
    oracle = oracle_from_params(params)
    rng = np.random.default_rng(2)
    r, m, t = rng.standard_normal((2, 6)), rng.standard_normal((2, 6)), rng.standard_normal((3, 6))
    got = pairwise_scores(r, m, t, params, Flavor.IS_ONLY)
    for i in range(2):
        a = oracle.attention("is", m[i].tolist())
        for j in range(3):
            want = scalar_oracle.cosine(scalar_oracle.hadamard(a, r[i].tolist()),
                                        scalar_oracle.hadamard(a, t[j].tolist()))
            assert got[i, j] == pytest.approx(want, abs=1e-14)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 100.0))
def test_weighted_cosine_scale_invariance_and_bounds(seed, c):
    rng = np.random.default_rng(seed)
    params = init_params(HeadDims(8, 8, 8), seed=seed % 7)
    r, m, t = rng.standard_normal((3, 8)), rng.standard_normal((3, 8)), rng.standard_normal((4, 8))
    base = pairwise_scores(r, m, t, params, Flavor.IS_ONLY)
    assert np.all((-1.0 - 1e-12 <= base) & (base <= 1.0 + 1e-12))
    np.testing.assert_allclose(pairwise_scores(c * r, m, t, params, Flavor.IS_ONLY), base,
                               atol=1e-12)


def test_weighted_cosine_zero_weight_raises():
    # w2 = 0 and a -1e4 bias make the softmax underflow to exactly (1, 0, 0),
    # which zeroes out every coordinate of this reference.
    params = init_params(HeadDims(3, 3, 2), seed=0)
    params.attn_is.w2[:] = 0.0
    params.attn_is.b2[:] = [0.0, -1e4, -1e4]
    r = np.array([[0.0, 1.0, 2.0]])
    m = np.array([[1.0, 2.0, 3.0]])
    t = np.array([[3.0, 4.0, 5.0]])
    with pytest.raises(NearZeroNorm):
        pairwise_scores(r, m, t, params, Flavor.IS_ONLY)


def test_weighted_cosine_length_mismatch():
    params = init_params(HeadDims(2, 2, 2), seed=0)
    with pytest.raises(ShapeMismatch):
        pairwise_scores([[1.0]], [[1.0, 2.0]], [[3.0, 4.0]], params, Flavor.IS_ONLY)
    with pytest.raises(ShapeMismatch):
        pairwise_scores([[1.0, 2.0]], [[1.0, 2.0]], [[3.0]], params, Flavor.IS_ONLY)


# -- finite difference checker ---------------------------------------------------------

def test_finite_diff_accepts_correct_gradient():
    x0 = np.array([1.0, -2.0, 0.5])
    weights = np.array([1.0, 2.0, 3.0])
    report = finite_diff_check(lambda v: (v * v * weights).sum(), x0, 2.0 * x0 * weights)
    assert report.passed
    assert report.n_checked == 3
    assert report.max_error < 1e-6


def test_finite_diff_flags_wrong_gradient():
    # relu at a kink: x=0 has analytic subgradient 0 but a centered
    # difference of |x|-like slope 1, so the check must fail there.
    x0 = np.array([0.0, 1.0])
    report = finite_diff_check(lambda v: np.maximum(v, 0.0).sum(), x0,
                               (x0 > 0).astype(np.float64), h=1e-3)
    assert not report.passed
    assert any(c.index == 0 for c in report.failures)


def test_finite_diff_coordinate_subset():
    x0 = np.arange(6, dtype=np.float64)
    report = finite_diff_check(lambda v: (v * v).sum(), x0, 2.0 * x0, coords=[1, 4])
    assert report.n_checked == 2
    assert report.passed


def test_finite_diff_needs_scalar_output():
    with pytest.raises(ShapeMismatch):
        finite_diff_check(lambda v: v * v, np.ones(3), 2.0 * np.ones(3))


def test_finite_diff_needs_a_gradient_shaped_like_the_point():
    with pytest.raises(ShapeMismatch):
        finite_diff_check(lambda v: (v * v).sum(), np.ones(3), np.ones(2))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_finite_diff_rejects_non_finite():
    x0 = np.array([1e200, 1e200])
    with pytest.raises(NonFiniteGradient):
        finite_diff_check(lambda v: (v * v).sum() * 1e200, x0, np.zeros(2))
    with pytest.raises(NonFiniteGradient):
        finite_diff_check(lambda v: (v * v).sum(), np.ones(2), np.array([2.0, np.nan]))


def test_finite_diff_report_str():
    report = finite_diff_check(lambda v: (v * v).sum(), np.ones(2), 2.0 * np.ones(2))
    assert "pass" in str(report)
    assert "2 coordinates" in str(report)
