import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emis.autodiff import Tape, node
from emis.errors import (BadMagic, ConfigError, DataError, NearZeroNorm, NonFiniteData,
                         ShapeMismatch, TruncatedFile)
from emis.head import (
    ATTENTION_FLAVORS,
    BLOCK_NAMES,
    SCORE_TILE,
    Flavor,
    HeadDims,
    QueryState,
    block_shapes,
    encode_queries,
    gradients_of,
    head_mac_count,
    head_param_count,
    init_params,
    lift_params,
    load_checkpoint,
    pairwise_scores,
    params_to_vector,
    prepare_gallery,
    save_checkpoint,
    scores_from_state,
    screen_margin,
    vector_to_params,
)
from emis.numerics import NORM_ROWS, finite_diff_check, softmax_rows

from conftest import (assert_one_flat_buffer, blas_config, corruptions,
                      one_hot_attention_params, oracle_from_params, traced_peak, unit_rows)

FLAVORS = list(Flavor)


def weighted_sum(scores, weights=1.0):
    """(scores * weights).sum() as one tape node: a scalar root for backward."""
    value = scores.value
    return node((value * weights).sum(), [scores],
                lambda g: (np.broadcast_to(g * weights, value.shape),))


# -- complexity accounting ------------------------------------------------------

def test_param_count_at_default_dims():
    assert head_param_count(init_params(HeadDims(512, 512, 512))) == 1_313_281


def test_param_count_closed_form():
    for h_t, h_i, h_hidden in [(1, 1, 1), (8, 6, 4), (17, 3, 29)]:
        dims = HeadDims(h_t, h_i, h_hidden)
        attn = h_t * h_hidden + h_hidden + h_hidden * h_i + h_i
        proj = h_t * h_i + h_i
        assert head_param_count(init_params(dims)) == 2 * attn + proj + 1


def test_mac_count_values():
    assert head_mac_count(HeadDims(512, 512, 512)) == 1_313_792
    assert head_mac_count(HeadDims(1, 1, 1)) == 11


def test_mac_count_formula():
    for h_t, h_i, h_hidden in [(8, 6, 4), (64, 64, 64)]:
        dims = HeadDims(h_t, h_i, h_hidden)
        expected = 2 * (h_t * h_hidden + h_hidden * h_i) + h_t * h_i + 6 * h_i
        assert head_mac_count(dims) == expected


# -- initialization --------------------------------------------------------------

def test_init_glorot_bounds_and_zeros():
    dims = HeadDims(32, 24, 16)
    params = init_params(dims, seed=3)
    for branch in (params.attn_is, params.attn_em):
        lim1 = np.sqrt(6.0 / (dims.h_t + dims.h_hidden))
        lim2 = np.sqrt(6.0 / (dims.h_hidden + dims.h_i))
        assert np.all(np.abs(branch.w1) <= lim1)
        assert np.all(np.abs(branch.w2) <= lim2)
        assert np.all(branch.b1 == 0.0) and np.all(branch.b2 == 0.0)
    assert np.all(np.abs(params.proj_w) <= np.sqrt(6.0 / (dims.h_t + dims.h_i)))
    assert np.all(params.proj_b == 0.0)
    assert float(params.gamma) == 10.0


def test_init_deterministic_by_seed():
    a = params_to_vector(init_params(HeadDims(8, 8, 8), seed=9))
    b = params_to_vector(init_params(HeadDims(8, 8, 8), seed=9))
    c = params_to_vector(init_params(HeadDims(8, 8, 8), seed=10))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_dims_must_be_positive():
    with pytest.raises(ShapeMismatch):
        HeadDims(0, 4, 4)


# -- flavor naming ---------------------------------------------------------------

def test_flavor_order_is_fixed():
    assert [f.value for f in Flavor] == [
        "image_only", "text_only", "late_fusion", "is_only", "em_only", "artemis"]


def test_flavor_parse():
    assert Flavor.parse("artemis") is Flavor.ARTEMIS
    with pytest.raises(ConfigError):
        Flavor.parse("both_modules")


# -- single triplets against the pure-python oracle -------------------------------

def test_scalar_scores_match_oracle():
    """One triplet at a time, with h_t != h_i (c4 runs at equal widths)."""
    dims = HeadDims(10, 8, 6)
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = init_params(dims, seed=seed + 100)
        r = unit_rows(rng, 1, dims.h_i)
        m = unit_rows(rng, 1, dims.h_t)
        t = unit_rows(rng, 1, dims.h_i)
        oracle = oracle_from_params(params)
        for flavor in ATTENTION_FLAVORS:
            got = pairwise_scores(r, m, t, params, flavor)
            want = oracle.score(flavor.value, r[0].tolist(), m[0].tolist(), t[0].tolist())
            assert got[0, 0] == pytest.approx(want, abs=1e-12)


def test_scalar_parameter_free_scores_match_oracle():
    """The parameter-free flavors match the oracle and ignore the weights."""
    dims = HeadDims(8, 8, 8)
    rng = np.random.default_rng(0)
    params, other = init_params(dims, seed=1), init_params(dims, seed=2)
    r, m, t = (unit_rows(rng, 1, 8) for _ in range(3))
    oracle = oracle_from_params(params)
    for flavor in (Flavor.IMAGE_ONLY, Flavor.TEXT_ONLY, Flavor.LATE_FUSION):
        got = pairwise_scores(r, m, t, params, flavor)
        want = oracle.score(flavor.value, r[0].tolist(), m[0].tolist(), t[0].tolist())
        assert got[0, 0] == pytest.approx(want, abs=1e-12)
        assert np.array_equal(got, pairwise_scores(r, m, t, other, flavor))


def test_scalar_artemis_is_exact_sum_of_parts():
    dims = HeadDims(12, 12, 5)
    rng = np.random.default_rng(7)
    params = init_params(dims, seed=7)
    r, m, t = (unit_rows(rng, 1, 12) for _ in range(3))
    em = pairwise_scores(r, m, t, params, Flavor.EM_ONLY)
    is_ = pairwise_scores(r, m, t, params, Flavor.IS_ONLY)
    assert np.array_equal(pairwise_scores(r, m, t, params, Flavor.ARTEMIS), em + is_)


# -- batched scores ---------------------------------------------------------------

def _toy_batch(dims: HeadDims, n_q: int, n_t: int, seed: int):
    rng = np.random.default_rng(seed)
    return (unit_rows(rng, n_q, dims.h_i), unit_rows(rng, n_q, dims.h_t),
            unit_rows(rng, n_t, dims.h_i))


@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
def test_pairwise_matches_scalar_loop(flavor):
    dims = HeadDims(9, 9, 5)
    params = init_params(dims, seed=4)
    oracle = oracle_from_params(params)
    r_rows, m_rows, t_rows = _toy_batch(dims, 6, 11, seed=4)
    got = pairwise_scores(r_rows, m_rows, t_rows, params, flavor)
    assert got.shape == (6, 11)
    for i in range(6):
        for j in range(11):
            want = oracle.score(flavor.value, r_rows[i].tolist(), m_rows[i].tolist(),
                                t_rows[j].tolist())
            assert got[i, j] == pytest.approx(want, abs=1e-10)


def test_pairwise_artemis_is_bitwise_sum_of_parts():
    dims = HeadDims(16, 16, 8)
    params = init_params(dims, seed=2)
    r_rows, m_rows, t_rows = _toy_batch(dims, 5, 7, seed=2)
    em = pairwise_scores(r_rows, m_rows, t_rows, params, Flavor.EM_ONLY)
    is_ = pairwise_scores(r_rows, m_rows, t_rows, params, Flavor.IS_ONLY)
    art = pairwise_scores(r_rows, m_rows, t_rows, params, Flavor.ARTEMIS)
    assert np.array_equal(art, em + is_)


def test_phase_split_equals_fused_call():
    dims = HeadDims(8, 8, 8)
    params = init_params(dims, seed=5)
    r_rows, m_rows, t_rows = _toy_batch(dims, 4, 9, seed=5)
    state = encode_queries(r_rows, m_rows, params, Flavor.ARTEMIS)
    gallery = prepare_gallery(t_rows, dims, Flavor.ARTEMIS)
    fused = pairwise_scores(r_rows, m_rows, t_rows, params, Flavor.ARTEMIS)
    assert np.array_equal(scores_from_state(state, gallery), fused)
    part = scores_from_state(state.slice_rows(1, 3), gallery)
    assert np.array_equal(part, fused[1:3])


def test_query_state_is_one_channel_list():
    """Param-free flavors are one ungated channel; artemis is IS's channel then EM's."""
    dims = HeadDims(8, 8, 8)
    params = init_params(dims, seed=4)
    r_rows, m_rows, _ = _toy_batch(dims, 3, 1, seed=4)
    states = {f: encode_queries(r_rows, m_rows, params, f) for f in FLAVORS}
    assert [len(states[f].channels) for f in FLAVORS] == [1, 1, 1, 1, 1, 2]
    for flavor, state in states.items():
        assert all((sq is not None) == (flavor in ATTENTION_FLAVORS) for _, sq in state.channels)
    artemis = states[Flavor.ARTEMIS].channels
    parts = states[Flavor.IS_ONLY].channels + states[Flavor.EM_ONLY].channels
    for got, want in zip(artemis, parts):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    part = states[Flavor.ARTEMIS].slice_rows(1, 3)
    assert part.n_queries == 2 and part.flavor is Flavor.ARTEMIS
    assert all(np.array_equal(x, full[0][1:3]) and np.array_equal(sq, full[1][1:3])
               for (x, sq), full in zip(part.channels, artemis))


@pytest.mark.parametrize("flavor", [Flavor.IMAGE_ONLY, Flavor.ARTEMIS])
def test_prepare_gallery_takes_float32_rows_and_leaves_them_alone(flavor):
    dims = HeadDims(8, 8, 8)
    _, _, t_rows = _toy_batch(dims, 1, 9, seed=3)
    rows32 = (3.0 * t_rows).astype(np.float32)
    rows64 = rows32.astype(np.float64)
    kept32, kept64 = rows32.copy(), rows64.copy()
    from32, from64 = prepare_gallery(rows32, dims, flavor), prepare_gallery(rows64, dims, flavor)
    assert np.array_equal(rows32, kept32) and np.array_equal(rows64, kept64)
    assert from32.tn is rows32 and from32.norms.dtype == np.float64
    unit = from32.unit_rows(slice(None))
    assert unit.dtype == np.float64
    assert np.array_equal(unit, from64.unit_rows(slice(None)))
    assert np.array_equal(unit, rows64 / np.linalg.norm(rows64, axis=1, keepdims=True))
    r_rows = 2.0 * rows64[:4]
    kept = r_rows.copy()
    encode_queries(r_rows, r_rows, init_params(dims, seed=3), Flavor.IMAGE_ONLY)
    assert np.array_equal(r_rows, kept)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_pairwise_accepts_prepared_gallery(flavor):
    """A gallery prepared under any flavor scores every flavor like a fresh one."""
    dims = HeadDims(8, 8, 8)
    params = init_params(dims, seed=7)
    r_rows, m_rows, t_rows = _toy_batch(dims, 4, 9, seed=7)
    gallery = prepare_gallery(t_rows, dims, flavor)
    for scored in FLAVORS:
        fresh = pairwise_scores(r_rows, m_rows, t_rows, params, scored)
        assert np.array_equal(pairwise_scores(r_rows, m_rows, gallery, params, scored), fresh)
    narrow = prepare_gallery(t_rows[:, :5], HeadDims(8, 5, 8), flavor)
    with pytest.raises(ShapeMismatch):
        pairwise_scores(r_rows, m_rows, narrow, params, flavor)


def test_pairwise_accepts_tape_vars():
    dims = HeadDims(8, 8, 8)
    params = init_params(dims, seed=6)
    r_rows, m_rows, t_rows = _toy_batch(dims, 3, 4, seed=6)
    plain = pairwise_scores(r_rows, m_rows, t_rows, params, Flavor.ARTEMIS)
    tape = Tape()
    lifted = lift_params(params, tape)
    var = pairwise_scores(r_rows, m_rows, t_rows, lifted, Flavor.ARTEMIS)
    assert np.array_equal(var.value, plain)
    tape.backward(weighted_sum(var))
    grads = gradients_of(lifted, tape)
    assert np.all(np.isfinite(params_to_vector(grads)))


@pytest.mark.parametrize("flavor", ATTENTION_FLAVORS, ids=[f.value for f in ATTENTION_FLAVORS])
def test_tiled_scores_match_oracle_and_tape_in_every_tile(flavor):
    """A gallery of two full tiles and a ragged one scores as one whole block,
    and a tape state scores every pair to the plain path's bits."""
    dims = HeadDims(8, 8, 8)
    params = init_params(dims, seed=11)
    r_rows, m_rows, t_rows = _toy_batch(dims, 64, 2 * SCORE_TILE + 5, seed=11)
    got = pairwise_scores(r_rows, m_rows, t_rows, params, flavor)
    assert got.shape == (64, 2 * SCORE_TILE + 5)
    oracle = oracle_from_params(params)
    cols = [0, 1, SCORE_TILE - 1, SCORE_TILE, SCORE_TILE + 777,
            2 * SCORE_TILE - 1, 2 * SCORE_TILE, 2 * SCORE_TILE + 4]
    for i in range(3):
        for j in cols:
            want = oracle.score(flavor.value, r_rows[i].tolist(), m_rows[i].tolist(),
                                t_rows[j].tolist())
            assert got[i, j] == pytest.approx(want, abs=1e-10)
    tape = Tape()
    var = pairwise_scores(r_rows, m_rows, t_rows, lift_params(params, tape), flavor)
    assert np.array_equal(var.value, got)


@pytest.mark.parametrize("flavor", ATTENTION_FLAVORS, ids=[f.value for f in ATTENTION_FLAVORS])
def test_query_side_nodes_match_finite_differences(flavor):
    """The attention, query, x and sq nodes without the scoring node: a
    weighted sum of every channel's x and sq against central differences."""
    dims = HeadDims(6, 6, 5)
    r_rows, m_rows, _ = _toy_batch(dims, 3, 1, seed=17)
    rng = np.random.default_rng(17)
    v0 = params_to_vector(init_params(dims, seed=17))
    v0 += rng.normal(0.0, 0.3, size=v0.shape)   # biases off zero too

    def channel_arrays(params):
        return [v for c in encode_queries(r_rows, m_rows, params, flavor).channels for v in c]

    tape = Tape()
    lifted = lift_params(vector_to_params(v0, dims), tape)
    arrays = channel_arrays(lifted)
    weights = rng.standard_normal((len(arrays), 3, 6))
    tape.backward(node(sum((v.value * w).sum() for v, w in zip(arrays, weights)), arrays,
                       lambda g: [g * w for w in weights]))

    def f(vec):
        return sum((v * w).sum() for v, w in zip(channel_arrays(vector_to_params(vec, dims)),
                                                 weights))

    report = finite_diff_check(f, v0, params_to_vector(gradients_of(lifted, tape)),
                               h=1e-4, tol=1e-5)
    assert report.passed, str(report)


@pytest.mark.parametrize("flavor", ATTENTION_FLAVORS, ids=[f.value for f in ATTENTION_FLAVORS])
def test_tape_gradients_match_finite_differences_over_several_tiles(flavor):
    """The scoring node's hand-written VJPs, on a gallery of two full tiles
    and a ragged one, against central differences of the plain path."""
    dims = HeadDims(6, 6, 5)
    r_rows, m_rows, t_rows = _toy_batch(dims, 2, 2 * SCORE_TILE + 5, seed=13)
    weights = np.random.default_rng(13).standard_normal((2, 2 * SCORE_TILE + 5))
    v0 = params_to_vector(init_params(dims, seed=13))
    tape = Tape()
    lifted = lift_params(vector_to_params(v0, dims), tape)
    tape.backward(weighted_sum(pairwise_scores(r_rows, m_rows, t_rows, lifted, flavor),
                               weights))

    def f(vec):
        scores = pairwise_scores(r_rows, m_rows, t_rows, vector_to_params(vec, dims), flavor)
        return (scores * weights).sum()

    report = finite_diff_check(f, v0, params_to_vector(gradients_of(lifted, tape)),
                               h=1e-4, tol=1e-5)
    assert report.passed, str(report)


@pytest.mark.parametrize("flavor", ATTENTION_FLAVORS, ids=[f.value for f in ATTENTION_FLAVORS])
def test_pair_norm_guard_fires_in_the_last_tile(flavor):
    """In float64, and in float32, where it fires at 2 * NORM_EPS."""
    dim = 8
    params = one_hot_attention_params(dim)
    rng = np.random.default_rng(5)
    t_rows = np.abs(rng.standard_normal((2 * SCORE_TILE + 5, dim))) + 0.1
    t_rows[-2, 0] = 0.0   # unseen by attention on dim 0 only
    state = encode_queries(rng.standard_normal((3, dim)), np.eye(dim)[[2, 3, 0]],
                           params, flavor)
    good = np.abs(rng.standard_normal((2 * SCORE_TILE + 5, dim))) + 0.1
    for scored in (state, state.astype(np.float32)):
        gallery = prepare_gallery(t_rows, params.dims, flavor)
        with pytest.raises(NearZeroNorm,
                           match="attention-weighted candidate has norm 0.0") as err:
            scores_from_state(scored, gallery)
        assert err.value.row == 2
        gallery = prepare_gallery(good.copy(), params.dims, flavor)
        scores_from_state(scored, gallery)
        gallery.tn[-1, 4] = np.nan
        with pytest.raises(NearZeroNorm, match="nan") as err:
            scores_from_state(scored, gallery)
        assert err.value.row == 0


def test_artemis_scoring_peak_memory_is_one_result_plus_tiles():
    """Scoring holds the (Q, G) result and four tile buffers: unit rows,
    squares, norms, dots, all in the channels' dtype."""
    dims = HeadDims(8, 8, 8)
    params = init_params(dims, seed=3)
    r_rows, m_rows, t_rows = _toy_batch(dims, 64, 8 * SCORE_TILE + 5, seed=3)
    state = encode_queries(r_rows, m_rows, params, Flavor.ARTEMIS)
    gallery = prepare_gallery(t_rows.astype(np.float32), dims, Flavor.ARTEMIS)
    for scored in (state, state.astype(np.float32)):
        scores, peak = traced_peak(lambda: scores_from_state(scored, gallery))
        (q, g), size = scores.shape, scores.itemsize
        tiles = 2 * q * SCORE_TILE * size + 2 * SCORE_TILE * dims.h_i * size
        # Writing a tile into the result's strided columns makes numpy's ufunc
        # iterator buffer two operands (getbufsize() values each), and in
        # float32 so does dividing float32 rows by float64 norms into float32
        # unit rows; the rest is views and other small objects.
        buffers = (2 if size == 8 else 4) * 8 * np.getbufsize()
        assert peak <= q * g * size + tiles + buffers + 16 * 1024


def whole_gallery_scores(channels, tn):
    """The channel sum against all rows ``tn`` at once: the composite formula
    the tile loop splits up, written independently of it."""
    total = 0.0
    for x, sq in channels:
        total = total + (x @ tn.T) / np.sqrt(sq @ (tn * tn).T)
    return total


@pytest.mark.parametrize("flavor", ATTENTION_FLAVORS, ids=[f.value for f in ATTENTION_FLAVORS])
@pytest.mark.parametrize("n_queries", [1, 3, 64])
@pytest.mark.parametrize("n_rows", [1, SCORE_TILE, 2 * SCORE_TILE + 5])
def test_tiled_scores_equal_channel_scores(flavor, n_queries, n_rows):
    """Reused tile buffers move no bit: each tile scores as the whole-gallery
    composite does on its rows, and one tile as it does on the whole gallery.

    A whole-gallery gemm may differ in the last bits from a last tile whose
    width is not a multiple of 8 (1.5 ulp seen on OpenBLAS), so a gallery of
    several tiles is held to a few ulps of it.
    """
    dims = HeadDims(32, 32, 16)
    params = init_params(dims, seed=n_queries)
    r_rows, m_rows, t_rows = _toy_batch(dims, n_queries, n_rows, seed=n_rows)
    state = encode_queries(r_rows, m_rows, params, flavor)
    gallery = prepare_gallery(t_rows, dims, flavor)
    tn = gallery.unit_rows(slice(None))
    got = scores_from_state(state, gallery)
    tiles = [whole_gallery_scores(state.channels, tn[lo:lo + SCORE_TILE])
             for lo in range(0, n_rows, SCORE_TILE)]
    assert np.array_equal(got, np.concatenate(tiles, axis=1))
    whole = whole_gallery_scores(state.channels, tn)
    np.testing.assert_allclose(got, whole, rtol=0, atol=4 * np.finfo(np.float64).eps)
    # Float32 channels, ranking's screen, score within its margin.
    screen = scores_from_state(state.astype(np.float32), gallery)
    assert screen.dtype == np.float32
    assert np.all(np.abs(screen - got) <= screen_margin(dims.h_i))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_float32_screen_is_within_its_margin_on_adversarial_channels(data):
    """|float32 score - float64 score| <= screen_margin(K) for every pair the
    float32 guard passes: near-cancelling dots, one-hot attention, and
    peaked attention whose other weights (and their squares) fall below
    float32's normal range or to 0 in it."""
    width = data.draw(st.sampled_from([2, 8, 512]), label="K")
    n_queries, n_rows = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 24))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    t_rows = rng.standard_normal((n_rows, width))

    def attention():
        kind = data.draw(st.sampled_from(["dense", "one-hot", "peaked"]), label="attention")
        if kind == "dense":
            return softmax_rows(data.draw(st.sampled_from([0.1, 3.0, 30.0]))
                                * rng.standard_normal((n_queries, width)))
        a = np.zeros((n_queries, width)) if kind == "one-hot" else np.full(
            (n_queries, width), data.draw(st.sampled_from([1e-20, 1e-30, 1e-39, 1e-44, 1e-300])))
        a[np.arange(n_queries), rng.integers(0, width, n_queries)] = 1.0
        return a

    channels = []
    if data.draw(st.booleans(), label="ungated"):
        channels.append((unit_rows(rng, n_queries, width), None))
    else:
        for _ in range(data.draw(st.integers(1, 2), label="channels")):
            u, a = rng.standard_normal((n_queries, width)), attention()
            channels.append(((u * a) / np.linalg.norm(u, axis=1, keepdims=True), a * a))
    if data.draw(st.booleans(), label="near-cancelling"):
        # Take the first query's first x out of every other gallery row, so
        # their dot products cancel to rounding noise over large terms.
        x = channels[0][0][0]
        if x @ x > 0:
            t_rows[::2] -= np.outer(t_rows[::2] @ x / (x @ x), x)
            t_rows[::2] += 1e-9 * rng.standard_normal(t_rows[::2].shape)
    state = QueryState(Flavor.ARTEMIS, n_queries, channels)
    gallery = prepare_gallery(t_rows, HeadDims(width, width, 1), Flavor.ARTEMIS)
    try:
        screen = scores_from_state(state.astype(np.float32), gallery)
    except NearZeroNorm:
        return   # a pair the screen leaves to float64; ranking reruns the block
    exact = scores_from_state(state, gallery)
    worst = float(np.max(np.abs(screen.astype(np.float64) - exact)))
    assert worst <= screen_margin(width), f"{worst!r} at K = {width}; {blas_config()}"


@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
def test_gallery_peak_memory_is_one_float64_copy_plus_chunks(flavor):
    """Preparing a float32 bank builds no bank-sized array, for any flavor:
    its norms and the norm loop's float64 chunks."""
    n, dim = 4 * NORM_ROWS + 5, 64
    t_rows = np.random.default_rng(5).standard_normal((n, dim)).astype(np.float32)
    gallery, peak = traced_peak(lambda: prepare_gallery(t_rows, HeadDims(dim, dim, dim), flavor))
    assert gallery.tn is t_rows
    assert peak <= n * 8 + 2 * NORM_ROWS * dim * 8 + 64 * 1024


def test_width_guards():
    dims = HeadDims(6, 8, 4)
    params = init_params(dims, seed=0)
    rng = np.random.default_rng(0)
    r = unit_rows(rng, 2, 8)
    m = unit_rows(rng, 2, 6)
    t = unit_rows(rng, 3, 8)
    with pytest.raises(ShapeMismatch):
        pairwise_scores(r, m, t, params, Flavor.TEXT_ONLY)   # h_t != h_i
    with pytest.raises(ShapeMismatch):
        pairwise_scores(r, m, t, params, Flavor.LATE_FUSION)
    with pytest.raises(ShapeMismatch):
        pairwise_scores(r[:1], m, t, params, Flavor.ARTEMIS)  # count mismatch
    with pytest.raises(ShapeMismatch):
        pairwise_scores(r[:, :5], m, t, params, Flavor.ARTEMIS)  # bad width


def test_zero_rows_raise_near_zero_norm():
    dims = HeadDims(5, 5, 5)
    params = init_params(dims, seed=0)
    rng = np.random.default_rng(1)
    r = unit_rows(rng, 2, 5)
    m = unit_rows(rng, 2, 5)
    t = unit_rows(rng, 3, 5)
    with pytest.raises(NearZeroNorm):
        pairwise_scores(np.zeros_like(r), m, t, params, Flavor.IMAGE_ONLY)
    with pytest.raises(NearZeroNorm):
        pairwise_scores(np.zeros_like(r), m, t, params, Flavor.IS_ONLY)
    bad_t = t.copy()
    bad_t[1] = 0.0
    with pytest.raises(NearZeroNorm):
        prepare_gallery(bad_t, dims, Flavor.IMAGE_ONLY)


def test_nan_head_raises_near_zero_norm():
    dims = HeadDims(4, 4, 4)
    params = init_params(dims, seed=0)
    params.attn_em.b2[1] = np.nan
    r_rows, m_rows, t_rows = _toy_batch(dims, 3, 5, seed=0)
    with pytest.raises(NearZeroNorm, match="nan"):
        pairwise_scores(r_rows, m_rows, t_rows, params, Flavor.EM_ONLY)


def test_prepare_gallery_nan_row_raises_near_zero_norm():
    dims = HeadDims(4, 4, 4)
    t_rows = unit_rows(np.random.default_rng(0), 3, 4)
    t_rows[2, 1] = np.nan
    for flavor in (Flavor.IMAGE_ONLY, Flavor.ARTEMIS):
        with pytest.raises(NearZeroNorm, match="nan"):
            prepare_gallery(t_rows, dims, flavor)


@pytest.mark.parametrize("flavor", FLAVORS, ids=[f.value for f in FLAVORS])
def test_zero_row_blocks_score_to_empty_matrix(flavor):
    dims = HeadDims(4, 4, 4)
    params = init_params(dims, seed=0)
    r_rows, m_rows, t_rows = _toy_batch(dims, 3, 5, seed=0)
    assert pairwise_scores(r_rows[:0], m_rows[:0], t_rows, params, flavor).shape == (0, 5)
    assert pairwise_scores(r_rows, m_rows, t_rows[:0], params, flavor).shape == (3, 0)
    r_rows[1, 0] = m_rows[1, 0] = np.nan
    with pytest.raises(NearZeroNorm, match="nan"):
        pairwise_scores(r_rows, m_rows, t_rows[:0], params, flavor)


# -- flattening -------------------------------------------------------------------

def test_param_vector_round_trip():
    dims = HeadDims(7, 5, 3)
    params = init_params(dims, seed=11)
    vec = params_to_vector(params)
    assert vec.shape == (head_param_count(params),)
    back = vector_to_params(vec, dims)
    assert np.array_equal(params_to_vector(back), vec)
    assert float(back.gamma) == float(params.gamma)


def test_vector_to_params_rejects_wrong_size():
    with pytest.raises(ShapeMismatch):
        vector_to_params(np.zeros(10), HeadDims(7, 5, 3))


def test_params_builders_share_one_flat_buffer(tmp_path):
    dims = HeadDims(5, 4, 3)
    params = init_params(dims, seed=2)
    save_checkpoint(params, tmp_path / "head.ahp")
    vec = params_to_vector(params)
    built = {"init_params": params, "load_checkpoint": load_checkpoint(tmp_path / "head.ahp"),
             "vector_to_params": vector_to_params(vec, dims)}
    for how, got in built.items():
        assert_one_flat_buffer(got)
        assert np.array_equal(params_to_vector(got), vec), how
    # An ndarray input is viewed, not copied: the blocks are that vector.
    built["vector_to_params"].gamma[...] = 7.0
    assert vec[-1] == 7.0


# -- checkpoint format --------------------------------------------------------------

GOLDEN_CHECKPOINT_HEX = (
    "414850310100000001000000010000000100000001000000000000000000f0bf"
    "01000000000000000000e8bf01000000000000000000e0bf0100000000000000"
    "0000d0bf01000000000000000000000001000000000000000000d03f01000000"
    "000000000000e03f01000000000000000000e83f01000000000000000000f03f"
    "01000000000000000000f43f01000000000000000000f83f"
)


def _unit_dims_params():
    vec = np.arange(11, dtype=np.float64) / 4.0 - 1.0
    return vector_to_params(vec, HeadDims(1, 1, 1))


def test_checkpoint_golden_bytes(tmp_path):
    path = tmp_path / "head.ahp"
    save_checkpoint(_unit_dims_params(), path)
    raw = path.read_bytes()
    assert raw == bytes.fromhex(GOLDEN_CHECKPOINT_HEX)
    # Spell the layout out once: magic, version, three dims, then one
    # u32 count + f64 payload per block in BLOCK_NAMES order.
    expected = b"AHP1" + struct.pack("<IIII", 1, 1, 1, 1)
    for v in np.arange(11, dtype=np.float64) / 4.0 - 1.0:
        expected += struct.pack("<I", 1) + struct.pack("<d", v)
    assert raw == expected


def test_checkpoint_round_trip_bit_identical(tmp_path):
    dims = HeadDims(19, 13, 7)
    params = init_params(dims, seed=21)
    path = tmp_path / "head.ahp"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.dims == dims
    assert np.array_equal(params_to_vector(loaded), params_to_vector(params))
    save_checkpoint(loaded, tmp_path / "again.ahp")
    assert (tmp_path / "again.ahp").read_bytes() == path.read_bytes()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "head.ahp"
    save_checkpoint(_unit_dims_params(), path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def test_checkpoint_bad_version(tmp_path):
    path = tmp_path / "head.ahp"
    save_checkpoint(_unit_dims_params(), path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 9)
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        load_checkpoint(path)


def test_checkpoint_truncation_and_trailing(tmp_path):
    path = tmp_path / "head.ahp"
    save_checkpoint(_unit_dims_params(), path)
    raw = path.read_bytes()
    short = tmp_path / "short.ahp"
    short.write_bytes(raw[:-3])
    with pytest.raises(TruncatedFile):
        load_checkpoint(short)
    longer = tmp_path / "long.ahp"
    longer.write_bytes(raw + b"\x00")
    with pytest.raises(TruncatedFile):
        load_checkpoint(longer)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_checkpoint_non_finite_block_is_rejected(tmp_path, bad):
    params = init_params(HeadDims(3, 4, 5), seed=1)
    params.attn_em.b2[2] = bad
    path = tmp_path / "head.ahp"
    save_checkpoint(params, path)
    with pytest.raises(NonFiniteData, match="attn_em.b2"):
        load_checkpoint(path)


def test_checkpoint_reader_corruption_fuzz(tmp_path):
    dims = HeadDims(2, 3, 2)
    path = tmp_path / "head.ahp"
    save_checkpoint(init_params(dims, seed=0), path)
    raw = path.read_bytes()
    fields = {"version": 4, "h_t": 8, "h_i": 12, "h_hidden": 16}
    offset = 20
    for name, shape in block_shapes(dims).items():
        fields[f"{name} count"] = offset
        offset += 4 + 8 * math.prod(shape)
    assert offset == len(raw)
    cases = list(corruptions(raw, fields, nan_at=fields["proj.w count"] + 4,
                             nan_format="<d"))
    assert len(cases) > len(raw)
    for label, broken in cases:
        path.write_bytes(broken)
        try:
            load_checkpoint(path)
        except DataError:
            continue
        pytest.fail(f"{label}: loaded without a DataError")


def test_block_shapes_cover_all_names():
    shapes = block_shapes(HeadDims(3, 4, 5))
    assert set(shapes) == set(BLOCK_NAMES)
    assert shapes["attn_is.w1"] == (3, 5)
    assert shapes["attn_is.w2"] == (5, 4)
    assert shapes["proj.w"] == (3, 4)
    assert shapes["gamma"] == ()
