import gc
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emis.autodiff import Tape
from emis.data import SynthSpec, generate_synthetic
from emis.errors import (
    ConfigError,
    EmptySplit,
    NonFiniteGradient,
    ShapeMismatch,
)
from emis.head import (
    BLOCK_NAMES,
    Flavor,
    HeadDims,
    head_param_count,
    init_params,
    lift_params,
    pairwise_scores,
    param_blocks,
    params_to_vector,
    vector_to_params,
)
from emis.numerics import finite_diff_check
from emis import evaluation, training
from emis.training import (
    BETA1,
    BETA2,
    EPS,
    AdamWState,
    EpochLog,
    TrainConfig,
    adamw_step,
    bbc_loss,
    bbc_loss_from_scores,
    lr_at_epoch,
    read_epoch_logs,
    train,
    write_epoch_logs,
)

import scalar_oracle
from adamw_oracle import OracleAdamW
from conftest import assert_one_flat_buffer, refuse_matrix64, traced_peak, unit_rows

GAMMA_MIN = 1e-3


def tiny_synth(seed=0, n_val=0):
    spec = SynthSpec(n_train=64, n_eval=4, n_val=n_val, gallery_size=200, seed=seed)
    corpus, triplets, _ = generate_synthetic(spec)
    return corpus, triplets


# -- loss values -------------------------------------------------------------------

def test_loss_all_equal_scores_is_log_batch_size():
    for b in (2, 3, 8, 32):
        scores = np.full((b, b), 0.37)
        for gamma in (1.0, 10.0):
            loss = float(bbc_loss_from_scores(scores, gamma))
            assert loss == pytest.approx(math.log(b), abs=1e-12)


def test_loss_two_by_two_fixture():
    scores = np.array([[1.0, 0.0], [0.0, 1.0]])
    loss = float(bbc_loss_from_scores(scores, 1.0))
    assert loss == pytest.approx(math.log(1.0 + math.exp(-1.0)), abs=1e-6)


def test_loss_matches_scalar_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        b = int(rng.integers(2, 9))
        scores = rng.standard_normal((b, b))
        gamma = float(rng.uniform(0.5, 12.0))
        got = float(bbc_loss_from_scores(scores, gamma))
        want = scalar_oracle.bbc_loss(scores.tolist(), gamma)
        assert got == pytest.approx(want, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_loss_row_shift_invariance(seed):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 7))
    scores = rng.standard_normal((b, b))
    shifts = rng.uniform(-5.0, 5.0, size=(b, 1))
    base = float(bbc_loss_from_scores(scores, 3.0))
    shifted = float(bbc_loss_from_scores(scores + shifts, 3.0))
    assert shifted == pytest.approx(base, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.floats(0.01, 3.0))
def test_loss_decreases_when_diagonal_increases(seed, bump):
    rng = np.random.default_rng(seed)
    b = int(rng.integers(2, 7))
    scores = rng.standard_normal((b, b))
    i = int(rng.integers(0, b))
    bumped = scores.copy()
    bumped[i, i] += bump
    assert float(bbc_loss_from_scores(bumped, 2.0)) < float(bbc_loss_from_scores(scores, 2.0))


def test_loss_shape_guards():
    with pytest.raises(ShapeMismatch):
        bbc_loss_from_scores(np.zeros((2, 3)), 1.0)
    with pytest.raises(ShapeMismatch):
        bbc_loss_from_scores(np.zeros((1, 1)), 1.0)


def test_loss_is_stable_at_large_scores():
    """Each row's logsumexp is shifted by its max, so exp never overflows;
    (1000 + log 2) - 1000 keeps log 2 to the ulps of 1000."""
    loss = bbc_loss_from_scores(np.full((2, 2), 1000.0), 1.0)
    assert loss == pytest.approx(math.log(2.0), abs=1e-12)


# -- loss gradients -----------------------------------------------------------------

@pytest.mark.parametrize("flavor", list(Flavor), ids=[f.value for f in Flavor])
def test_loss_gradients_match_finite_differences(flavor):
    dims = HeadDims(6, 6, 4)
    h = 1e-4
    rng = np.random.default_rng(list(Flavor).index(flavor))
    r = unit_rows(rng, 4, dims.h_i)
    m = unit_rows(rng, 4, dims.h_t)
    t = unit_rows(rng, 4, dims.h_i)
    vec = params_to_vector(init_params(dims, seed=1))
    vec = vec + rng.normal(0.0, 0.3, size=vec.shape)
    vec[-1] = 2.5  # keep the temperature in a well-conditioned range
    # A probe moves a hidden pre-activation by at most h (unit modifier
    # rows), so central differences see no ReLU kink if none is this close.
    start = vector_to_params(vec, dims)
    for branch in (start.attn_is, start.attn_em):
        assert np.abs(m @ branch.w1 + branch.b1).min() > 10 * h

    def f(v):
        params = vector_to_params(v, dims)
        return bbc_loss_from_scores(pairwise_scores(r, m, t, params, flavor),
                                    params.gamma)

    _, grads = bbc_loss(r, m, t, start, flavor)
    report = finite_diff_check(f, vec, params_to_vector(grads), h=h, tol=1e-4)
    assert report.passed, str(report)


@pytest.mark.parametrize("flavor, count", [
    (Flavor.IMAGE_ONLY, 12), (Flavor.TEXT_ONLY, 12), (Flavor.LATE_FUSION, 12),
    (Flavor.IS_ONLY, 17), (Flavor.EM_ONLY, 17), (Flavor.ARTEMIS, 21)],
    ids=[f.value for f in Flavor])
def test_loss_tape_is_one_node_per_fused_formula(flavor, count):
    """11 parameter leaves, the loss node, and per attention channel its
    attention MLP, query u, x, sq, plus one scoring node."""
    dims = HeadDims(6, 6, 4)
    rng = np.random.default_rng(4)
    r, m, t = (unit_rows(rng, 4, 6) for _ in range(3))
    tape = Tape()
    live = lift_params(init_params(dims, seed=4), tape)
    loss = bbc_loss_from_scores(pairwise_scores(r, m, t, live, flavor), live.gamma)
    assert sum(ref() is not None for ref in tape._nodes) == count
    assert loss.value.shape == ()


def test_loss_gradients_zero_for_unused_blocks():
    dims = HeadDims(5, 5, 3)
    rng = np.random.default_rng(9)
    r, m, t = (unit_rows(rng, 3, 5) for _ in range(3))
    params = init_params(dims, seed=2)

    _, g_is = bbc_loss(r, m, t, params, Flavor.IS_ONLY)
    assert np.all(g_is.attn_em.w1 == 0.0) and np.all(g_is.proj_w == 0.0)
    assert np.any(g_is.attn_is.w1 != 0.0)
    assert float(g_is.gamma) != 0.0

    _, g_em = bbc_loss(r, m, t, params, Flavor.EM_ONLY)
    assert np.all(g_em.attn_is.w1 == 0.0)
    assert np.any(g_em.attn_em.w1 != 0.0) and np.any(g_em.proj_w != 0.0)

    _, g_img = bbc_loss(r, m, t, params, Flavor.IMAGE_ONLY)
    for name in ("attn_is", "attn_em"):
        branch = getattr(g_img, name)
        assert np.all(branch.w1 == 0.0) and np.all(branch.w2 == 0.0)
    assert np.all(g_img.proj_w == 0.0)
    assert float(g_img.gamma) != 0.0


# -- optimizer ---------------------------------------------------------------------

def test_adamw_first_step_matches_closed_form():
    dims = HeadDims(3, 3, 2)
    config = TrainConfig(batch_size=2, lr0=1e-2, weight_decay=0.04)
    params = init_params(dims, seed=5)
    rng = np.random.default_rng(5)
    gvec = rng.standard_normal(params_to_vector(params).size)
    grads = vector_to_params(gvec, dims)
    lr = 1e-2

    new_params, state = adamw_step(params, grads, AdamWState.fresh(params), lr, config)
    assert state.step == 1

    w = params_to_vector(params)
    g = gvec
    expected = w - lr * g / (np.abs(g) + EPS) - lr * config.weight_decay * w
    # gamma is excluded from decay
    expected[-1] = w[-1] - lr * g[-1] / (abs(g[-1]) + EPS)
    np.testing.assert_allclose(params_to_vector(new_params), expected, atol=1e-12)


def test_adamw_gamma_clamped_at_floor():
    dims = HeadDims(2, 2, 2)
    config = TrainConfig(batch_size=2, lr0=100.0)
    params = init_params(dims, seed=0)
    gvec = np.zeros(params_to_vector(params).size)
    gvec[-1] = 5.0  # huge positive gradient drives gamma down past the floor
    grads = vector_to_params(gvec, dims)
    new_params, _ = adamw_step(params, grads, AdamWState.fresh(params), 100.0, config)
    assert float(new_params.gamma) == GAMMA_MIN


def test_adamw_zero_gradient_only_decays_weights():
    dims = HeadDims(2, 2, 2)
    config = TrainConfig(batch_size=2, lr0=0.1, weight_decay=0.5)
    params = init_params(dims, seed=1)
    grads = vector_to_params(np.zeros(params_to_vector(params).size), dims)
    new_params, _ = adamw_step(params, grads, AdamWState.fresh(params), 0.1, config)
    np.testing.assert_allclose(new_params.attn_is.w1,
                               params.attn_is.w1 * (1.0 - 0.1 * 0.5), atol=1e-15)
    assert float(new_params.gamma) == float(params.gamma)


def test_adamw_rejects_non_finite_gradient():
    dims = HeadDims(2, 3, 2)
    config = TrainConfig(batch_size=2)
    rng = np.random.default_rng(4)
    params = init_params(dims, seed=1)
    state = AdamWState.fresh(params)
    for _ in range(2):
        grads = vector_to_params(rng.standard_normal(head_param_count(params)), dims)
        params, state = adamw_step(params, grads, state, 1e-3, config)
    before = (params_to_vector(params), state.m.copy(), state.v.copy(), state.step)
    for block, bad in (("attn_is.w1", np.nan), ("attn_em.b2", np.nan), ("gamma", np.inf)):
        grads = vector_to_params(np.ones(head_param_count(params)), dims)
        dict(param_blocks(grads))[block].flat[-1] = bad
        with pytest.raises(NonFiniteGradient, match=f"gradient for {block} "):
            adamw_step(params, grads, state, 1e-3, config)
        assert np.array_equal(params_to_vector(params), before[0])
        assert np.array_equal(state.m, before[1]) and np.array_equal(state.v, before[2])
        assert state.step == before[3]


def _blocks(params):
    return {name: np.array(b) for name, b in param_blocks(params)}


@settings(max_examples=40, deadline=None)
@given(dims=st.builds(HeadDims, st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)),
       weight_decay=st.sampled_from([0.0, 0.01, 0.3]),
       n_steps=st.integers(5, 8), data=st.data())
def test_adamw_matches_per_block_oracle(dims, weight_decay, n_steps, data):
    config = TrainConfig(batch_size=2, weight_decay=weight_decay)
    seed = data.draw(st.integers(0, 2 ** 31 - 1), label="seed")
    clamp_at = data.draw(st.integers(1, n_steps - 1), label="clamp_at")
    zero_at = data.draw(st.integers(0, n_steps - 1), label="zero_at")
    rng = np.random.default_rng(seed)
    params = init_params(dims, seed=seed)
    state = AdamWState.fresh(params)
    oracle = OracleAdamW(_blocks(params), BETA1, BETA2, EPS, weight_decay)
    expected = _blocks(params)
    for step in range(n_steps):
        gvec = rng.standard_normal(head_param_count(params)) * rng.choice([1e-3, 1.0, 30.0])
        lr = float(rng.choice([1e-4, 5e-4, 1e-2]))
        if step == zero_at:
            gvec[:] = 0.0
        if step == clamp_at:     # a large push on gamma drives it under the floor
            gvec[-1], lr = 1e3, 100.0
        grads = vector_to_params(gvec, dims)
        expected = oracle.step(expected, _blocks(grads), lr)
        params, state = adamw_step(params, grads, state, lr, config)
        if step == clamp_at:
            assert float(expected["gamma"]) == GAMMA_MIN
        assert state.step == step + 1
        for got, want in ((params_to_vector(params), expected),
                          (state.m, oracle.m), (state.v, oracle.v)):
            assert np.array_equal(got, np.concatenate(
                [np.ravel(want[name]) for name in BLOCK_NAMES]))


def test_adamw_returns_fresh_flat_params_and_advances_state_in_place():
    dims = HeadDims(3, 4, 2)
    params = init_params(dims, seed=3)
    before = params_to_vector(params)
    state = AdamWState.fresh(params)
    m, v = state.m, state.v
    grads = vector_to_params(np.full(head_param_count(params), 0.5), dims)
    new_params, new_state = adamw_step(params, grads, state, 1e-2, TrainConfig(batch_size=2))
    assert_one_flat_buffer(new_params)
    assert not np.shares_memory(new_params.attn_is.w1.base, params.attn_is.w1.base)
    assert np.array_equal(params_to_vector(params), before)
    assert new_state is state and state.m is m and state.v is v
    assert state.step == 1 and np.all(m == (1.0 - 0.9) * 0.5)


def test_lr_schedule_halves_every_ten_epochs():
    config = TrainConfig()
    assert lr_at_epoch(0, config) == 5e-4
    assert lr_at_epoch(9, config) == 5e-4
    assert lr_at_epoch(10, config) == 2.5e-4
    assert lr_at_epoch(25, config) == 1.25e-4
    with pytest.raises(ConfigError):
        lr_at_epoch(-1, config)


# -- config and logs -----------------------------------------------------------------

def test_train_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1)
    with pytest.raises(ConfigError):
        TrainConfig(lr0=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(epochs=0)
    with pytest.raises(ConfigError):
        TrainConfig(flavor="bogus")
    nan, inf = math.nan, math.inf
    for key, bad in (("lr0", nan), ("lr0", inf), ("lr0", -1e-3),
                     ("lr_decay", 0.0), ("lr_decay", -1.0), ("lr_decay", nan),
                     ("weight_decay", -0.01), ("weight_decay", nan), ("weight_decay", inf),
                     ("decay_every", 0), ("seed", -1)):
        with pytest.raises(ConfigError, match=key):
            TrainConfig(**{key: bad})
    TrainConfig(weight_decay=0.0, lr_decay=2.0)
    assert TrainConfig(flavor="em_only").flavor is Flavor.EM_ONLY


def test_epoch_log_round_trip(tmp_path):
    logs = [EpochLog(epoch=0, loss=1.5, lr=5e-4,
                     metrics={"val": {"r_at_10": 40.0}}, seconds=0.81),
            EpochLog(epoch=1, loss=1.1, lr=5e-4, metrics={}, seconds=0.79)]
    path = tmp_path / "logs.jsonl"
    write_epoch_logs(logs, path)
    assert read_epoch_logs(path) == logs


# -- the full loop -------------------------------------------------------------------

def test_train_loss_decreases_over_three_epochs(default_synth):
    corpus, triplets, _ = default_synth
    result = train(triplets, corpus, TrainConfig(epochs=3, seed=0), monitor=())
    losses = [log.loss for log in result.logs]
    assert len(losses) == 3
    assert losses[0] > losses[1] > losses[2]


def test_train_same_seed_is_bit_identical():
    corpus, triplets = tiny_synth(seed=3)
    config = TrainConfig(epochs=2, batch_size=16, seed=7)
    a = train(triplets, corpus, config, monitor=())
    b = train(triplets, corpus, config, monitor=())
    assert np.array_equal(params_to_vector(a.params), params_to_vector(b.params))
    assert [log.loss for log in a.logs] == [log.loss for log in b.logs]


def test_train_tracks_best_checkpoint_on_monitored_split():
    corpus, triplets = tiny_synth(seed=1, n_val=4)
    config = TrainConfig(epochs=3, batch_size=16, seed=0)
    result = train(triplets, corpus, config, monitor=("val",))
    series = [log.metrics["val"]["r_at_10"] for log in result.logs]
    # The earlier epoch wins ties.
    assert result.best == {"val": series.index(max(series))}


@pytest.mark.parametrize("metric, want", [("median_rank", 1), ("r_at_10", 2)])
def test_best_epoch_is_the_earliest_lowest_median_rank_or_highest_recall(monkeypatch,
                                                                        metric, want):
    series = {"median_rank": iter([9.0, 3.0, 4.0, 3.0]), "r_at_10": iter([1.0, 2.0, 5.0, 5.0])}

    def scripted_evaluate(*args, **kwargs):
        return SimpleNamespace(metrics={name: next(it) for name, it in series.items()})

    monkeypatch.setattr(evaluation, "evaluate", scripted_evaluate)
    corpus, triplets = tiny_synth(seed=1, n_val=4)
    result = train(triplets, corpus, TrainConfig(epochs=4, batch_size=16, seed=0),
                   monitor=("val",), selection_metric=metric)
    assert result.best == {"val": want}


def test_train_normalizes_target_rows_only_in_prepare_gallery(monkeypatch):
    corpus, triplets = tiny_synth(seed=1, n_val=4)
    config = TrainConfig(epochs=1, batch_size=16, seed=0)
    expected = train(triplets, corpus, config, monitor=("val",))
    refuse_matrix64(monkeypatch)
    result = train(triplets, corpus, config, monitor=("val",))
    assert [(log.loss, log.metrics) for log in result.logs] == [
        (log.loss, log.metrics) for log in expected.logs]


def test_train_split_names_are_checked():
    corpus, triplets = tiny_synth(seed=2)
    config = TrainConfig(epochs=1, batch_size=16)
    with pytest.raises(ConfigError, match="'vall'"):
        train(triplets, corpus, config, monitor=("val", "vall"))
    # A known split with no records is simply not monitored.
    assert train(triplets, corpus, config, monitor=("val",)).best == {}


def test_train_unknown_selection_metric_errors(monkeypatch):
    def no_step(*args):
        raise AssertionError("a training step ran")

    monkeypatch.setattr(training, "bbc_loss", no_step)
    for n_val, subsets, metric in ((4, True, "nope"),
                                   (0, True, "nope"),          # no split monitored
                                   (4, False, "combined"),     # subset-only names
                                   (4, False, "r_subset_at_1")):
        corpus, triplets = tiny_synth(seed=2, n_val=n_val)
        if not subsets:
            triplets.subsets.clear()
        with pytest.raises(ConfigError, match=f"'{metric}' not in evaluation output .*'r_at_10'"):
            train(triplets, corpus, TrainConfig(epochs=1, batch_size=16),
                  monitor=("val",), selection_metric=metric)


@pytest.mark.parametrize("n_val", [4, 0])
def test_train_accepts_subset_metrics_where_subsets_exist(n_val):
    corpus, triplets = tiny_synth(seed=2, n_val=n_val)
    result = train(triplets, corpus, TrainConfig(epochs=1, batch_size=16),
                   monitor=("val",), selection_metric="combined")
    assert result.best == ({"val": 0} if n_val else {})


def test_train_no_full_batch_raises_unless_partial_kept():
    corpus, triplets = tiny_synth(seed=4)
    config = TrainConfig(epochs=1, batch_size=128, seed=0)
    with pytest.raises(EmptySplit):
        train(triplets, corpus, config, monitor=())
    kept = TrainConfig(epochs=1, batch_size=128, seed=0, keep_partial_batch=True)
    result = train(triplets, corpus, kept, monitor=())
    assert len(result.logs) == 1


def test_train_steps_free_their_graphs_without_the_collector(monkeypatch):
    # Each step's autodiff graph must die by reference counting when its
    # loss returns; a graph kept alive by a cycle would add ~0.2 MB a step here.
    corpus, triplets = tiny_synth(seed=5)
    live: list[int] = []

    def traced_step(*args):
        out = adamw_step(*args)
        live.append(tracemalloc.get_traced_memory()[0])
        return out

    monkeypatch.setattr(training, "adamw_step", traced_step)
    gc.disable()
    tracemalloc.start()
    try:
        train(triplets, corpus, TrainConfig(epochs=1, batch_size=3, seed=0), monitor=())
    finally:
        tracemalloc.stop()
        gc.enable()
    assert len(live) == 21
    assert live[-1] - live[1] < 64 * 1024


def test_train_and_its_monitor_eval_hold_no_gallery_sized_array():
    # A one-block monitor eval scores the raw float32 gallery. Training
    # state here peaks at about 5 MiB and the monitor adds about 4.5 MiB,
    # so a float64 copy of the gallery (G x D x 8 bytes, 15.6 MiB) in
    # either one breaks its bound.
    n_gallery, dim = 16000, 128
    spec = SynthSpec(n_train=64, n_eval=1, n_val=16, gallery_size=n_gallery,
                     dim_i=dim, dim_t=dim, seed=0)
    corpus, triplets, _ = generate_synthetic(spec)
    config = TrainConfig(epochs=1, batch_size=32, seed=0)
    half_gallery64 = n_gallery * dim * 8 / 2
    _, bare = traced_peak(lambda: train(triplets, corpus, config, monitor=()))
    result, monitored = traced_peak(lambda: train(triplets, corpus, config,
                                                  monitor=("val",)))
    assert result.best == {"val": 0}
    assert bare < half_gallery64
    assert monitored - bare < half_gallery64


def test_train_rejects_non_corpus():
    with pytest.raises(ConfigError):
        train([], object(), TrainConfig(epochs=1), monitor=())
