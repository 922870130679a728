"""Batch-softmax loss, optimizer, schedule, and the training loop.

The loss treats each query's own target as the positive class among
all targets in the minibatch and applies a learnable temperature to
the score matrix before the softmax. Optimization is AdamW with
decoupled weight decay (the temperature is exempt from decay and
clamped positive), updating the head's flat parameter vector in fixed
chunks. Everything is deterministic given the config seed.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var, value_of
from .errors import (ConfigError, EmptySplit, NearZeroNorm, NonFiniteGradient,
                     ShapeMismatch)
from .head import (Flavor, HeadDims, HeadParams, GAMMA_MIN, gradients_of,
                   init_params, lift_params, pairwise_scores, param_blocks,
                   param_count, vector_to_params)
from .numerics import normalize_rows, softmax_rows

Array = np.ndarray

# Adam's moment decays and denominator floor, at their published defaults.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class TrainConfig:
    """Optimization hyperparameters."""

    batch_size: int = 32
    epochs: int = 50
    lr0: float = 5e-4
    lr_decay: float = 0.5
    decay_every: int = 10
    weight_decay: float = 0.01
    seed: int = 0
    flavor: Flavor = Flavor.ARTEMIS
    keep_partial_batch: bool = False

    def __post_init__(self) -> None:
        # The loss needs in-batch negatives, so a batch holds at least two.
        for key, smallest in (("batch_size", 2), ("epochs", 1), ("decay_every", 1),
                              ("seed", 0)):
            if getattr(self, key) < smallest:
                raise ConfigError(f"{key} must be >= {smallest}, got {getattr(self, key)!r}")
        # Written so that NaN fails every range.
        for key, ok, want in (
                ("lr0", 0 < self.lr0 < math.inf, "a positive finite number"),
                ("lr_decay", 0 < self.lr_decay < math.inf, "a positive finite number"),
                ("weight_decay", 0 <= self.weight_decay < math.inf,
                 "a non-negative finite number")):
            if not ok:
                raise ConfigError(f"{key} must be {want}, got {getattr(self, key)!r}")
        if isinstance(self.flavor, str):
            self.flavor = Flavor.parse(self.flavor)


@dataclass
class EpochLog:
    """One completed epoch: mean loss, lr, per-split metrics, wall time."""

    epoch: int
    loss: float
    lr: float
    metrics: dict[str, dict[str, float]]
    seconds: float

    def to_json_line(self) -> str:
        return json.dumps({"epoch": self.epoch, "loss": self.loss, "lr": self.lr,
                           "metrics": self.metrics, "seconds": self.seconds},
                          sort_keys=True)

    @classmethod
    def from_json_line(cls, line: str) -> "EpochLog":
        obj = json.loads(line)
        return cls(epoch=obj["epoch"], loss=obj["loss"], lr=obj["lr"],
                   metrics=obj["metrics"], seconds=obj["seconds"])


def bbc_loss_from_scores(scores, gamma):
    """Mean softmax cross-entropy over in-batch targets.

    ``scores`` is the square batch score matrix (queries x targets,
    matching index = positive). Plain arrays give a float; when ``gamma``
    is a tape Var the loss is one node over ``gamma`` and, if it is a
    Var too, ``scores``.
    """
    square = value_of(scores)
    if square.ndim != 2 or square.shape[0] != square.shape[1]:
        raise ShapeMismatch(f"batch score matrix must be square, got {square.shape}")
    b = square.shape[0]
    if b < 2:
        raise ShapeMismatch("loss needs at least 2 triplets for in-batch negatives")
    temperature = value_of(gamma)
    z = temperature * square
    top = z.max(axis=1)
    per_row = (top + np.log(np.exp(z - top[:, None]).sum(axis=1))) - np.diagonal(z)
    loss = per_row.sum() * (1.0 / b)
    if not isinstance(gamma, Var):
        return loss

    def backward(g):
        g_row = np.broadcast_to(g * (1.0 / b), (b,))
        g_z = np.zeros_like(z)
        np.fill_diagonal(g_z, -g_row)
        g_z += softmax_rows(z) * g_row[:, None]
        g_gamma = (g_z * square).sum(axis=(0, 1))
        return (g_gamma, g_z * temperature) if taped else (g_gamma,)

    taped = isinstance(scores, Var)
    return ad.node(loss, [gamma, scores] if taped else [gamma], backward)


def bbc_loss(r_rows: Array, m_rows: Array, t_rows: Array,
             params: HeadParams, flavor: Flavor) -> tuple[float, HeadParams]:
    """Loss and gradients w.r.t. every parameter block (zeros when unused)."""
    tape = Tape()
    live = lift_params(params, tape)
    scores = pairwise_scores(r_rows, m_rows, t_rows, live, flavor)
    loss = bbc_loss_from_scores(scores, live.gamma)
    tape.backward(loss)
    return float(loss.value), gradients_of(live, tape)


# Elements per pass of the AdamW loop: long enough to amortize the ufunc
# calls, short enough that a chunk's operands stay in cache.
ADAMW_CHUNK = 16384


@dataclass
class AdamWState:
    """Flat first/second moments in ``BLOCK_NAMES`` order, advanced in place."""

    step: int
    m: Array
    v: Array

    @classmethod
    def fresh(cls, params: HeadParams) -> "AdamWState":
        n = param_count(params.dims)
        return cls(step=0, m=np.zeros(n), v=np.zeros(n))


def adamw_step(params: HeadParams, grads: HeadParams, state: AdamWState,
               lr: float, config: TrainConfig) -> tuple[HeadParams, AdamWState]:
    """One decoupled-weight-decay Adam update, bit-identical to whole-block math.

    Returns new params in one fresh flat vector and ``state``, advanced in
    place; ``params`` is not modified, and a non-finite gradient raises
    before anything is written. The temperature is not decayed and stays
    >= 1e-3 so the loss softmax can never collapse or flip sign.
    """
    for name, g in param_blocks(grads):
        if not np.isfinite(g).all():
            raise NonFiniteGradient(f"gradient for {name} is not finite")
    b1, b2, eps, step = BETA1, BETA2, EPS, state.step + 1
    bias1, bias2, decay = 1.0 - b1 ** step, 1.0 - b2 ** step, lr * config.weight_decay
    out = np.empty_like(state.m)
    scratch = np.empty((2, ADAMW_CHUNK))
    lo = 0
    for (_, w), (_, g) in zip(param_blocks(params)[:-1], param_blocks(grads)[:-1]):
        w, g = np.ravel(w), np.ravel(g)
        for start in range(0, g.size, ADAMW_CHUNK):
            wc, gc = w[start:start + ADAMW_CHUNK], g[start:start + ADAMW_CHUNK]
            hi = lo + gc.size
            m, v, o = state.m[lo:hi], state.v[lo:hi], out[lo:hi]
            a, b = scratch[:, :gc.size]
            np.multiply(m, b1, out=m)                    # m = b1*m + (1-b1)*g
            np.add(m, np.multiply(gc, 1.0 - b1, out=a), out=m)
            np.multiply(v, b2, out=v)                    # v = b2*v + (1-b2)*(g*g)
            np.add(v, np.multiply(np.multiply(gc, gc, out=a), 1.0 - b2, out=a), out=v)
            np.multiply(np.divide(m, bias1, out=a), lr, out=a)   # lr*(m/bias1)
            np.sqrt(np.divide(v, bias2, out=b), out=b)
            np.divide(a, np.add(b, eps, out=b), out=a)   # ... / (sqrt(v/bias2)+eps)
            np.subtract(wc, a, out=o)                    # (w - upd) - (lr*wd)*w
            np.subtract(o, np.multiply(wc, decay, out=a), out=o)
            lo = hi
    g = float(grads.gamma)
    m = b1 * float(state.m[-1]) + (1.0 - b1) * g
    v = b2 * float(state.v[-1]) + (1.0 - b2) * (g * g)
    update = lr * (m / bias1) / (math.sqrt(v / bias2) + eps)
    out[-1] = max(float(params.gamma) - update, GAMMA_MIN)
    state.step, state.m[-1], state.v[-1] = step, m, v
    return vector_to_params(out, params.dims), state


def _step_error(exc: Exception, params: HeadParams, epoch: int, step: int) -> Exception:
    """``exc`` reworded to name the epoch and step of the batch that failed.

    When a parameter block is not finite, the error is a
    ``NonFiniteGradient`` naming the first such block. Called only after
    a step failed, so a good run pays nothing.
    """
    where = f"epoch {epoch}, step {step}"
    for name, block in param_blocks(params):
        if not np.isfinite(block).all():
            return NonFiniteGradient(f"{where}: parameter block {name} is not finite ({exc})")
    if isinstance(exc, NearZeroNorm):
        return NearZeroNorm(f"{where}: {exc}", row=exc.row)
    return NonFiniteGradient(f"{where}: {exc}")


def lr_at_epoch(epoch: int, config: TrainConfig) -> float:
    """Step decay: lr0 * lr_decay^(epoch // decay_every)."""
    if epoch < 0:
        raise ConfigError("epoch must be >= 0")
    return config.lr0 * config.lr_decay ** (epoch // config.decay_every)


@dataclass
class TrainResult:
    """Final parameters, the epoch log, and each monitored split's best epoch."""

    params: HeadParams
    logs: list[EpochLog]
    best: dict[str, int]


def train(triplets, corpus, config: TrainConfig,
          dims: HeadDims | None = None,
          monitor: Sequence[str] = ("val",),
          selection_metric: str = "r_at_10",
          exclude_ref: bool = False) -> TrainResult:
    """Run the full loop: shuffled minibatches, per-epoch evaluation.

    ``triplets`` is a TripletSet and ``corpus`` a Corpus of banks (see
    data module). Splits listed in ``monitor`` that actually exist are
    evaluated after every epoch; ``best`` holds the epoch at which each
    scored best on ``selection_metric``: the lowest ``median_rank``, the
    highest of any other metric, and the earlier epoch on ties.
    """
    # Imported per call, not for a cycle (none exists): perfbench wraps evaluation.evaluate.
    from .data import Corpus
    from .evaluation import (evaluate, metric_names, queries_from_triplets,
                             raise_zero_norm_row)

    if not isinstance(corpus, Corpus):
        raise ConfigError("corpus must be a data.Corpus")
    train_records = triplets.split("train")
    if not train_records:
        raise EmptySplit("no train records")

    ref_rows = np.array([corpus.refs.row_of(rec.ref) for rec in train_records])
    mod_rows = np.array([corpus.mods.row_of(rec.mod) for rec in train_records])
    tgt_rows = np.array([corpus.targets.row_of(rec.tgt) for rec in train_records])
    try:
        r_all = normalize_rows(corpus.refs.data[ref_rows])
        m_all = normalize_rows(corpus.mods.data[mod_rows])
    except NearZeroNorm:
        raise_zero_norm_row(corpus, refs=ref_rows, mods=mod_rows)
        raise
    t_all = corpus.targets.data[tgt_rows]

    if dims is None:
        dims = HeadDims(h_t=corpus.mods.dim, h_i=corpus.targets.dim,
                        h_hidden=corpus.targets.dim)
    try:
        params = init_params(dims, seed=config.seed)
        state = AdamWState.fresh(params)
    except MemoryError:
        raise ConfigError(f"h_hidden {dims.h_hidden}: cannot allocate the head's "
                          f"{param_count(dims)} parameters and their AdamW moments") from None
    rng = np.random.default_rng(config.seed)

    monitored = [s for s in monitor if triplets.split(s)]
    split_queries = {s: queries_from_triplets(triplets, s, exclude_ref=exclude_ref)
                     for s in monitored}
    # Checked before the first step, on every split it would be read from;
    # with none monitored, against every name a report can hold.
    for with_subsets in [all(q.subset_members is not None for q in split_queries[s])
                         for s in monitored] or [True]:
        names = metric_names(with_subsets)
        if selection_metric not in names:
            raise ConfigError(f"selection metric {selection_metric!r} not in "
                              f"evaluation output {names}")

    n = len(train_records)
    logs: list[EpochLog] = []
    for epoch in range(config.epochs):
        started = time.perf_counter()
        lr = lr_at_epoch(epoch, config)
        order = rng.permutation(n)
        losses: list[float] = []
        for step, lo in enumerate(range(0, n, config.batch_size)):
            batch = order[lo:lo + config.batch_size]
            if len(batch) < config.batch_size and not config.keep_partial_batch:
                continue
            if len(batch) < 2:
                continue
            try:
                try:
                    loss, grads = bbc_loss(r_all[batch], m_all[batch], t_all[batch],
                                           params, config.flavor)
                except NearZeroNorm:
                    raise_zero_norm_row(corpus, targets=tgt_rows[batch])
                    raise
                params, state = adamw_step(params, grads, state, lr, config)
            except (NearZeroNorm, NonFiniteGradient) as exc:
                raise _step_error(exc, params, epoch, step) from exc
            # Released now rather than at the next step's assignment, so no
            # parameter-sized gradient outlives its update: not through the
            # next backward, nor through the epoch's monitor eval.
            del grads
            losses.append(loss)
        if not losses:
            raise EmptySplit(f"train split yields no usable minibatch of size >= 2 "
                             f"(n={n}, batch_size={config.batch_size})")

        metrics: dict[str, dict[str, float]] = {}
        for split in monitored:
            try:
                report = evaluate(split_queries[split], corpus, params, config.flavor)
            except (NearZeroNorm, NonFiniteGradient) as exc:
                raise type(exc)(f"epoch {epoch}, monitor {split}: {exc}") from exc
            metrics[split] = report.metrics
        logs.append(EpochLog(epoch=epoch, loss=float(np.mean(losses)), lr=lr,
                             metrics=metrics,
                             seconds=time.perf_counter() - started))
    pick = min if selection_metric == "median_rank" else max
    best = {}
    for split in monitored:
        series = [log.metrics[split][selection_metric] for log in logs]
        best[split] = series.index(pick(series))   # the earlier epoch on ties
    return TrainResult(params=params, logs=logs, best=best)


def write_epoch_logs(logs: Sequence[EpochLog], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for log in logs:
            fh.write(log.to_json_line() + "\n")


def read_epoch_logs(path) -> list[EpochLog]:
    with open(path, encoding="utf-8") as fh:
        return [EpochLog.from_json_line(line) for line in fh if line.strip()]
