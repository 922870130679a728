"""The scoring head: text-gated attention over image dimensions.

Two attention branches (same architecture, independent weights) read
the modifier embedding and output a probability vector over the image
feature dimensions. The implicit-similarity score compares reference
and candidate under that reweighting; the explicit-matching score
compares a linear projection of the modifier against the reweighted
candidate. The full model adds the two.

``pairwise_scores`` composes the three phases that the latency benchmark
times one by one: query encoding, gallery preparation and scoring, on
plain or tape ``Var`` parameters (training, the gradient check). Both
attention scores have one form, the attended cosine cos(u, a * t), so a
query is a list of channels that scoring sums without asking which
flavor built them. ``scores_from_state`` holds the one kernel:
``SCORE_TILE`` gallery rows at a time, with the pair-norm guard per tile,
in the dtype of the query channels. Ranking screens every pair in
float32 (a tile whose float32 guard fires, in float64) and asks
``pair_scores`` for the float64 scores of the few pairs the error bound,
``screen_margin``, cannot decide: the same kernel on padded gathers.

Each formula (an attention MLP, a channel's query u, its x and sq, the
channel sum) is written once in plain numpy. On tape parameters it
computes the same values and wraps them in one ``autodiff.node`` whose
backward is written by hand in the formula's operation order, so
training, eval and the benchmark score the same bits.

Plain-array parameter blocks are views into one float64 vector.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Var, value_of
from .errors import (BadMagic, ConfigError, NearZeroNorm, NonFiniteData, ShapeMismatch,
                     TruncatedFile)
from .numerics import NORM_EPS, guard_norms, normalize_rows, pad_rows, row_norms, softmax_rows

Array = np.ndarray

GAMMA_INIT = 10.0
GAMMA_MIN = 1e-3

# Gallery rows per scoring tile; it sizes the tile buffers: unit rows and
# squares (SCORE_TILE x D), pair norms and dot products (Q x SCORE_TILE). A
# multiple of 8: on the OpenBLAS kernels measured such tiles keep the
# whole-gallery gemm's bits, while other widths (a last tile of G % 8 != 0
# rows too) move last bits.
SCORE_TILE = 2048

# Query rows per ``scores_from_state`` call of ``pair_scores``.
PAIR_ROWS = 40


def screen_margin(width: int) -> float:
    """Bound on |float32 score - float64 score| at inner width ``width`` (K).

    Each channel is a cosine, |d / n| <= 1, and sum |x_k t_k| <= n by
    Cauchy-Schwarz. With u = 2^-24 and Higham's gamma_k = k u / (1 - k u),
    x and sq are rounded once, a unit row t twice (its norm, then the
    division) and each dot product adds gamma_K, so the dots d are within
    gamma_{K+3} n and the pair norms n within gamma_{K+6} / 2 + u relative,
    and a channel's float32 value is within gamma_{K+3} + gamma_{K+6} / 2
    + 2u of its float64 value. Two channels and their float32 sum stay
    within (3K + 18) u, an ungated score within gamma_{K+3}; the margin
    4 (K + 8) u covers both, and attention weights that underflow in
    float32 move a decided score (pair norm > 2 NORM_EPS) by < 1e-20.

    The margin also covers a float64 tile, which ranking scores where the
    float32 guard fires: its entries and ``pair_scores``' values are two
    float64 evaluations of one formula in different summation orders, so
    the same analysis at u = 2^-53 puts them within 2 (3K + 18) 2^-53 of
    each other (3.5e-13 at K = 512).
    """
    return 4.0 * (width + 8) * 2.0 ** -24


class Flavor(Enum):
    """Model variants, in the fixed ablation-table order."""

    IMAGE_ONLY = "image_only"
    TEXT_ONLY = "text_only"
    LATE_FUSION = "late_fusion"
    IS_ONLY = "is_only"
    EM_ONLY = "em_only"
    ARTEMIS = "artemis"

    @classmethod
    def parse(cls, name: str) -> "Flavor":
        try:
            return cls(name)
        except ValueError:
            valid = ", ".join(f.value for f in cls)
            raise ConfigError(f"unknown flavor {name!r}; expected one of {valid}") from None


# Flavors whose scores go through the attention branches; the others have
# no parameters reachable from their scores.
ATTENTION_FLAVORS = (Flavor.IS_ONLY, Flavor.EM_ONLY, Flavor.ARTEMIS)


@dataclass(frozen=True)
class HeadDims:
    """Embedding widths: text, image, attention hidden layer."""

    h_t: int = 512
    h_i: int = 512
    h_hidden: int = 512

    def __post_init__(self) -> None:
        if min(self.h_t, self.h_i, self.h_hidden) < 1:
            raise ShapeMismatch(f"dims must be positive, got {self}")


@dataclass
class AttentionParams:
    """Two-layer MLP weights for one attention branch."""

    w1: object  # (h_t, h_hidden)
    b1: object  # (h_hidden,)
    w2: object  # (h_hidden, h_i)
    b2: object  # (h_i,)


@dataclass
class HeadParams:
    """All trainable state: two attention branches, projection, temperature."""

    attn_is: AttentionParams
    attn_em: AttentionParams
    proj_w: object  # (h_t, h_i)
    proj_b: object  # (h_i,)
    gamma: object   # 0-d, kept > 0 by the optimizer
    dims: HeadDims


# Fixed block order used by checkpoints, flattening, and the optimizer.
_PARTS = ("w1", "b1", "w2", "b2")   # an attention branch's blocks, in order
BLOCK_NAMES = (
    "attn_is.w1", "attn_is.b1", "attn_is.w2", "attn_is.b2",
    "attn_em.w1", "attn_em.b1", "attn_em.w2", "attn_em.b2",
    "proj.w", "proj.b", "gamma",
)


def block_shapes(dims: HeadDims) -> dict[str, tuple[int, ...]]:
    attn = {
        "w1": (dims.h_t, dims.h_hidden), "b1": (dims.h_hidden,),
        "w2": (dims.h_hidden, dims.h_i), "b2": (dims.h_i,),
    }
    shapes: dict[str, tuple[int, ...]] = {}
    for branch in ("attn_is", "attn_em"):
        for part, shape in attn.items():
            shapes[f"{branch}.{part}"] = shape
    shapes["proj.w"] = (dims.h_t, dims.h_i)
    shapes["proj.b"] = (dims.h_i,)
    shapes["gamma"] = ()
    return shapes


def param_blocks(params: HeadParams) -> list[tuple[str, object]]:
    """(name, payload) pairs in the fixed serialization order."""
    attn = [getattr(b, part) for b in (params.attn_is, params.attn_em) for part in _PARTS]
    return list(zip(BLOCK_NAMES, attn + [params.proj_w, params.proj_b, params.gamma]))


def params_from_blocks(blocks: dict[str, object], dims: HeadDims) -> HeadParams:
    attn_is, attn_em = (AttentionParams(*(blocks[f"{b}.{part}"] for part in _PARTS))
                        for b in ("attn_is", "attn_em"))
    return HeadParams(attn_is, attn_em, blocks["proj.w"], blocks["proj.b"], blocks["gamma"],
                      dims)


def init_params(dims: HeadDims = HeadDims(), seed: int = 0) -> HeadParams:
    """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases, gamma 10."""
    rng = np.random.default_rng(seed)

    def glorot(fan_in: int, fan_out: int) -> Array:
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-limit, limit, size=(fan_in, fan_out))

    params = vector_to_params(np.zeros(param_count(dims)), dims)
    for branch in (params.attn_is, params.attn_em):
        branch.w1[...] = glorot(dims.h_t, dims.h_hidden)
        branch.w2[...] = glorot(dims.h_hidden, dims.h_i)
    params.proj_w[...] = glorot(dims.h_t, dims.h_i)
    params.gamma[...] = GAMMA_INIT
    return params


def param_count(dims: HeadDims) -> int:
    """Length of the flat parameter vector, temperature included."""
    return sum(math.prod(shape) for shape in block_shapes(dims).values())


def head_param_count(params: HeadParams) -> int:
    """Exact number of trainable scalars, temperature included."""
    return param_count(params.dims)


def head_mac_count(dims: HeadDims) -> int:
    """Multiply-accumulates for one forward pass on one triplet.

    Two attention MLPs, one projection, plus 6*h_i elementwise/dot/norm
    work for the reweightings and the two cosines.
    """
    attn = dims.h_t * dims.h_hidden + dims.h_hidden * dims.h_i
    return 2 * attn + dims.h_t * dims.h_i + 6 * dims.h_i


# -- batched pairwise scores (plain numpy; one tape node per formula on Vars) ---

def attention_rows(m_rows: Array, branch: AttentionParams):
    """Attention vectors for a block of modifiers; rows sum to 1.

    On a tape branch the whole MLP is one node over w1, b1, w2 and b2.
    """
    blocks = [getattr(branch, part) for part in _PARTS]
    w1, b1, w2, b2 = map(value_of, blocks)
    hidden = np.maximum(m_rows @ w1 + b1, 0.0)
    a = softmax_rows(hidden @ w2 + b2)
    if not isinstance(branch.w1, Var):
        return a

    def backward(g):
        g_z = a * (g - (g * a).sum(axis=1, keepdims=True))
        g_h = (g_z @ w2.T) * (hidden > 0)
        return m_rows.T @ g_h, g_h.sum(axis=0), hidden.T @ g_z, g_z.sum(axis=0)

    return ad.node(a, blocks, backward)


@dataclass
class QueryState:
    """Per-query vectors computed once and reused across all candidates.

    A candidate row ``t`` (unit norm) scores the sum over ``channels`` of
    ``x . t``, divided by sqrt(sq . t^2) when ``sq`` is set. An attended
    cosine cos(u, a * t) is the channel x = (u * a) / ||u||, sq = a^2;
    the param-free flavors are one channel of normalized query rows with
    ``sq`` None.
    """

    flavor: Flavor
    n_queries: int
    channels: list[tuple[object, object | None]]

    def slice_rows(self, start: int, stop: int) -> "QueryState":
        """View of queries [start, stop); plain-array states only."""
        return QueryState(self.flavor, max(stop - start, 0),
                          [(x[start:stop], None if sq is None else sq[start:stop])
                           for x, sq in self.channels])

    def astype(self, dtype) -> "QueryState":
        """The same channels rounded to ``dtype``; plain-array states only."""
        return QueryState(self.flavor, self.n_queries,
                          [(x.astype(dtype), None if sq is None else sq.astype(dtype))
                           for x, sq in self.channels])


@dataclass
class GalleryState:
    """Candidate-side arrays, which every flavor can score.

    ``tn`` (G, D) holds the gallery rows as given (float32 bank rows, say)
    and ``norms`` their guarded float64 norms. Scoring divides each tile it
    reads into unit rows (``unit_rows``) in its own dtype, so no G x D copy
    of the gallery is made in any dtype.
    """

    tn: Array
    norms: Array

    def rows(self, lo: int, hi: int) -> "GalleryState":
        """View of gallery rows [lo, hi)."""
        return GalleryState(self.tn[lo:hi], self.norms[lo:hi])

    def unit_rows(self, picked, out: Array | None = None) -> Array:
        """Unit rows of ``picked`` (a slice or row indices) into ``out``.

        Float64 (the default) unit rows are float64(row) / norm, bit for bit
        those of ``normalize_rows``; float32 ones divide by the norms rounded
        to float32, which is three times as fast for float32 rows.
        """
        norms = self.norms[picked, None]
        if out is not None and out.dtype == np.float32:
            norms = norms.astype(np.float32)
        return np.divide(self.tn[picked], norms, out=out)


def encode_queries(r_rows, m_rows, params: HeadParams, flavor: Flavor) -> QueryState:
    """Query-side phase: attention vectors, projection, query norms.

    Inputs are plain float64 row blocks; parameters may be tape Vars,
    in which case the state participates in backprop.
    """
    r_rows = np.asarray(r_rows, dtype=np.float64)
    m_rows = np.asarray(m_rows, dtype=np.float64)
    if r_rows.ndim != 2 or m_rows.ndim != 2:
        raise ShapeMismatch("encode_queries expects 2-D row blocks")
    if r_rows.shape[0] != m_rows.shape[0]:
        raise ShapeMismatch(f"query count mismatch: {r_rows.shape[0]} refs vs "
                            f"{m_rows.shape[0]} modifiers")
    dims = params.dims
    if r_rows.shape[1] != dims.h_i:
        raise ShapeMismatch(f"reference width {r_rows.shape[1]} vs h_i {dims.h_i}")
    if m_rows.shape[1] != dims.h_t:
        raise ShapeMismatch(f"modifier width {m_rows.shape[1]} vs h_t {dims.h_t}")
    n = r_rows.shape[0]

    if flavor is Flavor.IMAGE_ONLY:
        return QueryState(flavor, n, [(normalize_rows(r_rows), None)])
    if flavor is Flavor.TEXT_ONLY:
        if dims.h_t != dims.h_i:
            raise ShapeMismatch("text_only needs h_t == h_i (raw modifier/candidate cosine)")
        return QueryState(flavor, n, [(normalize_rows(m_rows), None)])
    if flavor is Flavor.LATE_FUSION:
        if dims.h_t != dims.h_i:
            raise ShapeMismatch("late_fusion needs h_t == h_i (sums reference and modifier)")
        return QueryState(flavor, n, [(normalize_rows(r_rows + m_rows), None)])
    if flavor not in ATTENTION_FLAVORS:
        raise ShapeMismatch(f"unhandled flavor {flavor}")

    def channel(u, a, what: str):
        """The query side of cos(u, a * t): x = (u * a) / ||u|| and sq = a^2.

        On tape inputs each is one node; sq is made after x, so the reverse
        sweep adds a's contributions as 2a g_sq, then x's, then u's.
        """
        u_val, a_val = value_of(u), value_of(a)
        query_norm = np.sqrt((u_val * u_val).sum(axis=1, keepdims=True))   # (Q,1)  ||u||
        guard_norms(query_norm, what)
        x = (u_val * a_val) / query_norm
        sq = a_val * a_val
        if not isinstance(a, Var):
            return x, sq

        def x_backward(g):
            g_num = g / query_norm
            num = u_val * a_val   # not kept from the forward: eval never needs it
            g_norm = (-g * num / (query_norm * query_norm)).sum(axis=1, keepdims=True)
            g_u = g_num * a_val + 2.0 * u_val * (g_norm / (2.0 * query_norm))
            return g_u, g_num * u_val

        x = ad.node(x, [u, a], x_backward)
        return x, ad.node(sq, [a], lambda g: (2.0 * a_val * g,))

    channels = []
    if flavor is not Flavor.EM_ONLY:   # IS: u = a_is * r
        a = attention_rows(m_rows, params.attn_is)
        u = value_of(a) * r_rows
        if isinstance(a, Var):
            u = ad.node(u, [a], lambda g: (g * r_rows,))
        channels.append(channel(u, a, "attention-weighted reference"))
    if flavor is not Flavor.IS_ONLY:   # EM: u = T(m)
        a = attention_rows(m_rows, params.attn_em)
        u = m_rows @ value_of(params.proj_w) + value_of(params.proj_b)
        if isinstance(params.proj_w, Var):
            u = ad.node(u, [params.proj_w, params.proj_b],
                        lambda g: (m_rows.T @ g, g.sum(axis=0)))
        channels.append(channel(u, a, "projected modifier"))
    return QueryState(flavor, n, channels)


def prepare_gallery(t_rows, dims: HeadDims, flavor: Flavor) -> GalleryState:
    """Candidate-side phase: the rows' guarded norms, the same for every flavor.

    ``t_rows`` (float32 bank rows, say) are kept as given, beside their
    float64 norms; scoring divides each tile as it reads it.
    """
    t_rows = np.asarray(t_rows)
    if t_rows.ndim != 2:
        raise ShapeMismatch("prepare_gallery expects a 2-D row block")
    if t_rows.shape[1] != dims.h_i:
        raise ShapeMismatch(f"candidate width {t_rows.shape[1]} vs h_i {dims.h_i}")
    norms = row_norms(t_rows)
    guard_norms(norms, "row to normalize")
    return GalleryState(t_rows, norms)


def _norms_and_dots(x, sq, t, t_sq, n=None, d=None, eps=NORM_EPS):
    """One channel against rows ``t``: guarded pair norms sqrt(sq . t^2), then dots x . t."""
    n = np.matmul(sq, t_sq.T, out=n)
    guard_norms(np.sqrt(n, out=n), "attention-weighted candidate", eps)
    return n, np.matmul(x, t.T, out=d)


def scores_from_state(queries: QueryState, gallery: GalleryState):
    """Scoring phase: the channel sum of ``queries`` against the gallery.

    The sum is taken in the channels' dtype, ``SCORE_TILE`` gallery rows
    at a time, through tile buffers made once per call (unit rows,
    squares, pair norms, dots). Float32 channels give the screen that
    ranking reads, within ``screen_margin`` of the float64 scores, and
    their pair-norm guard fires at 2 * NORM_EPS, so it passes no pair that
    the float64 guard would fail. A gated tape state is one node: that
    loop on its channels' values, with a backward hand-written in the
    order of the channel sum of (x @ t.T) / sqrt(sq @ (t * t).T).
    """
    channels = queries.channels
    plain = [(value_of(x), None if sq is None else value_of(sq)) for x, sq in channels]
    dtype = plain[0][0].dtype
    eps = NORM_EPS if dtype == np.float64 else 2 * NORM_EPS
    q, (g, dim) = plain[0][0].shape[0], gallery.tn.shape
    w = min(g, SCORE_TILE)
    out, t_sq = np.empty((q, g), dtype), np.empty((w, dim), dtype)
    flat = np.empty((2, q * w), dtype)
    unit = np.empty((w, dim), dtype)
    for lo in range(0, g, SCORE_TILE):
        hi = min(lo + SCORE_TILE, g)
        t = gallery.unit_rows(slice(lo, hi), unit[:hi - lo])
        o = out[:, lo:hi]
        n, d = flat[:, :q * (hi - lo)].reshape(2, q, hi - lo)   # contiguous, ragged or not
        if plain[0][1] is None:   # one ungated channel: one gemm, into a contiguous buffer
            if o.flags.c_contiguous:
                np.matmul(plain[0][0], t.T, out=o)
            else:
                o[...] = np.matmul(plain[0][0], t.T, out=d)
            continue
        sq_t = np.multiply(t, t, out=t_sq[:hi - lo])
        for k, (x, sq) in enumerate(plain):
            _norms_and_dots(x, sq, t, sq_t, n, d, eps)
            np.divide(d, n, out=d if k else o)
            if k:
                np.add(o, d, out=o)
    if not isinstance(channels[0][0], Var):
        return out
    t = gallery.unit_rows(slice(None))   # the whole batch's, for the backward
    t_sq = t * t
    pairs = [_norms_and_dots(x, sq, t, t_sq) for x, sq in plain]

    def backward(g):   # to each channel's x, then its sq
        return [grad for n, d in pairs
                for grad in ((g / n) @ t, (-g * d / (n * n) / (2.0 * n)) @ t_sq)]

    return ad.node(out, [v for c in channels for v in c], backward)


def _distinct(values: Array) -> Array:
    """The distinct values, ascending. Not ``np.unique``: its first call
    keeps about 0.5 MB allocated for the rest of the process, wherever the
    heap has room at that moment."""
    values = np.sort(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def pair_scores(queries: QueryState, gallery: GalleryState, rows, cols) -> Array:
    """Float64 scores of the pairs (``rows[j]``, ``cols[j]``) of a plain state.

    Each ``PAIR_ROWS`` query rows go through float64 ``scores_from_state``
    against their pairs' gallery rows, ``SCORE_TILE`` at a time, both sides
    gathered and padded (``pad_rows``) so that each score has the bits the
    float64 tiles give the pair at full shapes. The guard sees only pairs of
    the caller's tiles; a ``NearZeroNorm`` names the caller's row.
    """
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    out = np.empty(len(rows))
    picked = _distinct(rows)
    for start in range(0, len(picked), PAIR_ROWS):
        part = picked[start:start + PAIR_ROWS]
        in_part = (rows >= part[0]) & (rows <= part[-1])
        at_col = _distinct(cols[in_part])
        channels = [(pad_rows(x[part], 4), None if sq is None else pad_rows(sq[part], 4))
                    for x, sq in queries.channels]
        state = QueryState(queries.flavor, len(channels[0][0]), channels)
        for lo in range(0, len(at_col), SCORE_TILE):
            cut = at_col[lo:lo + SCORE_TILE]
            sel = np.flatnonzero(in_part & (cols >= cut[0]) & (cols <= cut[-1]))
            try:
                scores = scores_from_state(state, GalleryState(pad_rows(gallery.tn[cut], 8),
                                                               pad_rows(gallery.norms[cut], 8)))
            except NearZeroNorm as exc:
                raise NearZeroNorm(str(exc), row=int(part[exc.row])) from None
            out[sel] = scores[np.searchsorted(part, rows[sel]), np.searchsorted(cut, cols[sel])]
    return out


def pairwise_scores(r_rows: Array, m_rows: Array, t_rows: Array, params: HeadParams,
                    flavor: Flavor):
    """Scores for every (query, candidate) pair: queries x candidates.

    Query-side quantities (attention vectors, projection, query norms)
    are computed once per query and reused across all candidates. Rows
    are float arrays (training's targets are float32 bank rows) scored in
    float64; parameters may be tape Vars, in which case the result
    participates in backprop.
    """
    state = encode_queries(r_rows, m_rows, params, flavor)
    return scores_from_state(state, prepare_gallery(t_rows, params.dims, flavor))


# -- the flat layout -------------------------------------------------------------

def params_to_vector(params: HeadParams) -> Array:
    return np.concatenate([np.ravel(v) for _, v in param_blocks(params)],
                          dtype=np.float64)


def vector_to_params(vec, dims: HeadDims) -> HeadParams:
    """Rebuild HeadParams whose blocks are views into one flat float64 vector.

    ``vec`` is made contiguous float64 first (no copy when it already is).
    Parameters reach a tape only through ``lift_params``.
    """
    if np.ndim(vec) != 1:
        raise ShapeMismatch(f"expected a flat vector, got shape {np.shape(vec)}")
    vec = np.ascontiguousarray(vec, dtype=np.float64)
    total = param_count(dims)
    if vec.size != total:
        raise ShapeMismatch(f"vector has {vec.size} entries, parameters need {total}")
    blocks: dict[str, object] = {}
    offset = 0
    for name, shape in block_shapes(dims).items():
        count = math.prod(shape)
        blocks[name] = vec[offset:offset + count].reshape(shape)
        offset += count
    return params_from_blocks(blocks, dims)


def lift_params(params: HeadParams, tape: Tape) -> HeadParams:
    """Copy parameters onto a tape as leaves, one per block.

    Training and the gradient check both differentiate through these leaves.
    """
    blocks = {name: tape.leaf(v) for name, v in param_blocks(params)}
    return params_from_blocks(blocks, params.dims)


def gradients_of(lifted: HeadParams, tape: Tape) -> HeadParams:
    """Gradients for every block of a lifted parameter set (zeros if unused)."""
    blocks = {name: tape.gradient(v) for name, v in param_blocks(lifted)}
    return params_from_blocks(blocks, lifted.dims)


# -- checkpoint file format ----------------------------------------------------

CHECKPOINT_MAGIC = b"AHP1"
CHECKPOINT_VERSION = 1


def save_checkpoint(params: HeadParams, path) -> None:
    """Binary container: magic, version, dims, length-prefixed f64 blocks."""
    dims = params.dims
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIII", CHECKPOINT_VERSION, dims.h_t, dims.h_i, dims.h_hidden))
        for _, payload in param_blocks(params):
            arr = np.ascontiguousarray(payload, dtype="<f8")
            fh.write(struct.pack("<I", arr.size))
            fh.write(arr.tobytes())


def load_checkpoint(path) -> HeadParams:
    """Read an AHP1 file straight into one flat parameter vector."""
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(20)
        if len(header) < 20:
            raise TruncatedFile(f"{path}: {len(header)} bytes is shorter than any header")
        if header[:4] != CHECKPOINT_MAGIC:
            raise BadMagic(f"{path}: expected magic {CHECKPOINT_MAGIC!r}, got {header[:4]!r}")
        version, h_t, h_i, h_hidden = struct.unpack_from("<IIII", header, 4)
        if version != CHECKPOINT_VERSION:
            raise BadMagic(f"{path}: unsupported checkpoint version {version}")
        if min(h_t, h_i, h_hidden) < 1:
            raise BadMagic(f"{path}: header dims {h_t}, {h_i}, {h_hidden} must be positive")
        dims = HeadDims(h_t, h_i, h_hidden)
        shapes = block_shapes(dims)
        # Checked before allocating, so corrupt header dims cannot ask for a huge buffer.
        total = param_count(dims)
        needed = 20 + 4 * len(shapes) + 8 * total
        if size != needed:
            raise TruncatedFile(f"{path}: {size} bytes, but header dims {h_t}, {h_i}, "
                                f"{h_hidden} need {needed}")
        flat = np.empty(total, dtype="<f8")
        offset = 0
        for name in BLOCK_NAMES:
            (count,) = struct.unpack("<I", fh.read(4))
            expected = math.prod(shapes[name])
            if count != expected:
                raise TruncatedFile(f"{path}: block {name} has {count} values, expected {expected}")
            block = flat[offset:offset + count]
            if fh.readinto(block) != block.nbytes:
                raise TruncatedFile(f"{path}: block {name} payload is truncated")
            if not np.isfinite(block).all():
                raise NonFiniteData(f"{path}: block {name} holds non-finite values")
            offset += count
    return vector_to_params(flat, dims)
