"""Ranking engine and retrieval metrics.

Candidates are ordered by descending score with ascending-id
tie-breaks, so results are deterministic. The streaming evaluator
prepares the gallery once per call (the target bank's rows and their
norms) and ranks the queries block by block, normalizing each block's
query rows as it gathers them. A query's rank is one plus the number of
candidates ahead of its first ground truth (scoring higher, or tied with
a lower id); subset ranks count over the members only. The sort this
equals lives in ``tests/rank_oracle.py`` as the ranker's oracle.

Ranking is certified, not approximate. Each block first gets the exact
float64 score s of every ground truth, then scores the gallery in
float32 tiles, each within ``head.screen_margin`` m of its float64
score. A candidate above s + m is ahead, one below s - m behind; only
the few between (about one per query, mostly the ground truth itself)
get exact scores, from ``head.pair_scores``, and are compared by
(score, id rank) as before. Subset members are decided the same way.
The top-k dump keeps each tile's candidates within 2m of a lower bound
on the row's k-th best screen value, then orders the survivors by exact
score. So ranks, dumps and metrics are those of float64 ranking, and no
float32 value reaches them; no (Q, G) score block is held. A block with
a pair the screen cannot vouch for (a NaN, or a float32 pair norm at or
below 2 NORM_EPS) is ranked again from float64 tiles with m = 0, which
raise the error, if any, as the float64 scoring always has. A NaN score
is an error, never a rank; +-inf scores rank like any other value.
Reports round to two decimals (half-up) only at emission; internal math
keeps full precision.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Mapping, Sequence

import numpy as np

from . import head
from .errors import (ConfigError, EmptyInput, MissingCell, MissingSubset,
                     NearZeroNorm, NonFiniteGradient, ShapeMismatch, UnknownId)
from .head import Flavor, HeadParams
from .head import pairwise_scores  # noqa: F401  perfbench/measure.py wraps this name
from .numerics import NORM_EPS, normalize_rows, pad_rows, row_norms

Array = np.ndarray

DEFAULT_BLOCK_SIZE = 256

# Recall cutoffs of every report: over the gallery, and within subsets.
RECALL_KS = (1, 5, 10, 50)
SUBSET_KS = (1, 2, 3)


@dataclass(frozen=True)
class QuerySpec:
    """One composed query: reference id, modifier id, ground truth."""

    ref_id: str
    mod_id: str
    ground_truth: tuple[str, ...]
    subset_members: tuple[str, ...] | None = None
    exclude_ref: bool = False

    def __post_init__(self) -> None:
        if not self.ground_truth:
            raise ShapeMismatch("query needs at least one ground-truth id")
        if self.subset_members is not None:
            if not set(self.ground_truth) & set(self.subset_members):
                raise MissingSubset(
                    f"query ({self.ref_id}, {self.mod_id}): subset contains no ground truth")


def queries_from_triplets(triplets, split: str, exclude_ref: bool = False) -> list[QuerySpec]:
    """Build single-target queries for a split, attaching stored subsets."""
    out: list[QuerySpec] = []
    for index, rec in triplets.split_with_indices(split):
        members = triplets.subsets.get(index)
        out.append(QuerySpec(ref_id=rec.ref, mod_id=rec.mod,
                             ground_truth=(rec.tgt,),
                             subset_members=tuple(members) if members else None,
                             exclude_ref=exclude_ref))
    return out


def _id_rank_of(gallery_ids: Sequence[str]) -> Array:
    """Position of each gallery id in ascending-id order (tie-break key)."""
    order = sorted(range(len(gallery_ids)), key=gallery_ids.__getitem__)
    rank = np.empty(len(gallery_ids), dtype=np.int64)
    rank[order] = np.arange(len(gallery_ids))
    return rank


def _blocks(n: int, block_size: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block_size, n)) for lo in range(0, n, block_size)]


def _map_blocks(fn: Callable, spans: list[tuple[int, int]], workers: int) -> list:
    """Apply fn to each (lo, hi) span, optionally on a thread pool.

    Results come back in span order and each span is computed the same
    way regardless of worker count, so output does not depend on the
    parallelism degree.
    """
    if workers <= 1 or len(spans) <= 1:
        return [fn(lo, hi) for lo, hi in spans]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda span: fn(*span), spans))


def _ahead(scores: Array, id_ranks: Array, s, r) -> Array:
    """Candidates ordered before (score ``s``, id rank ``r``): a higher
    score, or the same score and a lower id rank. Broadcasts."""
    return (scores > s) | ((scores == s) & (id_ranks < r))


def raise_zero_norm_row(corpus, queries: Sequence[QuerySpec] = (), first: int = 0,
                        **rows) -> None:
    """Raise NearZeroNorm naming the first row whose norm is NaN or <= NORM_EPS.

    ``rows`` maps bank names (refs, mods, targets) to the row indices a
    failed norm guard saw. The message names the bank, row and id, and
    with ``queries`` the query at ``first`` plus the row's position.
    Called only after a guard failed, so good input pays nothing.
    """
    for name, picked in rows.items():
        bank = getattr(corpus, name)
        norms = row_norms(bank.data)[picked]
        bad = np.flatnonzero(~(norms > NORM_EPS))
        if bad.size:
            at = int(bad[0])
            row = int(picked[at])
            where = f"{name} bank row {row} (id {bank.ids[row]!r}) has norm {float(norms[at])!r}"
            if queries:
                q = queries[first + at]
                where = f"query {first + at} ({q.ref_id}, {q.mod_id}): {where}"
            raise NearZeroNorm(where) from None


def recall_at_k(ranks, k: int) -> float:
    """Percentage of ranks <= k."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        raise EmptyInput("recall over zero queries")
    if k < 1:
        raise ConfigError("k must be >= 1")
    return 100.0 * float((ranks <= k).sum()) / ranks.size


def median_rank(ranks) -> float:
    """Middle rank; mean of the two central values for even counts."""
    ranks = np.sort(np.asarray(ranks, dtype=np.float64))
    if ranks.size == 0:
        raise EmptyInput("median of zero ranks")
    mid = ranks.size // 2
    if ranks.size % 2 == 1:
        return float(ranks[mid])
    return float((ranks[mid - 1] + ranks[mid]) / 2.0)


# -- reports -------------------------------------------------------------------

def round_half_up(x: float, decimals: int = 2) -> float:
    """Round for emission: half-up at `decimals`, full precision upstream."""
    q = Decimal(1).scaleb(-decimals)
    return float(Decimal(repr(float(x))).quantize(q, rounding=ROUND_HALF_UP))


@dataclass
class MetricReport:
    """Named metric values plus an optional convention aggregate."""

    label: str
    metrics: dict[str, float]
    n_queries: int | None = None
    aggregate: float | None = None
    convention: str | None = None

    def rounded(self) -> dict[str, object]:
        body: dict[str, object] = {"label": self.label}
        if self.convention is not None:
            body["convention"] = self.convention
        if self.n_queries is not None:
            body["n_queries"] = self.n_queries
        body["metrics"] = {k: round_half_up(v) for k, v in sorted(self.metrics.items())}
        if self.aggregate is not None:
            body["aggregate"] = round_half_up(self.aggregate)
        return body

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.rounded(), sort_keys=True, indent=indent)

    def to_text(self) -> str:
        body = self.rounded()
        lines = [f"== {self.label} =="]
        if self.n_queries is not None:
            lines.append(f"{'queries':<18} {self.n_queries}")
        for key, value in body["metrics"].items():
            lines.append(f"{key:<18} {value:>8.2f}")
        if self.aggregate is not None:
            lines.append(f"{'aggregate':<18} {round_half_up(self.aggregate):>8.2f}")
        return "\n".join(lines)


@dataclass
class Rankings:
    """Per-query output of the streaming ranker, in query order."""

    ranks: Array                 # best ground-truth rank in the kept gallery
    subset_ranks: Array | None   # rank within the query's subset, when all have one
    dump_lines: list[str]        # one JSON line per query when a dump was asked for


def _row_counts(mask: Array) -> Array:
    """True entries in each row of a 2-D bool mask.

    One 1-D ``count_nonzero`` per row, which popcounts the row; with
    ``axis=1`` numpy sums the mask as integers instead, about 4x slower.
    """
    return np.fromiter(map(np.count_nonzero, mask), dtype=np.int64, count=mask.shape[0])


def _down(x: Array, dtype) -> Array:
    """Float64 ``x`` in ``dtype``, rounded toward -inf."""
    y = x.astype(dtype)
    return np.where(y > x, np.nextafter(y, dtype.type(-np.inf)), y)


def _up(x: Array, dtype) -> Array:
    """Float64 ``x`` in ``dtype``, rounded toward +inf."""
    y = x.astype(dtype)
    return np.where(y < x, np.nextafter(y, dtype.type(np.inf)), y)


def _per_row(rows: Array, n_rows: int) -> Array:
    return np.bincount(rows, minlength=n_rows)


class BlockScores:
    """One query block's scores against the prepared gallery, as ranking reads them.

    ``tile(lo, hi, screened)`` scores gallery columns [lo, hi) into a fresh
    array the caller may write: in float32 when ``screened``, each score
    within ``margin`` of its float64 score, else the float64 scores.
    ``exact(rows, cols)`` gives the float64 scores of those pairs, with the
    bits of the float64 tiles. A NaN float64 score is NaN in float32 too,
    and a finite one, a sum of at most two cosines, is finite in both.
    """

    def __init__(self, state: head.QueryState, gallery: head.GalleryState):
        self.state, self.gallery = state, gallery
        self.screen = state.astype(np.float32)
        self.margin = head.screen_margin(gallery.tn.shape[1])

    def tile(self, lo: int, hi: int, screened: bool) -> Array:
        state = self.screen if screened else self.state
        return head.scores_from_state(state, self.gallery.rows(lo, hi))

    def exact(self, rows: Array, cols: Array) -> Array:
        return head.pair_scores(self.state, self.gallery, rows, cols)


def block_scores(r_rows: Array, m_rows: Array, gallery: head.GalleryState, params: HeadParams,
                 flavor: Flavor) -> BlockScores:
    """Encode one block's normalized query rows for scoring against ``gallery``.

    The rows are encoded padded (``pad_rows``), so a query's channels have
    the same bits in a block of any size.
    """
    state = head.encode_queries(pad_rows(r_rows, 4), pad_rows(m_rows, 4), params, flavor)
    return BlockScores(state.slice_rows(0, len(r_rows)), gallery)


@dataclass
class _Targets:
    """What a block's queries rank: per query, its excluded column (or -1),
    the gallery columns of its ground truths, and with subsets its members."""

    excluded: Array
    truths: list[list[int]]
    members: list[set[int]] | None


def _block_targets(chunk: Sequence[QuerySpec], index: Mapping[str, int],
                   with_subsets: bool) -> _Targets:
    excluded = np.array([index.get(q.ref_id, -1) if q.exclude_ref else -1 for q in chunk],
                        dtype=np.int64)
    truths = []
    for q, skip in zip(chunk, excluded):
        cols = [index[g] for g in q.ground_truth if g in index and index[g] != skip]
        if not cols:
            raise UnknownId(f"no ground truth of ({q.ref_id}, {q.mod_id}) in gallery")
        truths.append(cols)
    if not with_subsets:
        return _Targets(excluded, truths, None)
    members = []
    for q, skip, cols in zip(chunk, excluded, truths):
        unknown = [m for m in q.subset_members if m not in index]
        if unknown:
            raise UnknownId(f"subset member {unknown[0]!r} not in gallery")
        kept = {index[m] for m in q.subset_members} - {skip}
        if not kept & set(cols):
            raise MissingSubset(f"query ({q.ref_id}, {q.mod_id}): ground truth "
                                "excluded from its own subset")
        members.append(kept)
    return _Targets(excluded, truths, members)


@dataclass
class _Band:
    """Rows' exact scores ``s`` and id ranks ``r``, and the screen's margin.

    A screen value above s + margin is ahead of (s, r), one below
    s - margin behind it; one between needs its exact score, compared by
    (score, id rank).
    """

    s: Array
    r: Array
    margin: float

    def bounds(self, dtype) -> tuple[Array, Array]:
        """s - margin and s + margin in ``dtype``, rounded outward."""
        return _down(self.s - self.margin, dtype), _up(self.s + self.margin, dtype)

    def ahead(self, rows: Array, exact: Array, id_ranks: Array) -> Array:
        return _ahead(exact, id_ranks, self.s[rows], self.r[rows])


# Column classes (columns equal mod TOP_STRIPES) of a tile whose maxima bound
# a dump row's k-th best score from below.
TOP_STRIPES = 64


def _nonzero(mask: Array) -> tuple[Array, Array]:
    """``np.nonzero`` of a 2-D mask, from one flat scan (about 8x faster)."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


class _TopK:
    """Each row's candidates for its k best kept columns, tile by tile.

    With theta a row's k-th largest kept screen value, every column of the
    true top k (ties at the boundary too) scores at least theta - margin
    exactly, so at least theta - 2 margin on the screen. The k-th largest
    of the maxima of disjoint column sets is a lower bound on theta, since
    k distinct columns reach it: each tile's columns are split by their
    index mod ``TOP_STRIPES`` (its excluded column held at -inf), the k
    largest maxima so far are kept, and the tile keeps its columns at or
    above the least of them less 2 margin. The survivors then go down to
    theta - 2 margin, and ``best`` orders them by (-exact score, id rank)
    and keeps each row's first k.
    """

    def __init__(self, k: int, n_rows: int, margin: float):
        self.k, self.n_rows, self.margin = k, n_rows, margin
        self.stripes = max(k, TOP_STRIPES)
        self.maxima = np.full((n_rows, k), -np.inf)   # the k largest set maxima so far
        self.rows, self.cols, self.vals = [], [], []

    def _cut(self, theta: Array, dtype) -> Array:
        return _down(theta.astype(np.float64) - 2.0 * self.margin, dtype)

    def add(self, tile: Array, lo: int) -> None:
        q, w = tile.shape
        full = w - w % self.stripes
        if full:
            maxima = tile[:, :full].reshape(q, full // self.stripes, self.stripes).max(axis=1)
            pool = np.concatenate([self.maxima, maxima], axis=1)
            self.maxima = np.partition(pool, pool.shape[1] - self.k, axis=1)[:, -self.k:]
        cut = self._cut(self.maxima.min(axis=1), tile.dtype)
        rows = np.flatnonzero(tile.max(axis=1) >= cut)   # few, once the bound is up
        part = tile[rows]
        at, cols = _nonzero(part >= cut[rows, None])
        self.rows.append(rows[at])
        self.cols.append(cols + lo)
        self.vals.append(part[at, cols])

    def survivors(self, excluded: Array) -> tuple[Array, Array]:
        """The candidates (rows, cols) within 2 margin of their row's theta,
        excluded columns dropped."""
        rows, cols, vals = (np.concatenate(v) for v in (self.rows, self.cols, self.vals))
        kept = cols != excluded[rows]
        rows, cols, vals = rows[kept], cols[kept], vals[kept]
        order = np.lexsort((-vals, rows))
        counts = _per_row(rows, self.n_rows)
        full = np.flatnonzero(counts >= self.k)
        theta = np.full(self.n_rows, -np.inf)
        theta[full] = vals[order[(np.cumsum(counts) - counts)[full] + self.k - 1]]
        kept = vals >= self._cut(theta, vals.dtype)[rows]
        return rows[kept], cols[kept]

    def best(self, rows: Array, cols: Array, exact: Array, id_rank: Array):
        """``_dump_lines``' columns, exact scores and row ends, best first."""
        order = np.lexsort((id_rank[cols], -exact, rows))
        counts = _per_row(rows, self.n_rows)
        order = order[np.arange(order.size) - (np.cumsum(counts) - counts)[rows[order]] < self.k]
        return cols[order], exact[order], np.cumsum(np.minimum(counts, self.k))


def _raise_nan(start: int, chunk: Sequence[QuerySpec], rows: Array) -> None:
    """Raise NonFiniteGradient naming the first of ``rows``, if any."""
    if rows.size:
        i = int(rows.min())
        raise NonFiniteGradient(f"query {start + i} ({chunk[i].ref_id}, {chunk[i].mod_id}) "
                                "has a NaN score")


def _rank_block(scores: BlockScores, screened: bool, n_gallery: int, id_rank: Array,
                targets: _Targets, dump_top_k: int | None, start: int,
                chunk: Sequence[QuerySpec]):
    """Ranks, subset ranks and dump columns of one block, tile by tile.

    Screened, each comparison with a query's exact first-ground-truth score
    s is decided on the float32 tile wherever it falls outside s +- margin;
    the rest are settled on exact scores. Unscreened, the tiles hold the
    float64 scores and the margin is 0, so only ties are looked up. A NaN
    score raises NonFiniteGradient once every tile is scored, so the
    tiles' pair-norm guard fires first, as over a whole block.
    """
    q = len(chunk)
    margin = scores.margin if screened else 0.0
    excluded = targets.excluded
    truth_rows = np.repeat(np.arange(q), [len(c) for c in targets.truths])
    truth_cols = np.concatenate(targets.truths)
    truth_vals = scores.exact(truth_rows, truth_cols)
    truth = dict(zip(zip(truth_rows.tolist(), truth_cols.tolist()), truth_vals.tolist()))

    def band_of(truths: list[list[int]]) -> tuple[_Band, list[int]]:
        """The band around, and the column of, each row's first of ``truths[i]``
        by (-exact score, id rank)."""
        best = [min(cols, key=lambda c: (-truth[i, c], id_rank[c]))
                for i, cols in enumerate(truths)]
        return _Band(np.array([truth[i, c] for i, c in enumerate(best)]), id_rank[best],
                     margin), best

    band, _ = band_of(targets.truths)
    ranks = np.ones(q, dtype=np.int64)
    near_rows, near_cols = [], []   # pairs within the band
    members = targets.members
    if members is not None:
        # A subset counts its members ahead of its first ground truth.
        sub_band, sub_first = band_of([[c for c in cols if c in kept]
                                       for cols, kept in zip(targets.truths, members)])
        member_cols = [sorted(kept - {f}) for kept, f in zip(members, sub_first)]
        m_rows = np.repeat(np.arange(q), [len(c) for c in member_cols])
        m_cols = np.array([c for cols in member_cols for c in cols], dtype=np.int64)
        subset_ranks = np.ones(q, dtype=np.int64)
        m_near = np.zeros(len(m_rows), dtype=bool)
    top = _TopK(min(dump_top_k, n_gallery), q, margin) if dump_top_k else None
    with_x = np.flatnonzero(excluded >= 0)
    nan_rows = np.zeros(q, dtype=bool)
    for lo in range(0, n_gallery, head.SCORE_TILE):
        hi = min(lo + head.SCORE_TILE, n_gallery)
        tile = scores.tile(lo, hi, screened)
        if np.isnan(tile.max()):
            nan_rows |= np.isnan(tile).any(axis=1)
        here = with_x[(excluded[with_x] >= lo) & (excluded[with_x] < hi)]
        tile[here, excluded[here] - lo] = -np.inf
        low, high = band.bounds(tile.dtype)
        mask = tile > high[:, None]
        n_ahead = _row_counts(mask)
        ranks += n_ahead
        rows = np.flatnonzero(_row_counts(np.greater_equal(tile, low[:, None], out=mask))
                              > n_ahead)
        if rows.size:
            part = tile[rows]
            at, cols = _nonzero((part >= low[rows, None]) & (part <= high[rows, None]))
            kept = cols + lo != excluded[rows[at]]
            near_rows.append(rows[at][kept])
            near_cols.append(cols[kept] + lo)
        if members is not None:
            sel = np.flatnonzero((m_cols >= lo) & (m_cols < hi))
            vals = tile[m_rows[sel], m_cols[sel] - lo]
            low, high = sub_band.bounds(tile.dtype)
            above = vals > high[m_rows[sel]]
            subset_ranks += _per_row(m_rows[sel][above], q)
            m_near[sel] = ~above & (vals >= low[m_rows[sel]])
        if top is not None:
            top.add(tile, lo)
    _raise_nan(start, chunk, np.flatnonzero(nan_rows))
    # One exact call settles every pair left: those within the band, the
    # subset members within theirs, and the dump's candidates.
    groups = [(np.concatenate([np.empty(0, dtype=np.int64), *near_rows]),
               np.concatenate([np.empty(0, dtype=np.int64), *near_cols]))]
    if members is not None:
        groups.append((m_rows[m_near], m_cols[m_near]))
    if top is not None:
        groups.append(top.survivors(excluded))
    rows = np.concatenate([g[0] for g in groups])
    exact = scores.exact(rows, np.concatenate([g[1] for g in groups]))
    # A NaN here means the screen vouched for nothing: the caller ranks unscreened.
    _raise_nan(start, chunk, np.concatenate([rows[np.isnan(exact)],
                                             truth_rows[np.isnan(truth_vals)]]))
    exact = np.split(exact, np.cumsum([len(g[0]) for g in groups])[:-1])
    (b_rows, b_cols), b_exact = groups[0], exact[0]
    ranks += _per_row(b_rows[band.ahead(b_rows, b_exact, id_rank[b_cols])], q)
    subset = None
    if members is not None:
        (s_rows, s_cols), s_exact = groups[1], exact[1]
        ahead = sub_band.ahead(s_rows, s_exact, id_rank[s_cols])
        subset = subset_ranks + _per_row(s_rows[ahead], q)
    dump = None
    if top is not None:
        dump = top.best(*groups[-1], exact[-1], id_rank)
    elif dump_top_k is not None:   # k = 0
        dump = (np.empty(0, dtype=np.int64), np.empty(0), np.zeros(q, dtype=np.int64))
    return ranks, subset, dump


def _json_float(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _dump_lines(first: int, chunk: Sequence[QuerySpec], ranks: Array, gallery_ids: Sequence[str],
                cols: Array, scores: Array, ends: Array) -> list[str]:
    """Each query's dump line, the bytes ``json.dumps`` (sorted keys) writes.

    ``cols``, ``scores`` and ``ends`` are the top-k columns, exact scores
    and row end offsets of the queries of ``chunk``, the first of which is
    query ``first``. Strings go through JSON's own encoder and finite
    scores through ``repr``, as in ``json.dumps``; only a non-finite score
    calls ``json.dumps``.
    """
    entries = list(map('{{"id": {}, "score": {}}}'.format,
                       [_json_str(gallery_ids[c]) for c in cols.tolist()],
                       map(_json_float, scores.tolist())))
    starts = [0, *ends.tolist()]
    return [f'{{"mod": {_json_str(q.mod_id)}, "query": {first + i}, "rank": {rank}, '
            f'"ref": {_json_str(q.ref_id)}, "top": [{", ".join(entries[a:b])}]}}'
            for i, (q, rank, a, b) in enumerate(zip(chunk, ranks.tolist(), starts, starts[1:]))]


def rank_queries(queries: Sequence[QuerySpec], corpus, params: HeadParams, flavor: Flavor,
                 block_size: int = DEFAULT_BLOCK_SIZE, workers: int = 1,
                 dump_top_k: int | None = None) -> Rankings:
    """Streamed ranking: one prepared gallery, screened tiles, counted ranks.

    Subset ranks are computed when every query carries a subset. With
    ``dump_top_k`` set, each query also gets a JSON line with its rank
    and its top-k ids and scores (exact sort order). A NaN score raises
    NonFiniteGradient naming the query.
    """
    if not queries:
        raise EmptyInput("no queries")
    if dump_top_k is not None and dump_top_k < 0:
        raise ConfigError(f"top-k must be >= 0, got {dump_top_k}")
    gallery_ids = corpus.targets.ids
    n_gallery = len(gallery_ids)
    index = corpus.targets.index
    id_rank = _id_rank_of(gallery_ids)
    try:
        gallery = head.prepare_gallery(corpus.targets.data, params.dims, flavor)
    except NearZeroNorm:
        raise_zero_norm_row(corpus, targets=np.arange(n_gallery))
        raise
    # Query rows are gathered and normalized per block; doing it for every
    # query up front would add two queries x dims arrays to peak memory.
    ref_rows = np.array([corpus.refs.row_of(q.ref_id) for q in queries], dtype=np.int64)
    mod_rows = np.array([corpus.mods.row_of(q.mod_id) for q in queries], dtype=np.int64)

    with_subsets = all(q.subset_members is not None for q in queries)

    def eval_block(lo: int, hi: int):
        chunk = queries[lo:hi]
        targets = _block_targets(chunk, index, with_subsets)

        def rank(scores, screened):
            return _rank_block(scores, screened, n_gallery, id_rank, targets, dump_top_k,
                               lo, chunk)

        try:
            scores = block_scores(normalize_rows(corpus.refs.data[ref_rows[lo:hi]]),
                                  normalize_rows(corpus.mods.data[mod_rows[lo:hi]]),
                                  gallery, params, flavor)
            try:
                ranked = rank(scores, True)
            except (NearZeroNorm, NonFiniteGradient):
                # A pair the float32 screen cannot vouch for: rank the block
                # on float64 tiles, which raise the error if there is one.
                ranked = rank(scores, False)
        except NearZeroNorm as exc:
            raise_zero_norm_row(corpus, queries, lo, refs=ref_rows[lo:hi], mods=mod_rows[lo:hi])
            q = queries[lo + exc.row]
            raise NearZeroNorm(f"query {lo + exc.row} ({q.ref_id}, {q.mod_id}): {exc}") from None
        ranks, subset, dump = ranked
        lines = [] if dump is None else _dump_lines(lo, chunk, ranks, gallery_ids, *dump)
        return ranks, subset, lines

    pieces = _map_blocks(eval_block, _blocks(len(queries), block_size), workers)
    return Rankings(
        ranks=np.concatenate([p[0] for p in pieces]),
        subset_ranks=np.concatenate([p[1] for p in pieces]) if with_subsets else None,
        dump_lines=[line for p in pieces for line in p[2]],
    )


def evaluate(queries: Sequence[QuerySpec], corpus, params: HeadParams, flavor: Flavor,
             block_size: int = DEFAULT_BLOCK_SIZE, workers: int = 1,
             dump_path=None, dump_top_k: int = 10) -> MetricReport:
    """Streamed evaluation: ``rank_queries``, then metrics.

    Subset recalls are included when every query carries a subset.
    ``dump_path`` writes one JSONL line per query with its top-k ids
    and scores (exact sort order).
    """
    ranked = rank_queries(queries, corpus, params, flavor, block_size, workers,
                          dump_top_k if dump_path is not None else None)
    metrics = _metrics(ranked.ranks, ranked.subset_ranks)
    if dump_path is not None:
        lines = ranked.dump_lines
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    return MetricReport(label=flavor.value, metrics=metrics, n_queries=len(queries))


def _metrics(ranks: Array, subset_ranks: Array | None) -> dict[str, float]:
    """A report's metrics; the subset ones only when ``subset_ranks`` is given."""
    with_subsets = subset_ranks is not None
    metrics: dict[str, float] = {}
    for k in RECALL_KS:
        metrics[f"r_at_{k}"] = recall_at_k(ranks, k)
    metrics["median_rank"] = median_rank(ranks)
    if with_subsets:
        for k in SUBSET_KS:
            metrics[f"r_subset_at_{k}"] = recall_at_k(subset_ranks, k)
    metrics["mean_recall"] = (metrics["r_at_1"] + metrics["r_at_10"]
                              + metrics["r_at_50"]) / 3.0
    if with_subsets:
        metrics["combined"] = (metrics["r_at_5"] + metrics["r_subset_at_1"]) / 2.0
    return metrics


def metric_names(with_subsets: bool) -> list[str]:
    """The sorted metric names ``evaluate`` reports, with or without subsets."""
    one = np.ones(1, dtype=np.int64)
    return sorted(_metrics(one, one if with_subsets else None))


# -- dataset-convention aggregates ----------------------------------------------

# The metric cells each convention reads (per category, for fashioniq).
CONVENTION_CELLS = {"fashioniq": ("r_at_10", "r_at_50"),
                    "shoes": ("r_at_1", "r_at_10", "r_at_50"),
                    "cirr": ("r_at_5", "r_subset_at_1")}
CONVENTIONS = tuple(CONVENTION_CELLS)
AGGREGATE_LABELS = {"fashioniq": "fashioniq challenge metric",
                    "shoes": "shoes average", "cirr": "cirr combined"}
FASHIONIQ_CATEGORIES = ("dress", "shirt", "toptee")


def aggregate_suite(table: Mapping, convention: str) -> MetricReport:
    """Combine metric cells per dataset convention.

    fashioniq: mean of r_at_10 and r_at_50 over the three categories;
    shoes: mean of r_at_1, r_at_10, r_at_50; cirr: mean of r_at_5 and
    r_subset_at_1.
    """
    if convention == "fashioniq":
        cells: list[float] = []
        flat: dict[str, float] = {}
        for category in FASHIONIQ_CATEGORIES:
            if category not in table:
                raise MissingCell(f"fashioniq aggregate needs category {category!r}")
            for key in CONVENTION_CELLS["fashioniq"]:
                if key not in table[category]:
                    raise MissingCell(f"fashioniq aggregate needs {key!r} for {category!r}")
                value = float(table[category][key])
                cells.append(value)
                flat[f"{category}.{key}"] = value
        return MetricReport(label=AGGREGATE_LABELS["fashioniq"], metrics=flat,
                            aggregate=float(np.mean(cells)), convention="fashioniq")
    if convention not in CONVENTION_CELLS:
        raise ConfigError(f"unknown convention {convention!r}; "
                          f"expected one of {', '.join(CONVENTIONS)}")
    values = {}
    for key in CONVENTION_CELLS[convention]:
        if key not in table:
            raise MissingCell(f"{convention} aggregate needs cell {key!r}")
        values[key] = float(table[key])
    return MetricReport(label=AGGREGATE_LABELS[convention], metrics=values,
                        aggregate=float(np.mean(list(values.values()))),
                        convention=convention)
