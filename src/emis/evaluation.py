"""Ranking engine and retrieval metrics.

Candidates are ordered by descending score with ascending-id
tie-breaks, so results are deterministic. The streaming evaluator
prepares the gallery once per call, from the target bank's raw rows
(kept raw beside their norms when a single block reads them), and
scores the queries block by block against it, normalizing each
block's raw query rows as it gathers them. A query's rank is one plus
the number of candidates ahead of its first ground truth (scoring
higher, or tied with a lower id), counted block-wide; subset ranks
count over the members only. The sort this equals lives in
``tests/rank_oracle.py`` as the ranker's oracle. The top-k dump uses
exact partial selection over the whole block: the least of k segment
maxima bounds each row's k-th best kept score from below, and only the
candidates at or above it (every tie at the boundary included) are
sorted, with the same tie-break. A NaN score is an
error, never a rank; +-inf scores rank like any other value. Reports
round to two decimals (half-up) only at emission; internal math keeps
full precision.
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
from .head import Flavor, HeadParams, pairwise_scores
from .numerics import NORM_EPS, normalize_rows, row_norms

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


def _first(row: Array, cols, id_rank: Array) -> int:
    """The column among ``cols`` that orders first by (-score, id rank)."""
    return min(cols, key=lambda c: (-row[c], id_rank[c]))


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


def _top_k(block: Array, k: int, excluded: Array, id_rank: Array) -> tuple[Array, Array, Array]:
    """Columns and scores of each row's k best kept candidates, best first.

    ``excluded`` is each row's excluded column, or -1. The rows' results
    come back to back, with each row's end offset. Each row's first
    ``k * (G // k)`` columns split into k disjoint segments; with the
    excluded column held at -inf (and restored, so ``block`` is left as
    it was), the least of the k segment maxima is a lower bound on the
    row's k-th best kept score. Every kept candidate at or above it
    (every tie at the boundary included) is sorted by (row, -score, id
    rank) and each row keeps its first k, so the result equals the head
    of a full sort.
    """
    q, g = block.shape
    k = min(k, g)
    if k <= 0:
        return np.empty(0, dtype=np.int64), np.empty(0), np.zeros(q, dtype=np.int64)
    rows_x = np.flatnonzero(excluded >= 0)
    held = block[rows_x, excluded[rows_x]]
    block[rows_x, excluded[rows_x]] = -np.inf
    bound = block[:, :k * (g // k)].reshape(q, k, g // k).max(axis=2).min(axis=1)
    block[rows_x, excluded[rows_x]] = held
    rows, cols = np.divmod(np.flatnonzero(block >= bound[:, None]), g)
    kept = cols != excluded[rows]
    rows, cols = rows[kept], cols[kept]
    scores = block[rows, cols]
    order = np.lexsort((id_rank[cols], -scores, rows))
    counts = np.bincount(rows, minlength=q)
    order = order[np.arange(order.size) - (np.cumsum(counts) - counts)[rows[order]] < k]
    return cols[order], scores[order], np.cumsum(np.minimum(counts, k))


def _json_float(x: float) -> str:
    return repr(x) if math.isfinite(x) else json.dumps(x)


def _dump_lines(first: int, chunk: Sequence[QuerySpec], ranks: Array, gallery_ids: Sequence[str],
                cols: Array, scores: Array, ends: Array) -> list[str]:
    """Each query's dump line, the bytes ``json.dumps`` (sorted keys) writes.

    ``cols``, ``scores`` and ``ends`` are ``_top_k``'s output for the
    queries of ``chunk``, the first of which is query ``first``. Strings
    go through JSON's own encoder and finite scores through ``repr``, as
    in ``json.dumps``; only a non-finite score calls ``json.dumps``.
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
    """Streamed ranking: one prepared gallery, block scoring, counted ranks.

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
        gallery = head.prepare_gallery(corpus.targets.data, params.dims, flavor,
                                       one_pass=len(queries) <= block_size)
    except NearZeroNorm:
        raise_zero_norm_row(corpus, targets=np.arange(n_gallery))
        raise
    # Query rows are gathered and normalized per block; doing it for every
    # query up front would add two queries x dims arrays to peak memory.
    ref_rows = np.array([corpus.refs.row_of(q.ref_id) for q in queries], dtype=np.int64)
    mod_rows = np.array([corpus.mods.row_of(q.mod_id) for q in queries], dtype=np.int64)

    with_subsets = all(q.subset_members is not None for q in queries)

    def eval_block(lo: int, hi: int):
        try:
            block = pairwise_scores(normalize_rows(corpus.refs.data[ref_rows[lo:hi]]),
                                    normalize_rows(corpus.mods.data[mod_rows[lo:hi]]),
                                    gallery, params, flavor)
        except NearZeroNorm as exc:
            raise_zero_norm_row(corpus, queries, lo, refs=ref_rows[lo:hi], mods=mod_rows[lo:hi])
            q = queries[lo + exc.row]
            raise NearZeroNorm(f"query {lo + exc.row} ({q.ref_id}, {q.mod_id}): {exc}") from None
        nan_rows = np.flatnonzero(np.isnan(block.max(axis=1)))
        if nan_rows.size:
            bad = lo + int(nan_rows[0])
            raise NonFiniteGradient(f"query {bad} ({queries[bad].ref_id}, "
                                    f"{queries[bad].mod_id}) has a NaN score")
        chunk = queries[lo:hi]
        excluded = np.array([index.get(q.ref_id, -1) if q.exclude_ref else -1 for q in chunk],
                            dtype=np.int64)
        gt_cols = []
        for q, skip in zip(chunk, excluded):
            cols = [index[g] for g in q.ground_truth if g in index and index[g] != skip]
            if not cols:
                raise UnknownId(f"no ground truth of ({q.ref_id}, {q.mod_id}) in gallery")
            gt_cols.append(cols)
        # Id ranks are unique, so the order is total and the best rank is
        # that of the first ground truth: count the candidates ahead of it.
        # The equality mask reuses the comparison's buffer, so one (Q, G)
        # bool array is alive, and only a row with a tie besides its ground
        # truth runs the id-rank test.
        first = np.array([_first(row, cols, id_rank) for row, cols in zip(block, gt_cols)])
        s, r = block[np.arange(hi - lo), first], id_rank[first]
        mask = block > s[:, None]
        block_ranks = 1 + _row_counts(mask)
        tied = np.flatnonzero(_row_counts(np.equal(block, s[:, None], out=mask)) > 1)
        del mask
        for i in tied:
            block_ranks[i] += np.count_nonzero((block[i] == s[i]) & (id_rank < r[i]))
        for i in np.flatnonzero(excluded >= 0):
            col = excluded[i]
            block_ranks[i] -= _ahead(block[i, col], id_rank[col], s[i], r[i])
        block_subset = None
        if with_subsets:
            # Each row lists its first ground truth in the subset, then the
            # members; rows are padded with that first one, never ahead of
            # itself, so one gather and one comparison count them all.
            member_lists = []
            for i, q in enumerate(chunk):
                unknown = [m for m in q.subset_members if m not in index]
                if unknown:
                    raise UnknownId(f"subset member {unknown[0]!r} not in gallery")
                members = {index[m] for m in q.subset_members} - {excluded[i]}
                cols = [c for c in gt_cols[i] if c in members]
                if not cols:
                    raise MissingSubset(f"query ({q.ref_id}, {q.mod_id}): ground truth "
                                        "excluded from its own subset")
                member_lists.append([_first(block[i], cols, id_rank), *members])
            width = max(map(len, member_lists))
            member_cols = np.array([m + m[:1] * (width - len(m)) for m in member_lists],
                                   dtype=np.int64)
            vals = np.take_along_axis(block, member_cols, axis=1)
            ranks = id_rank[member_cols]
            block_subset = 1 + _ahead(vals, ranks, vals[:, :1], ranks[:, :1]).sum(axis=1)
        block_dump: list[str] = []
        if dump_top_k is not None:
            block_dump = _dump_lines(lo, chunk, block_ranks, gallery_ids,
                                     *_top_k(block, dump_top_k, excluded, id_rank))
        return block_ranks, block_subset, block_dump

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
