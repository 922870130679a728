"""Ranking engine and retrieval metrics.

Candidates are ordered by descending score with ascending-id
tie-breaks, so results are deterministic. The streaming evaluator
prepares the gallery once per call, from the target bank's raw rows,
and scores the queries block by block against it. A query's rank is
one plus the number of candidates ahead of its first ground truth
(scoring higher, or tied with a lower id), counted block-wide; subset
ranks count over the members only. The sort this equals lives in
``tests/rank_oracle.py`` as the ranker's oracle. The top-k dump uses
exact partial selection: a partition finds the k-th best kept score,
and only the candidates at or above it (every tie at the boundary
included) are sorted, with the same tie-break. A NaN score is an
error, never a rank; +-inf scores rank like any other value. Reports
round to two decimals (half-up) only at emission; internal math keeps
full precision.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from . import head
from .errors import (ConfigError, EmptyInput, MissingCell, MissingSubset,
                     NearZeroNorm, NonFiniteGradient, ShapeMismatch, UnknownId)
from .head import Flavor, HeadParams, pairwise_scores
from .numerics import NORM_EPS

Array = np.ndarray

DEFAULT_BLOCK_SIZE = 256


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


def _top_k(row: Array, k: int, excluded: int | None, id_rank: Array,
           scratch: Array) -> Array:
    """Columns of the k best kept candidates of one row, best first.

    The row is copied into ``scratch`` with the excluded column at -inf
    and partitioned there to find the k-th largest score, a lower bound
    on the k best kept ones (it is the -inf sentinel only when k reaches
    past the kept columns). Every kept column scoring at least that
    value (ties at the boundary included) is then sorted by (-score,
    id rank), and the first k are returned, so the result equals the
    head of a full sort.
    """
    k = min(k, row.shape[0])
    if k <= 0:
        return np.empty(0, dtype=np.int64)
    np.copyto(scratch, row)
    if excluded is not None:
        scratch[excluded] = -np.inf
    pivot = row.shape[0] - k
    scratch.partition(pivot)
    cols = np.flatnonzero(row >= scratch[pivot])
    if excluded is not None:
        cols = cols[cols != excluded]
    return cols[np.lexsort((id_rank[cols], -row[cols]))][:k]


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
    index = {gid: i for i, gid in enumerate(gallery_ids)}
    id_rank = _id_rank_of(gallery_ids)
    try:
        gallery = head.prepare_gallery(corpus.targets.data, params.dims, flavor)
    except NearZeroNorm:
        # The row is looked up only here, so a good gallery pays nothing extra.
        norms = np.linalg.norm(corpus.targets.data.astype(np.float64), axis=1)
        bad = int(np.argmin(norms > NORM_EPS))
        raise NearZeroNorm(f"targets bank row {bad} (id {gallery_ids[bad]!r}) "
                           f"has norm {float(norms[bad])!r}") from None
    # Query rows are gathered per block; copying every query's rows up
    # front would add two queries x dims arrays to peak memory.
    refs, mods = corpus.refs.matrix64(), corpus.mods.matrix64()
    ref_rows = np.array([corpus.refs.row_of(q.ref_id) for q in queries], dtype=np.int64)
    mod_rows = np.array([corpus.mods.row_of(q.mod_id) for q in queries], dtype=np.int64)

    with_subsets = all(q.subset_members is not None for q in queries)

    def eval_block(lo: int, hi: int):
        block = pairwise_scores(refs[ref_rows[lo:hi]], mods[mod_rows[lo:hi]], gallery,
                                params, flavor)
        nan_rows = np.flatnonzero(np.isnan(block.max(axis=1)))
        if nan_rows.size:
            bad = lo + int(nan_rows[0])
            raise NonFiniteGradient(f"query {bad} ({queries[bad].ref_id}, "
                                    f"{queries[bad].mod_id}) has a NaN score")
        chunk = queries[lo:hi]
        excluded = [index[q.ref_id] if q.exclude_ref and q.ref_id in index else None
                    for q in chunk]
        gt_cols = []
        for q, skip in zip(chunk, excluded):
            cols = [index[g] for g in q.ground_truth if g in index and index[g] != skip]
            if not cols:
                raise UnknownId(f"no ground truth of ({q.ref_id}, {q.mod_id}) in gallery")
            gt_cols.append(cols)
        # Id ranks are unique, so the order is total and the best rank is
        # that of the first ground truth: count the candidates ahead of it.
        first = np.array([_first(row, cols, id_rank) for row, cols in zip(block, gt_cols)])
        rows = np.arange(hi - lo)
        ahead = _ahead(block, id_rank, block[rows, first][:, None], id_rank[first][:, None])
        block_ranks = 1 + ahead.sum(axis=1)
        for i, col in enumerate(excluded):
            if col is not None:
                block_ranks[i] -= ahead[i, col]
        block_subset = None
        if with_subsets:
            block_subset = np.empty(hi - lo, dtype=np.int64)
            for i, q in enumerate(chunk):
                unknown = [m for m in q.subset_members if m not in index]
                if unknown:
                    raise UnknownId(f"subset member {unknown[0]!r} not in gallery")
                members = {index[m] for m in q.subset_members} - {excluded[i]}
                cols = [c for c in gt_cols[i] if c in members]
                if not cols:
                    raise MissingSubset(f"query ({q.ref_id}, {q.mod_id}): ground truth "
                                        "excluded from its own subset")
                row, col = block[i], _first(block[i], cols, id_rank)
                member_cols = np.fromiter(members, dtype=np.int64)
                block_subset[i] = 1 + _ahead(row[member_cols], id_rank[member_cols],
                                             row[col], id_rank[col]).sum()
        block_dump: list[str] = []
        if dump_top_k is not None:
            scratch = np.empty(n_gallery, dtype=np.float64)
            for i, q in enumerate(chunk):
                row = block[i]
                top = _top_k(row, dump_top_k, excluded[i], id_rank, scratch)
                block_dump.append(json.dumps({
                    "query": lo + i, "ref": q.ref_id, "mod": q.mod_id,
                    "rank": int(block_ranks[i]),
                    "top": [{"id": gallery_ids[c], "score": float(row[c])} for c in top],
                }, sort_keys=True))
        return block_ranks, block_subset, block_dump

    pieces = _map_blocks(eval_block, _blocks(len(queries), block_size), workers)
    return Rankings(
        ranks=np.concatenate([p[0] for p in pieces]),
        subset_ranks=np.concatenate([p[1] for p in pieces]) if with_subsets else None,
        dump_lines=[line for p in pieces for line in p[2]],
    )


def evaluate(queries: Sequence[QuerySpec], corpus, params: HeadParams, flavor: Flavor,
             recall_ks: Sequence[int] = (1, 5, 10, 50),
             subset_ks: Sequence[int] = (1, 2, 3),
             block_size: int = DEFAULT_BLOCK_SIZE, workers: int = 1,
             dump_path=None, dump_top_k: int = 10) -> MetricReport:
    """Streamed evaluation: ``rank_queries``, then metrics.

    Subset recalls are included when every query carries a subset.
    ``dump_path`` writes one JSONL line per query with its top-k ids
    and scores (exact sort order).
    """
    ranked = rank_queries(queries, corpus, params, flavor, block_size, workers,
                          dump_top_k if dump_path is not None else None)
    ranks, subset_ranks = ranked.ranks, ranked.subset_ranks
    with_subsets = subset_ranks is not None

    metrics: dict[str, float] = {}
    for k in recall_ks:
        metrics[f"r_at_{k}"] = recall_at_k(ranks, k)
    metrics["median_rank"] = median_rank(ranks)
    if with_subsets:
        for k in subset_ks:
            metrics[f"r_subset_at_{k}"] = recall_at_k(subset_ranks, k)
    if all(f"r_at_{k}" in metrics for k in (1, 10, 50)):
        metrics["mean_recall"] = (metrics["r_at_1"] + metrics["r_at_10"]
                                  + metrics["r_at_50"]) / 3.0
    if with_subsets and "r_at_5" in metrics:
        metrics["combined"] = (metrics["r_at_5"] + metrics["r_subset_at_1"]) / 2.0

    if dump_path is not None:
        lines = ranked.dump_lines
        with open(dump_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + ("\n" if lines else ""))
    return MetricReport(label=flavor.value, metrics=metrics, n_queries=len(queries))


# -- dataset-convention aggregates ----------------------------------------------

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
            for key in ("r_at_10", "r_at_50"):
                if key not in table[category]:
                    raise MissingCell(f"fashioniq aggregate needs {key!r} for {category!r}")
                value = float(table[category][key])
                cells.append(value)
                flat[f"{category}.{key}"] = value
        return MetricReport(label="fashioniq challenge metric", metrics=flat,
                            aggregate=float(np.mean(cells)), convention="fashioniq")
    if convention == "shoes":
        needed = ("r_at_1", "r_at_10", "r_at_50")
        _require_cells(table, needed, "shoes")
        values = {k: float(table[k]) for k in needed}
        return MetricReport(label="shoes average", metrics=values,
                            aggregate=float(np.mean(list(values.values()))),
                            convention="shoes")
    if convention == "cirr":
        needed = ("r_at_5", "r_subset_at_1")
        _require_cells(table, needed, "cirr")
        values = {k: float(table[k]) for k in needed}
        return MetricReport(label="cirr combined", metrics=values,
                            aggregate=float(np.mean(list(values.values()))),
                            convention="cirr")
    raise ConfigError(f"unknown convention {convention!r}; "
                      "expected fashioniq, shoes, or cirr")


def _require_cells(table: Mapping, keys: Iterable[str], convention: str) -> None:
    for key in keys:
        if key not in table:
            raise MissingCell(f"{convention} aggregate needs cell {key!r}")
