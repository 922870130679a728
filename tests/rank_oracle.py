"""Sort-based reference for the streaming ranker.

Sorts each score row in full, by descending score with ascending-id
tie-breaks, and reads the ground truth's position off the sorted list.
It shares no code with ``emis.evaluation``: the tie key here is the id
string itself, not the evaluator's precomputed id ranks. Only the error
types come from the package, so tests can expect the same exceptions.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from emis.errors import ShapeMismatch, UnknownId
from emis.evaluation import QuerySpec


@dataclass
class RankResult:
    """Sorted candidate ids for one query plus the best ground-truth rank."""

    ordering: list[str]
    rank: int


def rank_targets(row, query: QuerySpec, gallery_ids: Sequence[str]) -> RankResult:
    """Sort one score row (descending, ascending-id ties) and locate the truth."""
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1 or row.shape[0] != len(gallery_ids):
        raise ShapeMismatch(f"row length {row.shape} vs gallery size {len(gallery_ids)}")
    excluded = query.ref_id if query.exclude_ref else None
    kept = [c for c, gid in enumerate(gallery_ids) if gid != excluded]
    ordering = [gallery_ids[c] for c in sorted(kept, key=lambda c: (-row[c], gallery_ids[c]))]
    positions = [ordering.index(g) + 1 for g in query.ground_truth if g in ordering]
    if not positions:
        raise UnknownId(f"no ground truth of ({query.ref_id}, {query.mod_id}) in gallery")
    return RankResult(ordering=ordering, rank=min(positions))
