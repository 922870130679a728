"""Independent reference for the correctness gate.

Reads the AFB1 banks and the AHP1 checkpoint with its own parsers,
scores queries with the formulas of the paper written out in numpy one
query at a time (no code shared with ``emis.head``),
ranks every candidate with a full sort (descending score, ascending id
on ties) and derives the recall metrics from those ranks. Nothing here
imports the program under test.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

NORM_EPS = 1e-12
AHP1_BLOCKS = (
    ("attn_is.w1", "th"), ("attn_is.b1", "h"), ("attn_is.w2", "hi"), ("attn_is.b2", "i"),
    ("attn_em.w1", "th"), ("attn_em.b1", "h"), ("attn_em.w2", "hi"), ("attn_em.b2", "i"),
    ("proj.w", "ti"), ("proj.b", "i"), ("gamma", ""),
)


def read_bank(path) -> tuple[list[str], np.ndarray]:
    """Ids and float64 unit rows (rows with norm <= 1e-12 pass through)."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"AFB1":
        raise ValueError(f"{path}: not an AFB1 bank")
    _, rows, dim = struct.unpack_from("<III", raw, 4)
    data = np.frombuffer(raw, dtype="<f4", offset=16, count=rows * dim)
    data = data.reshape(rows, dim).astype(np.float64)
    norms = np.sqrt(np.einsum("ij,ij->i", data, data))[:, None]
    data = data / np.where(norms > NORM_EPS, norms, 1.0)
    with open(str(path) + ".ids.jsonl", encoding="utf-8") as fh:
        ids = [str(json.loads(line)["id"]) for line in fh if line.strip()]
    if len(ids) != rows:
        raise ValueError(f"{path}: {len(ids)} ids for {rows} rows")
    return ids, data


def read_checkpoint(path) -> dict[str, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != b"AHP1":
        raise ValueError(f"{path}: not an AHP1 checkpoint")
    _, h_t, h_i, h_hidden = struct.unpack_from("<IIII", raw, 4)
    sizes = {"t": h_t, "i": h_i, "h": h_hidden}
    out: dict[str, np.ndarray] = {}
    offset = 20
    for name, shape_code in AHP1_BLOCKS:
        shape = tuple(sizes[c] for c in shape_code)
        (count,) = struct.unpack_from("<I", raw, offset)
        offset += 4
        values = np.frombuffer(raw, dtype="<f8", offset=offset, count=count)
        out[name] = values.reshape(shape).astype(np.float64)
        offset += 8 * count
    return out


def read_split(path, split: str) -> list[tuple[str, str, str]]:
    """(ref, mod, tgt) of every triplet in ``split``, in file order."""
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh if line.strip()]
    return [(r["ref"], r["mod"], r["tgt"]) for r in records if r["split"] == split]


def _attention(m: np.ndarray, params: dict, branch: str) -> np.ndarray:
    hidden = np.maximum(m @ params[f"{branch}.w1"] + params[f"{branch}.b1"], 0.0)
    logits = hidden @ params[f"{branch}.w2"] + params[f"{branch}.b2"]
    e = np.exp(logits - logits.max())
    return e / e.sum()


def _cosines(gallery: np.ndarray, gallery_sq: np.ndarray, weights: np.ndarray,
             x: np.ndarray) -> np.ndarray:
    """cos(x, weights * t) for every gallery row t.

    Numerator sum_d x_d w_d t_d and squared norm sum_d w_d^2 t_d^2 are each
    one matrix-vector product, so no weighted copy of the gallery is made.
    """
    t_norms = np.sqrt(gallery_sq @ (weights * weights))
    return (gallery @ (weights * x)) / (t_norms * np.sqrt(x @ x))


def query_scores(r: np.ndarray, m: np.ndarray, gallery: np.ndarray, gallery_sq: np.ndarray,
                 params: dict | None, flavor: str) -> np.ndarray:
    """Scores of one query (r, m) against every gallery row.

    ``gallery_sq`` holds the squared gallery entries. late_fusion is
    cos(r + m, t); artemis is EM + IS with EM = cos(T(m), a_em(m) * t)
    and IS = cos(a_is(m) * r, a_is(m) * t).
    """
    if flavor == "late_fusion":
        return _cosines(gallery, gallery_sq, np.ones_like(r), r + m)
    if flavor != "artemis":
        raise ValueError(f"reference has no formula for flavor {flavor!r}")
    a_is = _attention(m, params, "attn_is")
    a_em = _attention(m, params, "attn_em")
    projected = m @ params["proj.w"] + params["proj.b"]
    return (_cosines(gallery, gallery_sq, a_em, projected)
            + _cosines(gallery, gallery_sq, a_is, a_is * r))


def id_keys(gallery_ids: list[str]) -> np.ndarray:
    """Each gallery column's position in ascending-id order."""
    keys = np.empty(len(gallery_ids), dtype=np.int64)
    keys[np.argsort(np.asarray(gallery_ids), kind="stable")] = np.arange(len(gallery_ids))
    return keys


def ranking(scores: np.ndarray, keys: np.ndarray, exclude: int | None = None) -> np.ndarray:
    """Gallery columns in rank order by a full sort: score descending, id ascending."""
    order = np.lexsort((keys, -scores))
    if exclude is not None:
        order = order[order != exclude]
    return order


class Reference:
    """Banks and checkpoint read once; ranks single queries on demand."""

    def __init__(self, refs_path, mods_path, targets_path, checkpoint_path=None) -> None:
        self.gallery_ids, self.gallery = read_bank(targets_path)
        self.gallery_sq = self.gallery * self.gallery
        self.keys = id_keys(self.gallery_ids)
        self.column = {gid: j for j, gid in enumerate(self.gallery_ids)}
        ref_ids, self.refs = read_bank(refs_path)
        mod_ids, self.mods = read_bank(mods_path)
        self.ref_row = {rid: i for i, rid in enumerate(ref_ids)}
        self.mod_row = {mid: i for i, mid in enumerate(mod_ids)}
        self.params = read_checkpoint(checkpoint_path) if checkpoint_path else None

    def rank(self, ref_id: str, mod_id: str, target_id: str, flavor: str,
             exclude_ref: bool = False, top_k: int = 10) -> tuple[int, list[str]]:
        """The target's 1-based rank and the top-k gallery ids."""
        scores = query_scores(self.refs[self.ref_row[ref_id]], self.mods[self.mod_row[mod_id]],
                              self.gallery, self.gallery_sq, self.params, flavor)
        order = ranking(scores, self.keys, self.column.get(ref_id) if exclude_ref else None)
        rank = int(np.flatnonzero(order == self.column[target_id])[0]) + 1
        return rank, [self.gallery_ids[j] for j in order[:top_k]]


def recall_metrics(ranks, ks=(1, 5, 10, 50)) -> dict[str, float]:
    ranks = sorted(int(r) for r in ranks)
    n = len(ranks)
    out = {f"r_at_{k}": 100.0 * sum(r <= k for r in ranks) / n for k in ks}
    mid = n // 2
    out["median_rank"] = float(ranks[mid]) if n % 2 else (ranks[mid - 1] + ranks[mid]) / 2.0
    return out
