"""Self-tests of the benchmark's own arithmetic and reference.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import spans  # noqa: E402
from emis.data import Corpus, FeatureBank, write_feature_bank  # noqa: E402
from emis.evaluation import QuerySpec, evaluate  # noqa: E402
from emis.head import Flavor, HeadDims, init_params, save_checkpoint  # noqa: E402


# -- span self-time arithmetic ------------------------------------------------------

def test_self_time_subtracts_union_of_children():
    tree = [
        spans.Span("root", 0.0, 10.0),
        spans.Span("a", 1.0, 4.0, parent=0),
        spans.Span("b", 3.0, 6.0, parent=0),         # overlaps a: counted once
        spans.Span("a.child", 2.0, 3.0, parent=1),
        spans.Span("c", 9.0, 12.0, parent=0),         # runs past root: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1, 2, 3, 1, 3])


def test_self_times_sum_to_root_duration_for_nested_calls():
    tree = [spans.Span("root", 0.0, 8.0), spans.Span("x", 1.0, 5.0, parent=0),
            spans.Span("y", 2.0, 3.0, parent=1), spans.Span("z", 6.0, 7.5, parent=0)]
    assert sum(spans.self_times(tree)) == pytest.approx(8.0)
    assert spans.subtree(tree, 1) == [1, 2]
    assert spans.has_ancestor(tree, 2, "root") and not spans.has_ancestor(tree, 0, "root")


def test_tracer_records_nesting_only_while_enabled_and_restores():
    ns = types.SimpleNamespace(inner=lambda x: x + 1)
    ns.outer = lambda x: ns.inner(x) * 2
    tracer = spans.Tracer()
    tracer.wrap(ns, "inner", "inner", lambda x: {"x": x})
    tracer.wrap(ns, "outer", "outer")
    assert ns.outer(1) == 4 and tracer.spans == []
    tracer.enabled = True
    assert ns.outer(2) == 6
    assert [(s.name, s.parent, s.info) for s in tracer.spans] == [("outer", None, {}),
                                                                  ("inner", 0, {"x": 2})]
    tracer.restore()
    assert ns.outer(3) == 8 and len(tracer.spans) == 2


# -- the tail-percentile rule ----------------------------------------------------------

@pytest.mark.parametrize("n, q", [(0, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0),
                                  (99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
                                  (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    assert spans.tail_percentile(n) == q


def test_distribution_matches_numpy_percentiles():
    values = list(np.random.default_rng(3).exponential(size=257))
    dist = spans.distribution(values)
    assert dist["n"] == 257 and dist["tail_q"] == 95.0
    assert dist["p50"] == pytest.approx(np.percentile(values, 50))
    assert dist["tail"] == pytest.approx(np.percentile(values, 95))
    assert spans.distribution([]) == {"p50": 0.0, "tail": 0.0, "tail_q": 0.0, "n": 0}


# -- the reference ranker against emis.evaluation.evaluate ------------------------------

def _write_corpus(tmp_path: Path, refs, mods, targets):
    paths = {}
    for name, (ids, rows) in (("refs", refs), ("mods", mods), ("targets", targets)):
        paths[name] = tmp_path / f"{name}.afb"
        write_feature_bank(FeatureBank(ids=list(ids), data=np.asarray(rows)), paths[name])
    return paths


def _compare(tmp_path, paths, queries, flavor, params=None):
    """evaluate's dump and metrics against the reference, query by query."""
    corpus = Corpus.load(paths["refs"], paths["mods"], paths["targets"])
    dims = HeadDims(corpus.mods.dim, corpus.targets.dim, corpus.targets.dim)
    params = params or init_params(dims, 0)
    checkpoint = tmp_path / "head.ahp"
    save_checkpoint(params, checkpoint)
    dump = tmp_path / "dump.jsonl"
    report = evaluate(queries, corpus, params, flavor, dump_path=dump, dump_top_k=5)
    oracle = ref.Reference(paths["refs"], paths["mods"], paths["targets"], checkpoint)
    ranks = []
    for query, line in zip(queries, dump.read_text().splitlines()):
        rank, top = oracle.rank(query.ref_id, query.mod_id, query.ground_truth[0],
                                flavor.value, query.exclude_ref, top_k=5)
        entry = json.loads(line)
        assert entry["rank"] == rank
        assert [e["id"] for e in entry["top"]] == top
        ranks.append(rank)
    for key, value in ref.recall_metrics(ranks).items():
        assert report.metrics[key] == value


def test_reference_matches_evaluate_under_heavy_ties(tmp_path):
    eye = np.eye(4, dtype=np.float32)
    diag = (eye[0] + eye[1]) / np.sqrt(2.0)
    # Many exact duplicates, ids deliberately out of order, one reference
    # image inside the gallery so exclude_ref changes ranks.
    gallery_rows = [eye[0], eye[1], eye[0], diag, eye[0], eye[2], diag, eye[1], eye[0], eye[3]]
    gallery_ids = ["g7", "g3", "g9", "g1", "r0", "g5", "g0", "g8", "g2", "g6"]
    paths = _write_corpus(tmp_path, (["r0", "r1"], [eye[0], eye[1]]),
                          (["m0", "m1"], [eye[0], eye[1]]), (gallery_ids, gallery_rows))
    queries = [QuerySpec("r0", "m0", ("g9",)), QuerySpec("r0", "m0", ("g2",), exclude_ref=True),
               QuerySpec("r0", "m0", ("g0",)), QuerySpec("r1", "m1", ("g8",)),
               QuerySpec("r1", "m1", ("g6",)), QuerySpec("r0", "m1", ("g1",), exclude_ref=True)]
    _compare(tmp_path, paths, queries, Flavor.LATE_FUSION)


def test_reference_matches_evaluate_for_artemis(tmp_path):
    rng = np.random.default_rng(11)
    dim, n_gallery = 16, 40
    paths = _write_corpus(
        tmp_path,
        ([f"r{i}" for i in range(6)], rng.standard_normal((6, dim))),
        ([f"m{i}" for i in range(6)], rng.standard_normal((6, dim))),
        ([f"t{i:02d}" for i in rng.permutation(n_gallery)], rng.standard_normal((n_gallery, dim))))
    queries = [QuerySpec(f"r{i}", f"m{i}", (f"t{3 * i:02d}",)) for i in range(6)]
    _compare(tmp_path, paths, queries, Flavor.ARTEMIS, init_params(HeadDims(dim, dim, dim), 5))
