import json
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emis import evaluation, head
from emis.data import Corpus, FeatureBank
from emis.errors import (
    ConfigError,
    DataError,
    EmptyInput,
    MissingCell,
    MissingSubset,
    NearZeroNorm,
    NonFiniteGradient,
    ShapeMismatch,
    UnknownId,
)
from emis.evaluation import (
    FASHIONIQ_CATEGORIES,
    MetricReport,
    QuerySpec,
    aggregate_suite,
    evaluate,
    median_rank,
    queries_from_triplets,
    raise_zero_norm_row,
    rank_queries,
    recall_at_k,
    round_half_up,
)
from emis.head import Flavor, HeadDims, init_params, pairwise_scores
from emis.numerics import NORM_ROWS

from conftest import refuse_matrix64, traced_peak, unit_rows
from rank_oracle import RankResult, rank_targets


def make_corpus(n_queries: int, n_gallery: int, dim: int, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    return Corpus(
        refs=FeatureBank(ids=[f"r{i:03d}" for i in range(n_queries)],
                         data=unit_rows(rng, n_queries, dim).astype(np.float32)),
        mods=FeatureBank(ids=[f"m{i:03d}" for i in range(n_queries)],
                         data=unit_rows(rng, n_queries, dim).astype(np.float32)),
        targets=FeatureBank(ids=[f"t{i:03d}" for i in range(n_gallery)],
                            data=unit_rows(rng, n_gallery, dim).astype(np.float32)),
    )


def simple_queries(corpus: Corpus, rng: np.random.Generator,
                   subset_size: int | None = None, exclude_ref=False) -> list[QuerySpec]:
    out = []
    n_gallery = corpus.targets.n
    for i, (rid, mid) in enumerate(zip(corpus.refs.ids, corpus.mods.ids)):
        gt = corpus.targets.ids[i % n_gallery]
        members = None
        if subset_size is not None:
            others = rng.choice([g for g in corpus.targets.ids if g != gt],
                                size=subset_size - 1, replace=False)
            members = tuple([gt, *others])
        out.append(QuerySpec(ref_id=rid, mod_id=mid, ground_truth=(gt,),
                             subset_members=members, exclude_ref=exclude_ref))
    return out


def full_scores(queries, corpus: Corpus, params, flavor: Flavor) -> np.ndarray:
    """The whole queries x gallery matrix from one pairwise_scores call,
    fed the raw target rows as the evaluator feeds them."""
    refs = [corpus.refs.row_of(q.ref_id) for q in queries]
    mods = [corpus.mods.row_of(q.mod_id) for q in queries]
    return pairwise_scores(corpus.refs.matrix64()[refs], corpus.mods.matrix64()[mods],
                           corpus.targets.data, params, flavor)


# -- rounding ---------------------------------------------------------------------

def test_round_half_up_cases():
    assert round_half_up(38.165) == 38.17
    assert round_half_up(43.045) == 43.05
    assert round_half_up(2.675) == 2.68
    assert round_half_up(1.005) == 1.01
    assert round_half_up(50.38) == 50.38
    assert round_half_up(0.125) == 0.13
    assert round_half_up(7.0) == 7.0


def test_round_half_up_other_precision():
    assert round_half_up(0.15, 1) == 0.2
    assert round_half_up(123.4, 0) == 123.0


# -- ranking: the sort oracle itself ----------------------------------------------

def test_rank_targets_descending_with_id_tiebreak():
    ids = ["b", "a", "c"]
    row = np.array([0.5, 0.9, 0.5])
    q = QuerySpec(ref_id="r", mod_id="m", ground_truth=("c",))
    result = rank_targets(row, q, ids)
    assert result.ordering == ["a", "b", "c"]
    assert result.rank == 3


def test_rank_targets_multiple_ground_truths_take_best():
    ids = ["a", "b", "c", "d"]
    row = np.array([0.1, 0.9, 0.5, 0.7])
    q = QuerySpec(ref_id="r", mod_id="m", ground_truth=("a", "d"))
    assert rank_targets(row, q, ids).rank == 2  # d beats a


def test_rank_targets_exclude_ref_drops_reference_row():
    ids = ["a", "b", "c"]
    row = np.array([0.9, 0.8, 0.7])
    q = QuerySpec(ref_id="a", mod_id="m", ground_truth=("c",), exclude_ref=True)
    result = rank_targets(row, q, ids)
    assert result.ordering == ["b", "c"]
    assert result.rank == 2


def test_rank_targets_errors():
    q = QuerySpec(ref_id="r", mod_id="m", ground_truth=("zz",))
    with pytest.raises(UnknownId):
        rank_targets(np.array([1.0, 2.0]), q, ["a", "b"])
    with pytest.raises(ShapeMismatch):
        rank_targets(np.array([1.0]), q, ["a", "b"])


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_rank_invariant_under_increasing_transform(seed):
    rng = np.random.default_rng(seed)
    ids = [f"g{i}" for i in range(12)]
    row = np.round(rng.standard_normal(12), 1)  # coarse grid forces ties
    q = QuerySpec(ref_id="r", mod_id="m", ground_truth=(ids[int(rng.integers(12))],))
    base = rank_targets(row, q, ids)
    shifted = rank_targets(3.0 * row + 1.0, q, ids)
    assert base.ordering == shifted.ordering
    assert base.rank == shifted.rank


def test_query_spec_validation():
    with pytest.raises(ShapeMismatch):
        QuerySpec(ref_id="r", mod_id="m", ground_truth=())
    with pytest.raises(MissingSubset):
        QuerySpec(ref_id="r", mod_id="m", ground_truth=("a",), subset_members=("b", "c"))


# -- recall and median ---------------------------------------------------------------

def test_recall_at_k_counts_percentage():
    ranks = [1, 3, 11, 2, 50]
    assert recall_at_k(ranks, 1) == 20.0
    assert recall_at_k(ranks, 10) == 60.0
    assert recall_at_k(ranks, 50) == 100.0


def test_recall_at_k_guards():
    with pytest.raises(EmptyInput):
        recall_at_k([], 5)
    with pytest.raises(ConfigError):
        recall_at_k([1, 2], 0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 500), min_size=1, max_size=60),
       st.integers(1, 200), st.integers(0, 200))
def test_recall_monotone_in_k(ranks, k, extra):
    assert recall_at_k(ranks, k) <= recall_at_k(ranks, k + extra)
    assert 0.0 <= recall_at_k(ranks, k) <= 100.0


def test_median_rank_odd_and_even():
    assert median_rank([7, 1, 3]) == 3.0
    assert median_rank([4, 1, 2, 100]) == 3.0
    with pytest.raises(EmptyInput):
        median_rank([])


# -- subset recall ---------------------------------------------------------------------

def subset_ranks(scores, queries: list[QuerySpec], gallery_ids: list[str]):
    """rank_queries(...).subset_ranks over fixed scores, one row per query."""
    corpus, patched = fixed_scores(np.array(scores, dtype=np.float64),
                                   [q.ref_id for q in queries], gallery_ids)
    with patched:
        return rank_queries(queries, corpus, init_params(HeadDims(2, 2, 2), seed=0),
                            Flavor.IMAGE_ONLY).subset_ranks


def test_recall_subset_ranks_within_members_only():
    ids = ["a", "b", "c", "d"]
    # target "d" is globally rank 4 but rank 2 inside its subset {d, a}
    row = [0.9, 0.8, 0.7, 0.1]
    q = QuerySpec(ref_id="r", mod_id="m0", ground_truth=("d",),
                  subset_members=("d", "a"))
    ranks = subset_ranks([row], [q], ids)
    assert ranks.tolist() == [2]
    assert recall_at_k(ranks, 1) == 0.0  # a (0.9) still beats d
    q2 = QuerySpec(ref_id="r", mod_id="m0", ground_truth=("d",),
                   subset_members=("d", "c"))
    # c (0.7) > d (0.1), so d is rank 2 in that subset as well
    assert recall_at_k(subset_ranks([row], [q2], ids), 2) == 100.0


def test_recall_subset_requires_subsets_and_known_members():
    bare = QuerySpec(ref_id="r", mod_id="m0", ground_truth=("a",))
    with_subset = QuerySpec(ref_id="s", mod_id="m1", ground_truth=("a",),
                            subset_members=("a", "b"))
    # one query without a subset: no subset ranks for any query
    assert subset_ranks([[0.5, 0.4]] * 2, [with_subset, bare], ["a", "b"]) is None
    q = QuerySpec(ref_id="r", mod_id="m0", ground_truth=("a",),
                  subset_members=("a", "zz"))
    with pytest.raises(UnknownId):
        subset_ranks([[0.5, 0.4]], [q], ["a", "b"])


def test_recall_subset_ground_truth_eaten_by_exclude_ref():
    # "a" is both the reference and the subset's only ground truth; "c"
    # is a ground truth outside the subset, so only the subset rank fails
    q = QuerySpec(ref_id="a", mod_id="m0", ground_truth=("a", "c"),
                  subset_members=("a", "b"), exclude_ref=True)
    with pytest.raises(MissingSubset):
        subset_ranks([[0.5, 0.4, 0.3]], [q], ["a", "b", "c"])


# -- evaluate end to end -----------------------------------------------------------------

def test_evaluate_reports_all_metrics_and_matches_rank_targets():
    corpus = make_corpus(10, 30, 8, seed=0)
    rng = np.random.default_rng(1)
    queries = simple_queries(corpus, rng, subset_size=4)
    params = init_params(HeadDims(8, 8, 8), seed=0)
    report = evaluate(queries, corpus, params, Flavor.ARTEMIS)
    for key in ("r_at_1", "r_at_5", "r_at_10", "r_at_50", "median_rank",
                "r_subset_at_1", "r_subset_at_2", "r_subset_at_3",
                "mean_recall", "combined"):
        assert key in report.metrics
    assert report.n_queries == 10
    assert report.label == "artemis"

    matrix = full_scores(queries, corpus, params, Flavor.ARTEMIS)
    ranks = [rank_targets(matrix[i], q, corpus.targets.ids).rank
             for i, q in enumerate(queries)]
    for k in (1, 5, 10, 50):
        assert report.metrics[f"r_at_{k}"] == recall_at_k(ranks, k)
    assert report.metrics["median_rank"] == median_rank(ranks)
    assert report.metrics["mean_recall"] == pytest.approx(
        (report.metrics["r_at_1"] + report.metrics["r_at_10"]
         + report.metrics["r_at_50"]) / 3.0)
    assert report.metrics["combined"] == pytest.approx(
        (report.metrics["r_at_5"] + report.metrics["r_subset_at_1"]) / 2.0)


def test_evaluate_skips_subset_metrics_when_any_query_lacks_one():
    corpus = make_corpus(4, 12, 6, seed=3)
    rng = np.random.default_rng(3)
    queries = simple_queries(corpus, rng, subset_size=3)
    bare = QuerySpec(ref_id=queries[0].ref_id, mod_id=queries[0].mod_id,
                     ground_truth=queries[0].ground_truth)
    params = init_params(HeadDims(6, 6, 6), seed=0)
    report = evaluate([*queries[1:], bare], corpus, params, Flavor.IS_ONLY)
    assert "r_subset_at_1" not in report.metrics
    assert "combined" not in report.metrics


def test_evaluate_worker_count_does_not_change_output():
    corpus = make_corpus(23, 40, 8, seed=5)
    rng = np.random.default_rng(5)
    queries = simple_queries(corpus, rng)
    params = init_params(HeadDims(8, 8, 8), seed=1)
    lone = evaluate(queries, corpus, params, Flavor.ARTEMIS, block_size=7, workers=1)
    pooled = evaluate(queries, corpus, params, Flavor.ARTEMIS, block_size=7, workers=4)
    assert lone.to_json() == pooled.to_json()
    assert lone.metrics == pooled.metrics


def test_evaluate_block_size_value_agreement():
    corpus = make_corpus(17, 25, 8, seed=6)
    rng = np.random.default_rng(6)
    queries = simple_queries(corpus, rng)
    params = init_params(HeadDims(8, 8, 8), seed=2)
    a, b = (rank_queries(queries, corpus, params, Flavor.ARTEMIS, block_size=size,
                         dump_top_k=25)
            for size in (5, 17))
    assert a.ranks.tolist() == b.ranks.tolist()
    top_a, top_b = ([json.loads(line)["top"] for line in r.dump_lines] for r in (a, b))
    assert [[e["id"] for e in top] for top in top_a] == [[e["id"] for e in top] for top in top_b]
    np.testing.assert_allclose([[e["score"] for e in top] for top in top_a],
                               [[e["score"] for e in top] for top in top_b], atol=1e-10)


@pytest.mark.parametrize("flavor", list(Flavor), ids=[f.value for f in Flavor])
def test_outputs_do_not_depend_on_block_size_or_workers(tmp_path, flavor):
    """Dump bytes, metrics JSON and subset ranks over a gallery of three
    tiles are the same at every block size and worker count."""
    n_queries, dim = 20, 8
    corpus = make_corpus(n_queries, 2 * head.SCORE_TILE + 5, dim, seed=12)
    queries = simple_queries(corpus, np.random.default_rng(12), subset_size=6)
    params = init_params(HeadDims(dim, dim, dim), seed=12)
    seen = set()
    for block_size in (1, 3, 7, 256):
        for workers in (1, 2):
            dump = tmp_path / f"{block_size}-{workers}.jsonl"
            report = evaluate(queries, corpus, params, flavor, block_size=block_size,
                              workers=workers, dump_path=dump, dump_top_k=10)
            subsets = rank_queries(queries, corpus, params, flavor, block_size,
                                   workers).subset_ranks
            seen.add((dump.read_bytes(), report.to_json(), tuple(subsets.tolist())))
    assert len(seen) == 1


@pytest.mark.parametrize("flavor", list(Flavor), ids=[f.value for f in Flavor])
def test_exclude_ref_in_a_later_tile_within_the_band_and_the_top_k(flavor):
    """Each query's reference is a gallery row in the last tile with the
    same embedding as its ground truth, in the first tile: the two score
    alike, so the reference sits within the ground truth's screen band and
    in its top k, with a lower id. Excluding it matches the sort oracle on
    the float64 scores: ranks, subset ranks and dump lines."""
    n_queries, dim = 48, 8
    n_gallery = 2 * head.SCORE_TILE + 48   # tiles of multiples of 8 columns
    rng = np.random.default_rng(13)
    targets = unit_rows(rng, n_gallery, dim).astype(np.float32)
    gallery_ids = [f"t{i:05d}" for i in range(n_gallery)]
    truth_cols = list(range(n_queries))
    ref_cols = list(range(n_gallery - n_queries, n_gallery))
    for i in range(n_queries):
        targets[ref_cols[i]] = targets[truth_cols[i]]
        gallery_ids[ref_cols[i]] = f"a{i:05d}"   # orders before its ground truth
    corpus = Corpus(refs=FeatureBank(ids=[gallery_ids[c] for c in ref_cols],
                                     data=targets[ref_cols]),
                    mods=FeatureBank(ids=[f"m{i}" for i in range(n_queries)],
                                     data=unit_rows(rng, n_queries, dim).astype(np.float32)),
                    targets=FeatureBank(ids=gallery_ids, data=targets))
    queries = [QuerySpec(ref_id=gallery_ids[ref_cols[i]], mod_id=f"m{i}",
                         ground_truth=(gallery_ids[truth_cols[i]],),
                         subset_members=tuple(gallery_ids[c] for c in
                                              (truth_cols[i], ref_cols[i], 100 + i, 2100 + i)),
                         exclude_ref=True)
               for i in range(n_queries)]
    params = init_params(HeadDims(dim, dim, dim), seed=13)
    scores = full_scores(queries, corpus, params, flavor)
    margin = head.screen_margin(dim)
    rows = np.arange(n_queries)
    assert np.all(np.abs(scores[rows, ref_cols] - scores[rows, truth_cols]) <= margin)
    got = rank_queries(queries, corpus, params, flavor, dump_top_k=10)
    for i, (q, line) in enumerate(zip(queries, got.dump_lines)):
        expected = rank_targets(scores[i], q, gallery_ids)
        assert got.ranks[i] == expected.rank
        assert got.subset_ranks[i] == oracle_rank(scores[i], q, gallery_ids,
                                                  q.subset_members).rank
        unexcluded = rank_targets(scores[i], replace(q, exclude_ref=False), gallery_ids)
        if unexcluded.ordering.index(q.ref_id) < 10:   # the reference was in the top k
            assert q.ref_id not in [e["id"] for e in json.loads(line)["top"]]
        assert line == json.dumps({
            "query": i, "ref": q.ref_id, "mod": q.mod_id, "rank": expected.rank,
            "top": [{"id": g, "score": float(scores[i, corpus.targets.row_of(g)])}
                    for g in expected.ordering[:10]],
        }, sort_keys=True)


def test_evaluate_dump_lines(tmp_path):
    corpus = make_corpus(6, 15, 6, seed=7)
    rng = np.random.default_rng(7)
    queries = simple_queries(corpus, rng)
    params = init_params(HeadDims(6, 6, 6), seed=3)
    dump = tmp_path / "top.jsonl"
    report = evaluate(queries, corpus, params, Flavor.LATE_FUSION,
                      dump_path=dump, dump_top_k=4)
    lines = [json.loads(l) for l in dump.read_text().splitlines()]
    assert len(lines) == 6
    matrix = full_scores(queries, corpus, params, Flavor.LATE_FUSION)
    for i, obj in enumerate(lines):
        assert obj["query"] == i
        assert len(obj["top"]) == 4
        expected = rank_targets(matrix[i], queries[i], corpus.targets.ids)
        assert [e["id"] for e in obj["top"]] == expected.ordering[:4]
        assert [e["score"] for e in obj["top"]] == [
            matrix[i, corpus.targets.row_of(e["id"])] for e in obj["top"]]
        assert obj["rank"] == expected.rank
    assert report.metrics["r_at_1"] == recall_at_k(
        [o["rank"] for o in lines], 1)


def test_evaluate_normalizes_gallery_rows_only_in_prepare_gallery(tmp_path, monkeypatch):
    corpus = make_corpus(6, 15, 6, seed=7)
    queries = simple_queries(corpus, np.random.default_rng(7))
    params = init_params(HeadDims(6, 6, 6), seed=3)
    expected = evaluate(queries, corpus, params, Flavor.ARTEMIS,
                        dump_path=tmp_path / "a.jsonl")
    refuse_matrix64(monkeypatch)
    for bank in (corpus.refs, corpus.mods, corpus.targets):
        with pytest.raises(AssertionError):
            bank.matrix64()
    report = evaluate(queries, corpus, params, Flavor.ARTEMIS,
                      dump_path=tmp_path / "b.jsonl")
    assert report.to_json() == expected.to_json()
    assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()


@pytest.mark.parametrize("block_size", [64, 32], ids=["one-block", "two-blocks"])
def test_evaluate_holds_no_float64_gallery_or_score_block(block_size):
    """Ranking reads the float32 bank rows and their norms tile by tile, so a
    call's peak stays below half a float64 gallery (G x D x 4 bytes, the
    bank's own size) and below one block's float64 scores (Q x G x 8
    bytes): it holds neither a copy of the gallery in any dtype nor a
    (Q, G) float64 block. Either call prepares the gallery once, and both
    report the same metrics."""
    n_queries, n_gallery, dim = 64, 40000, 64
    corpus = make_corpus(n_queries, n_gallery, dim, seed=9)
    queries = simple_queries(corpus, np.random.default_rng(9))
    params = init_params(HeadDims(dim, dim, dim), seed=4)
    with mock.patch.object(head, "prepare_gallery", wraps=head.prepare_gallery) as prepare:
        report, peak = traced_peak(lambda: evaluate(queries, corpus, params, Flavor.ARTEMIS,
                                                    block_size=block_size))
    assert prepare.call_count == 1
    assert peak < min(n_gallery * dim * 4, block_size * n_gallery * 8)
    assert report.to_json() == evaluate(queries, corpus, params, Flavor.ARTEMIS).to_json()


@pytest.mark.parametrize("block_size", [8, 3], ids=["one-block", "three-blocks"])
@pytest.mark.parametrize("bad", [0.0, 1e-14, np.nan])
def test_degenerate_target_row_raises_naming_it(block_size, bad):
    corpus = make_corpus(8, 30, 6, seed=10)
    corpus.targets.data[17] = bad
    queries = simple_queries(corpus, np.random.default_rng(10))
    params = init_params(HeadDims(6, 6, 6), seed=5)
    with pytest.raises(NearZeroNorm, match=r"^targets bank row 17 \(id 't017'\) has norm "):
        evaluate(queries, corpus, params, Flavor.ARTEMIS, block_size=block_size)


def test_evaluate_empty_queries():
    corpus = make_corpus(2, 5, 4, seed=8)
    params = init_params(HeadDims(4, 4, 4), seed=0)
    with pytest.raises(EmptyInput):
        evaluate([], corpus, params, Flavor.IMAGE_ONLY)
    with pytest.raises(EmptyInput):
        rank_queries([], corpus, params, Flavor.IMAGE_ONLY)


# -- the streaming ranker against the sort oracle -----------------------------------------

class FixedScores:
    """A stand-in for ``evaluation.BlockScores`` over the exact scores of a block.

    A screened tile is the exact scores offset by ``offsets`` (entries
    +margin, -margin or 0), the widest screen the ranker must accept; a
    non-finite exact score keeps its value, and unscreened tiles are exact.
    """

    def __init__(self, exact: np.ndarray, offsets: np.ndarray, margin: float):
        self.scores, self.offsets, self.margin = exact, offsets, margin

    def tile(self, lo, hi, screened):
        exact = self.scores[:, lo:hi]
        if not screened:
            return exact.copy()
        return np.where(np.isfinite(exact), exact + self.offsets[:, lo:hi], exact)

    def exact(self, rows, cols):
        return self.scores[rows, cols]


def fixed_scores(scores: np.ndarray, ref_ids: list[str], gallery_ids: list[str],
                 offsets: np.ndarray | None = None, margin: float = 0.0):
    """A corpus plus a stand-in for ``evaluation.block_scores`` that scores
    from ``scores`` with screens ``scores + offsets``.

    Reference row i is (1, i), so the stand-in reads each block's query
    indices back from the normalized rows it is given.
    """
    n_queries, n_gallery = scores.shape
    offsets = np.zeros_like(scores) if offsets is None else offsets
    rng = np.random.default_rng(0)
    corpus = Corpus(
        refs=FeatureBank(ids=ref_ids, data=np.array([[1.0, i] for i in range(n_queries)],
                                                     dtype=np.float32)),
        mods=FeatureBank(ids=[f"m{i}" for i in range(n_queries)],
                         data=unit_rows(rng, n_queries, 2).astype(np.float32)),
        targets=FeatureBank(ids=gallery_ids,
                            data=unit_rows(rng, n_gallery, 2).astype(np.float32)),
    )

    def stand_in(r_rows, m_rows, gallery, params, flavor):
        rows = np.rint(r_rows[:, 1] / r_rows[:, 0]).astype(int)
        return FixedScores(scores[rows], offsets[rows], margin)

    return corpus, mock.patch.object(evaluation, "block_scores", stand_in)


def oracle_rank(row, query: QuerySpec, gallery_ids: list[str], members=None) -> RankResult:
    """rank_targets over the whole gallery, or over ``members`` only."""
    if members is None:
        return rank_targets(row, query, gallery_ids)
    cols = [i for i, g in enumerate(gallery_ids) if g in set(members)]
    return rank_targets(row[cols], query, [gallery_ids[c] for c in cols])


SCORE_VALUES = (-np.inf, -1.0, -0.0, 0.0, 5e-324, 0.25, 0.25 + 2 ** -50, 1.0, 1e16, np.inf)
# id characters: a plain one, then ones a JSON dump line must escape
ID_CHARS = 'g"\\\x01\u00e9\u2028'


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_streaming_ranker_matches_sort_oracle(data):
    # up to 40 columns, so top-k segments hold several columns and need not
    # divide the gallery
    n_gallery = data.draw(st.integers(1, 40), label="gallery")
    n_queries = data.draw(st.integers(1, 7), label="queries")
    # drawn ids, so the id tie-break differs from column order
    gallery_ids = data.draw(st.lists(st.text(ID_CHARS, max_size=3), min_size=n_gallery,
                                     max_size=n_gallery, unique=True), label="ids")
    # heavy ties (few distinct values), +-inf, and k-th-boundary ties follow
    scores = np.array(data.draw(st.lists(
        st.lists(st.sampled_from(SCORE_VALUES), min_size=n_gallery, max_size=n_gallery),
        min_size=n_queries, max_size=n_queries), label="scores"), dtype=np.float64)
    exclude_ref = data.draw(st.booleans(), label="exclude_ref")
    with_subsets = data.draw(st.booleans(), label="with_subsets")
    ref_ids, queries = [], []
    for i in range(n_queries):
        # some references are gallery items, so exclude_ref removes a column
        in_gallery = data.draw(st.booleans())
        ref = gallery_ids[data.draw(st.integers(0, n_gallery - 1))] if in_gallery else f"x{i}"
        ref = ref if ref not in ref_ids else f"x{i}"
        truth = tuple(sorted(data.draw(st.sets(st.sampled_from(gallery_ids), min_size=1,
                                               max_size=2))))
        members = None
        if with_subsets:
            # a list, so members may repeat: each must still count once
            members = tuple(data.draw(st.lists(st.sampled_from(gallery_ids), max_size=5))
                            + [truth[0]])
        ref_ids.append(ref)
        queries.append(QuerySpec(ref_id=ref, mod_id=f"m{i}", ground_truth=truth,
                                 subset_members=members, exclude_ref=exclude_ref))
    top_k = data.draw(st.integers(0, n_gallery + 2), label="top_k")
    block_size = data.draw(st.sampled_from([1, 3, n_queries + 5]), label="block_size")
    workers = data.draw(st.sampled_from([1, 2]), label="workers")
    # Screens off by exactly +-margin or 0: a margin of 0.5 puts most of the
    # value pool within one band, the production one mostly ties.
    margin = data.draw(st.sampled_from([head.screen_margin(2), 0.5]), label="margin")
    offsets = margin * np.array(data.draw(st.lists(
        st.lists(st.sampled_from([-1, 0, 1]), min_size=n_gallery, max_size=n_gallery),
        min_size=n_queries, max_size=n_queries), label="offsets"), dtype=np.float64)

    corpus, patched = fixed_scores(scores, ref_ids, gallery_ids, offsets, margin)
    params = init_params(HeadDims(2, 2, 2), seed=0)
    try:
        expected = [oracle_rank(scores[i], q, gallery_ids) for i, q in enumerate(queries)]
        expected_subset = ([oracle_rank(scores[i], q, gallery_ids, q.subset_members).rank
                            for i, q in enumerate(queries)] if with_subsets else None)
    except UnknownId:
        # every ground truth of some query is its excluded reference
        with patched, pytest.raises(DataError):
            rank_queries(queries, corpus, params, Flavor.IMAGE_ONLY, block_size, workers,
                         dump_top_k=top_k)
        return
    with patched:
        got = rank_queries(queries, corpus, params, Flavor.IMAGE_ONLY, block_size, workers,
                           dump_top_k=top_k)

    assert got.ranks.tolist() == [e.rank for e in expected]
    if with_subsets:
        assert got.subset_ranks.tolist() == expected_subset
    else:
        assert got.subset_ranks is None
    index = {g: j for j, g in enumerate(gallery_ids)}
    assert len(got.dump_lines) == n_queries
    for i, (line, e) in enumerate(zip(got.dump_lines, expected)):
        top = e.ordering[:top_k]
        assert line == json.dumps({
            "query": i, "ref": queries[i].ref_id, "mod": queries[i].mod_id, "rank": e.rank,
            "top": [{"id": g, "score": float(scores[i, index[g]])} for g in top],
        }, sort_keys=True)


@pytest.mark.parametrize("workers", [1, 2])
def test_nan_score_raises_naming_the_query(workers):
    scores = np.array([[0.1, 0.2, 0.3]] * 5)
    scores[3, 1] = np.nan
    scores[4, 0] = np.inf     # +-inf stay legal
    scores[4, 2] = -np.inf
    ids = ["a", "b", "c"]
    corpus, patched = fixed_scores(scores, [f"r{i}" for i in range(5)], ids)
    params = init_params(HeadDims(2, 2, 2), seed=0)
    queries = [QuerySpec(ref_id=f"r{i}", mod_id=f"m{i}", ground_truth=("b",))
               for i in range(5)]
    with patched, pytest.raises(NonFiniteGradient, match=r"query 3 \(r3, m3\)"):
        evaluate(queries, corpus, params, Flavor.IMAGE_ONLY, block_size=2, workers=workers)
    with patched:
        ranks = rank_queries(queries[4:], corpus, params, Flavor.IMAGE_ONLY).ranks
    assert ranks.tolist() == [2]


def test_negative_top_k_is_a_config_error(tmp_path):
    corpus = make_corpus(2, 5, 4, seed=8)
    params = init_params(HeadDims(4, 4, 4), seed=0)
    queries = simple_queries(corpus, np.random.default_rng(0))
    with pytest.raises(ConfigError):
        evaluate(queries, corpus, params, Flavor.IMAGE_ONLY,
                 dump_path=tmp_path / "d.jsonl", dump_top_k=-1)


def test_queries_from_triplets_attaches_subsets(default_synth):
    corpus, triplets, _ = default_synth
    queries = queries_from_triplets(triplets, "test")
    assert len(queries) == len(triplets.split("test"))
    assert all(q.subset_members is not None for q in queries)
    assert all(q.ground_truth[0] in q.subset_members for q in queries)
    flagged = queries_from_triplets(triplets, "test", exclude_ref=True)
    assert all(q.exclude_ref for q in flagged)


# -- reports and aggregation ---------------------------------------------------------------

def test_metric_report_json_and_text():
    report = MetricReport(label="demo", metrics={"r_at_10": 26.054, "r_at_50": 50.285},
                          n_queries=3)
    body = json.loads(report.to_json())
    assert body["metrics"] == {"r_at_10": 26.05, "r_at_50": 50.29}  # .285 rounds half-up
    text = report.to_text()
    assert "demo" in text and "r_at_10" in text


def test_fashioniq_aggregate_means_six_cells():
    table = {cat: {"r_at_10": 10.0 * (i + 1), "r_at_50": 20.0 * (i + 1)}
             for i, cat in enumerate(FASHIONIQ_CATEGORIES)}
    report = aggregate_suite(table, "fashioniq")
    cells = [10.0, 20.0, 20.0, 40.0, 30.0, 60.0]
    assert report.aggregate == pytest.approx(np.mean(cells))
    assert report.convention == "fashioniq"
    with pytest.raises(MissingCell):
        aggregate_suite({"dress": {"r_at_10": 1.0, "r_at_50": 2.0}}, "fashioniq")


def test_shoes_and_cirr_aggregates():
    shoes = aggregate_suite({"r_at_1": 18.72, "r_at_10": 53.11, "r_at_50": 79.31},
                            "shoes")
    assert round_half_up(shoes.aggregate) == 50.38
    cirr = aggregate_suite({"r_at_5": 46.10, "r_subset_at_1": 39.99}, "cirr")
    assert round_half_up(cirr.aggregate) == 43.05
    with pytest.raises(MissingCell):
        aggregate_suite({"r_at_5": 1.0}, "cirr")
    with pytest.raises(ConfigError):
        aggregate_suite({}, "imagenet")


def test_raise_zero_norm_row_names_the_first_degenerate_row():
    ones = np.ones((4, 2), dtype=np.float32)
    refs, mods = ones.copy(), ones.copy()
    refs[1] = 0.0
    mods[3] = 1e-13
    corpus = Corpus(refs=FeatureBank(ids=[f"r{i}" for i in range(4)], data=refs),
                    mods=FeatureBank(ids=[f"m{i}" for i in range(4)], data=mods),
                    targets=FeatureBank(ids=[f"t{i}" for i in range(4)], data=ones))
    rows = {"refs": np.array([3, 1]), "mods": np.array([0, 3])}
    with pytest.raises(NearZeroNorm, match=r"^refs bank row 1 \(id 'r1'\) has norm 0\.0$"):
        raise_zero_norm_row(corpus, **rows)
    # Every bank asked about is checked: no flavor skips the modifiers.
    with pytest.raises(NearZeroNorm, match=r"^mods bank row 3 \(id 'm3'\) has norm "):
        raise_zero_norm_row(corpus, refs=np.array([0, 2]), mods=np.array([0, 3]))
    queries = [QuerySpec(f"r{i}", f"m{i}", ("t0",)) for i in range(4)]
    with pytest.raises(NearZeroNorm, match=r"^query 3 \(r3, m3\): mods bank row 3 "):
        raise_zero_norm_row(corpus, queries, 2, refs=np.array([2, 3]), mods=np.array([2, 3]))
    assert raise_zero_norm_row(corpus, refs=np.array([0, 2]), targets=np.arange(4)) is None


def test_raise_zero_norm_row_over_a_gallery_peaks_within_one_float64_copy_plus_chunks():
    n, dim = 4 * NORM_ROWS + 5, 64
    targets = np.random.default_rng(6).standard_normal((n, dim)).astype(np.float32)
    targets[NORM_ROWS + 3] = 0.0
    small = np.ones((1, dim), dtype=np.float32)
    corpus = Corpus(refs=FeatureBank(ids=["r0"], data=small),
                    mods=FeatureBank(ids=["m0"], data=small),
                    targets=FeatureBank(ids=[f"t{i}" for i in range(n)], data=targets))
    picked = np.arange(n)

    def raise_it():
        with pytest.raises(NearZeroNorm, match=rf"^targets bank row {NORM_ROWS + 3} "):
            raise_zero_norm_row(corpus, targets=picked)

    _, peak = traced_peak(raise_it)
    assert peak <= n * dim * 8 + n * 8 + 2 * NORM_ROWS * dim * 8
