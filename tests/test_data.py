import hashlib
import json
import struct

import numpy as np
import pytest

from emis.data import (
    SUBSET_SIZE,
    Corpus,
    FeatureBank,
    SynthSpec,
    TripletRecord,
    TripletSet,
    generate_synthetic,
    ids_sidecar,
    load_triplets,
    read_feature_bank,
    write_feature_bank,
    write_triplets,
)
from emis.errors import (
    BadMagic,
    BadSplit,
    DataError,
    DuplicateId,
    MissingSubset,
    NearZeroNorm,
    NonFiniteData,
    ShapeMismatch,
    SpecInvalid,
    TruncatedFile,
    UnknownId,
)

from conftest import corruptions

GOLDEN_BANK_HEX = "414642310100000001000000020000000000003f000080bf"


def small_spec(**overrides):
    base = dict(n_train=50, n_eval=6, n_val=2, gallery_size=250, seed=0)
    base.update(overrides)
    return SynthSpec(**base)


# -- FeatureBank -------------------------------------------------------------------

def test_bank_validation():
    with pytest.raises(DuplicateId):
        FeatureBank(ids=["a", "a"], data=np.zeros((2, 3), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        FeatureBank(ids=["a"], data=np.zeros(3, dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        FeatureBank(ids=["a", "b"], data=np.zeros((3, 2), dtype=np.float32))
    with pytest.raises(ShapeMismatch):
        FeatureBank(ids=["a"], data=np.array([[np.nan, 1.0]], dtype=np.float32))


def test_bank_lookup_and_rows():
    bank = FeatureBank(ids=["x", "y"], data=np.array([[3.0, 4.0], [1.0, 0.0]],
                                                     dtype=np.float32))
    assert bank.n == 2 and bank.dim == 2
    assert bank.row_of("y") == 1
    with pytest.raises(UnknownId):
        bank.row_of("zz")


def test_matrix64_normalizes_and_rejects_zero_rows():
    bank = FeatureBank(ids=["x", "y"], data=np.array([[3.0, 4.0], [1.0, 0.0]],
                                                     dtype=np.float32))
    mat = bank.matrix64()
    assert mat.dtype == np.float64
    np.testing.assert_allclose(mat, [[0.6, 0.8], [1.0, 0.0]], atol=1e-7)
    for bad_row in ([0.0, 0.0], [1e-13, 0.0]):
        degenerate = FeatureBank(ids=["a", "z"], data=np.array([[2.0, 0.0], bad_row],
                                                               dtype=np.float32))
        with pytest.raises(NearZeroNorm, match="row to normalize has norm"):
            degenerate.matrix64()


# -- AFB1 format -------------------------------------------------------------------

def test_bank_golden_bytes(tmp_path):
    bank = FeatureBank(ids=["a"], data=np.array([[0.5, -1.0]], dtype=np.float32))
    path = tmp_path / "one.afb"
    write_feature_bank(bank, path)
    raw = path.read_bytes()
    assert len(raw) == 24  # 16 header bytes + 8 payload bytes
    assert raw == bytes.fromhex(GOLDEN_BANK_HEX)
    sidecar = json.loads((tmp_path / "one.afb.ids.jsonl").read_text())
    assert sidecar == {"row": 0, "id": "a"}


def test_bank_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(0)
    bank = FeatureBank(ids=[f"id{i:04d}" for i in range(100)],
                       data=rng.standard_normal((100, 512)).astype(np.float32))
    path = tmp_path / "big.afb"
    write_feature_bank(bank, path)
    loaded = read_feature_bank(path)
    assert loaded.ids == bank.ids
    assert loaded.data.tobytes() == bank.data.tobytes()
    write_feature_bank(loaded, tmp_path / "copy.afb")
    assert (tmp_path / "copy.afb").read_bytes() == path.read_bytes()
    assert (ids_sidecar(tmp_path / "copy.afb").read_text()
            == ids_sidecar(path).read_text())


def test_bank_corrupted_magic(tmp_path):
    bank = FeatureBank(ids=["a"], data=np.ones((1, 2), dtype=np.float32))
    path = tmp_path / "bank.afb"
    write_feature_bank(bank, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"JUNK"
    path.write_bytes(bytes(raw))
    with pytest.raises(BadMagic):
        read_feature_bank(path)


def test_bank_truncated_and_trailing(tmp_path):
    bank = FeatureBank(ids=["a", "b"], data=np.ones((2, 3), dtype=np.float32))
    path = tmp_path / "bank.afb"
    write_feature_bank(bank, path)
    raw = path.read_bytes()
    short = tmp_path / "short.afb"
    short.write_bytes(raw[:-2])
    (tmp_path / "short.afb.ids.jsonl").write_text(ids_sidecar(path).read_text())
    with pytest.raises(TruncatedFile):
        read_feature_bank(short)
    longer = tmp_path / "long.afb"
    longer.write_bytes(raw + b"\x00\x00")
    (tmp_path / "long.afb.ids.jsonl").write_text(ids_sidecar(path).read_text())
    with pytest.raises(TruncatedFile):
        read_feature_bank(longer)


def test_bank_sidecar_must_match(tmp_path):
    bank = FeatureBank(ids=["a", "b"], data=np.ones((2, 2), dtype=np.float32))
    path = tmp_path / "bank.afb"
    write_feature_bank(bank, path)
    sidecar = ids_sidecar(path)
    sidecar.write_text('{"row": 0, "id": "a"}\n')  # one row short
    with pytest.raises(DataError):
        read_feature_bank(path)
    sidecar.write_text('{"row": 1, "id": "a"}\n{"row": 0, "id": "b"}\n')
    with pytest.raises(DataError):
        read_feature_bank(path)


def test_bank_non_finite_payload_names_the_row(tmp_path):
    bank = FeatureBank(ids=["a", "b", "c"], data=np.ones((3, 2), dtype=np.float32))
    path = tmp_path / "bank.afb"
    write_feature_bank(bank, path)
    raw = bytearray(path.read_bytes())
    raw[16 + 4 * 3:16 + 4 * 4] = struct.pack("<f", float("nan"))  # row 1, column 1
    path.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteData, match=r"bank\.afb: row 1 \(id 'b'\)"):
        read_feature_bank(path)


def test_bank_sidecar_not_utf8(tmp_path):
    bank = FeatureBank(ids=["a"], data=np.ones((1, 2), dtype=np.float32))
    path = tmp_path / "bank.afb"
    write_feature_bank(bank, path)
    ids_sidecar(path).write_bytes(b'{"row": 0, "id": "\xff"}\n')
    with pytest.raises(TruncatedFile, match="UTF-8"):
        read_feature_bank(path)


def test_bank_reader_corruption_fuzz(tmp_path):
    bank = FeatureBank(ids=["a", "b", "c"],
                       data=np.arange(6, dtype=np.float32).reshape(3, 2) + 1.0)
    path = tmp_path / "bank.afb"
    write_feature_bank(bank, path)
    raw = path.read_bytes()
    cases = list(corruptions(raw, {"version": 4, "rows": 8, "dim": 12},
                             nan_at=len(raw) - 4, nan_format="<f"))
    assert len(cases) > len(raw)
    sidecar = ids_sidecar(path)
    text = sidecar.read_text(encoding="utf-8")
    lines = text.splitlines()
    # Dropping only the final newline leaves a complete file, so every cut
    # here loses at least one character of a record.
    sidecar_cases = [(f"sidecar truncated to {cut} chars", text[:cut])
                     for cut in range(len(text) - 1)]
    for i in range(len(lines)):
        doubled = lines[:i + 1] + lines[i:]
        sidecar_cases.append((f"sidecar line {i + 1} doubled", "\n".join(doubled) + "\n"))
    for i in range(len(lines) - 1):
        joined = lines[:i] + [lines[i] + lines[i + 1]] + lines[i + 2:]
        sidecar_cases.append((f"sidecar lines {i + 1}-{i + 2} joined",
                              "\n".join(joined) + "\n"))
    for label, broken in cases + sidecar_cases:
        if isinstance(broken, str):
            path.write_bytes(raw)
            sidecar.write_text(broken, encoding="utf-8")
        else:
            path.write_bytes(broken)
        try:
            read_feature_bank(path)
        except DataError:
            continue
        pytest.fail(f"{label}: read without a DataError")


def test_read_bank_returns_writable_contiguous_float32(tmp_path):
    bank = FeatureBank(ids=["a", "b"], data=np.arange(6, dtype=np.float32).reshape(2, 3))
    path = tmp_path / "bank.afb"
    write_feature_bank(bank, path)
    data = read_feature_bank(path).data
    assert data.dtype == np.float32 and data.shape == (2, 3)
    assert data.flags.writeable and data.flags.c_contiguous and data.flags.owndata
    data[0, 0] = 7.0
    assert read_feature_bank(path).data[0, 0] == 0.0


def test_loaded_banks_have_unit_rows_after_normalization(tmp_path):
    corpus, _, _ = generate_synthetic(small_spec())
    path = tmp_path / "targets.afb"
    write_feature_bank(corpus.targets, path)
    loaded = read_feature_bank(path)
    norms = np.linalg.norm(loaded.matrix64(), axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-6)


# -- triplet files -----------------------------------------------------------------

def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


def test_load_triplets_valid(tmp_path):
    path = tmp_path / "t.jsonl"
    write_lines(path, [
        '{"ref": "r1", "mod": "m1", "tgt": "t1", "split": "train"}',
        '{"ref": "r2", "mod": "m2", "tgt": "t2", "split": "val"}',
        '{"ref": "r3", "mod": "m3", "tgt": "t1", "split": "test"}',
    ])
    triplets = load_triplets(path)
    assert len(triplets.records) == 3
    assert [r.split for r in triplets.records] == ["train", "val", "test"]
    assert triplets.split("val")[0].tgt == "t2"
    assert triplets.split_with_indices("test") == [(2, triplets.records[2])]


def test_load_triplets_reports_line_numbers(tmp_path):
    corpus = Corpus(
        refs=FeatureBank(ids=["r1"], data=np.ones((1, 2), dtype=np.float32)),
        mods=FeatureBank(ids=["m1"], data=np.ones((1, 2), dtype=np.float32)),
        targets=FeatureBank(ids=["t1"], data=np.ones((1, 2), dtype=np.float32)),
    )
    path = tmp_path / "t.jsonl"
    write_lines(path, [
        '{"ref": "r1", "mod": "m1", "tgt": "t1", "split": "train"}',
        '{"ref": "r1", "mod": "m1", "tgt": "BOGUS", "split": "train"}',
    ])
    with pytest.raises(UnknownId) as err:
        load_triplets(path, corpus=corpus)
    assert ":2:" in str(err.value) and "tgt" in str(err.value)

    write_lines(path, ['{"ref": "r1", "mod": "m1", "tgt": "t1", "split": "dev"}'])
    with pytest.raises(BadSplit):
        load_triplets(path)
    write_lines(path, ["not json"])
    with pytest.raises(DataError):
        load_triplets(path)


def test_subsets_attach_and_validate(tmp_path):
    tri_path = tmp_path / "t.jsonl"
    write_lines(tri_path, [
        '{"ref": "r1", "mod": "m1", "tgt": "t1", "split": "test"}',
        '{"ref": "r2", "mod": "m2", "tgt": "t2", "split": "test"}',
    ])
    sub_path = tmp_path / "s.jsonl"
    write_lines(sub_path, ['{"query": 1, "members": ["t2", "t9", "t8", "t7", "t6"]}'])
    triplets = load_triplets(tri_path, subsets_path=sub_path)
    assert triplets.subsets == {1: ("t2", "t9", "t8", "t7", "t6")}

    write_lines(sub_path, ['{"query": 5, "members": ["t2"]}'])
    with pytest.raises(UnknownId):
        load_triplets(tri_path, subsets_path=sub_path)
    write_lines(sub_path, ['{"query": 0, "members": ["t2", "t3"]}'])
    with pytest.raises(MissingSubset):  # subset misses its own target t1
        load_triplets(tri_path, subsets_path=sub_path)


def test_write_triplets_round_trip(tmp_path):
    records = [TripletRecord(ref="r1", mod="m1", tgt="t1", split="train"),
               TripletRecord(ref="r2", mod="m2", tgt="t2", split="test")]
    triplets = TripletSet(records=records)
    triplets.subsets[1] = ("t2", "t1")
    tri_path = tmp_path / "t.jsonl"
    sub_path = tmp_path / "s.jsonl"
    write_triplets(triplets, tri_path, sub_path)
    loaded = load_triplets(tri_path, subsets_path=sub_path)
    assert loaded.records == records
    assert loaded.subsets == {1: ("t2", "t1")}


# -- JSONL line parsing ----------------------------------------------------------------
# The id sidecar, triplets and subsets readers each take one JSON value per
# line, as json.loads reads it. These cases pin which files are accepted
# and the exact exception class and path:line message of a malformed line.

def read_sidecar(tmp_path, text):
    path = tmp_path / "bank.afb"
    write_feature_bank(FeatureBank(ids=["a", "b", "c"], data=np.ones((3, 2), np.float32)),
                       path)
    ids_sidecar(path).write_bytes(text.encode("utf-8"))
    return read_feature_bank(path).ids


def read_triplets_file(tmp_path, text):
    path = tmp_path / "t.jsonl"
    path.write_bytes(text.encode("utf-8"))
    return load_triplets(path).records


def read_subsets_file(tmp_path, text):
    tri_path = tmp_path / "t.jsonl"
    write_lines(tri_path, [json.dumps({"ref": f"r{i}", "mod": f"m{i}", "tgt": f"t{i}",
                                       "split": "test"}) for i in range(3)])
    path = tmp_path / "s.jsonl"
    path.write_bytes(text.encode("utf-8"))
    return load_triplets(tri_path, subsets_path=path).subsets


# reader, the file it reads, its three good lines, a line missing a key,
# error class, record word
JSONL_READERS = {
    "sidecar": (read_sidecar, "bank.afb.ids.jsonl",
                ['{"row": 0, "id": "a"}', '{"row": 1, "id": "b"}', '{"row": 2, "id": "c"}'],
                '{"row": 1}', TruncatedFile, "id"),
    "triplets": (read_triplets_file, "t.jsonl",
                 [json.dumps({"ref": f"r{i}", "mod": f"m{i}", "tgt": f"t{i}", "split": "test"})
                  for i in range(3)],
                 '{"ref": "r1", "mod": "m1", "tgt": "t1"}', DataError, "triplet"),
    "subsets": (read_subsets_file, "s.jsonl",
                [json.dumps({"query": i, "members": [f"t{i}", "t9"]}) for i in range(3)],
                '{"query": 1}', DataError, "subset"),
}

# case: (lines from the good lines and the missing-key line, 1-based error line or None)
JSONL_CASES = {
    "two values, comma": (lambda g, m: [g[0], g[1] + ", " + g[2]], 2),
    "two values, no separator": (lambda g, m: [g[0], g[1] + g[2]], 2),
    "value over two lines": (lambda g, m: [g[0], g[1][:-1] + ', "x": [1', "2]}", g[2]], 2),
    "surrounding whitespace": (lambda g, m: [" \t" + line + " \t" for line in g], None),
    "trailing form feed": (lambda g, m: [g[0], g[1] + "\x0c", g[2]], 2),
    "CRLF": (lambda g, m: [line + "\r" for line in g], None),
    "leading BOM": (lambda g, m: ["\ufeff" + g[0]] + g[1:], 1),
    "blank middle lines": (lambda g, m: [g[0], "", " \t", g[1], g[2]], None),
    "blank line before an error": (lambda g, m: [g[0], "", "{", g[1], g[2]], 3),
    "array value": (lambda g, m: [g[0], "[1, 2]", g[2]], 2),
    "string value": (lambda g, m: [g[0], '"text"', g[2]], 2),
    "number value": (lambda g, m: [g[0], "7", g[2]], 2),
    "null value": (lambda g, m: [g[0], "null", g[2]], 2),
    "missing key": (lambda g, m: [g[0], m, g[2]], 2),
}


@pytest.mark.parametrize("case", list(JSONL_CASES))
@pytest.mark.parametrize("reader", list(JSONL_READERS))
def test_jsonl_line_parsing(tmp_path, reader, case):
    read, name, good, missing_key, error, word = JSONL_READERS[reader]
    edit, error_line = JSONL_CASES[case]
    text = "".join(line + "\n" for line in edit(good, missing_key))
    if error_line is None:
        assert read(tmp_path, text) == read(tmp_path, "".join(line + "\n" for line in good))
        return
    with pytest.raises(DataError) as err:
        read(tmp_path, text)
    assert type(err.value) is error
    assert str(err.value) == f"{tmp_path / name}:{error_line}: malformed {word} record"


# -- synthetic generator -------------------------------------------------------------

def test_synth_spec_validation():
    with pytest.raises(SpecInvalid):
        SynthSpec(n_attributes=0)
    with pytest.raises(SpecInvalid):
        SynthSpec(dim_i=8)  # fewer image dims than attributes
    with pytest.raises(SpecInvalid):
        SynthSpec(flip_count=12)
    SynthSpec(n_attributes=80, dim_i=80, flip_count=63)
    with pytest.raises(SpecInvalid):
        SynthSpec(n_attributes=80, dim_i=80, flip_count=64)  # 2**64 - 1 direction patterns
    for sigma in (-0.1, float("nan"), float("inf")):
        with pytest.raises(SpecInvalid):
            SynthSpec(noise_sigma=sigma)
    with pytest.raises(SpecInvalid):
        SynthSpec(gallery_size=100)  # cannot hold targets + decoy packs


def test_synth_deterministic_and_well_formed():
    spec = small_spec()
    corpus_a, triplets_a, info_a = generate_synthetic(spec)
    corpus_b, triplets_b, info_b = generate_synthetic(spec)
    assert corpus_a.targets.data.tobytes() == corpus_b.targets.data.tobytes()
    assert corpus_a.refs.data.tobytes() == corpus_b.refs.data.tobytes()
    assert corpus_a.mods.data.tobytes() == corpus_b.mods.data.tobytes()
    assert triplets_a.records == triplets_b.records
    assert info_a.to_json() == info_b.to_json()

    assert corpus_a.targets.n == spec.gallery_size
    assert len(triplets_a.split("train")) == spec.n_train
    assert len(triplets_a.split("val")) == spec.n_val
    assert len(triplets_a.split("test")) == spec.n_eval
    for rec in triplets_a.records:
        corpus_a.refs.row_of(rec.ref)
        corpus_a.mods.row_of(rec.mod)
        corpus_a.targets.row_of(rec.tgt)


# sha256 of each file ``small_spec()`` writes; any change to the generator's
# draws, constants or file formats changes one of them.
GOLDEN_SYNTH_SHA256 = {
    "refs.afb": "bc0496b3643e580cede31bf7788f5768400b1931087835578da9fb7af90a5aa7",
    "mods.afb": "7aba8387cc0140cdd0a24da2a79aca312ddec2543924f485938b939df42d3721",
    "targets.afb": "33f08948cbfc508e6241a6353f517e964deb2e2f2f4ae08cc38e5d74e16a01f2",
    "triplets.jsonl": "14e499f1c472c0e6fe4046327c3a6e32bec2514952b9fa2d51ba2baaa69644ae",
    "subsets.jsonl": "44ffd8003efa46d16904fc32b082d538368631d85bb668e84b0c95f3ce53146a",
    "latents.json": "1b9327e6870a0b97c81c55ef7ecb42d30cafdc81f86d8ab59716bc04bff59890",
}


# The same for a spec with 2**6 - 1 = 63 flip patterns against a cap of 5, so
# its hard queries draw which direction decoys to keep.
GOLDEN_CAPPED_SYNTH_SHA256 = {
    "refs.afb": "2384fd5b27c4a78baac7fb8a7ba211e7c006bd2066fe14722f35a6a5d0409844",
    "mods.afb": "ef79f98b72694a8b02065affdb105017df7f0235a6aa00e80fefa6ce55404c9c",
    "targets.afb": "3c1c53306f4fff48994f2b76e57be40704c5aa0c131fb8aaa47f38756eb5a9ab",
    "triplets.jsonl": "0fb3bb4b3a2e3983732cd05f3c58fad6f197d41f541d0eaaed6337a7478d97b5",
    "subsets.jsonl": "ff5c3e6804be2b864684790075e5e982dab30c81be55afc4083d2016b60b85c6",
    "latents.json": "8af8730790bbb693ee7725469cfd17d1f88fa7e7c5ae59fda1e4d4009bae03ce",
}


def synth_digests(spec, out_dir) -> dict[str, str]:
    corpus, triplets, info = generate_synthetic(spec)
    for name in ("refs", "mods", "targets"):
        write_feature_bank(getattr(corpus, name), out_dir / f"{name}.afb")
    write_triplets(triplets, out_dir / "triplets.jsonl", out_dir / "subsets.jsonl")
    (out_dir / "latents.json").write_text(info.to_json(), encoding="utf-8")
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in GOLDEN_SYNTH_SHA256}


def test_synth_bytes_match_golden_digests(tmp_path):
    assert synth_digests(small_spec(), tmp_path) == GOLDEN_SYNTH_SHA256


def test_capped_direction_decoys_match_golden_digests(tmp_path):
    spec = small_spec(flip_count=6, direction_decoy_cap=5)
    assert 2 ** spec.flip_count - 1 > spec.direction_decoy_cap
    assert synth_digests(spec, tmp_path) == GOLDEN_CAPPED_SYNTH_SHA256


def test_synth_eval_targets_are_unique_latents():
    spec = small_spec()
    corpus, triplets, info = generate_synthetic(spec)
    eval_records = triplets.split("val") + triplets.split("test")
    target_rows = [corpus.targets.row_of(r.tgt) for r in eval_records]
    latents = [info.gallery_latents[row].tobytes() for row in target_rows]
    assert len(set(latents)) == len(latents)
    all_latents = [info.gallery_latents[i].tobytes()
                   for i in range(spec.gallery_size)]
    for row, key in zip(target_rows, latents):
        assert all_latents.count(key) == 1


def test_synth_subsets_cover_eval_targets():
    spec = small_spec()
    _, triplets, _ = generate_synthetic(spec)
    eval_indices = [i for i, r in enumerate(triplets.records)
                    if r.split in ("val", "test")]
    for i in eval_indices:
        members = triplets.subsets[i]
        assert len(members) == SUBSET_SIZE
        assert triplets.records[i].tgt in members
        assert len(set(members)) == len(members)


def test_synth_latent_oracle_retrieves_target_at_rank_one():
    """Exact latent nearest-neighbor hits the true target for every query."""
    spec = small_spec()
    corpus, triplets, info = generate_synthetic(spec)
    gallery = info.gallery_latents
    hits = 0
    eval_records = [(i, r) for i, r in enumerate(triplets.records)
                    if r.split in ("val", "test")]
    for i, rec in eval_records:
        ref = info.ref_latents[i]
        flips = list(info.flip_sets[i])
        want = ref.copy()
        want[flips] *= -1.0
        dist = (gallery != want).sum(axis=1)
        best = np.flatnonzero(dist == dist.min())
        if len(best) == 1 and best[0] == corpus.targets.row_of(rec.tgt):
            hits += 1
    assert hits / len(eval_records) >= 0.99


def test_synth_image_only_oracle_is_confused():
    """Distractors sit closer to the reference latent than the target does."""
    spec = small_spec()
    corpus, triplets, info = generate_synthetic(spec)
    gallery = info.gallery_latents
    confusion = 0
    for i, rec in enumerate(triplets.records):
        if rec.split not in ("val", "test"):
            continue
        ref = info.ref_latents[i]
        dist = (gallery != ref).sum(axis=1)
        target_row = corpus.targets.row_of(rec.tgt)
        if np.any(np.delete(dist, target_row) <= dist[target_row]):
            confusion += 1
    assert confusion > 0


def test_synth_degenerate_no_flips_no_noise():
    spec = small_spec(flip_count=0, noise_sigma=0.0)
    corpus, triplets, info = generate_synthetic(spec)
    test_records = [(i, r) for i, r in enumerate(triplets.records)
                    if r.split == "test"]
    for i, rec in test_records:
        assert info.flip_sets[i] == ()
        r_vec = corpus.refs.data[corpus.refs.row_of(rec.ref)]
        t_vec = corpus.targets.data[corpus.targets.row_of(rec.tgt)]
        np.testing.assert_array_equal(r_vec, t_vec)
        m_vec = corpus.mods.data[corpus.mods.row_of(rec.mod)]
        np.testing.assert_array_equal(m_vec, np.zeros_like(m_vec))


def test_synth_info_json_is_parseable():
    _, _, info = generate_synthetic(small_spec())
    obj = json.loads(info.to_json())
    for key in ("gallery_latents", "ref_latents", "flip_sets", "hard",
                "owner", "coef", "owner_t", "coef_t"):
        assert key in obj
