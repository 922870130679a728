"""Feature banks, triplet files, and the synthetic benchmark generator.

Banks are little-endian binary matrices of float32 rows with a JSONL
id sidecar; reads return exactly what was written. Evaluation and
training gather raw rows and normalize only those, in
``numerics.normalize_rows``, where a degenerate row is an error.
Triplets are JSONL records {ref, mod, tgt, split} with an optional
subsets sidecar for candidate-restricted recall. Every JSONL reader
decodes one value per line, as ``json.loads`` would, and names the
offending ``path:line`` when a line is malformed.

The synthetic generator builds an attribute-flip world where the two
score channels are separable: items are +-1 attribute vectors embedded
by a sparse random linear map (each image dimension carries one
attribute), and the modifier encodes which attributes flipped between
reference and target. Distractor packs make each model variant fail in
a distinct, measurable way.
"""

from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, field
from itertools import chain, combinations, islice
from pathlib import Path

import numpy as np

from .errors import (BadMagic, BadSplit, ConfigError, DataError, DuplicateId,
                     MissingSubset, NonFiniteData, ShapeMismatch, SpecInvalid,
                     TruncatedFile, UnknownId)
from .numerics import NORM_EPS, normalize_rows

Array = np.ndarray

BANK_MAGIC = b"AFB1"
BANK_VERSION = 1
SPLITS = ("train", "val", "test")


@dataclass
class FeatureBank:
    """Dense float32 embedding rows with unique string ids; ``index`` maps id to row."""

    ids: list[str]
    data: Array

    def __post_init__(self) -> None:
        self.data = np.ascontiguousarray(self.data, dtype=np.float32)
        if self.data.ndim != 2:
            raise ShapeMismatch(f"bank data must be 2-D, got shape {self.data.shape}")
        if len(self.ids) != self.data.shape[0]:
            raise ShapeMismatch(f"{len(self.ids)} ids for {self.data.shape[0]} rows")
        finite_rows = np.isfinite(self.data).all(axis=1)
        if not finite_rows.all():
            bad = int(np.argmin(finite_rows))
            raise ShapeMismatch(f"row {bad} (id {self.ids[bad]!r}) holds non-finite values")
        self.index: dict[str, int] = {gid: row for row, gid in enumerate(self.ids)}
        if len(self.index) != len(self.ids):
            seen: set[str] = set()
            for i in self.ids:
                if i in seen:
                    raise DuplicateId(f"id {i!r} appears twice")
                seen.add(i)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def row_of(self, gid: str) -> int:
        try:
            return self.index[gid]
        except KeyError:
            raise UnknownId(f"id {gid!r} not in bank") from None

    def matrix64(self) -> Array:
        """All rows through ``numerics.normalize_rows``: unit float64 rows."""
        return normalize_rows(self.data)


def write_feature_bank(bank: FeatureBank, path) -> None:
    """Magic, version, rows, dim (u32 LE each), then float32 LE payload."""
    path = Path(path)
    payload = np.ascontiguousarray(bank.data, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(BANK_MAGIC)
        fh.write(struct.pack("<III", BANK_VERSION, bank.n, bank.dim))
        fh.write(payload.tobytes())
    with open(ids_sidecar(path), "w", encoding="utf-8") as fh:
        for row, gid in enumerate(bank.ids):
            fh.write(json.dumps({"row": row, "id": gid}) + "\n")


_DECODER = json.JSONDecoder()


def _json_line(line: str):
    """The JSON value of one line, exactly as ``json.loads(line)`` reads it.

    A line that is one value, optionally followed by JSON whitespace, is
    decoded by ``raw_decode`` alone; any other line goes to ``json.loads``,
    so its value or its error is that function's own.
    """
    try:
        value, end = _DECODER.raw_decode(line)
    except json.JSONDecodeError:
        return json.loads(line)
    if line[end:].strip(" \t\n\r"):
        return json.loads(line)
    return value


def ids_sidecar(path) -> Path:
    return Path(str(path) + ".ids.jsonl")


def read_feature_bank(path) -> FeatureBank:
    """Read an AFB1 bank and its id sidecar; the payload lands in one array."""
    path = Path(path)
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise TruncatedFile(f"{path}: no such file") from None
    except IsADirectoryError:
        raise TruncatedFile(f"{path}: is a directory, not a bank file") from None
    with fh:
        size = os.fstat(fh.fileno()).st_size
        header = fh.read(16)
        if len(header) < 16:
            raise TruncatedFile(f"{path}: {len(header)} bytes is shorter than the 16-byte header")
        if header[:4] != BANK_MAGIC:
            raise BadMagic(f"{path}: expected magic {BANK_MAGIC!r}, got {header[:4]!r}")
        version, rows, dim = struct.unpack_from("<III", header, 4)
        if version != BANK_VERSION:
            raise BadMagic(f"{path}: unsupported bank version {version}")
        # Checked before allocating, so a corrupt header cannot ask for a huge buffer.
        expected = 16 + 4 * rows * dim
        if size != expected:
            raise TruncatedFile(f"{path}: {size} bytes, header promises {expected}")
        data = np.empty((rows, dim), dtype="<f4")
        if fh.readinto(data) != data.nbytes:
            raise TruncatedFile(f"{path}: payload is shorter than the header promises")

    sidecar = ids_sidecar(path)
    if not sidecar.is_file():
        raise TruncatedFile(f"{sidecar}: id sidecar missing")
    try:
        lines = sidecar.read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError:
        raise TruncatedFile(f"{sidecar}: id sidecar is not valid UTF-8") from None
    ids: list[str] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            obj = _json_line(line)
            row, gid = obj["row"], obj["id"]
        except (json.JSONDecodeError, KeyError, TypeError):
            raise TruncatedFile(f"{sidecar}:{lineno}: malformed id record") from None
        if row != len(ids):
            raise TruncatedFile(f"{sidecar}:{lineno}: row {row}, expected {len(ids)}")
        ids.append(str(gid))
    if len(ids) != rows:
        raise TruncatedFile(f"{sidecar}: {len(ids)} ids for {rows} rows")
    try:
        return FeatureBank(ids=ids, data=data)
    except ShapeMismatch as exc:
        # Shape and id count are checked above, so only a non-finite row is left.
        raise NonFiniteData(f"{path}: {exc}") from None


@dataclass
class Corpus:
    """The three banks one pipeline needs: references, modifiers, targets."""

    refs: FeatureBank
    mods: FeatureBank
    targets: FeatureBank

    @classmethod
    def load(cls, refs_path, mods_path, targets_path) -> "Corpus":
        return cls(refs=read_feature_bank(refs_path),
                   mods=read_feature_bank(mods_path),
                   targets=read_feature_bank(targets_path))


@dataclass(frozen=True)
class TripletRecord:
    ref: str
    mod: str
    tgt: str
    split: str


@dataclass
class TripletSet:
    """Query records plus optional per-record candidate subsets."""

    records: list[TripletRecord]
    subsets: dict[int, tuple[str, ...]] = field(default_factory=dict)

    def split(self, name: str) -> list[TripletRecord]:
        return [r for _, r in self.split_with_indices(name)]

    def split_with_indices(self, name: str) -> list[tuple[int, TripletRecord]]:
        if name not in SPLITS:
            raise ConfigError(f"unknown split {name!r}; expected one of {SPLITS}")
        return [(i, r) for i, r in enumerate(self.records) if r.split == name]


def write_triplets(triplets: TripletSet, path, subsets_path=None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in triplets.records:
            fh.write(json.dumps({"ref": rec.ref, "mod": rec.mod,
                                 "tgt": rec.tgt, "split": rec.split}) + "\n")
    if subsets_path is not None and triplets.subsets:
        with open(subsets_path, "w", encoding="utf-8") as fh:
            for index in sorted(triplets.subsets):
                fh.write(json.dumps({"query": index,
                                     "members": list(triplets.subsets[index])}) + "\n")


def _text_lines(path, what: str) -> list[str]:
    """Lines of a UTF-8 text file; undecodable bytes are a DataError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        raise DataError(f"{path}: {what} file is not valid UTF-8") from None


def load_triplets(path, corpus: Corpus | None = None, subsets_path=None) -> TripletSet:
    """Read and validate triplet JSONL; errors name the offending line."""
    records: list[TripletRecord] = []
    for lineno, line in enumerate(_text_lines(path, "triplets"), start=1):
        if not line.strip():
            continue
        try:
            obj = _json_line(line)
            rec = TripletRecord(ref=str(obj["ref"]), mod=str(obj["mod"]),
                                tgt=str(obj["tgt"]), split=str(obj["split"]))
        except (json.JSONDecodeError, KeyError, TypeError):
            raise DataError(f"{path}:{lineno}: malformed triplet record") from None
        if rec.split not in SPLITS:
            raise BadSplit(f"{path}:{lineno}: split {rec.split!r} not in {SPLITS}")
        if corpus is not None:
            for bank, gid, role in ((corpus.refs, rec.ref, "ref"),
                                    (corpus.mods, rec.mod, "mod"),
                                    (corpus.targets, rec.tgt, "tgt")):
                try:
                    bank.row_of(gid)
                except UnknownId:
                    raise UnknownId(f"{path}:{lineno}: unknown {role} id {gid!r}") from None
        records.append(rec)
    triplets = TripletSet(records=records)
    if subsets_path is not None:
        _attach_subsets(triplets, subsets_path, corpus)
    return triplets


def _attach_subsets(triplets: TripletSet, path, corpus: Corpus | None) -> None:
    for lineno, line in enumerate(_text_lines(path, "subsets"), start=1):
        if not line.strip():
            continue
        try:
            obj = _json_line(line)
            index = int(obj["query"])
            members = tuple(str(m) for m in obj["members"])
        except (json.JSONDecodeError, KeyError, TypeError, ValueError):
            raise DataError(f"{path}:{lineno}: malformed subset record") from None
        if not 0 <= index < len(triplets.records):
            raise UnknownId(f"{path}:{lineno}: query index {index} out of range")
        record = triplets.records[index]
        if record.tgt not in members:
            raise MissingSubset(f"{path}:{lineno}: subset for query {index} "
                                f"does not contain its target {record.tgt!r}")
        if corpus is not None:
            for m in members:
                try:
                    corpus.targets.row_of(m)
                except UnknownId:
                    raise UnknownId(f"{path}:{lineno}: subset member {m!r} "
                                    "not in target bank") from None
        triplets.subsets[index] = members


# -- synthetic attribute-flip benchmark -----------------------------------------

# Distractor mix. Hard eval queries (HARD_FRACTION of them) get a full
# direction-decoy pack (reference twin plus every partial flip pattern,
# capped); all eval queries get near misses (flip pattern right, 1-2
# preserved attributes wrong). The remainder of the gallery is uniform
# noise. Each eval query's candidate subset holds SUBSET_SIZE targets.
HARD_FRACTION = 0.6
SUBSET_SIZE = 6
# Fraction of text dimensions wired identically to the image map.
# Aligned positions give cos(m, t) real signal, so late fusion beats
# the single-modality baselines; the fresh remainder is readable only
# through a learned projection, which keeps late fusion short of the
# trained head.
MODIFIER_ALIGN = 0.5


@dataclass(frozen=True)
class SynthSpec:
    """Generator settings; defaults give the standard desk-scale benchmark."""

    n_attributes: int = 12
    dim_i: int = 64
    dim_t: int = 64
    n_train: int = 2000
    n_eval: int = 40
    n_val: int = 0
    gallery_size: int = 1000
    noise_sigma: float = 0.05
    flip_count: int = 4
    seed: int = 0
    # Pack sizes of the distractor mix described at HARD_FRACTION.
    near_miss_count: int = 12
    direction_decoy_cap: int = 15

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise SpecInvalid(f"seed must be >= 0, got {self.seed}")
        if self.n_attributes < 1 or self.dim_i < 1 or self.dim_t < 1:
            raise SpecInvalid("attribute and embedding dims must be positive")
        if self.dim_i < self.n_attributes:
            raise SpecInvalid("dim_i must be >= n_attributes so every attribute "
                              "owns at least one image dimension")
        if not 0 <= self.flip_count < self.n_attributes:
            raise SpecInvalid("need 0 <= flip_count < n_attributes")
        if self._n_hard() and self.flip_count > 63:   # decoy patterns are drawn as int64
            raise SpecInvalid(f"flip_count must be <= 63 with hard queries, got {self.flip_count}")
        if not 0.0 <= self.noise_sigma < math.inf:
            raise SpecInvalid(f"noise_sigma must be finite and >= 0, got {self.noise_sigma}")
        if self.n_train < 1 or self.n_eval < 1 or self.n_val < 0:
            raise SpecInvalid("need n_train >= 1, n_eval >= 1, n_val >= 0")
        needed = self._min_gallery()
        if self.gallery_size < needed:
            raise SpecInvalid(f"gallery_size {self.gallery_size} cannot hold "
                              f"{needed} targets+decoys; enlarge it or shrink the packs")

    def _n_hard(self) -> int:
        return round(HARD_FRACTION * (self.n_eval + self.n_val))

    def _direction_pack(self) -> int:
        return min(2 ** self.flip_count - 1, self.direction_decoy_cap)

    def _near_miss_pack(self) -> int:
        unchanged = self.n_attributes - self.flip_count
        budget = unchanged + unchanged * (unchanged - 1) // 2  # depth 1 and 2
        return min(self.near_miss_count, budget)

    def _min_gallery(self) -> int:
        n_eval_total = self.n_eval + self.n_val
        return (n_eval_total
                + self._n_hard() * self._direction_pack()
                + n_eval_total * self._near_miss_pack())


@dataclass
class SynthInfo:
    """Ground truth the generator knows: latents, maps, query structure."""

    gallery_latents: Array              # (gallery_size, n_attributes) of +-1
    ref_latents: Array                  # (n_records, n_attributes) of +-1
    flip_sets: list[tuple[int, ...]]    # per record, attribute indices flipped
    hard: list[bool]                    # per record (False for train)
    owner: Array                        # image dim -> attribute index
    coef: Array                         # image dim -> signed coefficient
    owner_t: Array                      # text dim -> attribute index
    coef_t: Array                       # text dim -> signed coefficient

    def to_json(self) -> str:
        return json.dumps({
            "gallery_latents": self.gallery_latents.astype(int).tolist(),
            "ref_latents": self.ref_latents.astype(int).tolist(),
            "flip_sets": [list(s) for s in self.flip_sets],
            "hard": self.hard,
            "owner": self.owner.astype(int).tolist(),
            "coef": self.coef.tolist(),
            "owner_t": self.owner_t.astype(int).tolist(),
            "coef_t": self.coef_t.tolist(),
        }, sort_keys=True)


def generate_synthetic(spec: SynthSpec) -> tuple[Corpus, TripletSet, SynthInfo]:
    """Deterministic attribute-flip benchmark from a seed.

    Every gallery item is a +-1 attribute vector pushed through a fixed
    sparse linear map plus Gaussian noise; the modifier embeds the
    signed attribute delta (target - reference) through a second fixed
    map that shares a MODIFIER_ALIGN fraction of its wiring with the
    image map. Eval targets are unique latents, so exact-latent
    retrieval is unambiguous.
    """
    rng = np.random.default_rng(spec.seed)
    n_attr, dim_i, dim_t = spec.n_attributes, spec.dim_i, spec.dim_t

    # Fixed maps. Image: every dimension carries exactly one attribute.
    owner = np.concatenate([np.arange(n_attr),
                            rng.integers(0, n_attr, size=dim_i - n_attr)])
    owner = rng.permutation(owner)
    coef = rng.uniform(0.5, 1.5, size=dim_i) * rng.choice([-1.0, 1.0], size=dim_i)

    # Text map: MODIFIER_ALIGN of the positions copy the image map's wiring
    # so cos(m, t) carries signal; the rest get fresh random wiring. Fresh
    # positions cover every attribute when they can, keeping the full delta
    # linearly decodable from m.
    pairable = min(dim_t, dim_i)
    n_aligned = min(round(MODIFIER_ALIGN * dim_t), pairable)
    aligned_pos = np.sort(rng.choice(pairable, size=n_aligned, replace=False))
    fresh_pos = np.setdiff1d(np.arange(dim_t), aligned_pos)
    owner_t = np.empty(dim_t, dtype=np.int64)
    coef_t = np.empty(dim_t)
    owner_t[aligned_pos] = owner[aligned_pos]
    coef_t[aligned_pos] = coef[aligned_pos]
    if len(fresh_pos) >= n_attr:
        base = np.concatenate([np.arange(n_attr),
                               rng.integers(0, n_attr, size=len(fresh_pos) - n_attr)])
        owner_t[fresh_pos] = rng.permutation(base)
    else:
        owner_t[fresh_pos] = rng.integers(0, n_attr, size=len(fresh_pos))
    coef_t[fresh_pos] = (rng.uniform(0.5, 1.5, size=len(fresh_pos))
                         * rng.choice([-1.0, 1.0], size=len(fresh_pos)))

    def embed_image(latent: Array) -> Array:
        return coef * latent[owner]

    def embed_modifier(delta: Array) -> Array:
        return coef_t * delta[owner_t]

    def normalized(v: Array) -> Array:
        norm = np.sqrt(v.dot(v))
        return v / norm if norm > NORM_EPS else v

    def sample_latent() -> Array:
        return rng.choice([-1.0, 1.0], size=n_attr)

    # Eval targets: unique latents so exact-latent retrieval has one answer.
    n_eval_total = spec.n_eval + spec.n_val
    taken: set[bytes] = set()
    eval_targets: list[Array] = []
    while len(eval_targets) < n_eval_total:
        lat = sample_latent()
        key = lat.tobytes()
        if key in taken:
            continue
        taken.add(key)
        eval_targets.append(lat)

    n_hard = spec._n_hard()
    hard_eval = [i < n_hard for i in range(n_eval_total)]

    # Per eval query: flip set, reference latent, decoy pack latents.
    gallery_latents: list[Array] = list(eval_targets)
    eval_flips: list[tuple[int, ...]] = []
    eval_refs: list[Array] = []
    pack_rows: list[list[int]] = [[] for _ in range(n_eval_total)]
    for qi, target in enumerate(eval_targets):
        flips = tuple(sorted(int(a) for a in
                             rng.choice(n_attr, size=spec.flip_count, replace=False)))
        eval_flips.append(flips)
        ref = target.copy()
        ref[list(flips)] *= -1.0
        eval_refs.append(ref)

        pack: list[Array] = []
        if hard_eval[qi] and spec.flip_count > 0:
            n_patterns = 2 ** spec.flip_count - 1  # proper subsets of flips
            patterns = range(n_patterns)
            if n_patterns > spec.direction_decoy_cap:
                # The reference twin 0 plus distinct draws from 1 .. n_patterns - 1.
                drawn = rng.choice(n_patterns - 1, size=spec.direction_decoy_cap - 1,
                                   replace=False) + 1
                patterns = [0, *sorted(drawn)]
            for bits in patterns:
                decoy = ref.copy()
                for b, attr in enumerate(flips):
                    if bits >> b & 1:
                        decoy[attr] *= -1.0
                pack.append(decoy)
        unchanged = [a for a in range(n_attr) if a not in flips]
        depth1_then_2 = chain(((a,) for a in unchanged), combinations(unchanged, 2))
        for wrong in islice(depth1_then_2, spec._near_miss_pack()):
            miss = target.copy()
            miss[list(wrong)] *= -1.0
            pack.append(miss)
        for latent in pack:
            if latent.tobytes() in taken:  # never shadow another query's target
                continue
            pack_rows[qi].append(len(gallery_latents))
            gallery_latents.append(latent)

    while len(gallery_latents) < spec.gallery_size:
        lat = sample_latent()
        if lat.tobytes() in taken:
            continue
        gallery_latents.append(lat)
    gallery = np.stack(gallery_latents)

    # Train triplets: targets drawn from the fixed gallery, references
    # derived by flipping back, so the gallery stays the target universe.
    train_rows = rng.integers(0, spec.gallery_size, size=spec.n_train)
    train_flips: list[tuple[int, ...]] = []
    train_refs: list[Array] = []
    for row in train_rows:
        if spec.flip_count > 0:
            flips = tuple(sorted(int(a) for a in
                                 rng.choice(n_attr, size=spec.flip_count, replace=False)))
        else:
            flips = ()
        ref = gallery[row].copy()
        ref[list(flips)] *= -1.0
        train_flips.append(flips)
        train_refs.append(ref)

    # Embeddings. Gallery first, then per-record refs and modifiers.
    noise = spec.noise_sigma
    gallery_vecs = np.stack([
        normalized(embed_image(lat)
                   + (noise * rng.standard_normal(dim_i) if noise > 0 else 0.0))
        for lat in gallery])

    records: list[TripletRecord] = []
    ref_vecs: list[Array] = []
    mod_vecs: list[Array] = []
    ref_latents: list[Array] = []
    flip_sets: list[tuple[int, ...]] = []
    hard_flags: list[bool] = []

    def add_record(ref_latent: Array, flips: tuple[int, ...], tgt_row: int,
                   split: str, hard: bool) -> None:
        i = len(records)
        target_latent = gallery[tgt_row]
        ref_vecs.append(normalized(
            embed_image(ref_latent)
            + (noise * rng.standard_normal(dim_i) if noise > 0 else 0.0)))
        mod_vecs.append(normalized(embed_modifier(target_latent - ref_latent)))
        records.append(TripletRecord(ref=f"r{i:05d}", mod=f"m{i:05d}",
                                     tgt=f"t{tgt_row:05d}", split=split))
        ref_latents.append(ref_latent)
        flip_sets.append(flips)
        hard_flags.append(hard)

    for row, flips, ref in zip(train_rows, train_flips, train_refs):
        add_record(ref, flips, int(row), "train", False)
    eval_split_of = ["val"] * spec.n_val + ["test"] * spec.n_eval
    eval_order = list(range(n_eval_total))
    for qi in eval_order:
        add_record(eval_refs[qi], eval_flips[qi], qi, eval_split_of[qi], hard_eval[qi])

    triplets = TripletSet(records=records)
    # Candidate subsets for eval records: the target plus a draw from its pack.
    for qi in eval_order:
        record_index = spec.n_train + qi
        pool = pack_rows[qi]
        n_others = min(SUBSET_SIZE - 1, len(pool))
        others = list(rng.choice(pool, size=n_others, replace=False)) if pool else []
        fill = 0
        while len(others) < SUBSET_SIZE - 1:
            candidate = int(rng.integers(0, spec.gallery_size))
            fill += 1
            if candidate != qi and candidate not in others:
                others.append(candidate)
            if fill > 50 * SUBSET_SIZE:
                break
        members = [f"t{qi:05d}"] + [f"t{int(r):05d}" for r in others]
        triplets.subsets[record_index] = tuple(members)

    corpus = Corpus(
        refs=FeatureBank(ids=[r.ref for r in records],
                         data=np.stack(ref_vecs).astype(np.float32)),
        mods=FeatureBank(ids=[r.mod for r in records],
                         data=np.stack(mod_vecs).astype(np.float32)),
        targets=FeatureBank(ids=[f"t{i:05d}" for i in range(spec.gallery_size)],
                            data=gallery_vecs.astype(np.float32)),
    )
    info = SynthInfo(gallery_latents=gallery, ref_latents=np.stack(ref_latents),
                     flip_sets=flip_sets, hard=hard_flags, owner=owner, coef=coef,
                     owner_t=owner_t, coef_t=coef_t)
    return corpus, triplets, info
