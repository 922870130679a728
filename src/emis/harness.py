"""Experiment orchestration: run configs, ablation table, latency bench.

A RunConfig collects every knob one experiment needs. Values come from
an optional key=value config file; command-line flags win on conflict.
The ablation runner produces the six-flavor comparison table, the
bench measures the scoring pipeline's three phases, and the gradient
suite checks the hand-written backward of training's tape nodes against
central differences of the plain-array formulas.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Sequence, get_type_hints

import numpy as np

from . import training
from .autodiff import Tape, node
from .data import (SPLITS, Corpus, SynthSpec, TripletSet, generate_synthetic,
                   load_triplets, write_feature_bank, write_triplets)
from .errors import ConfigError
from .evaluation import (CONVENTIONS, DEFAULT_BLOCK_SIZE, MetricReport, evaluate,
                         metric_names, queries_from_triplets, round_half_up)
from .head import (ATTENTION_FLAVORS, Flavor, HeadDims, HeadParams, encode_queries,
                   gradients_of, init_params, lift_params, pairwise_scores, param_count,
                   params_to_vector, prepare_gallery, scores_from_state, vector_to_params)
from .numerics import finite_diff_check, normalize_rows
from .training import TrainConfig, bbc_loss_from_scores, train


@dataclass
class RunConfig(TrainConfig):
    """One experiment's knobs; every field doubles as a config-file key.

    The training settings are TrainConfig's own fields, checked there.
    Every setting is checked when the config is built, before any input
    is read.
    """

    refs: str | None = None
    mods: str | None = None
    targets: str | None = None
    triplets: str | None = None
    subsets: str | None = None
    checkpoint: str | None = None

    convention: str | None = None
    exclude_ref: bool = False
    workers: int = 1
    block_size: int = DEFAULT_BLOCK_SIZE
    split: str = "test"
    monitor: str = "val"
    selection_metric: str = "r_at_10"
    h_hidden: int = 0  # 0 means "match the target bank width"

    def __post_init__(self) -> None:
        super().__post_init__()
        for key, smallest in (("block_size", 1), ("workers", 1), ("h_hidden", 0)):
            if getattr(self, key) < smallest:
                raise ConfigError(f"{key} must be >= {smallest}, got {getattr(self, key)!r}")
        if self.convention not in (None, *CONVENTIONS):
            raise ConfigError(f"unknown convention {self.convention!r}; "
                              f"expected one of {', '.join(CONVENTIONS)}")
        for name in (self.split, *self.monitored_splits()):
            if name not in SPLITS:
                raise ConfigError(f"unknown split {name!r}; expected one of {SPLITS}")
        # Every name a report can hold; train also checks it against its splits.
        names = metric_names(True)
        if self.selection_metric not in names:
            raise ConfigError(f"selection metric {self.selection_metric!r} not in "
                              f"evaluation output {names}")

    def monitored_splits(self) -> tuple[str, ...]:
        """The comma-separated ``monitor`` names, blanks dropped."""
        return tuple(s.strip() for s in self.monitor.split(",") if s.strip())


# Declared type of every RunConfig field, in field order: the one place
# that says which keys are numbers and which are on/off flags.
RUN_KEY_TYPES: dict[str, type] = get_type_hints(RunConfig)


def _coerce(key: str, raw):
    if not isinstance(raw, str):
        return raw
    kind = RUN_KEY_TYPES[key]
    if kind in (int, float):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"setting {key}={raw!r} is not a number") from None
    if kind is bool:
        lowered = raw.lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"setting {key}={raw!r} is not a boolean")
    return raw


def read_config_file(path) -> dict[str, str]:
    """key=value lines; blank lines and # comments are ignored."""
    settings: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"config file {path} does not exist") from None
    except IsADirectoryError:
        raise ConfigError(f"config file {path} is a directory") from None
    except UnicodeDecodeError:
        raise ConfigError(f"config file {path} is not valid UTF-8") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {stripped!r}")
        key, value = stripped.split("=", 1)
        settings[key.strip()] = value.strip()
    return settings


def make_run_config(file_settings: dict | None = None,
                    overrides: dict | None = None) -> RunConfig:
    """Merge config-file settings with flag overrides (flags win)."""
    merged: dict[str, object] = {}
    for source in (file_settings or {}), (overrides or {}):
        for key, value in source.items():
            if value is None:
                continue
            if key not in RUN_KEY_TYPES:
                raise ConfigError(f"unknown setting {key!r}")
            merged[key] = _coerce(key, value)
    return RunConfig(**merged)


_INPUT_PATH_KEYS = ("refs", "mods", "targets", "triplets", "subsets")


def require_input_file(name: str, value) -> None:
    """An input path must name an existing regular file, not a directory."""
    path = Path(value)
    if not path.is_file():
        problem = "is not a regular file" if path.exists() else "does not exist"
        raise ConfigError(f"{name} path {value!r} {problem}")


def require_output_path(name: str, value) -> None:
    """An output path, when given, is no directory and its directory exists."""
    if value is None:
        return
    path = Path(value)
    if path.is_dir():
        raise ConfigError(f"{name} path {value!r} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"{name} path {value!r}: no directory {str(path.parent)!r}")


def require_settings(config: RunConfig, *names: str) -> None:
    """Presence check; input paths must also be files (checkpoint may be an output)."""
    for name in names:
        value = getattr(config, name)
        if value is None:
            raise ConfigError(f"missing required setting {name!r}")
        if name in _INPUT_PATH_KEYS:
            require_input_file(name, value)


def load_dataset(config: RunConfig) -> tuple[Corpus, TripletSet]:
    require_settings(config, "refs", "mods", "targets", "triplets")
    if config.subsets is not None:
        require_settings(config, "subsets")
    corpus = Corpus.load(config.refs, config.mods, config.targets)
    triplets = load_triplets(config.triplets, corpus=corpus,
                             subsets_path=config.subsets)
    return corpus, triplets


def resolve_dims(config: RunConfig, corpus: Corpus) -> HeadDims:
    hidden = config.h_hidden if config.h_hidden > 0 else corpus.targets.dim
    return HeadDims(h_t=corpus.mods.dim, h_i=corpus.targets.dim, h_hidden=hidden)


def write_synthetic(spec: SynthSpec, out_dir) -> dict[str, str]:
    """Generate the synthetic benchmark and write every artifact file.

    The directory is made only once the corpus exists, so a failed
    generation leaves nothing behind.
    """
    out = Path(out_dir)
    if not next(p for p in (out, *out.parents) if p.exists()).is_dir():
        raise ConfigError(f"out path {str(out_dir)!r} is not a directory")
    corpus, triplets, info = generate_synthetic(spec)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError):
        raise ConfigError(f"out path {str(out_dir)!r} is not a directory") from None
    paths = {
        "refs": out / "refs.afb", "mods": out / "mods.afb",
        "targets": out / "targets.afb", "triplets": out / "triplets.jsonl",
        "subsets": out / "subsets.jsonl", "latents": out / "latents.json",
    }
    write_feature_bank(corpus.refs, paths["refs"])
    write_feature_bank(corpus.mods, paths["mods"])
    write_feature_bank(corpus.targets, paths["targets"])
    write_triplets(triplets, paths["triplets"], paths["subsets"])
    paths["latents"].write_text(info.to_json() + "\n", encoding="utf-8")
    return {name: str(p) for name, p in paths.items()}


# -- ablation ------------------------------------------------------------------

def run_ablation(config: RunConfig, corpus: Corpus | None = None,
                 triplets: TripletSet | None = None,
                 log: Callable[[str], None] | None = None) -> list[MetricReport]:
    """Six-flavor comparison on one dataset, one seed, fixed row order.

    The attention flavors are each trained from scratch with identical
    config. The attention-free flavors have no parameters reachable
    from their scores, so they are evaluated directly; training them
    would spend epochs without changing the result.
    """
    if corpus is None or triplets is None:
        corpus, triplets = load_dataset(config)
    queries = queries_from_triplets(triplets, config.split, config.exclude_ref)
    dims = resolve_dims(config, corpus)
    reports: list[MetricReport] = []
    for flavor in Flavor:
        if flavor not in ATTENTION_FLAVORS:
            params = init_params(dims, config.seed)
        else:
            params = train(triplets, corpus, replace(config, flavor=flavor),
                           dims=dims, monitor=()).params
        report = evaluate(queries, corpus, params, flavor,
                          block_size=config.block_size, workers=config.workers)
        reports.append(report)
        if log is not None:
            log(ablation_table([report]))
    return reports


def ablation_table(reports: Sequence[MetricReport]) -> str:
    """Aligned text table, one row per flavor."""
    keys: list[str] = []
    for report in reports:
        for key in sorted(report.metrics):
            if key not in keys:
                keys.append(key)
    label_w = max([len(r.label) for r in reports] + [len("flavor")])
    header = "flavor".ljust(label_w) + "".join(f"  {k:>14}" for k in keys)
    lines = [header]
    for report in reports:
        cells = []
        for key in keys:
            if key in report.metrics:
                cells.append(f"  {round_half_up(report.metrics[key]):>14.2f}")
            else:
                cells.append(f"  {'-':>14}")
        lines.append(report.label.ljust(label_w) + "".join(cells))
    return "\n".join(lines)


# -- latency benchmark -----------------------------------------------------------

BENCH_FLAVORS = (Flavor.LATE_FUSION, Flavor.ARTEMIS)
BENCH_SECTIONS = ("query_encode", "gallery_precompute", "scoring")


@dataclass(frozen=True)
class BenchConfig:
    """Scale and repetition settings for the latency comparison."""

    n_queries: int = 12000
    gallery_size: int = 15000
    h_t: int = 512
    h_i: int = 512
    h_hidden: int = 512
    repeats: int = 5
    block_size: int = 1024
    seed: int = 0

    def __post_init__(self) -> None:
        values = (self.n_queries, self.gallery_size, self.h_t, self.h_i,
                  self.h_hidden, self.repeats, self.block_size)
        if min(values) < 1:
            raise ConfigError(f"bench settings must be positive, got {self}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class BenchReport:
    """Per-flavor, per-section wall times plus min/median totals."""

    config: dict
    sections: dict[str, dict[str, list[float]]]
    totals: dict[str, list[float]]
    total_min: dict[str, float]
    total_median: dict[str, float]
    ratio_min: float
    ratio_median: float

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=indent)

    def to_text(self) -> str:
        lines = ["latency benchmark "
                 f"(queries={self.config['n_queries']}, "
                 f"gallery={self.config['gallery_size']}, "
                 f"repeats={self.config['repeats']})"]
        for flavor in self.sections:
            for section in BENCH_SECTIONS:
                med = float(np.median(self.sections[flavor][section]))
                lines.append(f"  {flavor:<12} {section:<18} {med:10.3f} s median")
            lines.append(f"  {flavor:<12} {'total':<18} "
                         f"{self.total_median[flavor]:10.3f} s median "
                         f"({self.total_min[flavor]:.3f} s min)")
        lines.append(f"  artemis / late_fusion total: "
                     f"{self.ratio_median:.3f} median, {self.ratio_min:.3f} min")
        return "\n".join(lines)


def bench_latency(bench: BenchConfig = BenchConfig(),
                  params: HeadParams | None = None) -> BenchReport:
    """Time the scoring pipeline for late_fusion vs the full model.

    Each repeat times three phases per flavor: query-side encoding
    (attention and projection vectors), gallery precompute
    (normalization), and the blocked scoring loop over all
    query-gallery pairs. Blocks are reduced to a checksum so peak
    memory stays flat at benchmark scale. The banks are seeded random
    rows; pass a trained checkpoint to time its head.
    """
    dims = HeadDims(bench.h_t, bench.h_i, bench.h_hidden)
    if params is None:
        params = init_params(dims, bench.seed)
    rng = np.random.default_rng(bench.seed)
    r = rng.standard_normal((bench.n_queries, dims.h_i))
    m = rng.standard_normal((bench.n_queries, dims.h_t))
    t = rng.standard_normal((bench.gallery_size, dims.h_i))

    sections = {f.value: {s: [] for s in BENCH_SECTIONS} for f in BENCH_FLAVORS}
    totals: dict[str, list[float]] = {f.value: [] for f in BENCH_FLAVORS}
    checksum = 0.0

    # Untimed warmup so allocator and BLAS startup do not skew repeat 1.
    for flavor in BENCH_FLAVORS:
        small = encode_queries(r[:4], m[:4], params, flavor)
        scores_from_state(small, prepare_gallery(t[:8], dims, flavor))

    for _ in range(bench.repeats):
        for flavor in BENCH_FLAVORS:
            t0 = time.perf_counter()
            qstate = encode_queries(r, m, params, flavor)
            t1 = time.perf_counter()
            gstate = prepare_gallery(t, dims, flavor)
            t2 = time.perf_counter()
            for lo in range(0, bench.n_queries, bench.block_size):
                hi = min(lo + bench.block_size, bench.n_queries)
                block = scores_from_state(qstate.slice_rows(lo, hi), gstate)
                checksum += float(block[0, 0])
            t3 = time.perf_counter()
            sections[flavor.value]["query_encode"].append(t1 - t0)
            sections[flavor.value]["gallery_precompute"].append(t2 - t1)
            sections[flavor.value]["scoring"].append(t3 - t2)
            totals[flavor.value].append(t3 - t0)
    if not np.isfinite(checksum):
        raise ConfigError("benchmark produced non-finite scores")

    total_min = {k: float(min(v)) for k, v in totals.items()}
    total_median = {k: float(np.median(v)) for k, v in totals.items()}
    late, full = Flavor.LATE_FUSION.value, Flavor.ARTEMIS.value
    return BenchReport(
        config={"n_queries": bench.n_queries, "gallery_size": bench.gallery_size,
                "h_t": bench.h_t, "h_i": bench.h_i, "h_hidden": bench.h_hidden,
                "repeats": bench.repeats, "block_size": bench.block_size,
                "seed": bench.seed},
        sections=sections, totals=totals,
        total_min=total_min, total_median=total_median,
        ratio_min=total_min[full] / total_min[late],
        ratio_median=total_median[full] / total_median[late])


# -- gradient-check suite --------------------------------------------------------

# "<what>_<flavor>": the summed pairwise scores of one branch, or the batch loss.
SCORE_CHECKS = ("pairwise_em_only", "pairwise_is_only")
CHECK_KINDS = SCORE_CHECKS + tuple(f"bbc_{f.value}" for f in Flavor)
LARGE_CHECK_KINDS = SCORE_CHECKS + ("bbc_artemis",)

GRAD_BATCH = 4  # queries (and targets) per batch-loss instance
SMALL_DIMS, LARGE_DIMS = HeadDims(8, 8, 8), HeadDims(512, 512, 512)
LARGE_COORDS = 96
# The probe step is 1e-4, not the checker's 1e-3 default: central
# differences carry O(h^2) truncation error, which at h=1e-3 already
# reaches ~1e-4 relative on softmax-heavy paths and would drown the
# tolerance this suite certifies.
FD_STEP = 1e-4


@dataclass
class GradCheckInstance:
    kind: str
    seed: int
    dims: HeadDims
    max_error: float
    passed: bool


@dataclass
class GradCheckSummary:
    instances: list[GradCheckInstance] = field(default_factory=list)

    @property
    def n_failures(self) -> int:
        return sum(not inst.passed for inst in self.instances)

    @property
    def passed(self) -> bool:
        return self.n_failures == 0

    @property
    def worst(self) -> float:
        return max(inst.max_error for inst in self.instances)

    def to_text(self) -> str:
        by_kind: dict[str, int] = {}
        for inst in self.instances:
            by_kind[inst.kind] = by_kind.get(inst.kind, 0) + 1
        lines = [f"gradient checks: {len(self.instances)} instances, "
                 f"{self.n_failures} failures, worst relative error {self.worst:.3e}"]
        for kind in sorted(by_kind):
            lines.append(f"  {kind:<18} {by_kind[kind]:>4} instances")
        for inst in self.instances:
            if not inst.passed:
                lines.append(f"  FAILED {inst.kind} seed={inst.seed} dims={inst.dims} "
                             f"max_error={inst.max_error:.3e}")
        return "\n".join(lines)


def _run_grad_instance(kind: str, seed: int, dims: HeadDims, tol: float,
                       n_coords: int | None) -> GradCheckInstance:
    rng = np.random.default_rng(seed)
    v0 = rng.normal(0.0, 0.5, size=param_count(dims))
    v0[-1] = rng.uniform(1.0, 5.0)  # temperature: keep FD probes positive

    what, _, flavor_name = kind.partition("_")
    flavor = Flavor.parse(flavor_name)
    nq, ng = (GRAD_BATCH, GRAD_BATCH) if what == "bbc" else (2, 3)
    r = normalize_rows(rng.standard_normal((nq, dims.h_i)))
    m = normalize_rows(rng.standard_normal((nq, dims.h_t)))
    t = normalize_rows(rng.standard_normal((ng, dims.h_i)))

    # The gradient training takes: bbc_loss itself, or its per-block leaves.
    params = vector_to_params(v0, dims)
    if what == "bbc":
        _, grads = training.bbc_loss(r, m, t, params, flavor)
    else:
        tape = Tape()
        live = lift_params(params, tape)
        scores = pairwise_scores(r, m, t, live, flavor)
        tape.backward(node(scores.value.sum(), [scores],
                           lambda g: (np.broadcast_to(g, scores.value.shape),)))
        grads = gradients_of(live, tape)

    def f(vec):   # the plain evaluation path
        probe = vector_to_params(vec, dims)
        scores = pairwise_scores(r, m, t, probe, flavor)
        if what == "bbc":
            return bbc_loss_from_scores(scores, probe.gamma)
        return scores.sum()

    coords = None
    if n_coords is not None and n_coords < v0.size:
        picked = rng.choice(v0.size - 1, size=n_coords - 1, replace=False)
        coords = np.append(picked, v0.size - 1)  # always probe the temperature
    report = finite_diff_check(f, v0, params_to_vector(grads), h=FD_STEP, tol=tol,
                               coords=coords)
    return GradCheckInstance(kind=kind, seed=seed, dims=dims,
                             max_error=report.max_error, passed=report.passed)


def gradient_check_suite(n_small: int = 104, n_large: int = 3,
                         tol: float = 1e-4, seed: int = 0) -> GradCheckSummary:
    """Training's tape gradients vs central differences over the score/loss family.

    Instances cycle through eight check kinds: the two pair scores and
    the batch loss under each flavor. Small-dims instances sweep every
    parameter coordinate; large-dims instances probe a seeded sample
    (a full sweep at 1.3 M parameters costs hours, not seconds).
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    if n_small < 0 or n_large < 0 or n_small + n_large == 0:
        raise ConfigError(f"instance counts must be >= 0 with at least one instance, "
                          f"got {n_small} small and {n_large} large")
    if not 0.0 < tol < math.inf:  # written so that NaN fails it
        raise ConfigError(f"tol must be positive and finite, got {tol}")
    summary = GradCheckSummary()
    for i in range(n_small):
        kind = CHECK_KINDS[i % len(CHECK_KINDS)]
        summary.instances.append(_run_grad_instance(
            kind, seed * 100003 + i, SMALL_DIMS, tol, n_coords=None))
    for i in range(n_large):
        kind = LARGE_CHECK_KINDS[i % len(LARGE_CHECK_KINDS)]
        summary.instances.append(_run_grad_instance(
            kind, seed * 999331 + i, LARGE_DIMS, tol, n_coords=LARGE_COORDS))
    return summary
