"""Workloads, measuring loop, tracing, correctness gate and report.

One process, one closed-loop client: the benchmark calls
``emis.cli.main`` in-process, waits for it to return, checks its output
files and calls it again, until ``--seconds`` have passed. CLI defaults
apply (workers=1, block_size=256). The seeded corpus and checkpoint are
written by ``fixture.py`` in a child process before anything is timed.
"""

from __future__ import annotations

import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from emis import autodiff, cli, data, evaluation, head, training
from emis.evaluation import evaluate, queries_from_triplets
from emis.harness import RunConfig, load_dataset, make_run_config
from emis.head import Flavor, load_checkpoint

import fixture
import reference as ref
import spans

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench_run"
MIN_SETUPS = 5
MIN_CALLS = 3
MIN_TRACED_CALLS = 2
SAMPLE_QUERIES = 64
TOP_K = 10
BATCH_SIZE = 32
TRAIN_EPOCHS = 1
# Products of Q x G x D per scoring call, by flavor (computed, not measured).
GEMMS_PER_SCORE = {"artemis": 4, "is_only": 2, "em_only": 2}
RATIO_FLAVORS = ("artemis", "late_fusion")


@dataclass(frozen=True)
class Workload:
    command: str                 # "eval" or "train"
    flavor: str
    flags: tuple[str, ...] = ()
    dump: bool = False
    exclude_ref: bool = False


WORKLOADS = {
    "eval-artemis": Workload("eval", "artemis"),
    "eval-late-fusion-dump": Workload("eval", "late_fusion",
                                      ("--exclude-ref", "--top-k", str(TOP_K)),
                                      dump=True, exclude_ref=True),
    "train-artemis": Workload("train", "artemis",
                              ("--batch-size", str(BATCH_SIZE), "--monitor", "val",
                               "--epochs", str(TRAIN_EPOCHS))),
}


@dataclass
class Call:
    """One finished CLI call and what its output files said."""

    seconds: float
    items: int
    traced: bool = False
    root: int | None = None       # its cli.main span, when traced
    r_at_10: float = math.nan
    problem: str = ""             # empty when the call and its outputs passed


@dataclass
class Context:
    workload: Workload
    seed: int
    work: Path
    files: dict[str, str]
    n_test: int
    n_train_steps: int
    failures: list[str] = field(default_factory=list)   # one line per failed operation

    def data_flags(self) -> list[str]:
        return [flag for key in ("refs", "mods", "targets", "triplets", "subsets")
                for flag in ("--" + key, self.files[key])]

    def argv(self) -> list[str]:
        """The workload's own CLI call."""
        w = self.workload
        if w.command == "train":
            return (["train", "--flavor", w.flavor, "--seed", str(self.seed),
                     "--checkpoint", str(self.work / "trained.ahp"),
                     "--logs", str(self.work / "epochs.jsonl"), *w.flags]
                    + self.data_flags())
        dump = ["--dump", str(self.work / "dump.jsonl")] if w.dump else []
        return self.eval_argv(w.flavor, [*w.flags, *dump], "metrics.json")

    def eval_argv(self, flavor: str, flags: list[str], metrics_name: str) -> list[str]:
        return (["eval", "--flavor", flavor, "--checkpoint", self.files["checkpoint"],
                 "--metrics-out", str(self.work / metrics_name), *flags]
                + self.data_flags())


# -- environment ----------------------------------------------------------------

def blas_threads() -> int | str:
    """Thread count the loaded OpenBLAS reports, when it can be asked."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh
                if "openblas" in line.lower() and line.split()[-1].startswith("/")}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return "unknown"


def environment(name: str, seed: int, nproc: int, trace: bool) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    spec = fixture.spec(seed)
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas_name, "blas_threads": blas_threads(), "nproc": nproc,
        "corpus": {k: getattr(spec, k) for k in ("dim_i", "dim_t", "n_attributes", "n_train",
                                                  "n_val", "n_eval", "gallery_size")},
        "head": vars(fixture.DIMS),
        "cli": {"block_size": RunConfig.block_size, "workers": RunConfig.workers,
                "batch_size": BATCH_SIZE, "epochs": TRAIN_EPOCHS},
    }


# -- set-up -----------------------------------------------------------------------

def make_fixture(work: Path, seed: int) -> dict[str, str]:
    """Write corpus and checkpoint from a child process and wait for it."""
    done = subprocess.run([sys.executable, str(Path(__file__).with_name("fixture.py")),
                           "--out", str(work / "corpus"), "--seed", str(seed)],
                          capture_output=True, text=True, timeout=600, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_config(ctx: Context):
    return make_run_config(None, {k: ctx.files[k] for k in
                                  ("refs", "mods", "targets", "triplets", "subsets")})


def time_setup(ctx: Context) -> float:
    """One set-up as a caller pays it before the first query: banks, ids,
    normalization, and for evaluation the checkpoint."""
    gc.collect()
    started = time.perf_counter()
    corpus, _ = load_dataset(run_config(ctx))
    for bank in (corpus.refs, corpus.mods, corpus.targets):
        bank.matrix64()
    if ctx.workload.command == "eval":
        load_checkpoint(ctx.files["checkpoint"])
    return time.perf_counter() - started


# -- the measuring loop ------------------------------------------------------------

def call_cli(argv: list[str], tracer: spans.Tracer | None) -> tuple[int, float, int | None]:
    gc.collect()
    sink = io.StringIO()
    root = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        if tracer is not None:
            tracer.enabled = True
            root = tracer.open("cli.main", {"command": argv[0], "flavor": argv[2]})
        started = time.perf_counter()
        try:
            rc = cli.main(argv)
        finally:
            seconds = time.perf_counter() - started
            if tracer is not None:
                tracer.close(root)
                tracer.enabled = False
    return rc, seconds, root


def read_outputs(ctx: Context, call: Call, first: dict) -> None:
    """Check one call's output files against the first call's."""
    if ctx.workload.command == "eval":
        body = (ctx.work / "metrics.json").read_bytes()
        first.setdefault("metrics", body)
        call.r_at_10 = json.loads(body)["metrics"]["r_at_10"]
        if body != first["metrics"]:
            call.problem = "metrics JSON bytes differ from the first call"
        return
    lines = (ctx.work / "epochs.jsonl").read_text(encoding="utf-8").splitlines()
    logs = [json.loads(line) for line in lines if line.strip()]
    losses = [log["loss"] for log in logs]
    first.setdefault("losses", losses)
    call.r_at_10 = logs[-1]["metrics"]["val"]["r_at_10"]
    if not all(math.isfinite(x) for x in losses):
        call.problem = f"non-finite epoch loss {losses}"
    elif losses != first["losses"]:
        call.problem = f"epoch losses {losses} differ from {first['losses']}"


def one_call(ctx: Context, tracer: spans.Tracer | None, first: dict) -> Call:
    rc, seconds, root = call_cli(ctx.argv(), tracer)
    items = ctx.n_test if ctx.workload.command == "eval" else ctx.n_train_steps
    call = Call(seconds=seconds, items=items, traced=tracer is not None, root=root)
    if rc != 0:
        call.problem = f"exit code {rc}"
    else:
        try:
            read_outputs(ctx, call, first)
        except (OSError, ValueError, KeyError) as exc:
            call.problem = f"unreadable output: {exc!r}"
    if call.problem:
        ctx.failures.append(f"{ctx.workload.command} call: {call.problem}")
    return call


def measure_calls(ctx: Context, seconds: float,
                  tracer: spans.Tracer | None) -> tuple[list[Call], list[float]]:
    """Closed loop for ``seconds``: a set-up, then a CLI call, and again.

    Set-ups are spread over the run, like the calls, so both sample the
    same stretch of machine time. With a tracer, traced and untraced calls
    alternate so the overhead is measured in the same run.
    """
    calls: list[Call] = []
    setups: list[float] = []
    first: dict = {}
    started = time.perf_counter()

    def enough() -> bool:
        if time.perf_counter() - started < seconds:
            return False
        if tracer is None:
            return len(calls) >= MIN_CALLS
        traced = sum(c.traced for c in calls)
        return min(traced, len(calls) - traced) >= MIN_TRACED_CALLS

    while not enough():
        setups.append(time_setup(ctx))
        use_tracer = tracer if tracer is not None and len(calls) % 2 == 1 else None
        calls.append(one_call(ctx, use_tracer, first))
    while len(setups) < MIN_SETUPS:
        setups.append(time_setup(ctx))
    return calls, setups


# -- correctness gate ----------------------------------------------------------------

def check_sample(ctx: Context) -> list[str]:
    """Seeded 64-query sample: evaluate's metrics and the dump against the reference.

    Returns the problems found; an empty list means the check passed.
    """
    w = ctx.workload
    checkpoint = ctx.files["checkpoint"] if w.command == "eval" else str(ctx.work / "trained.ahp")
    corpus, triplets = load_dataset(run_config(ctx))
    queries = queries_from_triplets(triplets, "test", w.exclude_ref)
    rng = np.random.default_rng(ctx.seed)
    picked = sorted(int(i) for i in rng.choice(len(queries), SAMPLE_QUERIES, replace=False))
    sample = [queries[i] for i in picked]
    got = evaluate(sample, corpus, load_checkpoint(checkpoint), Flavor.parse(w.flavor)).metrics
    del corpus

    reference = ref.Reference(ctx.files["refs"], ctx.files["mods"], ctx.files["targets"],
                              checkpoint if w.flavor != "late_fusion" else None)
    test = ref.read_split(ctx.files["triplets"], "test")
    ranks, tops = [], []
    for index, query in zip(picked, sample):
        r_id, m_id, t_id = test[index]
        if (r_id, m_id, (t_id,)) != (query.ref_id, query.mod_id, query.ground_truth):
            return [f"test query {index} differs from the triplet file"]
        rank, top = reference.rank(r_id, m_id, t_id, w.flavor, w.exclude_ref, TOP_K)
        ranks.append(rank)
        tops.append(top)

    problems = []
    for key, value in ref.recall_metrics(ranks).items():
        if got.get(key) != value:
            problems.append(f"sample {key}: evaluate {got.get(key)!r}, reference {value!r}")
    if w.dump:
        lines = (ctx.work / "dump.jsonl").read_text(encoding="utf-8").splitlines()
        for index, rank, top in zip(picked, ranks, tops):
            entry = json.loads(lines[index])
            if entry["query"] != index or entry["rank"] != rank:
                problems.append(f"dump line {index}: rank {entry['rank']}, reference {rank}")
            elif [e["id"] for e in entry["top"]] != top:
                problems.append(f"dump line {index}: top-{TOP_K} ids differ from reference")
    return problems


# -- per-layer numbers from the spans ---------------------------------------------------

def describe_evaluate(queries, corpus, params, flavor, *args, **kwargs) -> dict:
    return {"flavor": flavor.value, "queries": len(queries)}


def describe_scores(queries, gallery) -> dict:
    q, (g, d) = queries.n_queries, gallery.tn.shape
    return {"flavor": queries.flavor.value, "q": int(q), "g": int(g), "d": int(d)}


def instrument(tracer: spans.Tracer) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    wrap = tracer.wrap
    wrap(cli, "load_dataset", "data.load")
    wrap(data.FeatureBank, "matrix64", "data.normalize")
    wrap(cli, "load_checkpoint", "head.load_checkpoint")
    wrap(cli, "evaluate", "evaluation.evaluate", describe_evaluate)
    wrap(evaluation, "evaluate", "evaluation.evaluate", describe_evaluate)  # training monitor
    wrap(evaluation, "pairwise_scores", "head.pairwise_scores")
    wrap(training, "pairwise_scores", "head.pairwise_scores")
    wrap(head, "encode_queries", "head.encode_queries")
    wrap(head, "prepare_gallery", "head.prepare_gallery")
    wrap(head, "scores_from_state", "head.scores_from_state", describe_scores)
    wrap(cli, "train", "training.train")
    wrap(training, "bbc_loss", "training.loss_and_grads")
    wrap(training, "adamw_step", "training.adamw_step")
    wrap(autodiff.Tape, "backward", "autodiff.backward")


def score_flops(span: spans.Span) -> float:
    i = span.info
    return GEMMS_PER_SCORE.get(i["flavor"], 1) * 2.0 * i["q"] * i["g"] * i["d"]


def call_layers(all_spans: list[spans.Span], own: list[float], root: int) -> dict:
    """Per-layer seconds of one traced CLI call (self time unless noted)."""
    members = spans.subtree(all_spans, root)

    def pick(name):
        return [i for i in members if all_spans[i].name == name]

    def self_sum(name):
        return sum(own[i] for i in pick(name))

    def inclusive(indices):
        return sum(all_spans[i].duration for i in indices)

    losses = pick("training.loss_and_grads")
    backward = [i for i in pick("autodiff.backward")
                if spans.has_ancestor(all_spans, i, "training.loss_and_grads")]
    monitor = [i for i in pick("evaluation.evaluate")
               if spans.has_ancestor(all_spans, i, "training.train")]
    return {
        "data.load_s": self_sum("data.load"),
        "data.normalize_s": self_sum("data.normalize"),
        "head.load_checkpoint_s": self_sum("head.load_checkpoint"),
        "head.encode_queries_s": self_sum("head.encode_queries"),
        "head.prepare_gallery_s": self_sum("head.prepare_gallery"),
        "head.prepare_gallery_calls": len(pick("head.prepare_gallery")),
        "head.scores_from_state_s": self_sum("head.scores_from_state"),
        "evaluation.self_s": self_sum("evaluation.evaluate"),
        # inclusive: the loss forward with the head formulas on tape Vars
        "training.forward_s": inclusive(losses) - inclusive(backward),
        "training.optimizer_s": inclusive(pick("training.adamw_step")),
        "training.monitor_eval_s": inclusive(monitor),
        "training.self_s": self_sum("training.train") + self_sum("training.loss_and_grads"),
        "autodiff.backward_s": self_sum("autodiff.backward"),
        "cli.self_s": self_sum("cli.main"),
    }


def time_gemm(q: int, g: int, d: int, rng: np.random.Generator) -> float:
    """Median seconds of a plain float64 a @ b.T at one scoring shape."""
    a, b = rng.standard_normal((q, d)), rng.standard_normal((g, d))
    a @ b.T
    times: list[float] = []
    budget = time.perf_counter() + 0.3
    while len(times) < 3 or (time.perf_counter() < budget and len(times) < 200):
        started = time.perf_counter()
        a @ b.T
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def gemm_floor(score_spans: list[spans.Span], seed: int) -> float:
    """GFLOP/s of plain dgemm doing the same products as the scoring calls."""
    rng = np.random.default_rng(seed)
    shapes = Counter((s.info["q"], s.info["g"], s.info["d"]) for s in score_spans)
    per_shape = {shape: time_gemm(*shape, rng) for shape in shapes}
    seconds = sum(GEMMS_PER_SCORE.get(s.info["flavor"], 1)
                  * per_shape[(s.info["q"], s.info["g"], s.info["d"])] for s in score_spans)
    return sum(score_flops(s) for s in score_spans) / seconds / 1e9


def head_seconds_per_query(all_spans: list[spans.Span], root: int) -> tuple[str, float] | None:
    """(flavor, encode + prepare + score seconds per query) of one `emis eval` call."""
    if all_spans[root].info["command"] != "eval":
        return None
    members = spans.subtree(all_spans, root)
    evals = [i for i in members if all_spans[i].name == "evaluation.evaluate"]
    if not evals:
        return None
    info = all_spans[evals[0]].info
    busy = sum(all_spans[i].duration for i in members if all_spans[i].name in
               ("head.encode_queries", "head.prepare_gallery", "head.scores_from_state"))
    return info["flavor"], busy / info["queries"]


def layer_metrics(ctx: Context, tracer: spans.Tracer, calls: list[Call],
                  companions: list[int]) -> dict[str, tuple[float, str]]:
    all_spans = tracer.spans
    own = spans.self_times(all_spans)
    traced = [c for c in calls if c.traced]
    plain = [c for c in calls if not c.traced]
    per_call = [call_layers(all_spans, own, c.root) for c in traced]
    out: dict[str, tuple[float, str]] = {}
    for key in per_call[0]:
        unit = "count" if key.endswith("_calls") else "s"
        out[key] = (statistics.median(p[key] for p in per_call), unit)

    mine = sorted(i for c in traced for i in spans.subtree(all_spans, c.root))

    def named(name, indices=mine):
        return [all_spans[i] for i in indices if all_spans[i].name == name]

    scores = named("head.scores_from_state")
    score_time = sum(s.duration for s in scores)
    out["head.score_gflops"] = (sum(score_flops(s) for s in scores) / score_time / 1e9, "GFLOP/s")
    first_call = spans.subtree(all_spans, traced[0].root)
    out["ref.dgemm_gflops"] = (gemm_floor(named("head.scores_from_state", first_call), ctx.seed),
                               "GFLOP/s")

    blocks = [all_spans[i].duration * 1e3 for i in mine
              if all_spans[i].name == "head.pairwise_scores"
              and spans.has_ancestor(all_spans, i, "evaluation.evaluate")]
    steps = [(loss.duration + step.duration) * 1e3 for loss, step in
             zip(named("training.loss_and_grads"), named("training.adamw_step"))]
    for prefix, values in (("head.pairwise_scores_ms", blocks), ("training.step_ms", steps)):
        dist = spans.distribution(values)
        out[f"{prefix}.p50"] = (dist["p50"], "ms")
        out[f"{prefix}.tail"] = (dist["tail"], "ms")
        out[f"{prefix}.tail_q"] = (dist["tail_q"], "percentile")
        out[f"{prefix}.n"] = (dist["n"], "count")

    per_query: dict[str, list[float]] = {f: [] for f in RATIO_FLAVORS}
    for root in [c.root for c in traced] + companions:
        found = head_seconds_per_query(all_spans, root)
        if found is not None and found[0] in per_query:
            per_query[found[0]].append(found[1])
    ratio = (statistics.median(per_query["artemis"]) / statistics.median(per_query["late_fusion"])
             if all(per_query.values()) else 0.0)  # 0 only when an eval call failed
    out["head.artemis_over_late_fusion"] = (ratio, "ratio")
    out["trace.overhead_pct"] = (100.0 * (statistics.median(c.seconds for c in traced)
                                          / statistics.median(c.seconds for c in plain) - 1.0), "%")
    out["trace.calls"] = (len(traced), "count")
    return out


def ratio_companions(ctx: Context, tracer: spans.Tracer) -> list[int]:
    """Traced `emis eval` calls of the RATIO_FLAVORS the workload does not run
    itself, so every traced run can report head.artemis_over_late_fusion."""
    w = ctx.workload
    roots = []
    for flavor in RATIO_FLAVORS:
        if w.command == "eval" and flavor == w.flavor:
            continue
        rc, _, root = call_cli(ctx.eval_argv(flavor, [], f"companion-{flavor}.json"), tracer)
        if rc != 0:
            ctx.failures.append(f"companion eval --flavor {flavor}: exit code {rc}")
        roots.append(root)
    return roots


# -- report -----------------------------------------------------------------------------

def end_to_end(calls: list[Call], setup: list[float]) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup), "s"),
        "items_per_s": (statistics.median(c.items / c.seconds for c in calls), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def describe_samples(name: str, values: list[float], unit: str) -> str:
    dist = spans.distribution(values)
    return (f"  {name}: median {dist['p50']:.6g} {unit}, p{dist['tail_q']:g} "
            f"{dist['tail']:.6g} {unit}, n={dist['n']}")


def run(workload_name: str, seed: int, seconds: float, trace: bool, nproc: int) -> int:
    if workload_name not in WORKLOADS:
        print(f"perfbench: unknown workload {workload_name!r}; "
              f"expected one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[workload_name]
    RUN_DIR.mkdir(exist_ok=True)
    work = RUN_DIR / f"work-{os.getpid()}"
    work.mkdir()
    tracer = spans.Tracer() if trace else None
    phases: dict[str, float] = {}
    mark = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal mark
        now = time.perf_counter()
        phases[name] = now - mark
        mark = now

    try:
        files = make_fixture(work, seed)
        phase("fixture")
        n_train = len(ref.read_split(files["triplets"], "train"))
        ctx = Context(workload=workload, seed=seed, work=work, files=files,
                      n_test=len(ref.read_split(files["triplets"], "test")),
                      n_train_steps=TRAIN_EPOCHS * (n_train // BATCH_SIZE) * BATCH_SIZE)
        companions: list[int] = []
        if tracer is not None:
            instrument(tracer)
        try:
            calls, setup = measure_calls(ctx, seconds, tracer)
            if tracer is not None:
                companions = ratio_companions(ctx, tracer)
        finally:
            if tracer is not None:
                tracer.restore()
        phase("calls")
        if tracer is None:
            metrics = end_to_end(calls, setup)  # before the gate, for the calls' peak RSS
        sample_problems = check_sample(ctx)
        phase("check")
        if sample_problems:
            ctx.failures.append("64-query sample: " + "; ".join(sample_problems))
        if tracer is not None:
            metrics = layer_metrics(ctx, tracer, calls, companions)
            tracer.dump(RUN_DIR / f"{workload_name}-s{seed}.spans.jsonl")
            phase("layers")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("perfbench env " + json.dumps(environment(workload_name, seed, nproc, trace),
                                        sort_keys=True))
    print("perfbench phases (s): " + ", ".join(f"{k} {v:.2f}" for k, v in phases.items()))
    print(describe_samples("setup_s", setup, "s"))
    print(describe_samples("call_s", [c.seconds for c in calls], "s"))
    print(f"  r_at_10 of the CLI's report: {calls[0].r_at_10} %")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    for problem in ctx.failures:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": not ctx.failures,
                      "attempted": len(calls) + len(companions) + 1,
                      "failed": len(ctx.failures),
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if not ctx.failures else 1
