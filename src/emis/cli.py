"""Command-line front end.

Seven subcommands: synth, train, eval, ablate, gradcheck, bench,
inspect-bank. Data-facing commands read an optional key=value config
file (--config); explicit flags override file values. Exit codes:
0 success, 2 configuration error, 3 data error, 4 check failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

from .data import SynthSpec, read_feature_bank
from .errors import CheckFailure, ConfigError, DataError, EmisError
from .evaluation import (CONVENTION_CELLS, FASHIONIQ_CATEGORIES, aggregate_suite,
                         evaluate, queries_from_triplets)
from .harness import (RUN_KEY_TYPES, BenchConfig, RunConfig, ablation_table,
                      bench_latency, gradient_check_suite, load_dataset,
                      make_run_config, read_config_file, require_input_file,
                      require_output_path, require_settings, resolve_dims,
                      run_ablation, write_synthetic)
from .head import (HeadDims, head_mac_count, load_checkpoint, param_count,
                   save_checkpoint)
from .numerics import row_norms
from .training import train, write_epoch_logs

_CONFIG_KEY_DOC = """\
config file: one `key = value` per line; `#` starts a comment; flags win.
keys (defaults in parentheses):
  batch_size (32)            minibatch size, >= 2
  epochs (50)                training epochs
  lr0 (5e-4)                 initial learning rate
  lr_decay (0.5)             multiplier applied every decay_every epochs
  decay_every (10)           epochs between learning-rate decays
  weight_decay (0.01)        decoupled AdamW decay (temperature excluded)
  seed (0)                   RNG seed for init and shuffling
  flavor (artemis)           image_only | text_only | late_fusion |
                             is_only | em_only | artemis
  keep_partial_batch (false) train on the trailing short minibatch too
  refs, mods, targets        feature bank paths (required by train/eval/ablate)
  triplets, subsets          triplet JSONL path; optional subsets JSONL
  checkpoint                 head checkpoint path (output of train, input of eval)
  convention                 fashioniq | shoes | cirr metric aggregation
  exclude_ref (false)        drop the reference image from each ranking
  workers (1)                threads for read-only evaluation scoring
  block_size (256)           queries per scoring block
  split (test)               evaluation split
  monitor (val)              comma-separated splits evaluated during training
  selection_metric (r_at_10) metric whose best epoch train reports per split:
                             the lowest median_rank, the highest of any other
  h_hidden (0)               attention hidden width; 0 = target bank width
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emis",
        description="Attention-gated retrieval head: training, evaluation, benchmarks.",
        epilog=_CONFIG_KEY_DOC,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate the synthetic attribute-flip benchmark")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-attributes", type=int, default=12)
    p.add_argument("--dim-i", type=int, default=64)
    p.add_argument("--dim-t", type=int, default=64)
    p.add_argument("--n-train", type=int, default=2000)
    p.add_argument("--n-eval", type=int, default=40)
    p.add_argument("--n-val", type=int, default=0)
    p.add_argument("--gallery-size", type=int, default=1000)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--flip-count", type=int, default=4)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the head on a triplet dataset")
    _add_run_options(p)
    p.add_argument("--logs", help="write per-epoch JSONL logs here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint (or aggregate cells)")
    _add_run_options(p)
    p.add_argument("--metrics-out", help="write the metric report JSON here")
    p.add_argument("--dump", help="write per-query top-k JSONL here")
    p.add_argument("--top-k", type=int, default=10, help="entries per dump line")
    p.add_argument("--cells", nargs="+", metavar="NAME=METRICS.json",
                   help="aggregate previously written reports instead of scoring "
                        "(fashioniq needs dress/shirt/toptee cells)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="train and evaluate all six flavors")
    _add_run_options(p)
    p.add_argument("--out", help="write the table as JSON here")
    p.add_argument("--quiet", action="store_true", help="suppress progress lines")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="verify tape gradients against finite differences")
    p.add_argument("--instances", type=int, default=104, help="small-dims instances")
    p.add_argument("--large-instances", type=int, default=3, help="512-dims instances")
    p.add_argument("--tol", type=float, default=1e-4, help="relative tolerance")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("bench", help="latency comparison: late_fusion vs artemis")
    p.add_argument("--queries", type=int, default=12000)
    p.add_argument("--gallery", type=int, default=15000)
    p.add_argument("--dim", type=int, default=512, help="h_t = h_i = h_hidden")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--block-size", type=int, default=1024)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint", help="time a trained head instead of a fresh one")
    p.add_argument("--out", help="write the timing report JSON here")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("inspect-bank", help="show a feature bank's header and stats")
    p.add_argument("path")
    p.add_argument("--json", action="store_true", help="emit JSON instead of text")
    p.set_defaults(func=cmd_inspect_bank)

    return parser


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="key=value settings file (see emis --help)")
    for name, kind in RUN_KEY_TYPES.items():
        flag = "--" + name.replace("_", "-")
        if kind is bool:
            p.add_argument(flag, action="store_const", const=True, default=None,
                           help=argparse.SUPPRESS)
        else:
            p.add_argument(flag, default=None, help=argparse.SUPPRESS)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_config(args: argparse.Namespace) -> RunConfig:
    file_settings = read_config_file(args.config) if args.config else None
    overrides = {name: getattr(args, name) for name in RUN_KEY_TYPES if hasattr(args, name)}
    config = make_run_config(file_settings, overrides)
    # Eval's thread pool may start one thread per block; extra ones only cost memory.
    cpus = usable_cpus()
    if config.workers > cpus:
        raise ConfigError(f"workers must be <= {cpus}, the CPUs this process may use, "
                          f"got {config.workers!r}")
    return config


def _too_large(args: argparse.Namespace, what: str, *sizes: str) -> ConfigError:
    named = ", ".join(f"--{name.replace('_', '-')} {getattr(args, name)}" for name in sizes)
    return ConfigError(f"{named}: cannot allocate {what}")


def cmd_synth(args: argparse.Namespace) -> int:
    spec = SynthSpec(n_attributes=args.n_attributes, dim_i=args.dim_i,
                     dim_t=args.dim_t, n_train=args.n_train, n_eval=args.n_eval,
                     n_val=args.n_val, gallery_size=args.gallery_size,
                     noise_sigma=args.noise_sigma, flip_count=args.flip_count,
                     seed=args.seed)
    try:
        paths = write_synthetic(spec, args.out)
    except MemoryError:
        raise _too_large(args, "the corpus", "n_train", "n_eval", "n_val", "gallery_size",
                         "n_attributes", "dim_i", "dim_t") from None
    print(json.dumps(paths, indent=2, sort_keys=True))
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    config = _run_config(args)
    require_settings(config, "checkpoint")
    require_output_path("checkpoint", config.checkpoint)
    require_output_path("logs", args.logs)
    corpus, triplets = load_dataset(config)
    result = train(triplets, corpus, config,
                   dims=resolve_dims(config, corpus), monitor=config.monitored_splits(),
                   selection_metric=config.selection_metric,
                   exclude_ref=config.exclude_ref)
    save_checkpoint(result.params, config.checkpoint)
    if args.logs:
        write_epoch_logs(result.logs, args.logs)
    last = result.logs[-1]
    print(f"trained {config.flavor.value} for {len(result.logs)} epochs; "
          f"final mean loss {last.loss:.6f}")
    for split, epoch in sorted(result.best.items()):
        print(f"best {config.selection_metric} on {split}: epoch {epoch}")
    print(f"checkpoint written to {config.checkpoint}")
    return 0


def _aggregate_cells(config: RunConfig, cell_args: list[str]) -> int:
    if config.convention is None:
        raise ConfigError("--cells needs --convention")
    fashioniq = config.convention == "fashioniq"
    if not fashioniq and len(cell_args) != 1:
        raise ConfigError(f"{config.convention} aggregates one report, got {len(cell_args)} cells")
    cells: dict[str, dict[str, float]] = {}
    for item in cell_args:
        if "=" not in item:
            raise ConfigError(f"--cells entries look like name=metrics.json, got {item!r}")
        name, path = item.split("=", 1)
        name = name.strip()
        if fashioniq and (name in cells or name not in FASHIONIQ_CATEGORIES):
            raise ConfigError(f"fashioniq --cells name each of {', '.join(FASHIONIQ_CATEGORIES)} "
                              f"once, got {name!r}" + (" twice" if name in cells else ""))
        require_input_file(f"cell {name}", path)
        try:
            # Integers are read as floats, so a huge one is inf, not an overflow.
            payload = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=float)
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise DataError(f"cell file {path!r} is not valid JSON") from None
        metrics = payload.get("metrics", payload) if isinstance(payload, dict) else None
        if not isinstance(metrics, dict):
            raise DataError(f"cell file {path!r} holds no JSON object of metrics")
        for key in CONVENTION_CELLS[config.convention]:
            value = metrics.get(key)
            if key in metrics and not (isinstance(value, float) and math.isfinite(value)):
                raise DataError(f"cell file {path!r}: {key!r} is {value!r}, "
                                "not a finite number")
        cells[name] = metrics
    table = cells if fashioniq else next(iter(cells.values()))
    print(aggregate_suite(table, config.convention).to_text())
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.top_k < 0:
        raise ConfigError(f"top-k must be >= 0, got {args.top_k}")
    config = _run_config(args)
    if args.cells:
        return _aggregate_cells(config, args.cells)
    if config.convention == "fashioniq":
        raise ConfigError("fashioniq aggregates three category runs; "
                          "evaluate each category, then rerun with --cells")
    require_settings(config, "checkpoint")
    require_input_file("checkpoint", config.checkpoint)
    require_output_path("dump", args.dump)
    require_output_path("metrics-out", args.metrics_out)
    corpus, triplets = load_dataset(config)
    params = load_checkpoint(config.checkpoint)
    if config.h_hidden and config.h_hidden != params.dims.h_hidden:
        raise ConfigError(f"h_hidden {config.h_hidden} contradicts the checkpoint's "
                          f"h_hidden {params.dims.h_hidden}")
    queries = queries_from_triplets(triplets, config.split, config.exclude_ref)
    report = evaluate(queries, corpus, params, config.flavor,
                      block_size=config.block_size, workers=config.workers,
                      dump_path=args.dump, dump_top_k=args.top_k)
    print(report.to_text())
    if config.convention is not None:
        print(aggregate_suite(report.metrics, config.convention).to_text())
    if args.metrics_out:
        Path(args.metrics_out).write_text(report.to_json(indent=2) + "\n",
                                          encoding="utf-8")
    return 0


def cmd_ablate(args: argparse.Namespace) -> int:
    config = _run_config(args)
    require_output_path("out", args.out)
    log = None if args.quiet else lambda line: print(line, flush=True)
    reports = run_ablation(config, log=log)
    print(ablation_table(reports))
    if args.out:
        payload = [r.rounded() for r in reports]
        Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    summary = gradient_check_suite(n_small=args.instances,
                                   n_large=args.large_instances,
                                   tol=args.tol, seed=args.seed)
    print(summary.to_text())
    if not summary.passed:
        raise CheckFailure(f"{summary.n_failures} gradient check(s) exceeded "
                           f"tolerance {args.tol}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    bench = BenchConfig(n_queries=args.queries, gallery_size=args.gallery,
                        h_t=args.dim, h_i=args.dim, h_hidden=args.dim,
                        repeats=args.repeats, block_size=args.block_size,
                        seed=args.seed)
    require_output_path("out", args.out)
    dims = HeadDims(bench.h_t, bench.h_i, bench.h_hidden)
    params = None
    if args.checkpoint:
        require_input_file("checkpoint", args.checkpoint)
        params = load_checkpoint(args.checkpoint)
        if params.dims != dims:
            raise ConfigError(f"checkpoint dims {params.dims} do not match --dim {args.dim}")
    try:
        report = bench_latency(bench, params=params)
    except MemoryError:
        raise _too_large(args, "the banks and the head", "queries", "gallery", "dim") from None
    print(f"head parameters: {param_count(dims):,}")
    print(f"head MACs per triplet: {head_mac_count(dims):,}")
    print()
    print(report.to_text())
    if args.out:
        Path(args.out).write_text(report.to_json(indent=2) + "\n", encoding="utf-8")
    return 0


def cmd_inspect_bank(args: argparse.Namespace) -> int:
    bank = read_feature_bank(args.path)
    norms = row_norms(bank.data)
    info = {
        "path": args.path, "rows": bank.n, "dim": bank.dim,
        "dtype": "float32 little-endian",
        "row_norm_min": float(norms.min()) if bank.n else None,
        "row_norm_max": float(norms.max()) if bank.n else None,
        "row_norm_mean": float(norms.mean()) if bank.n else None,
        "first_ids": bank.ids[:5],
    }
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
    else:
        print(f"{args.path}: {bank.n} rows x {bank.dim} dims (float32 LE)")
        if bank.n:
            print(f"row norms: min {info['row_norm_min']:.6f}, "
                  f"mean {info['row_norm_mean']:.6f}, max {info['row_norm_max']:.6f}")
        else:
            print("row norms: no rows")
        print("first ids: " + ", ".join(info["first_ids"]))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CheckFailure as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except EmisError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
