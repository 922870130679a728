"""Attention-gated scoring head for composed image retrieval.

A composed query pairs a reference image embedding with a text
modifier embedding; the head scores gallery candidates by summing an
explicit-matching channel (projected modifier vs attention-reweighted
candidate) and an implicit-similarity channel (reference vs candidate
under modifier-derived attention). Everything downstream of the
pre-extracted embeddings lives here: training with the in-batch
classification loss, ranking and recall metrics, file formats, and a
CLI (`emis`).
"""

from .data import (Corpus, FeatureBank, SynthInfo, SynthSpec, TripletRecord,
                   TripletSet, generate_synthetic, load_triplets,
                   read_feature_bank, write_feature_bank, write_triplets)
from .errors import (BadMagic, BadSplit, CheckFailure, ConfigError, DataError,
                     DuplicateId, EmisError, EmptyInput, EmptySplit,
                     MissingCell, MissingSubset, NearZeroNorm, NonFiniteData,
                     NonFiniteGradient, ShapeMismatch, SpecInvalid,
                     TruncatedFile, UnknownId)
from .evaluation import (MetricReport, QuerySpec, Rankings, aggregate_suite,
                         evaluate, median_rank, queries_from_triplets,
                         rank_queries, recall_at_k, round_half_up)
from .harness import (BenchConfig, BenchReport, RunConfig, ablation_table,
                      bench_latency, gradient_check_suite, run_ablation,
                      write_synthetic)
from .head import (Flavor, HeadDims, HeadParams, head_mac_count,
                   head_param_count, init_params, load_checkpoint,
                   pairwise_scores, save_checkpoint)
from .numerics import finite_diff_check
from .training import (AdamWState, EpochLog, TrainConfig, TrainResult,
                       adamw_step, bbc_loss, bbc_loss_from_scores,
                       lr_at_epoch, read_epoch_logs, train, write_epoch_logs)

__version__ = "0.1.0"

__all__ = [
    "AdamWState", "BadMagic", "BadSplit", "BenchConfig", "BenchReport",
    "CheckFailure", "ConfigError", "Corpus", "DataError", "DuplicateId",
    "EmisError", "EmptyInput", "EmptySplit", "EpochLog", "FeatureBank",
    "Flavor", "HeadDims", "HeadParams", "MetricReport",
    "MissingCell", "MissingSubset", "NearZeroNorm", "NonFiniteData",
    "NonFiniteGradient", "QuerySpec", "Rankings", "RunConfig",
    "ShapeMismatch", "SpecInvalid", "SynthInfo", "SynthSpec", "TrainConfig",
    "TrainResult", "TripletRecord", "TripletSet", "TruncatedFile",
    "UnknownId", "ablation_table", "adamw_step", "aggregate_suite",
    "bbc_loss", "bbc_loss_from_scores", "bench_latency", "evaluate",
    "finite_diff_check", "generate_synthetic", "gradient_check_suite",
    "head_mac_count", "head_param_count", "init_params", "load_checkpoint",
    "load_triplets", "lr_at_epoch", "median_rank", "pairwise_scores",
    "queries_from_triplets", "rank_queries", "read_epoch_logs",
    "read_feature_bank", "recall_at_k", "round_half_up", "run_ablation",
    "save_checkpoint", "train", "write_epoch_logs",
    "write_feature_bank", "write_synthetic", "write_triplets",
]
