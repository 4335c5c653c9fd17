"""Two-level sparse mixture-of-experts with shared experts and random
feature-reorganization fusion, for multimodal discrete-time survival
prediction. Includes training, evaluation (concordance, Kaplan-Meier,
log-rank, Welch t), and diagnostic analyses."""

import os
import sys

if "numpy" not in sys.modules:
    # Every matrix here is small, so a second BLAS thread has little to split,
    # and its spinning worker competes with the memory-bound optimizer. Pin one
    # thread unless the caller set a count; numpy reads it only when it loads.
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, "1")

from .config import RunConfig, apply_desk_preset, load_config, save_config
from .data import (
    BinEdges,
    SampleRecord,
    SynthConfig,
    assign_bin,
    compute_bin_edges,
    generate_synthetic,
    load_manifest,
    load_samples,
    make_folds,
    write_dataset,
)
from .model import (
    ForwardResult,
    HDMoEParams,
    ModelConfig,
    forward,
    init_params,
    load_checkpoint,
    parameter_count,
    risk_score,
    save_checkpoint,
)
from .trainer import OptimizerState, TrainConfig, optimizer_step, predict_fold, train_fold

__version__ = "0.1.0"

__all__ = [
    "BinEdges",
    "ForwardResult",
    "HDMoEParams",
    "ModelConfig",
    "OptimizerState",
    "RunConfig",
    "SampleRecord",
    "SynthConfig",
    "TrainConfig",
    "apply_desk_preset",
    "assign_bin",
    "compute_bin_edges",
    "forward",
    "generate_synthetic",
    "init_params",
    "load_checkpoint",
    "load_config",
    "load_manifest",
    "load_samples",
    "make_folds",
    "optimizer_step",
    "parameter_count",
    "predict_fold",
    "risk_score",
    "save_checkpoint",
    "save_config",
    "train_fold",
    "write_dataset",
]
