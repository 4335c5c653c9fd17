"""k-fold training loop: adaptive-moment updates with decoupled weight decay,
per-fold bin edges (computed from training-fold uncensored samples only),
per-sample steps (batch size fixed at 1), and held-out prediction tables.

Determinism contract: (seed, config, dataset) fully determine every parameter
after training. Parameter init and fusion draws consume a per-fold generator
seeded [seed, fold]; the shuffle order is reseeded per epoch from
[seed, fold, epoch].
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .data import BinEdges, SampleRecord, assign_bin, compute_bin_edges, csv_text
from .errors import ConfigError, NumericsError
from .losses import DISTANCE_METRICS, balance_loss, decouple_loss, survival_nll, total_loss
from .model import HDMoEParams, ModelConfig, forward, lift_params, named_params

log = logging.getLogger("hdmoe.trainer")
_BLOCK = 1 << 15  # elements per update pass: six such float64 blocks (1.5 MB) stay in L2 cache


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 5e-4
    weight_decay: float = 1e-3
    epochs: int = 30
    batch_size: int = 1
    alpha: float = 1.0
    beta: float = 0.01
    seed: int = 0
    k_folds: int = 5
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8
    distance_metric: str = "cos"

    def __post_init__(self):
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size != 1:
            raise ConfigError("batch size is fixed at 1")
        if self.distance_metric.lower() not in DISTANCE_METRICS:
            raise ConfigError(f"unknown distance_metric {self.distance_metric!r}")
        if self.k_folds < 2:
            raise ConfigError("k_folds must be >= 2")


@dataclass
class OptimizerState:
    """Gradient and adaptive moments, laid out as the flat parameter vector."""

    grad: np.ndarray
    first: np.ndarray
    second: np.ndarray
    step: int = 0


def optimizer_step(
    params: np.ndarray,
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    cfg: TrainConfig,
) -> None:
    """In-place adaptive-moment update of the flat parameters, block by block,
    from `state.grad` (`grads` holds each path's view of it), bitwise equal to a
    per-array update; weight decay is decoupled and applied first."""
    state.step += 1
    bc1 = 1.0 - cfg.beta1**state.step
    bc2 = 1.0 - cfg.beta2**state.step
    for lo in range(0, params.size, _BLOCK):
        p, g, m, v = (a[lo:lo + _BLOCK] for a in (params, state.grad, state.first, state.second))
        num, den = np.empty((2, p.size))
        if cfg.weight_decay:
            p -= np.multiply(p, cfg.lr * cfg.weight_decay, out=num)
        m *= cfg.beta1
        m += np.multiply(g, 1.0 - cfg.beta1, out=num)
        v *= cfg.beta2
        v += np.multiply(np.multiply(g, g, out=num), 1.0 - cfg.beta2, out=num)
        np.sqrt(np.divide(v, bc2, out=den), out=den)
        den += cfg.eps_opt
        np.multiply(np.divide(m, bc1, out=num), cfg.lr, out=num)
        p -= np.divide(num, den, out=num)


@dataclass
class FoldResult:
    fold: int
    params: HDMoEParams
    edges: BinEdges
    loss_curve: list[float]  # per-epoch mean total loss
    log_rows: list[str]  # run-log lines: loss CSV + rfr draw lines


@dataclass
class PredictionRow:
    sample_id: str
    fold: int
    hazards: np.ndarray
    risk: float
    bin_label: int
    censored: int
    time_months: float


def split_fold(records: list[SampleRecord], fold_id: int) -> tuple[list[SampleRecord], list[SampleRecord]]:
    train = [r for r in records if r.fold != fold_id]
    test = [r for r in records if r.fold == fold_id]
    return train, test


def fold_edges(records: list[SampleRecord], fold_id: int, num_bins: int) -> BinEdges:
    """The fold's bin edges, from its training split alone. Raises for a fold
    with no held-out or no training sample, or too few event times."""
    train_records, test_records = split_fold(records, fold_id)
    if not test_records:
        raise ConfigError(f"fold {fold_id} does not exist in the dataset")
    if not train_records:
        raise ConfigError(f"fold {fold_id}: empty training split")
    return compute_bin_edges(train_records, num_bins)


def train_fold(
    records: list[SampleRecord],
    fold_id: int,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
) -> FoldResult:
    edges = fold_edges(records, fold_id, model_cfg.num_bins)
    train_records = [
        replace(r, bin_label=assign_bin(r.time_months, edges))
        for r in split_fold(records, fold_id)[0]
    ]

    fold_rng = np.random.default_rng([train_cfg.seed, fold_id])
    flat, params = model_mod.flatten_params(model_mod.init_params(model_cfg, fold_rng))
    state = OptimizerState(*np.zeros((3, flat.size)))
    lifted, nodes = lift_params(params, requires_grad=True)  # leaves for the whole fold
    grads = dict(named_params(model_mod.param_views(params, state.grad)))
    for path, node in nodes.items():
        node.grad = grads[path]
    loss_curve: list[float] = []
    log_rows: list[str] = []

    step = 0
    for epoch in range(train_cfg.epochs):
        shuffle_rng = np.random.default_rng([train_cfg.seed, fold_id, epoch])
        order = shuffle_rng.permutation(len(train_records))
        epoch_losses = []
        for idx in order:
            sample = train_records[idx]
            step += 1
            state.grad.fill(0.0)
            res = forward([sample], lifted, model_cfg, fold_rng)
            surv = survival_nll(res.hazards, sample.bin_label, sample.censored)
            dm = decouple_loss(res, train_cfg.distance_metric)
            bl = balance_loss(res.traces)
            breakdown, total = total_loss(surv, dm, bl, train_cfg.alpha, train_cfg.beta)
            if not np.isfinite(breakdown.total):
                raise NumericsError(
                    f"non-finite loss at fold {fold_id} epoch {epoch} step {step} "
                    f"(sample {sample.sample_id}): {breakdown}"
                )
            ad.backward(total)
            optimizer_step(flat, grads, state, train_cfg)
            if not np.isfinite(flat).all():
                raise NumericsError(f"non-finite parameters after fold {fold_id} epoch {epoch} step {step}")
            epoch_losses.append(breakdown.total)
            log_rows.append(
                f"{step},{breakdown.surv:.10g},{breakdown.dm:.10g},"
                f"{breakdown.bl:.10g},{breakdown.total:.10g}"
            )
            [(segment1, segment2)] = res.segments
            log_rows.append(f"rfr,1,{step},{segment1}")
            log_rows.append(f"rfr,2,{step},{segment2}")
        mean_loss = float(np.mean(epoch_losses))
        loss_curve.append(mean_loss)
        log.info("fold %d epoch %d mean total loss %.6f", fold_id, epoch, mean_loss)

    return FoldResult(
        fold=fold_id, params=params, edges=edges, loss_curve=loss_curve, log_rows=log_rows
    )


def predict_fold(
    records: list[SampleRecord],
    fold_id: int,
    params: HDMoEParams,
    edges: BinEdges,
    model_cfg: ModelConfig,
    rng: np.random.Generator,
    pin_segment: int | None = None,
) -> list[PredictionRow]:
    """Held-out predictions from one forward over the fold; fusion draws are
    random unless pinned."""
    _, test_records = split_fold(records, fold_id)
    if not test_records:
        return []
    lifted, _ = lift_params(params, requires_grad=False)
    res = forward(test_records, lifted, model_cfg, rng, pin_segments=(pin_segment, pin_segment))
    return [
        PredictionRow(
            sample_id=sample.sample_id,
            fold=fold_id,
            hazards=hazards,
            risk=float(risk),
            bin_label=assign_bin(sample.time_months, edges),
            censored=sample.censored,
            time_months=sample.time_months,
        )
        for sample, hazards, risk in zip(test_records, res.hazards.value, res.risk)
    ]


def predictions_to_csv(rows: list[PredictionRow], num_bins: int) -> str:
    header = ["sample_id", "fold", *(f"h{j}" for j in range(1, num_bins + 1)),
              "risk", "bin", "censored", "time_months"]
    body = (
        [r.sample_id, r.fold, *(repr(float(h)) for h in r.hazards),
         repr(float(r.risk)), r.bin_label, r.censored, repr(float(r.time_months))]
        for r in rows
    )
    return csv_text([header, *body], lineterminator="\n")
