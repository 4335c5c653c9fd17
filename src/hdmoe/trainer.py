"""k-fold training loop: adaptive-moment updates with decoupled weight decay,
per-fold bin edges (computed from training-fold uncensored samples only),
per-sample steps (batch size fixed at 1), and held-out prediction tables.

Determinism contract: (seed, config, dataset) fully determine every parameter
after training. Parameter init and fusion draws consume a per-fold generator
seeded [seed, fold]; the shuffle order is reseeded per epoch from
[seed, fold, epoch].
"""

from __future__ import annotations

import ctypes
import logging
import os
import pickle
import signal
import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import model as model_mod
from .data import BinEdges, SampleRecord, assign_bin, compute_bin_edges, csv_text
from .errors import ConfigError, NumericsError
from .losses import DISTANCE_METRICS, balance_loss, decouple_loss, survival_nll, total_loss
from .model import HDMoEParams, ModelConfig, forward, lift_params, named_params

log = logging.getLogger("hdmoe.trainer")
_BLOCK = 1 << 15  # elements per update pass: six such float64 blocks (1.5 MB) stay in L2 cache
REAP_GRACE_S = 2.0  # a stopped fold lane that has not ended by then is killed


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
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.batch_size != 1:
            raise ConfigError("batch size is fixed at 1")
        if self.distance_metric.lower() not in DISTANCE_METRICS:
            raise ConfigError(f"unknown distance_metric {self.distance_metric!r}")
        if self.k_folds < 2:
            raise ConfigError("k_folds must be >= 2")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must be in [0, 1)")
        if not (self.eps_opt > 0 and self.weight_decay >= 0):
            raise ConfigError("eps_opt must be positive and weight_decay >= 0")


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
    train_records = split_fold(records, fold_id)[0]
    labels = [assign_bin(r.time_months, edges) for r in train_records]

    fold_rng = np.random.default_rng([train_cfg.seed, fold_id])
    flat, params = model_mod.flatten_params(model_mod.init_params(model_cfg, fold_rng))
    state = OptimizerState(*np.zeros((3, flat.size)))
    lifted = lift_params(params, requires_grad=True)  # leaves for the whole fold
    grads = dict(named_params(model_mod.param_views(params, state.grad)))
    for path, node in named_params(lifted):
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
            surv = survival_nll(res.hazards, labels[idx], sample.censored)
            dm = decouple_loss(res, train_cfg.distance_metric)
            bl = balance_loss(res.traces)
            total = total_loss(surv, dm, bl, train_cfg.alpha, train_cfg.beta)
            terms = [node.value.item() for node in (surv, dm, bl, total)]
            if not np.isfinite(terms[3]):
                raise NumericsError(
                    f"non-finite loss at fold {fold_id} epoch {epoch} step {step} (sample "
                    f"{sample.sample_id}): surv={terms[0]} dm={terms[1]} bl={terms[2]} total={terms[3]}"
                )
            ad.backward(total)
            optimizer_step(flat, grads, state, train_cfg)
            if not np.isfinite(flat).all():
                raise NumericsError(f"non-finite parameters after fold {fold_id} epoch {epoch} step {step}")
            epoch_losses.append(terms[3])
            log_rows.append(",".join([str(step), *(f"{t:.10g}" for t in terms)]))
            [(segment1, segment2)] = res.segments
            log_rows.append(f"rfr,1,{step},{segment1}")
            log_rows.append(f"rfr,2,{step},{segment2}")
        mean_loss = float(np.mean(epoch_losses))
        loss_curve.append(mean_loss)
        log.info("fold %d epoch %d mean total loss %.6f", fold_id, epoch, mean_loss)

    return FoldResult(params=params, edges=edges, loss_curve=loss_curve, log_rows=log_rows)


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
    lifted = lift_params(params, requires_grad=False)
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


def map_folds(fn, folds: list, describe=lambda folds: f"folds {folds}") -> list:
    """[fn(f) for f in folds], dealt round-robin over one lane per usable core: this process,
    then a forked child per other lane. A lane stops at its error; the lowest fold's is raised.
    A lane lost without a result is an OSError naming describe(its folds)."""
    usable = os.sched_getaffinity(0) if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") else {0}
    lanes, results, parent = max(1, min(len(folds), len(usable))), [None] * len(folds), os.getpid()

    def run(lane):  # fills the lane's results; (fold index, error) if one stopped it
        for i in range(lane, len(folds), lanes):
            try:
                results[i] = fn(folds[i])
            except Exception as exc:
                return i, exc
    workers = []  # (lane, pid, read end of its pipe); each is stopped and reaped in the finally
    try:
        for lane in range(1, lanes):
            read, write = map(open, os.pipe(), ("rb", "wb"))
            pid = os.fork()
            if pid == 0:  # send (error, results), leave without exit handlers or flushes
                try:  # SIGTERM, also sent on Linux when the parent dies, is a KeyboardInterrupt
                    signal.signal(signal.SIGTERM, signal.default_int_handler)
                    if os.uname().sysname == "Linux":
                        ctypes.CDLL(None).prctl(1, signal.SIGTERM)  # PR_SET_PDEATHSIG
                    if os.getppid() == parent:
                        err = run(lane)
                        with write:
                            write.write(pickle.dumps((err, results[lane::lanes])))
                finally:
                    os._exit(0)
            write.close()
            workers.append((lane, pid, read))
        failed = [run(0)]
        for lane, pid, read in list(workers):
            if any(err and err[0] < lane for err in failed):
                break  # a lower fold failed: the finally stops this lane and the rest
            payload = read.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            workers.pop(0)[2].close()
            if not payload:  # killed or out of memory: counted as failing at its first fold
                how = f"signal {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
                lost = OSError(f"the lane of {describe(folds[lane::lanes])} ended without a result ({how})")
                payload = pickle.dumps(((lane, lost), results[lane::lanes]))
            err, results[lane::lanes] = pickle.loads(payload)
            failed.append(err)
    finally:  # SIGTERM, then SIGKILL to a lane not gone within the grace period
        for _, pid, read in workers:
            read.close()
            os.kill(pid, signal.SIGTERM)
        deadline = time.monotonic() + REAP_GRACE_S
        for _, pid, _ in workers:
            while not os.waitpid(pid, os.WNOHANG)[0]:
                if time.monotonic() > deadline:
                    os.kill(pid, signal.SIGKILL)
                time.sleep(0.005)
    if any(failed):
        raise min(filter(None, failed), key=lambda err: err[0])[1]
    return results


def predictions_to_csv(rows: list[PredictionRow], num_bins: int) -> str:
    header = ["sample_id", "fold", *(f"h{j}" for j in range(1, num_bins + 1)),
              "risk", "bin", "censored", "time_months"]
    body = (
        [r.sample_id, r.fold, *(repr(float(h)) for h in r.hazards),
         repr(float(r.risk)), r.bin_label, r.censored, repr(float(r.time_months))]
        for r in rows
    )
    return csv_text([header, *body], lineterminator="\n")
