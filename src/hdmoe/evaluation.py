"""Metrics and statistical analyses: concordance index, Kaplan-Meier curves,
two-group log-rank test, Welch's t-test, routed-expert allocation histograms,
shared-expert de-redundancy score, and repeated-evaluation stability.

The 1-df chi-square tail is a two-sided normal tail (``math.erfc``), and the
Student-t tail comes from a hand-rolled regularized incomplete beta
(continued fraction), so there is no external statistics dependency; both
are validated against textbook values in the test suite. Event indicator
convention: delta = 1 - censored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from . import model as model_mod
from .data import SampleRecord
from .errors import MetricError
from .model import HDMoEParams, ModelConfig
from .moe import MoEOutput, RouterTrace

_MAX_ITER = 400
_FP_EPS = 3e-15


# ---------------------------------------------------------------------------
# special functions


def _beta_cf(a: float, b: float, x: float) -> float:
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _FP_EPS:
            break
    return h


def reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b) via Lentz continued fraction."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must be in [0, 1]")
    if x in (0.0, 1.0):
        return x
    front = math.exp(
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(1.0 - x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


def chi2_sf(x: float) -> float:
    """Upper tail of the chi-square distribution with 1 degree of freedom:
    P(|Z| > sqrt(x)) for a standard normal Z."""
    return math.erfc(math.sqrt(x / 2.0))


def student_t_two_sided_p(t: float, df: float) -> float:
    return reg_incomplete_beta(df / 2.0, 0.5, df / (df + t * t))


# ---------------------------------------------------------------------------
# concordance index


@dataclass(frozen=True)
class RiskTable:
    """Per-sample risk, observed time, and event indicator (1 = event)."""

    risks: np.ndarray
    times: np.ndarray
    events: np.ndarray

    @classmethod
    def from_predictions(cls, rows) -> "RiskTable":
        return cls(
            risks=np.array([r.risk for r in rows], dtype=np.float64),
            times=np.array([r.time_months for r in rows], dtype=np.float64),
            events=np.array([1 - r.censored for r in rows], dtype=np.int64),
        )


def c_index(table: RiskTable) -> float:
    """Harrell concordance: pairs with t_i < t_j are comparable iff sample i
    had an event; risk ties count 0.5."""
    times = np.asarray(table.times, dtype=np.float64)
    events = np.asarray(table.events, dtype=np.int64)
    risks = np.asarray(table.risks, dtype=np.float64)
    if not (np.isfinite(times).all() and np.isfinite(risks).all()):
        raise MetricError("c-index needs finite times and risks")
    conc, comp = kernels.concordance_counts(times, events, risks)
    if comp == 0:
        raise MetricError("c-index undefined: no comparable pairs")
    return float(conc) / float(comp)


# ---------------------------------------------------------------------------
# Kaplan-Meier and tests


@dataclass(frozen=True)
class KmCurve:
    times: np.ndarray  # distinct event times, ascending
    survival: np.ndarray  # product-limit estimate after each event time
    at_risk: np.ndarray
    events: np.ndarray


def _risk_sets(times, events, event_times) -> tuple[np.ndarray, np.ndarray]:
    """At-risk and death counts at each of event_times (every event's time)."""
    if not np.isfinite(times).all():
        raise MetricError("survival times must be finite")
    at_risk = times.size - np.searchsorted(np.sort(times), event_times)
    died = np.searchsorted(event_times, times[events == 1])
    return at_risk, np.bincount(died, minlength=event_times.size)


def km_estimate(times, events) -> KmCurve:
    """Product-limit estimator over the distinct observed event times."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    if times.size == 0:
        raise MetricError("km_estimate needs at least one sample")
    event_times = np.unique(times[events == 1])
    at_risk, deaths = _risk_sets(times, events, event_times)
    return KmCurve(event_times, np.cumprod(1.0 - deaths / at_risk), at_risk, deaths)


def log_rank_p(times_a, events_a, times_b, events_b) -> tuple[float, float]:
    """Two-group log-rank test; returns (chi2, p) with 1 df."""
    ta = np.asarray(times_a, dtype=np.float64)
    ea = np.asarray(events_a, dtype=np.int64)
    tb = np.asarray(times_b, dtype=np.float64)
    eb = np.asarray(events_b, dtype=np.int64)
    if ta.size == 0 or tb.size == 0:
        raise MetricError("log-rank needs two non-empty groups")
    event_times = np.unique(np.concatenate([ta[ea == 1], tb[eb == 1]]))
    if event_times.size == 0:
        raise MetricError("log-rank needs at least one event")
    n1, d1 = _risk_sets(ta, ea, event_times)
    n2, d2 = _risk_sets(tb, eb, event_times)
    n, d = n1 + n2, d1 + d2
    # cumsum adds in order (np.sum is pairwise), as a running sum would
    expected_a = float(np.cumsum(d * n1 / n)[-1])
    # with one group left at risk, n1 or n2 is 0 and so is the stratum's
    # variance term; the floor on n - 1 keeps n == 1 from giving 0/0
    variance = float(np.cumsum(d * (n1 / n) * (n2 / n) * (n - d) / np.maximum(n - 1, 1))[-1])
    if variance <= 0.0:
        raise MetricError("log-rank degenerate: zero variance")
    chi2 = (float(d1.sum()) - expected_a) ** 2 / variance
    return float(chi2), float(chi2_sf(chi2))


def welch_t_test(risks_a, risks_b) -> tuple[float, float]:
    """Welch t statistic with Satterthwaite df; two-sided p."""
    a = np.asarray(risks_a, dtype=np.float64)
    b = np.asarray(risks_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise MetricError("welch t-test needs at least two samples per group")
    va = float(np.var(a, ddof=1))
    vb = float(np.var(b, ddof=1))
    se2 = va / a.size + vb / b.size
    if se2 <= 0.0:
        raise MetricError("welch t-test degenerate: zero variance in both groups")
    t = (float(a.mean()) - float(b.mean())) / math.sqrt(se2)
    df = se2**2 / (
        (va / a.size) ** 2 / (a.size - 1) + (vb / b.size) ** 2 / (b.size - 1)
    )
    return float(t), float(student_t_two_sided_p(t, df))


# ---------------------------------------------------------------------------
# diagnostics


def expert_histogram(traces: tuple[RouterTrace, ...]) -> np.ndarray:
    """Total top-k selections per expert for each router of a batched
    forward, over all its tokens. Returns [n_routers, num_experts]."""
    if not traces:
        raise MetricError("expert_histogram needs at least one router trace")
    return np.stack([trace.selection_counts() for trace in traces])


def average_abs_correlation(token_stack: np.ndarray) -> np.ndarray:
    """Mean absolute Pearson correlation between token rows, across samples:
    token_stack is [B, T, l] (sample, token, feature) and the result [T, T].
    Each token is centred and scaled to unit length, so one batched product
    gives every sample's correlation matrix."""
    x = np.asarray(token_stack, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] == 0:
        raise MetricError(f"need a [B, T, l] token stack with B >= 1, got shape {x.shape}")
    centred = x - x.mean(axis=2, keepdims=True)
    norms = np.sqrt((centred * centred).sum(axis=2, keepdims=True))
    if np.any(norms == 0.0):
        raise MetricError("zero-variance token: correlation undefined")
    unit = centred / norms
    corr = np.abs(unit @ unit.transpose(0, 2, 1))
    return np.minimum(corr, 1.0).mean(axis=0)  # |r| <= 1 up to rounding, as np.corrcoef clips


def redundancy_score(output: MoEOutput) -> tuple[np.ndarray, np.ndarray, float]:
    """Average absolute token-correlation heatmaps before/after the shared
    expert, over the samples of one batched MoE output (a forward's moe_a,
    moe_b or moe_inter); delta = sum of off-diagonal (pre) - sum of
    off-diagonal (post).
    """
    batch, width = output.routed.value.shape
    if batch < 2:
        raise MetricError("redundancy_score needs at least two samples")
    token_len = output.tokens.value.shape[1]
    shape = (batch, width // token_len, token_len)
    pre = average_abs_correlation(output.tokens.value.reshape(shape))
    post = average_abs_correlation(output.shared_tokens.value.reshape(shape))
    off = ~np.eye(pre.shape[0], dtype=bool)
    delta = float(pre[off].sum() - post[off].sum())
    return pre, post, delta


def stability_report(
    level1: tuple[MoEOutput, MoEOutput],
    lifted: HDMoEParams,
    model_cfg: ModelConfig,
    records: list[SampleRecord],
    repeats: int,
    rng: np.random.Generator,
) -> tuple[list[float], float, float]:
    """Re-score a frozen model with independent fusion draws per repeat.

    level1 holds the records' level-1 outputs (out_a, out_b), from `encode`
    or a forward's (moe_a, moe_b); each repeat is one `fuse` over them, which
    draws from rng in the order one-sample forwards would.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    times = np.array([r.time_months for r in records])
    events = np.array([1 - r.censored for r in records])
    scores = []
    for _ in range(repeats):
        risks = model_mod.fuse(level1, lifted, model_cfg, rng).risk
        scores.append(c_index(RiskTable(risks=risks, times=times, events=events)))
    # identical scores must report exactly zero spread (the mean of n copies
    # of x can differ from x by an ulp, making np.std spuriously nonzero)
    std = 0.0 if min(scores) == max(scores) else float(np.std(scores))
    return scores, float(np.mean(scores)), std


def km_curves_csv(groups: dict[str, KmCurve]) -> str:
    lines = ["group,time,survival,at_risk,events"]
    for name, curve in groups.items():
        for t, s, n, d in zip(curve.times, curve.survival, curve.at_risk, curve.events):
            lines.append(f"{name},{t:.17g},{s:.17g},{n},{d}")
    return "\n".join(lines) + "\n"
