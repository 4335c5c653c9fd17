"""Metrics and statistical analyses: concordance index, Kaplan-Meier curves,
two-group log-rank test, Welch's t-test, routed-expert allocation histograms,
shared-expert de-redundancy score, and repeated-evaluation stability.

The 1-df chi-square tail is a two-sided normal tail (``math.erfc``), and the
Student-t tail comes from a hand-rolled regularized incomplete beta
(continued fraction), so there is no external statistics dependency; both
are validated against textbook values in the test suite. Event indicator
convention: delta = 1 - censored. `c_index`, `km_estimate`, `log_rank_p` and
`welch_t_test` take 1-D columns of one length (per group), events 0 or 1 and
finite risks, and raise a MetricError naming the function and the column otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from . import model as model_mod
from .errors import MetricError
from .model import HDMoEParams, ModelConfig
from .moe import MoEOutput, RouterTrace

_MAX_ITER = 400
_FP_EPS = 3e-15
_TINY = 1e-300


# ---------------------------------------------------------------------------
# special functions


def _floored(v: float) -> float:
    """v, or the Lentz floor 1e-300 where |v| is below it."""
    return _TINY if abs(v) < _TINY else v


def _beta_cf(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b) by modified Lentz: per m, its even
    and then its odd coefficient, converged once an odd step changes h by
    less than _FP_EPS."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c, d = 1.0, 1.0 / _floored(1.0 - qab * x / qap)
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d, c = 1.0 / _floored(1.0 + aa * d), _floored(1.0 + aa / c)
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


def _columns(fn: str, **columns) -> list[np.ndarray]:
    """The columns as float64 arrays, and those named events* as int64, once
    each is 1-D, all have the first one's length and every event is 0 or 1."""
    out = []
    for name, column in columns.items():
        values = np.asarray(column)
        if values.ndim != 1:
            raise MetricError(f"{fn}: {name} must be 1-D, got shape {values.shape}")
        if out and values.size != out[0].size:
            raise MetricError(f"{fn}: {name} has length {values.size}, "
                              f"{next(iter(columns))} has length {out[0].size}")
        if not name.startswith("events"):
            out.append(np.asarray(values, dtype=np.float64))
        elif np.count_nonzero(values) == np.count_nonzero(values == 1):  # each is 0 or 1
            out.append(np.asarray(values, dtype=np.int64))
        else:
            raise MetricError(f"{fn}: {name} must be 1 (event) or 0 (censored)")
    return out


def c_index(table: RiskTable) -> float:
    """Harrell concordance: pairs with t_i < t_j are comparable iff sample i
    had an event; risk ties count 0.5."""
    times, events, risks = _columns(
        "c_index", times=table.times, events=table.events, risks=table.risks)
    if not (np.logical_and.reduce(np.isfinite(times)) and np.logical_and.reduce(np.isfinite(risks))):
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


def _risk_sets(died, *groups) -> tuple[np.ndarray, ...]:
    """The distinct times among the event times died (sorted here, in place), the
    deaths at each (its run's length) and, per group of times, the number at risk at each."""
    if not all(np.logical_and.reduce(np.isfinite(times)) for times in groups):
        raise MetricError("survival times must be finite")
    died.sort()
    last = np.concatenate((died[1:] != died[:-1], [True])).nonzero()[0][: died.size]
    ordered = [times.copy() for times in groups]
    for times in ordered:
        times.sort()
    return died[last], last - np.concatenate(([-1], last[:-1])), *(
        times.size - times.searchsorted(died[last]) for times in ordered)


def km_estimate(times, events) -> KmCurve:
    """Product-limit estimator over the distinct observed event times."""
    times, events = _columns("km_estimate", times=times, events=events)
    if times.size == 0:
        raise MetricError("km_estimate needs at least one sample")
    event_times, deaths, at_risk = _risk_sets(times[events == 1], times)
    return KmCurve(event_times, (1.0 - deaths / at_risk).cumprod(), at_risk, deaths)


def log_rank_p(times_a, events_a, times_b, events_b) -> tuple[float, float]:
    """Two-group log-rank test; returns (chi2, p) with 1 df."""
    ta, ea = _columns("log_rank_p", times_a=times_a, events_a=events_a)
    tb, eb = _columns("log_rank_p", times_b=times_b, events_b=events_b)
    if ta.size == 0 or tb.size == 0:
        raise MetricError("log-rank needs two non-empty groups")
    died_a = ta[ea == 1]
    died = np.concatenate([died_a, tb[eb == 1]])
    if died.size == 0:
        raise MetricError("log-rank needs at least one event")
    _, d, n1, n2 = _risk_sets(died, ta, tb)
    n = n1 + n2
    # cumsum adds in order (np.sum is pairwise), as a running sum would
    expected_a = float((d * n1 / n).cumsum()[-1])
    # with one group left at risk, n1 or n2 is 0 and so is the stratum's
    # variance term; the floor on n - 1 keeps n == 1 from giving 0/0
    variance = float((d * (n1 / n) * (n2 / n) * (n - d) / np.maximum(n - 1, 1)).cumsum()[-1])
    if variance <= 0.0:
        raise MetricError("log-rank degenerate: zero variance")
    chi2 = (float(died_a.size) - expected_a) ** 2 / variance  # observed: group a's deaths
    return float(chi2), float(chi2_sf(chi2))


def welch_t_test(risks_a, risks_b) -> tuple[float, float]:
    """Welch t statistic with Satterthwaite df; two-sided p."""
    groups = []  # per group: size, and the mean and ddof-1 variance as np.var takes them
    for name, risks in (("risks_a", risks_a), ("risks_b", risks_b)):
        (x,) = _columns("welch_t_test", **{name: risks})
        if not np.logical_and.reduce(np.isfinite(x)):
            raise MetricError(f"welch_t_test: {name} must be finite")
        if x.size < 2:
            raise MetricError("welch t-test needs at least two samples per group")
        mean = np.add.reduce(x) / x.size
        dev = x - mean
        groups.append((x.size, float(mean), float(np.add.reduce(np.square(dev, out=dev)) / (x.size - 1))))
    (na, mean_a, va), (nb, mean_b, vb) = groups
    se2 = va / na + vb / nb
    if se2 <= 0.0:
        raise MetricError("welch t-test degenerate: zero variance in both groups")
    t = (mean_a - mean_b) / math.sqrt(se2)
    df = se2**2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
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
    token_len = output.tokens.shape[1]
    shape = (batch, width // token_len, token_len)
    pre = average_abs_correlation(output.tokens.reshape(shape))
    post = average_abs_correlation(output.shared.value.reshape(shape))
    off = ~np.eye(pre.shape[0], dtype=bool)
    delta = float(pre[off].sum() - post[off].sum())
    return pre, post, delta


def stability_report(
    level1: tuple[MoEOutput, MoEOutput],
    lifted: HDMoEParams,
    model_cfg: ModelConfig,
    table: RiskTable,
    repeats: int,
    rng: np.random.Generator,
) -> tuple[list[float], float, float]:
    """Re-score a frozen model with independent fusion draws per repeat.

    level1 holds the level-1 outputs (out_a, out_b) of table's samples, row
    for row, from `encode` or a forward's (moe_a, moe_b); each repeat is one
    `fuse` over them, which draws from rng in the order one-sample forwards
    would, and scores its risks against table's times and events.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    scores = []
    for _ in range(repeats):
        risks = model_mod.fuse(level1, lifted, model_cfg, rng).risk
        scores.append(c_index(replace(table, risks=risks)))
    # n copies of x report mean x and zero spread exactly: their np.mean can be
    # an ulp off x, which would also make np.std spuriously nonzero
    if min(scores) == max(scores):
        return scores, scores[0], 0.0
    return scores, float(np.mean(scores)), float(np.std(scores))


def km_curves_csv(groups: dict[str, KmCurve]) -> str:
    lines = ["group,time,survival,at_risk,events"]
    for name, curve in groups.items():
        for t, s, n, d in zip(curve.times, curve.survival, curve.at_risk, curve.events):
            lines.append(f"{name},{t:.17g},{s:.17g},{n},{d}")
    return "\n".join(lines) + "\n"
