"""Training objectives: censored discrete-time survival NLL, the feature
decoupling loss with pluggable distance metrics, the router load-balance
loss, and their weighted total.

Conventions: censored flag c=1 means censored. Hazards are clamped to
[1e-7, 1 - 1e-7] before any log. The decoupling loss keeps features within
an expert level apart (DM') and corresponding features across levels close
(DM); DM' = const - DM per metric, so their gradients are exact negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

HAZARD_EPS = 1e-7
DISTANCE_METRICS = ("cos", "l1", "kl", "mse")
COSINE_NORM_EPS = 1e-12
KL_FLOOR = 1e-9  # the kl metric clips each softmax from below here


@dataclass
class LossBreakdown:
    surv: float
    dm: float
    bl: float
    total: float
    alpha: float
    beta: float


def survival_nll(hazards: ad.Node, bin_label: int, censored: int) -> ad.Node:
    """Negative log-likelihood of a censored discrete-time outcome.

    L = -c log S(n) - (1-c) log h_n - (1-c) log S(n-1) with S(j) the
    running product of (1 - h_k) and S(0) = 1.
    """
    num_bins = hazards.value.shape[1]
    if hazards.value.shape[0] != 1:
        raise ShapeError(f"hazards must be 1xK, got {hazards.value.shape}")
    if not 1 <= bin_label <= num_bins:
        raise ValueError(f"bin label must be in 1..{num_bins}, got {bin_label}")
    if censored not in (0, 1):
        raise ValueError(f"censored must be 0 or 1, got {censored}")

    hv = hazards.value
    h = np.clip(hv, HAZARD_EPS, 1.0 - HAZARD_EPS)
    one_minus_h = 1.0 - h
    log_h, log_1mh = np.log(h), np.log(one_minus_h)
    bins = np.arange(1, num_bins + 1).reshape(-1, 1)  # masks as [K, 1] columns
    surv_n, surv_prev, event_n = (m.astype(np.float64) for m in (
        bins <= bin_label, bins < bin_label, bins == bin_label))

    c = float(censored)
    loss = (-c * (log_1mh @ surv_n) - (1.0 - c) * (log_h @ event_n)
            - (1.0 - c) * (log_1mh @ surv_prev))

    def rule(g: np.ndarray) -> None:
        g_c, g_u = -c * g, -(1.0 - c) * g
        g_h = g_u * event_n.T / h - (g_c * surv_n.T + g_u * surv_prev.T) / one_minus_h
        ad.accumulate(hazards, g_h * ((hv > HAZARD_EPS) & (hv < 1.0 - HAZARD_EPS)))

    return ad.Node(loss, (hazards,), rule)


def cosine(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, Callable]:
    """cos(x, y) = x.y / (|x| |y| + COSINE_NORM_EPS) of two 1xd rows: the 1x1
    value and the rule mapping its gradient to (g_x, g_y)."""
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    dot = x @ yt
    nx, ny = np.sqrt(x @ xt), np.sqrt(y @ yt)
    denom = nx * ny + COSINE_NORM_EPS

    def vjp(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g_dot = g / denom
        g_prod = -g * dot / (denom * denom)
        # through |x| = sqrt(x.x); x/|x| is taken as 0 at x = 0, where the dot term vanishes
        g_xx = g_prod * ny / (2.0 * nx) if nx.item() else np.zeros_like(g_prod)
        g_yy = g_prod * nx / (2.0 * ny) if ny.item() else np.zeros_like(g_prod)
        return g_dot * y + g_xx * x + x * g_xx, x * g_dot + g_yy * y + y * g_yy

    return dot / denom, vjp


def _mean_over(values: np.ndarray, chain) -> tuple[np.ndarray, Callable]:
    """The mean of values, an elementwise function of diff = x - y, where
    chain maps a gradient on values to one on diff."""
    scale = 1.0 / values.shape[1]

    def vjp(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g_diff = chain(np.full_like(values, (scale * g)[0, 0]))
        return g_diff, -g_diff

    return scale * np.array([[values.sum()]]) + 0.0, vjp


def _mean_abs(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, Callable]:
    diff = x - y
    return _mean_over(np.abs(diff), lambda g: g * np.sign(diff))


def _mean_square(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, Callable]:
    diff = x - y
    return _mean_over(diff * diff, lambda g: g * diff + g * diff)  # each factor in turn


def _symmetric_kl(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, Callable]:
    # clamp the normalized distributions: -KL is minimized during
    # decoupling, and unclamped logits would be pushed to +/-inf
    sx, sy = ad.softmax(x), ad.softmax(y)
    p, q = np.clip(sx, KL_FLOOR, 1.0), np.clip(sy, KL_FLOOR, 1.0)
    p_minus_q, log_ratio = p - q, np.log(p) - np.log(q)

    def vjp(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g_prod = np.full_like(p, g[0, 0])
        g_diff, g_log = g_prod * log_ratio, g_prod * p_minus_q
        g_p, g_q = g_diff + g_log / p, -g_diff - g_log / q
        return (ad.softmax_vjp(sx, g_p * ((sx > KL_FLOOR) & (sx < 1.0))),
                ad.softmax_vjp(sy, g_q * ((sy > KL_FLOOR) & (sy < 1.0))))

    return np.array([[(p_minus_q * log_ratio).sum()]]), vjp


# each metric's core: the cosine is DM' (DM = 1 - cos); the mean absolute and
# squared difference and the symmetric KL of the softmaxes are DM (DM' = -DM)
_CORES = {"cos": cosine, "l1": _mean_abs, "mse": _mean_square, "kl": _symmetric_kl}


def distance(kind: str, x: np.ndarray, y: np.ndarray, prime: bool) -> tuple[np.ndarray, Callable]:
    """DM(x, y), or DM'(x, y) if prime, of two 1xd rows: the 1x1 value and the
    rule mapping its gradient to (g_x, g_y)."""
    kind = kind.lower()
    if kind not in DISTANCE_METRICS:
        raise ConfigError(f"unknown distance metric {kind!r}; pick one of {DISTANCE_METRICS}")
    if x.shape != y.shape or x.shape[0] != 1:
        raise ShapeError(f"distance needs matching 1xd rows, got {x.shape} vs {y.shape}")
    value, vjp = _CORES[kind](x, y)
    if prime == (kind == "cos"):
        return value, vjp
    return -1.0 * value + (1.0 if kind == "cos" else 0.0), lambda g: vjp(-1.0 * g)


def decouple_loss(res, kind: str) -> ad.Node:
    """Within-level pairs pushed apart, cross-level aggregates pulled together.

    Reads a ForwardResult-like object whose moe_a, moe_b and moe_inter expose
    routed (V_intra, V_inter) and shared (V_share, V_share_3) nodes, 1 x d1 at
    level 1 and 1 x d2 at level 2, with 2*d1 == d2 so the concatenated
    comparisons are well-formed. One node, whose rule feeds each term's
    gradient into its inputs term by term, in the order the terms are summed.
    """
    a, b, inter = res.moe_a, res.moe_b, res.moe_inter
    d1 = a.routed.value.shape[1]
    d2 = inter.routed.value.shape[1]
    if 2 * d1 != d2:
        raise ConfigError(f"decouple loss needs 2*d1 == d2, got d1={d1}, d2={d2}")
    # (x, split into its nodes; y; prime): DM' within a level, DM across levels
    pairs = [((out.routed,), out.shared, True) for out in (a, b, inter)] + [
        ((a.routed, b.routed), inter.routed, False), ((a.shared, b.shared), inter.shared, False)]
    values, vjps = zip(*(
        distance(kind, np.concatenate([n.value for n in xs], axis=1), y.value, prime)
        for xs, y, prime in pairs))

    def rule(g: np.ndarray) -> None:
        for (xs, y, _), vjp in zip(pairs, vjps):
            g_x, g_y = vjp(g)
            for node, part in zip(xs, np.split(g_x, len(xs), axis=1)):
                ad.accumulate(node, part)
            ad.accumulate(y, g_y)

    parents = (a.routed, a.shared, b.routed, b.shared, inter.routed, inter.shared)
    return ad.Node(sum(values[1:], values[0]), parents, rule)


def balance_loss(traces) -> ad.Node:
    """Sum over routers of sum_i f_i * P_i.

    f_i is the fraction of token-selections routed to expert i (held
    constant; the indicator is non-differentiable) and P_i the mean softmax
    probability of expert i over tokens, which carries the gradient.
    """
    traces = list(traces)
    if not traces or min(t.num_tokens for t in traces) == 0:
        raise ValueError("balance loss needs at least one trace, each with tokens")
    fracs = [(t.selection_counts() / t.selected.size).reshape(-1, 1) for t in traces]
    terms = [t.probs.value.mean(axis=0, keepdims=True) @ f for t, f in zip(traces, fracs)]

    def rule(g: np.ndarray) -> None:
        for t, frac in zip(traces, fracs):
            m = t.num_tokens
            ad.accumulate(t.probs, np.repeat((g @ frac.T) / m, m, axis=0))

    return ad.Node(sum(terms[1:], terms[0]), tuple(t.probs for t in traces), rule)


def total_loss(
    surv: ad.Node, dm: ad.Node, bl: ad.Node, alpha: float, beta: float
) -> tuple[LossBreakdown, ad.Node]:
    """surv + alpha * dm + beta * bl as one node."""

    def rule(g: np.ndarray) -> None:
        ad.accumulate(surv, g)
        ad.accumulate(dm, alpha * g)
        ad.accumulate(bl, beta * g)

    value = surv.value + ((alpha * dm.value + 0.0) + (beta * bl.value + 0.0))
    total = ad.Node(value, (surv, dm, bl), rule)
    breakdown = LossBreakdown(
        surv=float(surv.value[0, 0]),
        dm=float(dm.value[0, 0]),
        bl=float(bl.value[0, 0]),
        total=float(total.value[0, 0]),
        alpha=alpha,
        beta=beta,
    )
    return breakdown, total
