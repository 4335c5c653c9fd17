"""Training objectives: censored discrete-time survival NLL, the feature
decoupling loss with pluggable distance metrics, the router load-balance
loss, and their weighted total.

Conventions: censored flag c=1 means censored. Hazards are clamped to
[1e-7, 1 - 1e-7] before any log. The decoupling loss keeps features within
an expert level apart (DM') and corresponding features across levels close
(DM); DM' = const - DM per metric, so their gradients are exact negatives.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

HAZARD_EPS = 1e-7
DISTANCE_METRICS = ("cos", "l1", "kl", "mse")
COSINE_NORM_EPS = 1e-12
KL_FLOOR = 1e-9  # the kl metric clips each softmax from below here


@lru_cache(maxsize=None)
def _bin_masks(num_bins: int, bin_label: int) -> tuple[np.ndarray, ...]:
    """Read-only [K, 1] float columns marking bins 1..n, 1..n-1 and n."""
    bins = np.arange(1, num_bins + 1).reshape(-1, 1)
    masks = [m.astype(np.float64) for m in (bins <= bin_label, bins < bin_label, bins == bin_label)]
    for m in masks:
        m.flags.writeable = False
    return tuple(masks)


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
    h = np.minimum(np.maximum(hv, HAZARD_EPS), 1.0 - HAZARD_EPS)  # np.clip's values
    one_minus_h = 1.0 - h
    log_h, log_1mh = np.log(h), np.log(one_minus_h)
    surv_n, surv_prev, event_n = _bin_masks(num_bins, bin_label)

    c = float(censored)
    loss = (-c * (log_1mh @ surv_n).item() - (1.0 - c) * (log_h @ event_n).item()
            - (1.0 - c) * (log_1mh @ surv_prev).item())

    def rule(g: np.ndarray) -> None:
        g = g.item()
        g_c, g_u = -c * g, -(1.0 - c) * g
        g_h = g_u * event_n.T / h - (g_c * surv_n.T + g_u * surv_prev.T) / one_minus_h
        ad.accumulate(hazards, g_h * ((hv > HAZARD_EPS) & (hv < 1.0 - HAZARD_EPS)), fresh=True)

    return ad.Node(np.array([[loss]]), (hazards,), rule)


def cosine(x: np.ndarray, y: np.ndarray) -> tuple[float, Callable]:
    """cos(x, y) = x.y / (|x| |y| + COSINE_NORM_EPS) of two 1xd rows: the
    value and the rule mapping its gradient to (g_x, g_y)."""
    dot = (x @ y.T).item()
    nx, ny = math.sqrt((x @ x.T).item()), math.sqrt((y @ y.T).item())
    denom = nx * ny + COSINE_NORM_EPS

    def vjp(g: float) -> tuple[np.ndarray, np.ndarray]:
        g_dot = g / denom
        g_prod = -g * dot / (denom * denom)
        # through |x| = sqrt(x.x); x/|x| is taken as 0 at x = 0, where the dot term vanishes
        g_xx = g_prod * ny / (2.0 * nx) if nx else 0.0
        g_yy = g_prod * nx / (2.0 * ny) if ny else 0.0
        return g_dot * y + g_xx * x + x * g_xx, x * g_dot + g_yy * y + y * g_yy

    return dot / denom, vjp


def _mean_over(values: np.ndarray, chain) -> tuple[float, Callable]:
    """The mean of values, an elementwise function of diff = x - y, where
    chain maps the gradient on each entry of values to one on diff."""
    scale = 1.0 / values.shape[1]

    def vjp(g: float) -> tuple[np.ndarray, np.ndarray]:
        g_diff = chain(scale * g)
        return g_diff, -g_diff

    return scale * np.add.reduce(values, axis=None).item() + 0.0, vjp


def _mean_abs(x: np.ndarray, y: np.ndarray) -> tuple[float, Callable]:
    diff = x - y
    return _mean_over(np.abs(diff), lambda g: g * np.sign(diff))


def _mean_square(x: np.ndarray, y: np.ndarray) -> tuple[float, Callable]:
    diff = x - y
    return _mean_over(diff * diff, lambda g: g * diff + g * diff)  # each factor in turn


def _symmetric_kl(x: np.ndarray, y: np.ndarray) -> tuple[float, Callable]:
    # clamp the normalized distributions: -KL is minimized during
    # decoupling, and unclamped logits would be pushed to +/-inf
    sx, sy = ad.softmax(x), ad.softmax(y)
    p, q = np.clip(sx, KL_FLOOR, 1.0), np.clip(sy, KL_FLOOR, 1.0)
    p_minus_q, log_ratio = p - q, np.log(p) - np.log(q)

    def vjp(g: float) -> tuple[np.ndarray, np.ndarray]:
        g_diff, g_log = g * log_ratio, g * p_minus_q
        g_p, g_q = g_diff + g_log / p, -g_diff - g_log / q
        return (ad.softmax_vjp(sx, g_p * ((sx > KL_FLOOR) & (sx < 1.0))),
                ad.softmax_vjp(sy, g_q * ((sy > KL_FLOOR) & (sy < 1.0))))

    return np.add.reduce(p_minus_q * log_ratio, axis=None).item(), vjp


# each metric's core: the cosine is DM' (DM = 1 - cos); the mean absolute and
# squared difference and the symmetric KL of the softmaxes are DM (DM' = -DM)
_CORES = {"cos": cosine, "l1": _mean_abs, "mse": _mean_square, "kl": _symmetric_kl}


def distance(kind: str, x: np.ndarray, y: np.ndarray, prime: bool) -> tuple[float, Callable]:
    """DM(x, y), or DM'(x, y) if prime, of two 1xd rows: the value and the
    rule mapping its gradient, a float, to (g_x, g_y)."""
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
    d1, d2 = a.routed.value.shape[1], inter.routed.value.shape[1]
    if 2 * d1 != d2:
        raise ConfigError(f"decouple loss needs 2*d1 == d2, got d1={d1}, d2={d2}")
    # (x, split into its nodes; y; prime): DM' within a level, DM across levels
    pairs = [((out.routed,), out.shared, True) for out in (a, b, inter)] + [
        ((a.routed, b.routed), inter.routed, False), ((a.shared, b.shared), inter.shared, False)]
    values, vjps = zip(*(
        distance(kind, np.concatenate([n.value for n in xs], axis=1), y.value, prime)
        for xs, y, prime in pairs))

    def rule(g: np.ndarray) -> None:
        g = g.item()
        for (xs, y, _), vjp in zip(pairs, vjps):
            g_x, g_y = vjp(g)
            w = g_x.shape[1] // len(xs)
            for i, node in enumerate(xs):
                ad.accumulate(node, g_x[:, i * w:(i + 1) * w], fresh=True)
            ad.accumulate(y, g_y, fresh=True)

    parents = (a.routed, a.shared, b.routed, b.shared, inter.routed, inter.shared)
    return ad.Node(np.array([[sum(values[1:], values[0])]]), parents, rule)


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
    # each router's mean probabilities, as ndarray.mean computes them
    means = [np.add.reduce(t.probs.value, axis=0, keepdims=True) / t.num_tokens for t in traces]
    terms = [(mean @ f).item() for mean, f in zip(means, fracs)]

    def rule(g: np.ndarray) -> None:
        g = g.item()
        for t, frac in zip(traces, fracs):  # g @ frac.T: each product summed from +0.0 (-0.0 to +0.0)
            m = t.num_tokens
            ad.accumulate(t.probs, ((g * frac.T + 0.0) / m).repeat(m, axis=0), fresh=True)

    return ad.Node(np.array([[sum(terms[1:], terms[0])]]), tuple(t.probs for t in traces), rule)


def total_loss(surv: ad.Node, dm: ad.Node, bl: ad.Node, alpha: float, beta: float) -> ad.Node:
    """surv + alpha * dm + beta * bl as one node."""

    def rule(g: np.ndarray) -> None:
        for node, weight in ((surv, 1.0), (dm, alpha), (bl, beta)):  # 1.0 * g is g
            ad.accumulate(node, np.array([[weight * g.item()]]), fresh=True)

    value = surv.value.item() + ((alpha * dm.value.item() + 0.0) + (beta * bl.value.item() + 0.0))
    return ad.Node(np.array([[value]]), (surv, dm, bl), rule)
