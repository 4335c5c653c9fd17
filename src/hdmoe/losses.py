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

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError

HAZARD_EPS = 1e-7
DISTANCE_METRICS = ("cos", "l1", "kl", "mse")
COSINE_NORM_EPS = 1e-12


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


def distance(kind: str, x: ad.Node, y: ad.Node) -> tuple[ad.Node, ad.Node]:
    """Return (DM, DM') for the chosen metric; both are 1x1 nodes.

    cos: DM = 1 - cos(x, y), DM' = cos(x, y). l1/mse: mean abs/squared
    difference, DM' = -DM. kl: symmetric KL of softmax-normalized inputs,
    DM' = -DM.
    """
    kind = kind.lower()
    if kind not in DISTANCE_METRICS:
        raise ConfigError(f"unknown distance metric {kind!r}; pick one of {DISTANCE_METRICS}")
    if x.value.shape != y.value.shape or x.value.shape[0] != 1:
        raise ShapeError(f"distance needs matching 1xd rows, got {x.value.shape} vs {y.value.shape}")
    d = x.value.shape[1]

    if kind == "cos":
        cos = ad.cosine(x, y, COSINE_NORM_EPS)
        return ad.affine(cos, -1.0, 1.0), cos
    if kind == "l1":
        dm = ad.affine(ad.sum_all(ad.absolute(ad.sub(x, y))), 1.0 / d, 0.0)
    elif kind == "mse":
        diff = ad.sub(x, y)
        dm = ad.affine(ad.sum_all(ad.mul(diff, diff)), 1.0 / d, 0.0)
    else:  # kl
        # clamp the normalized distributions: -KL is minimized during
        # decoupling, and unclamped logits would be pushed to +/-inf
        p = ad.clip(ad.row_softmax(x), 1e-9, 1.0)
        q = ad.clip(ad.row_softmax(y), 1e-9, 1.0)
        log_ratio = ad.sub(ad.log(p), ad.log(q))
        dm = ad.sum_all(ad.mul(ad.sub(p, q), log_ratio))
    return dm, ad.affine(dm, -1.0, 0.0)


def decouple_loss(features, kind: str) -> ad.Node:
    """Within-level pairs pushed apart, cross-level aggregates pulled together.

    Expects a DecoupledFeatures-like object exposing Nodes v_intra_a,
    v_share_a, v_intra_b, v_share_b (1 x d1) and v_inter, v_share_3 (1 x d2)
    with 2*d1 == d2 so the concatenated comparisons are well-formed.
    """
    d1 = features.v_intra_a.value.shape[1]
    d2 = features.v_inter.value.shape[1]
    if 2 * d1 != d2:
        raise ConfigError(f"decouple loss needs 2*d1 == d2, got d1={d1}, d2={d2}")
    terms = []
    for intra, share in (
        (features.v_intra_a, features.v_share_a),
        (features.v_intra_b, features.v_share_b),
        (features.v_inter, features.v_share_3),
    ):
        _, dm_prime = distance(kind, intra, share)
        terms.append(dm_prime)
    intra_cat = ad.concat_cols([features.v_intra_a, features.v_intra_b])
    share_cat = ad.concat_cols([features.v_share_a, features.v_share_b])
    terms.append(distance(kind, intra_cat, features.v_inter)[0])
    terms.append(distance(kind, share_cat, features.v_share_3)[0])
    total = terms[0]
    for t in terms[1:]:
        total = ad.add(total, t)
    return total


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
    terms = [t.probs_node.value.mean(axis=0, keepdims=True) @ f for t, f in zip(traces, fracs)]

    def rule(g: np.ndarray) -> None:
        for t, frac in zip(traces, fracs):
            m = t.num_tokens
            ad.accumulate(t.probs_node, np.repeat((g @ frac.T) / m, m, axis=0))

    return ad.Node(sum(terms[1:], terms[0]), tuple(t.probs_node for t in traces), rule)


def total_loss(
    surv: ad.Node, dm: ad.Node, bl: ad.Node, alpha: float, beta: float
) -> tuple[LossBreakdown, ad.Node]:
    total = ad.add(surv, ad.add(ad.affine(dm, alpha, 0.0), ad.affine(bl, beta, 0.0)))
    breakdown = LossBreakdown(
        surv=float(surv.value[0, 0]),
        dm=float(dm.value[0, 0]),
        bl=float(bl.value[0, 0]),
        total=float(total.value[0, 0]),
        alpha=alpha,
        beta=beta,
    )
    return breakdown, total
