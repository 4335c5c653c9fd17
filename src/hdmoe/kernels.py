"""Hot numeric kernels, in plain numpy.

Two kernels dominate runtime at training/evaluation scale and are worth
fusing: the 2-layer SiLU expert unit applied to a block of tokens (called
for every routed/shared expert on every step), and the concordance count
(sort + block search).
"""

from __future__ import annotations

import numpy as np


def ffn_forward(x, w1, b1, w2, b2):
    """Fused expert unit: out = silu(x @ w1 + b1) @ w2 + b2.

    Returns (out, pre, sig, act) where pre is the hidden pre-activation,
    sig its logistic factor and act the hidden activation; all three are
    reused by the backward kernel.
    """
    pre = x @ w1 + b1
    sig = 1.0 / (1.0 + np.exp(-pre))
    act = pre * sig
    out = act @ w2 + b2
    return out, pre, sig, act


def ffn_backward(g, x, w1, w2, pre, sig, act):
    """Gradients of the fused expert unit w.r.t. (x, w1, b1, w2, b2)."""
    g_act = g @ w2.T
    # d silu / d pre = sig * (1 + pre * (1 - sig))
    g_pre = g_act * (sig * (1.0 + pre * (1.0 - sig)))
    gx = g_pre @ w1.T
    gw1 = x.T @ g_pre
    gb1 = np.add.reduce(g_pre, axis=0, keepdims=True)
    gw2 = act.T @ g
    gb2 = np.add.reduce(g, axis=0, keepdims=True)
    return gx, gw1, gb1, gw2, gb2


def concordance_counts(times, events, risks):
    """Concordance statistics over all ordered pairs with t_i < t_j.

    A pair is comparable iff the earlier sample had an observed event;
    risk ties count 0.5. Returns (concordant_weight, comparable_count).
    Sorted latest first, the s_i samples later than event i are a prefix: the
    power-of-two blocks named by the set bits of s_i, each counted by binary
    search in its sorted risk ranks. O(n log^2 n); the counts are exact.
    """
    order = np.argsort(-times, kind="stable")
    _, rank = np.unique(risks[order], return_inverse=True)
    ev = np.flatnonzero(events[order] == 1)
    s = np.searchsorted(-times[order], -times[order[ev]])
    pos, width = np.arange(times.size), times.size + 1
    twice = 0  # twice the weight: later risks below r_i plus those at or below
    for k in range(times.size.bit_length()):
        q = np.flatnonzero((s >> k) & 1)
        keys = np.sort((pos >> k) * width + rank)
        base = ((s[q] >> k) - 1) * width
        below = np.sort(base + rank[ev[q]])  # only sums are kept; sorted needles search faster
        lo = np.searchsorted(keys, base)
        mid = np.searchsorted(keys, below)
        hi = np.searchsorted(keys, below, side="right")
        twice += int((mid + hi - 2 * lo).sum())
    return 0.5 * float(twice), int(s.sum())


def active_backend() -> str:
    return "numpy"
