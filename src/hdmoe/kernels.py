"""Hot numeric kernels, in plain numpy.

Two kernels dominate runtime at training/evaluation scale and are worth
fusing: the 2-layer SiLU expert unit applied to a block of tokens (called
for every routed/shared expert on every step), and the O(n^2) concordance
pair scan.
"""

from __future__ import annotations

import numpy as np


def ffn_forward(x, w1, b1, w2, b2):
    """Fused expert unit: out = silu(x @ w1 + b1) @ w2 + b2.

    Returns (out, pre, sig) where pre is the hidden pre-activation and
    sig its logistic factor; both are reused by the backward kernel.
    """
    pre = x @ w1 + b1
    sig = 1.0 / (1.0 + np.exp(-pre))
    act = pre * sig
    out = act @ w2 + b2
    return out, pre, sig


def ffn_backward(g, x, w1, w2, pre, sig):
    """Gradients of the fused expert unit w.r.t. (x, w1, b1, w2, b2)."""
    act = pre * sig
    g_act = g @ w2.T
    # d silu / d pre = sig * (1 + pre * (1 - sig))
    g_pre = g_act * (sig * (1.0 + pre * (1.0 - sig)))
    gx = g_pre @ w1.T
    gw1 = x.T @ g_pre
    gb1 = g_pre.sum(axis=0).reshape(1, -1)
    gw2 = act.T @ g
    gb2 = g.sum(axis=0).reshape(1, -1)
    return gx, gw1, gb1, gw2, gb2


def concordance_counts(times, events, risks):
    """Concordance statistics over all ordered pairs with t_i < t_j.

    A pair is comparable iff the earlier sample had an observed event;
    risk ties count 0.5. Returns (concordant_weight, comparable_count).
    """
    conc = 0.0
    comp = 0
    for i in np.flatnonzero(events == 1):
        later = times > times[i]
        comp += int(np.count_nonzero(later))
        r = risks[later]
        conc += float(np.count_nonzero(risks[i] > r))
        conc += 0.5 * float(np.count_nonzero(risks[i] == r))
    return conc, comp


def active_backend() -> str:
    return "numpy"
