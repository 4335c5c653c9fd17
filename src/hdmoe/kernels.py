"""The numeric kernels of the hottest paths, in plain numpy: the 2-layer SiLU
expert unit over a block of tokens, forward and backward (run for every routed
and shared expert on every step), and the concordance count behind the c-index
(one sort, then block searches). `active_backend` names the one backend, numpy.
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
    Sorted latest first, the s_i samples later than event i are a prefix.
    Risk ties are counted once for the table, by one search per event in the
    sorted (rank, position) keys. Of the prefix, the last s_i mod 8 samples
    are compared directly, as a [7, events] table (the window); the rest is
    the 2^k blocks named by the bits k >= 3 of s_i (the levels), each counted
    by binary search in its sorted ranks, after the (blocks << k) keys of the
    full blocks before it. The counts are exact; the time is O(n log^2 n) at
    worst and the memory O(n).
    """
    order = np.argsort(-times)  # the order inside a time tie changes no count
    _, rank = np.unique(risks[order], return_inverse=True)
    ev = np.flatnonzero(events[order] == 1)
    s = np.searchsorted(-times[order], -times[order[ev]])
    r, pos, width = rank[ev], np.arange(times.size), times.size + 1
    tied, counts = np.sort(rank * width + pos), np.bincount(rank)
    # twice the weight: the later risks equal to r_i, plus twice those below it
    twice = int(np.searchsorted(tied, np.sort(r * width + s)).sum())
    twice -= int((np.cumsum(counts) - counts)[r].sum())
    back = np.arange(1, 8)[:, None]
    near = rank.take(s - back, mode="clip")  # row j - 1: the rank at s_i - j
    twice += 2 * np.count_nonzero((back <= (s & 7)) & (near < r))
    for k in range(3, times.size.bit_length()):
        q = np.flatnonzero(s & (1 << k))
        keys = np.sort((pos >> k) * width + rank)
        blocks = (s[q] >> k) - 1
        below = np.sort(blocks * width + r[q])  # sorted needles search faster
        twice += 2 * (int(np.searchsorted(keys, below).sum()) - (int(blocks.sum()) << k))
    return 0.5 * float(twice), int(s.sum())


def active_backend() -> str:
    return "numpy"
