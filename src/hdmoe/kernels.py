"""The numeric kernels of the hottest paths, in plain numpy: the 2-layer SiLU
expert unit over a block of tokens, forward and backward (run for every routed
and shared expert on every step), and the concordance count behind the c-index
(one sort, then either one cumulative grid of (event time x risk) counts, when
the table has few distinct values, or block searches). `active_backend` names
the one backend, numpy.
"""

from __future__ import annotations

import numpy as np

# The c-index grid runs when its (K + 1) x (R + 1) cells are at most this many
# per sample, so it holds at most 16 int64 (128 bytes) per sample, O(n) as the
# levels do. Its time grows with the cells and the levels' does not: at
# n = 2000 the two took the same time near 57 cells per sample (2-core x86 VM,
# numpy 2.4), so 16 stays well on the grid's fast side.
GRID_CELLS = 16


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
    Sorted latest first, the s_i samples later than event i are a prefix, and
    twice the weight sums, per event, the later ranks below r_i plus those at
    or below it. Both paths below give the same integers and O(n) memory.

    The grid, when the K distinct s_i (the cuts) and the R distinct risks give
    (K + 1) * (R + 1) <= GRID_CELLS * n: one bincount of the samples by (cut
    segment, rank) and two cumulative sums give below[c, q], the samples
    before cut c with rank below q, and each event reads two cells of it. Its
    time is O(n log n + K * R).

    The levels, otherwise: risk ties are counted once for the table, by one
    search per event in the sorted (rank, position) keys. Of the prefix, the
    last s_i mod 8 samples are compared directly, as a [7, events] table (the
    window); the rest is the 2^k blocks named by the bits k >= 3 of s_i (the
    levels), each counted by binary search in its sorted ranks, after the
    (blocks << k) keys of the full blocks before it. The time is O(n log^2 n)
    at worst.
    """
    order = (-times).argsort()  # the order inside a time tie changes no count
    ranked = risks[order]
    by_risk = ranked.argsort()
    ranked = ranked[by_risk]
    new = np.ones(times.size, dtype=bool)  # the first sample of each distinct risk
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    rank = np.empty(times.size, dtype=np.intp)
    rank[by_risk] = new.cumsum() - 1  # dense ranks, as np.unique's inverse gives them
    values = int(np.count_nonzero(new))  # R, the distinct risks
    later = -times[order]
    ev = (events[order] == 1).nonzero()[0]
    s = later.searchsorted(later[ev])
    r, pos, width = rank[ev], np.arange(times.size), times.size + 1
    first = np.ones(s.size, dtype=bool)  # the first event of each cut (s is non-decreasing)
    np.greater(s[1:], s[:-1], out=first[1:])
    cuts = int(np.count_nonzero(first))
    if (cuts + 1) * (values + 1) <= GRID_CELLS * times.size:
        row = first.cumsum() - 1  # each event's cut
        segment = s[first].searchsorted(pos, side="right")  # the cuts at or before j
        # column 0 stays empty, so the cumulative sums count the ranks below q
        below = np.bincount(segment * (values + 1) + rank + 1,
                            minlength=(cuts + 1) * (values + 1)).reshape(cuts + 1, -1)
        below.cumsum(axis=0, out=below)
        below.cumsum(axis=1, out=below)
        twice = int(np.add.reduce(below[row, r])) + int(np.add.reduce(below[row, r + 1]))
        return 0.5 * float(twice), int(np.add.reduce(s))
    tied, counts, needles = rank * width + pos, np.bincount(rank), r * width + s
    tied.sort()
    needles.sort()  # sorted needles search faster
    # twice the weight: the later risks equal to r_i, plus twice those below it
    twice = int(np.add.reduce(tied.searchsorted(needles)))
    twice -= int(np.add.reduce((counts.cumsum() - counts)[r]))
    back = np.arange(1, 8)[:, None]
    near = rank.take(s - back, mode="clip")  # row j - 1: the rank at s_i - j
    twice += 2 * np.count_nonzero((back <= (s & 7)) & (near < r))
    for k in range(3, times.size.bit_length()):
        q = (s & (1 << k)).nonzero()[0]
        keys = (pos >> k) * width + rank
        keys.sort()
        blocks = (s[q] >> k) - 1
        below = blocks * width + r[q]
        below.sort()  # sorted needles search faster
        twice += 2 * (int(np.add.reduce(keys.searchsorted(below))) - (int(np.add.reduce(blocks)) << k))
    return 0.5 * float(twice), int(np.add.reduce(s))


def active_backend() -> str:
    return "numpy"
