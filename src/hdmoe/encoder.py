"""Gated-attention pooling of variable-size instance bags into class tokens.

Each instance is projected, scored by a gated tanh/sigmoid attention head,
and a bag's token is the attention-weighted sum of its projections. B bags
give B x d1 whatever their sizes, and each token is permutation invariant.
Bags of one size run through every stage as one stacked product per
stage, so a bag's token has the bits of the bag encoded alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import DataError


@dataclass
class EncoderParams:
    w_proj: np.ndarray  # [d_in, d1]
    v_att: np.ndarray  # [d1, d_att]
    u_att: np.ndarray  # [d1, d_att]
    w_att: np.ndarray  # [d_att, 1]


def uniform_init(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """U(-1/sqrt(rows), 1/sqrt(rows)) weights, the init of every weight matrix."""
    bound = 1.0 / np.sqrt(rows)
    return rng.uniform(-bound, bound, size=(rows, cols))


def init_encoder_params(
    d_in: int, d1: int, d_att: int, rng: np.random.Generator
) -> EncoderParams:
    return EncoderParams(
        w_proj=uniform_init(rng, d_in, d1),
        v_att=uniform_init(rng, d1, d_att),
        u_att=uniform_init(rng, d1, d_att),
        w_att=uniform_init(rng, d_att, 1),
    )


def encode_bag(bags: list[np.ndarray], params) -> ad.Node:
    """Aggregate B bags [n_b, d_in] into a B x d1 matrix of class tokens, as
    one tape node.

    `params` holds Nodes (lifted EncoderParams); gradients flow into all four
    matrices and stop at the bags, which are treated as input data. Row b is
    the softmax of bag b's scores times its projections, with the arithmetic
    of the fine ops reshape -> row_softmax -> matmul; the projections'
    gradient sums the pooling term, then the tanh branch, then the sigmoid
    branch, and each bag's parameter gradients are accumulated in bag order.
    """
    if not bags:
        raise DataError("encode_bag needs at least one bag")
    by_size: dict[int, list[int]] = {}
    for b, bag in enumerate(bags):
        if bag.ndim != 2 or bag.shape[0] < 1:
            raise DataError(f"encode_bag needs non-empty 2-D bags, got shape {bag.shape}")
        by_size.setdefault(bag.shape[0], []).append(b)
    nodes = (params.w_proj, params.v_att, params.u_att, params.w_att)
    w_proj, v_att, u_att, w_att = (node.value for node in nodes)
    out, groups = np.empty((len(bags), w_proj.shape[1])), []
    for n, ids in by_size.items():
        xb = ad.as_matrix(np.concatenate([bags[b] for b in ids]), "bags").reshape(len(ids), n, -1)
        h = xb @ w_proj  # [bags, n, d1]
        t, s = np.tanh(h @ v_att), ad.logistic(h @ u_att)
        gate = t * s
        p = ad.softmax((gate @ w_att)[:, :, 0])  # [bags, n]
        out[ids] = np.matmul(p[:, None, :], h)[:, 0]
        groups.append((ids, xb, h, t, s, gate, p))

    def rule(g: np.ndarray) -> None:
        factors = []  # per group: its bags, and the two factors of each parameter's gradient
        for ids, xb, h, t, s, gate, p in groups:
            gb, hT = g[ids][:, None, :], h.transpose(0, 2, 1)
            g_sc = ad.softmax_vjp(p, np.matmul(gb, hT)[:, 0]).reshape(len(ids), -1, 1)
            g_gate = g_sc @ w_att.T
            g_a = g_gate * s * (1.0 - t * t)  # through tanh(h @ V_att)
            g_b = g_gate * t * s * (1.0 - s)  # through sigmoid(h @ U_att)
            g_h = np.matmul(p[:, :, None], gb) + g_a @ v_att.T + g_b @ u_att.T
            factors.append((ids, ((xb.transpose(0, 2, 1), g_h), (hT, g_a), (hT, g_b),
                                  (gate.transpose(0, 2, 1), g_sc))))
        # one parameter's per-bag gradients alive at a time: a lower peak of
        # memory, and each product reuses the buffer the last one freed
        for i, node in enumerate(nodes):
            per_bag = {}
            for ids, pairs in factors:
                per_bag.update(zip(ids, np.matmul(*pairs[i])))
            for b in range(len(bags)):
                ad.accumulate(node, per_bag[b], fresh=True)

    return ad.Node(out, nodes, rule)
