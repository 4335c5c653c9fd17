"""Gated-attention pooling of variable-size instance bags into class tokens.

Each instance is projected, scored by a gated tanh/sigmoid attention head,
and a bag's token is the attention-weighted sum of its projections. B bags
give B x d1 whatever their sizes, and each token is permutation invariant.
The instances of all bags share the projection and gate matmuls; the
softmax and the weighted sum run per bag.
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


def _attention_pool(scores: ad.Node, h: ad.Node, sizes: list[int]) -> ad.Node:
    """Row b: softmax of bag b's scores (its rows of the [n, 1] column) times
    its rows of h. One node; bags of one size are pooled together, and per
    bag the arithmetic is that of reshape -> row_softmax -> matmul."""
    s, hv = scores.value, h.value
    by_size: dict[int, list[int]] = {}
    for b, n in enumerate(sizes):
        by_size.setdefault(n, []).append(b)
    out = np.empty((len(sizes), hv.shape[1]))
    groups = []  # (bags, their instance rows, [bags, 1, n] softmax weights)
    if len(by_size) > 1:
        starts = np.cumsum(sizes) - sizes
    for n, bags in by_size.items():
        if len(by_size) == 1:  # every bag and row, in order: no gathers
            bags = rows = slice(None)
        else:
            rows = (starts[bags, None] + np.arange(n)).ravel()
        sc = s[rows].reshape(-1, n)
        e = np.exp(sc - sc.max(axis=1, keepdims=True))
        p = (e / e.sum(axis=1, keepdims=True))[:, None, :]
        out[bags] = np.matmul(p, hv[rows].reshape(p.shape[0], n, -1))[:, 0]
        groups.append((bags, rows, p))

    def rule(g: np.ndarray) -> None:
        g_h, g_s = np.empty_like(hv), np.empty_like(s)
        for bags, rows, p in groups:
            gb = g[bags][:, None, :]
            g_p = np.matmul(gb, hv[rows].reshape(p.shape[0], p.shape[2], -1).transpose(0, 2, 1))
            g_h[rows] = np.matmul(p.transpose(0, 2, 1), gb).reshape(-1, hv.shape[1])
            g_s[rows] = (p * (g_p - (g_p * p).sum(axis=2, keepdims=True))).reshape(-1, 1)
        ad.accumulate(h, g_h)
        ad.accumulate(scores, g_s)

    return ad.Node(out, (scores, h), rule)


def encode_bag(bags: list[np.ndarray], params) -> ad.Node:
    """Aggregate B bags [n_b, d_in] into a B x d1 matrix of class tokens.

    `params` holds Nodes (lifted EncoderParams); gradients flow into all four
    matrices and stop at the bags, which are treated as input data.
    """
    if not bags:
        raise DataError("encode_bag needs at least one bag")
    for bag in bags:
        if bag.ndim != 2 or bag.shape[0] < 1:
            raise DataError(f"encode_bag needs non-empty 2-D bags, got shape {bag.shape}")
    h = ad.matmul(ad.leaf(np.concatenate(bags), name="bags"), params.w_proj)  # [n, d1]
    gate = ad.mul(ad.tanh(ad.matmul(h, params.v_att)), ad.sigmoid(ad.matmul(h, params.u_att)))
    scores = ad.matmul(gate, params.w_att)  # [n, 1]
    return _attention_pool(scores, h, [bag.shape[0] for bag in bags])  # [B, d1]
