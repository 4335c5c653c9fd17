"""Gated-attention pooling of a variable-size instance bag into one class token.

Each instance is projected, scored by a gated tanh/sigmoid attention head,
and the token is the attention-weighted sum of projections. Output shape is
1 x d1 regardless of bag size, and the result is permutation invariant.
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


def encode_bag(bag: np.ndarray, params) -> ad.Node:
    """Aggregate bag [n, d_in] into a 1 x d1 class token.

    `params` holds Nodes (lifted EncoderParams); gradients flow into all four
    matrices and stop at the bag, which is treated as input data.
    """
    if bag.ndim != 2 or bag.shape[0] < 1:
        raise DataError(f"encode_bag needs a non-empty 2-D bag, got shape {bag.shape}")
    h = ad.matmul(ad.leaf(bag, name="bag"), params.w_proj)  # [n, d1]
    gate = ad.mul(ad.tanh(ad.matmul(h, params.v_att)), ad.sigmoid(ad.matmul(h, params.u_att)))
    scores = ad.matmul(gate, params.w_att)  # [n, 1]
    weights = ad.row_softmax(ad.reshape(scores, (1, scores.value.shape[0])))  # [1, n]
    return ad.matmul(weights, h)  # [1, d1]
