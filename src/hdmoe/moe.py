"""Reusable sparse MoE block: tokenize each row of a B x d matrix, route every
token of the batch to the top-k of N experts, apply one shared expert to
every token.

Gate values are the raw softmax probabilities of the selected experts, with
no renormalization over the selected set; ties break toward the lower expert
index. Concatenating each row's per-token outputs restores the input width,
so both returned matrices match the input shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .encoder import uniform_init
from .errors import ConfigError


@dataclass
class MoEConfig:
    num_experts: int
    top_k: int
    token_len: int
    expansion: int = 4

    def __post_init__(self):
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigError(
                f"top_k must be in 1..{self.num_experts}, got {self.top_k}"
            )
        if self.token_len < 1 or self.expansion < 1:
            raise ConfigError("token_len and expansion must be >= 1")


@dataclass
class ExpertParams:
    """2-layer feed-forward unit mapping token_len -> token_len."""

    w1: np.ndarray  # [l, e*l]
    b1: np.ndarray  # [1, e*l]
    w2: np.ndarray  # [e*l, l]
    b2: np.ndarray  # [1, l]


@dataclass
class MoEParams:
    router: np.ndarray  # [l, N]
    experts: list  # N routed ExpertParams
    shared: ExpertParams


@dataclass
class RouterTrace:
    """Per-token routing record plus aggregates for balancing/diagnostics."""

    probs: np.ndarray  # [B*T, N]
    selected: np.ndarray  # [B*T, top_k] expert indices
    gates: np.ndarray  # [B*T, top_k] raw softmax probs of the selections
    num_experts: int
    probs_node: ad.Node | None = field(default=None, repr=False)

    @property
    def num_tokens(self) -> int:
        return self.probs.shape[0]

    def selection_counts(self) -> np.ndarray:
        return np.bincount(self.selected.ravel(), minlength=self.num_experts)


@dataclass
class MoEOutput:
    routed: ad.Node  # [B, d]
    shared: ad.Node  # [B, d]
    trace: RouterTrace
    tokens: ad.Node  # [B*T, l] inputs to the experts, row b's at b*T .. b*T+T-1
    shared_tokens: ad.Node  # [B*T, l] shared-expert outputs per token


def init_expert_params(token_len: int, expansion: int, rng: np.random.Generator) -> ExpertParams:
    hidden = expansion * token_len
    return ExpertParams(
        w1=uniform_init(rng, token_len, hidden),
        b1=np.zeros((1, hidden)),
        w2=uniform_init(rng, hidden, token_len),
        b2=np.zeros((1, token_len)),
    )


def init_moe_params(cfg: MoEConfig, rng: np.random.Generator) -> MoEParams:
    return MoEParams(
        router=uniform_init(rng, cfg.token_len, cfg.num_experts),
        experts=[
            init_expert_params(cfg.token_len, cfg.expansion, rng)
            for _ in range(cfg.num_experts)
        ],
        shared=init_expert_params(cfg.token_len, cfg.expansion, rng),
    )


def tokenize(v: ad.Node, token_len: int) -> ad.Node:
    """Reshape B x d into B*T x token_len: row b's tokens are rows b*T .. b*T+T-1."""
    rows, d = v.value.shape
    if d % token_len != 0:
        raise ConfigError(f"token_len {token_len} does not divide feature dim {d}")
    return ad.reshape(v, (rows * d // token_len, token_len))


def select_top_k(probs: np.ndarray, top_k: int) -> np.ndarray:
    """Indices of the top_k largest probs per row; ties go to the lower index."""
    order = np.argsort(-probs, axis=1, kind="stable")
    return order[:, :top_k]


def moe_forward(v: ad.Node, cfg: MoEConfig, params) -> MoEOutput:
    """Run the expert block over all tokens of v (B x d).

    `params` holds Nodes (lifted MoEParams). The routed experts are one tape
    node, which batches the tokens selecting an expert through one fused
    feed-forward call.
    """
    tokens = tokenize(v, cfg.token_len)

    logits = ad.matmul(tokens, params.router)  # [T, N]
    probs = ad.row_softmax(logits)
    selected = select_top_k(probs.value, cfg.top_k)  # [T, k]
    routed_tokens = ad.routed_experts(tokens, probs, selected, params.experts)

    sh = params.shared
    shared_tokens = ad.expert_ffn(tokens, sh.w1, sh.b1, sh.w2, sh.b2)

    trace = RouterTrace(
        probs=probs.value.copy(),
        selected=selected,
        gates=np.take_along_axis(probs.value, selected, axis=1),
        num_experts=cfg.num_experts,
        probs_node=probs,
    )
    return MoEOutput(
        routed=ad.reshape(routed_tokens, v.value.shape),
        shared=ad.reshape(shared_tokens, v.value.shape),
        trace=trace,
        tokens=tokens,
        shared_tokens=shared_tokens,
    )
