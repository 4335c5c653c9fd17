"""Reusable sparse MoE block: tokenize each row of a B x d matrix, route every
token of the batch to the top-k of N experts, apply one shared expert to
every token.

Gate values are the raw softmax probabilities of the selected experts, with
no renormalization over the selected set; ties break toward the lower expert
index. Concatenating each row's per-token outputs restores the input width,
so both returned matrices match the input shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import kernels
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

    probs: ad.Node  # [B*T, N] router softmax
    selected: np.ndarray  # [B*T, top_k] expert indices

    @property
    def num_tokens(self) -> int:
        return self.probs.value.shape[0]

    def selection_counts(self) -> np.ndarray:
        return np.bincount(self.selected.ravel(), minlength=self.probs.value.shape[1])


@dataclass
class MoEOutput:
    routed: ad.Node  # [B, d]
    shared: ad.Node  # [B, d]
    trace: RouterTrace
    tokens: np.ndarray  # [B*T, l] inputs to the experts, row b's at b*T .. b*T+T-1


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


def select_top_k(probs: np.ndarray, top_k: int) -> np.ndarray:
    """Indices of the top_k largest probs per row; ties go to the lower index."""
    return (-probs).argsort(axis=1, kind="stable")[:, :top_k]


def moe_forward(v: ad.Node, cfg: MoEConfig, params, router_last: bool = False) -> MoEOutput:
    """Run the expert block over all tokens of v (B x d) as one tape node.

    `params` holds Nodes (lifted MoEParams). Row b of v is cut into tokens
    b*T .. b*T+T-1. One stable sort groups the (token, expert) pairs by
    expert, so each reached expert runs the fused kernel once over its run
    of pairs. The node is the routed output; the shared output and the
    router softmax are its side outputs. The tokens' gradient adds the
    routed experts' term, then the router's and the shared expert's, or with
    router_last the shared expert's and the router's: the orders of the
    level-1 and level-2 blocks when each was seven tape ops."""
    if v.value.shape[1] % cfg.token_len != 0:
        raise ConfigError(f"token_len {cfg.token_len} does not divide feature dim {v.value.shape[1]}")
    x = v.value.reshape(-1, cfg.token_len)
    router, experts, sh = params.router, params.experts, params.shared
    p = ad.softmax(x @ router.value)
    selected = select_top_k(p, cfg.top_k)
    order = selected.ravel().argsort(kind="stable")
    rows, cols = order // cfg.top_k, selected.ravel()[order]
    xs, gates = x[rows], p[rows, cols, None]
    edges = cols.searchsorted(np.arange(len(experts) + 1)).tolist()
    runs = [(ex, lo, hi) for ex, lo, hi in zip(experts, edges[:-1], edges[1:]) if lo < hi]
    ys, saved = np.empty_like(xs), []
    for ex, lo, hi in runs:
        ys[lo:hi], *cache = kernels.ffn_forward(xs[lo:hi], ex.w1.value, ex.b1.value, ex.w2.value,
                                                ex.b2.value)
        saved.append(cache)
    routed_tokens = np.zeros(x.shape)
    np.add.at(routed_tokens, rows, ys * gates)
    shared_tokens, *shared_cache = kernels.ffn_forward(x, sh.w1.value, sh.b1.value, sh.w2.value, sh.b2.value)

    side_grads = [None, None]  # of the shared output and the router softmax

    def rule(g: np.ndarray) -> None:
        g_shared, g_probs = side_grads
        gs = g.reshape(x.shape)[rows]
        g_p = np.zeros(p.shape)
        g_p[rows, cols] = np.add.reduce(gs * ys, axis=1)
        if g_probs is not None:
            g_p += g_probs
        g_xs, g_ys = np.empty_like(xs), gs * gates
        for (ex, lo, hi), cache in zip(runs, saved):
            g_xs[lo:hi], *g_params = kernels.ffn_backward(
                g_ys[lo:hi], xs[lo:hi], ex.w1.value, ex.w2.value, *cache)
            for node, grad in zip((ex.w1, ex.b1, ex.w2, ex.b2), g_params):
                ad.accumulate(node, grad, fresh=True)
        g_x = np.zeros(x.shape)
        np.add.at(g_x, rows, g_xs)
        g_logits = ad.softmax_vjp(p, g_p)
        ad.accumulate(router, x.T @ g_logits, fresh=True)
        terms = [g_logits @ router.value.T]
        if g_shared is not None:
            g_sx, *g_params = kernels.ffn_backward(
                g_shared.reshape(x.shape), x, sh.w1.value, sh.w2.value, *shared_cache)
            for node, grad in zip((sh.w1, sh.b1, sh.w2, sh.b2), g_params):
                ad.accumulate(node, grad, fresh=True)
            terms.insert(0 if router_last else 1, g_sx)
        for term in terms:
            g_x += term
        ad.accumulate(v, g_x.reshape(v.value.shape), fresh=True)

    parents = (v, router, *(n for ex, *_ in runs for n in (ex.w1, ex.b1, ex.w2, ex.b2)),
               sh.w1, sh.b1, sh.w2, sh.b2)
    routed = ad.Node(routed_tokens.reshape(v.value.shape), parents, rule)
    shared = ad.side_output(routed, shared_tokens.reshape(v.value.shape), side_grads, 0)
    probs = ad.side_output(routed, p, side_grads, 1)
    return MoEOutput(routed, shared, RouterTrace(probs, selected), x)
