"""Dense-matrix reverse-mode differentiation on a dynamic tape.

Values are 2-D float64 C-order numpy arrays ("matrices"). Every operation
returns a :class:`Node` holding the result plus a closure that scatters the
incoming gradient to the parents; a node no gradient can reach keeps neither,
so the leaves' ``requires_grad`` alone decides whether a pass records a graph.
The graph is rebuilt on every forward pass (the fusion operator draws a fresh
permutation each step, so a static graph would not help). ``backward`` walks
the nodes reachable from a scalar root in reverse topological order exactly
once.

The ops here are the model's generic ones: matmul, reshape, bias, sigmoid,
row softmax and the fused expert feed-forward. The routed experts of an MoE
block are one node with a closed-form rule, as are each loss term and the
total of ``losses`` and each fusion stage of ``rfr``.

All randomness in the package flows through explicitly passed
``numpy.random.Generator`` handles; nothing here touches global RNG state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from . import kernels
from .errors import NumericsError, ShapeError


def as_matrix(values, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float64 C-order array."""
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NumericsError(f"{name} contains non-finite entries")
    return arr


class Node:
    """One matrix on the tape: value, lazily materialized gradient, parents.

    A node that no gradient can reach (no input requires one) keeps no graph:
    its parents are () and its backward rule is None, so a no-grad pass frees
    each intermediate as soon as nothing holds its value.
    """

    __slots__ = ("value", "grad", "parents", "backward_rule", "requires_grad")

    def __init__(
        self,
        value: np.ndarray,
        parents: tuple["Node", ...] = (),
        backward_rule: Callable[[np.ndarray], None] | None = None,
        requires_grad: bool = False,
    ):
        self.value = value
        self.grad: np.ndarray | None = None
        for p in parents:  # a plain loop: any() over a generator costs more per node
            if requires_grad:
                break
            requires_grad = p.requires_grad
        self.requires_grad = requires_grad
        self.parents = parents if self.requires_grad else ()
        self.backward_rule = backward_rule if self.requires_grad else None

    def __repr__(self) -> str:
        return f"Node(shape={self.value.shape}, requires_grad={self.requires_grad})"


def leaf(values, requires_grad: bool = False, name: str = "leaf") -> Node:
    return Node(as_matrix(values, name), requires_grad=requires_grad)


def accumulate(node: Node, g: np.ndarray) -> None:
    if not node.requires_grad:
        return
    if node.grad is None:
        # copy: g may alias a buffer shared with another parent's gradient
        node.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        node.grad += g


def backward(root: Node) -> None:
    """Reverse-mode sweep from a 1x1 root; fills .grad on reachable nodes.

    Only nodes with a rule are walked: a leaf gets its gradient from the rules
    of the nodes that consume it."""
    if root.value.shape != (1, 1):
        raise ShapeError(f"backward root must be 1x1, got {root.value.shape}")
    order: list[Node] = []
    seen: set[int] = set()
    stack: list[tuple[Node, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node.parents:
            if p.backward_rule is not None and id(p) not in seen:
                stack.append((p, False))
    root.grad = np.ones((1, 1))
    for node in reversed(order):
        if node.backward_rule is not None and node.grad is not None:
            node.backward_rule(node.grad)


# ---------------------------------------------------------------------------
# operations: each returns Node(value, parents, rule); the rule is kept only
# when a gradient can reach the result


def matmul(a: Node, b: Node) -> Node:
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul inner dimensions disagree: {a.value.shape} @ {b.value.shape}"
        )

    def rule(g: np.ndarray) -> None:
        accumulate(a, g @ b.value.T)
        accumulate(b, a.value.T @ g)

    return Node(a.value @ b.value, (a, b), rule)


def reshape(a: Node, shape: tuple[int, int]) -> Node:
    return Node(
        a.value.reshape(shape), (a,), lambda g: accumulate(a, g.reshape(a.value.shape))
    )


def add_bias(x: Node, b: Node) -> Node:
    """x[m,n] + row vector b[1,n], broadcast over rows."""
    if b.value.shape != (1, x.value.shape[1]):
        raise ShapeError(f"bias shape {b.value.shape} does not match {x.value.shape}")

    def rule(g: np.ndarray) -> None:
        accumulate(x, g)
        accumulate(b, g.sum(axis=0, keepdims=True))

    return Node(x.value + b.value, (x, b), rule)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: with e = exp(-|x|), 1 / (1 + e)
    where x >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Node) -> Node:
    v = logistic(a.value)
    return Node(v, (a,), lambda g: accumulate(a, g * v * (1.0 - v)))


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax along each row (max-subtraction)."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching x from g on p = softmax(x)."""
    return p * (g - (g * p).sum(axis=1, keepdims=True))


def row_softmax(a: Node) -> Node:
    p = softmax(a.value)
    return Node(p, (a,), lambda g: accumulate(a, softmax_vjp(p, g)))


def expert_ffn(x: Node, w1: Node, b1: Node, w2: Node, b2: Node) -> Node:
    """Fused 2-layer SiLU feed-forward unit (kernels.py)."""
    if x.value.shape[1] != w1.value.shape[0]:
        raise ShapeError(f"expert_ffn: {x.value.shape} @ {w1.value.shape}")
    if w1.value.shape[1] != w2.value.shape[0]:
        raise ShapeError(f"expert_ffn: hidden {w1.value.shape} @ {w2.value.shape}")
    v, pre, sig = kernels.ffn_forward(x.value, w1.value, b1.value, w2.value, b2.value)

    def rule(g: np.ndarray) -> None:
        grads = kernels.ffn_backward(g, x.value, w1.value, w2.value, pre, sig)
        for node, grad in zip((x, w1, b1, w2, b2), grads):
            accumulate(node, grad)

    return Node(v, (x, w1, b1, w2, b2), rule)


# ---------------------------------------------------------------------------
# composites: one node each, with a closed-form rule


def routed_experts(tokens: Node, probs: Node, selected: np.ndarray, experts) -> Node:
    """Row t: the sum over e in selected[t] of probs[t, e] * ffn_e(tokens[t]).

    One stable sort groups the (token, expert) pairs by expert, tokens in row
    order within each; each expert some token reached runs the fused kernel
    once over its contiguous run of pairs (backward: once per such expert),
    and the rule scatters the gates' gradients into probs at (row, expert).
    experts[e] holds Nodes w1, b1, w2, b2.
    """
    x, p = tokens.value, probs.value
    order = np.argsort(selected.ravel(), kind="stable")
    rows, cols = order // selected.shape[1], selected.ravel()[order]
    xs, gates = x[rows], p[rows, cols][:, None]
    edges = np.searchsorted(cols, np.arange(len(experts) + 1))
    runs = [((ex.w1, ex.b1, ex.w2, ex.b2), lo, hi)
            for ex, lo, hi in zip(experts, edges[:-1], edges[1:]) if lo < hi]
    ys, saved = np.empty_like(xs), []
    for (w1, b1, w2, b2), lo, hi in runs:
        ys[lo:hi], *cache = kernels.ffn_forward(xs[lo:hi], w1.value, b1.value, w2.value, b2.value)
        saved.append(cache)
    out = np.zeros_like(x)
    np.add.at(out, rows, ys * gates)

    def rule(g: np.ndarray) -> None:
        gs, g_tokens, g_probs = g[rows], np.zeros_like(x), np.zeros_like(p)
        g_probs[rows, cols] = (gs * ys).sum(axis=1)
        g_xs, g_ys = np.empty_like(xs), gs * gates
        for (params, lo, hi), (pre, sig) in zip(runs, saved):
            g_xs[lo:hi], *g_params = kernels.ffn_backward(
                g_ys[lo:hi], xs[lo:hi], params[0].value, params[2].value, pre, sig)
            for node, grad in zip(params, g_params):
                accumulate(node, grad)
        np.add.at(g_tokens, rows, g_xs)
        accumulate(tokens, g_tokens)
        accumulate(probs, g_probs)

    return Node(out, (tokens, probs, *(n for params, *_ in runs for n in params)), rule)

