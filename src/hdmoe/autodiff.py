"""Dense-matrix reverse-mode differentiation on a dynamic tape.

Values are 2-D float64 C-order numpy arrays ("matrices"). Every operation
returns a :class:`Node` holding the result plus a closure that scatters the
incoming gradient to the parents; a node no gradient can reach keeps neither,
so the leaves' ``requires_grad`` alone decides whether a pass records a graph.
The graph is rebuilt on every forward pass (the fusion operator draws a fresh
permutation each step, so a static graph would not help). ``backward`` walks
the nodes reachable from a scalar root in reverse topological order exactly
once.

The ops here are the model's generic ones: matmul, bias and sigmoid, plus the
array-level softmax and its gradient. Each bag encoder, MoE block, loss term,
the total and each fusion stage is one node with a closed-form rule in its
own module. An op's further outputs are ``side_output`` nodes.

All randomness in the package flows through explicitly passed
``numpy.random.Generator`` handles; nothing here touches global RNG state.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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


def accumulate(node: Node, g: np.ndarray, fresh: bool = False) -> None:
    """Add g to node's gradient. The first gradient is copied, since g may
    alias a buffer shared with another parent's, unless the rule says that g
    is fresh: an array no one else holds."""
    if not node.requires_grad:
        return
    if node.grad is None:
        node.grad = g if fresh else np.array(g, dtype=np.float64, copy=True)
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
        accumulate(a, g @ b.value.T, fresh=True)
        accumulate(b, a.value.T @ g, fresh=True)

    return Node(a.value @ b.value, (a, b), rule)


def add_bias(x: Node, b: Node) -> Node:
    """x[m,n] + row vector b[1,n], broadcast over rows."""
    if b.value.shape != (1, x.value.shape[1]):
        raise ShapeError(f"bias shape {b.value.shape} does not match {x.value.shape}")

    def rule(g: np.ndarray) -> None:
        accumulate(x, g)
        accumulate(b, np.add.reduce(g, axis=0, keepdims=True), fresh=True)

    return Node(x.value + b.value, (x, b), rule)


def logistic(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) without overflow: with e = exp(-|x|), 1 / (1 + e)
    where x >= 0 and e / (1 + e) below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a: Node) -> Node:
    v = logistic(a.value)
    return Node(v, (a,), lambda g: accumulate(a, g * v * (1.0 - v), fresh=True))


def softmax(x: np.ndarray) -> np.ndarray:
    """Stable softmax along each row (max-subtraction). Reductions here and in
    the other hot paths call the ufunc's reduce, which is what the array
    methods run after a Python-level dispatch."""
    e = np.exp(x - np.maximum.reduce(x, axis=1, keepdims=True))
    return e / np.add.reduce(e, axis=1, keepdims=True)


def softmax_vjp(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient reaching x from g on p = softmax(x)."""
    return p * (g - np.add.reduce(g * p, axis=1, keepdims=True))


def side_output(node: Node, value: np.ndarray, grads: list, i: int) -> Node:
    """Output i of node's op besides node: it comes before node in backward's
    order, hands its final gradient to grads[i] for node's rule (which holds
    grads, not this node: no reference cycle), and gives node a zero
    gradient if none reached node, so that the rule runs."""

    def rule(g: np.ndarray) -> None:
        grads[i] = g
        if node.grad is None:
            node.grad = np.zeros_like(node.value)

    return Node(value, (node,), rule)
