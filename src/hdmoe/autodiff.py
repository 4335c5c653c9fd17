"""Dense-matrix reverse-mode differentiation on a dynamic tape.

Values are 2-D float64 C-order numpy arrays ("matrices"). Every operation
returns a :class:`Node` holding the result plus a closure that scatters the
incoming gradient to the parents; a node no gradient can reach keeps neither,
so the leaves' ``requires_grad`` alone decides whether a pass records a graph.
The graph is rebuilt on every forward pass (the fusion operator draws a fresh
permutation each step, so a static graph would not help). ``backward`` walks
the nodes reachable from a scalar root in reverse topological order exactly
once.

All randomness in the package flows through explicitly passed
``numpy.random.Generator`` handles; nothing here touches global RNG state.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

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


def constant(values, name: str = "constant") -> Node:
    return leaf(values, requires_grad=False, name=name)


def _accumulate(node: Node, g: np.ndarray) -> None:
    if not node.requires_grad:
        return
    if node.grad is None:
        # copy: g may alias a buffer shared with another parent's gradient
        node.grad = np.array(g, dtype=np.float64, copy=True)
    else:
        node.grad += g


def backward(root: Node) -> None:
    """Reverse-mode sweep from a 1x1 root; fills .grad on reachable nodes."""
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
            if id(p) not in seen and p.requires_grad:
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
        _accumulate(a, g @ b.value.T)
        _accumulate(b, a.value.T @ g)

    return Node(a.value @ b.value, (a, b), rule)


def transpose(a: Node) -> Node:
    return Node(np.ascontiguousarray(a.value.T), (a,), lambda g: _accumulate(a, g.T))


def reshape(a: Node, shape: tuple[int, int]) -> Node:
    return Node(
        a.value.reshape(shape), (a,), lambda g: _accumulate(a, g.reshape(a.value.shape))
    )


def _require_same_shape(a: Node, b: Node, op: str) -> None:
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op} shapes disagree: {a.value.shape} vs {b.value.shape}")


def add(a: Node, b: Node) -> Node:
    _require_same_shape(a, b, "add")

    def rule(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, g)

    return Node(a.value + b.value, (a, b), rule)


def sub(a: Node, b: Node) -> Node:
    _require_same_shape(a, b, "sub")

    def rule(g: np.ndarray) -> None:
        _accumulate(a, g)
        _accumulate(b, -g)

    return Node(a.value - b.value, (a, b), rule)


def add_bias(x: Node, b: Node) -> Node:
    """x[m,n] + row vector b[1,n], broadcast over rows."""
    if b.value.shape != (1, x.value.shape[1]):
        raise ShapeError(f"bias shape {b.value.shape} does not match {x.value.shape}")

    def rule(g: np.ndarray) -> None:
        _accumulate(x, g)
        _accumulate(b, g.sum(axis=0, keepdims=True))

    return Node(x.value + b.value, (x, b), rule)


def mul(a: Node, b: Node) -> Node:
    _require_same_shape(a, b, "mul")

    def rule(g: np.ndarray) -> None:
        _accumulate(a, g * b.value)
        _accumulate(b, g * a.value)

    return Node(a.value * b.value, (a, b), rule)


def div(a: Node, b: Node) -> Node:
    _require_same_shape(a, b, "div")

    def rule(g: np.ndarray) -> None:
        _accumulate(a, g / b.value)
        _accumulate(b, -g * a.value / (b.value * b.value))

    return Node(a.value / b.value, (a, b), rule)


def affine(a: Node, scale: float, shift: float) -> Node:
    """Elementwise scale * a + shift with constant coefficients."""
    return Node(scale * a.value + shift, (a,), lambda g: _accumulate(a, scale * g))


def tanh(a: Node) -> Node:
    v = np.tanh(a.value)
    return Node(v, (a,), lambda g: _accumulate(a, g * (1.0 - v * v)))


def sigmoid(a: Node) -> Node:
    x = a.value
    v = np.empty_like(x)
    pos = x >= 0
    v[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    v[~pos] = ex / (1.0 + ex)
    return Node(v, (a,), lambda g: _accumulate(a, g * v * (1.0 - v)))


def log(a: Node) -> Node:
    if (a.value <= 0).any():
        raise NumericsError("log requires strictly positive entries")
    return Node(np.log(a.value), (a,), lambda g: _accumulate(a, g / a.value))


def sqrt(a: Node) -> Node:
    if (a.value < 0).any():
        raise NumericsError("sqrt requires non-negative entries")
    v = np.sqrt(a.value)
    return Node(v, (a,), lambda g: _accumulate(a, g / (2.0 * v)))


def absolute(a: Node) -> Node:
    return Node(np.abs(a.value), (a,), lambda g: _accumulate(a, g * np.sign(a.value)))


def clip(a: Node, lo: float, hi: float) -> Node:
    def rule(g: np.ndarray) -> None:
        _accumulate(a, g * ((a.value > lo) & (a.value < hi)))

    return Node(np.clip(a.value, lo, hi), (a,), rule)


def row_softmax(a: Node) -> Node:
    """Stable softmax along each row (max-subtraction)."""
    x = a.value
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    p = e / e.sum(axis=1, keepdims=True)

    def rule(g: np.ndarray) -> None:
        inner = (g * p).sum(axis=1, keepdims=True)
        _accumulate(a, p * (g - inner))

    return Node(p, (a,), rule)


def permute_entries(a: Node, perm: Sequence[int]) -> Node:
    """Reorder the entries of a 1xn row: out[i] = a[perm[i]]."""
    n = a.value.shape[1]
    if a.value.shape[0] != 1:
        raise ShapeError(f"permute_entries expects a 1xn row, got {a.value.shape}")
    idx = np.asarray(perm, dtype=np.intp)
    if idx.shape != (n,) or not np.array_equal(np.sort(idx), np.arange(n)):
        raise ValueError(f"perm is not a bijection on 0..{n - 1}")

    def rule(g: np.ndarray) -> None:
        full = np.empty_like(g)
        full[:, idx] = g
        _accumulate(a, full)

    return Node(a.value[:, idx], (a,), rule)


def gather_rows(a: Node, rows: Sequence[int]) -> Node:
    idx = np.asarray(rows, dtype=np.intp)

    def rule(g: np.ndarray) -> None:
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        _accumulate(a, full)

    return Node(a.value[idx], (a,), rule)


def scatter_rows(a: Node, rows: Sequence[int], num_rows: int) -> Node:
    """Place (and sum) rows of a into a zero matrix with num_rows rows."""
    idx = np.asarray(rows, dtype=np.intp)
    v = np.zeros((num_rows, a.value.shape[1]))
    np.add.at(v, idx, a.value)
    return Node(v, (a,), lambda g: _accumulate(a, g[idx]))


def gather_entries(a: Node, rows: Sequence[int], cols: Sequence[int]) -> Node:
    """Pick scalar entries (rows[i], cols[i]) into a kx1 column."""
    ri = np.asarray(rows, dtype=np.intp)
    ci = np.asarray(cols, dtype=np.intp)

    def rule(g: np.ndarray) -> None:
        full = np.zeros_like(a.value)
        np.add.at(full, (ri, ci), g[:, 0])
        _accumulate(a, full)

    return Node(a.value[ri, ci].reshape(-1, 1), (a,), rule)


def scale_rows(x: Node, s: Node) -> Node:
    """Multiply row i of x by scalar s[i, 0]."""
    if s.value.shape != (x.value.shape[0], 1):
        raise ShapeError(f"scale_rows needs s of shape ({x.value.shape[0]}, 1)")

    def rule(g: np.ndarray) -> None:
        _accumulate(x, g * s.value)
        _accumulate(s, (g * x.value).sum(axis=1, keepdims=True))

    return Node(x.value * s.value, (x, s), rule)


def concat_cols(parts: Iterable[Node]) -> Node:
    nodes = tuple(parts)
    if not nodes:
        raise ShapeError("concat_cols needs at least one input")
    if any(p.value.shape[0] != 1 for p in nodes):
        raise ShapeError("concat_cols expects 1xd rows")

    def rule(g: np.ndarray) -> None:
        offsets = np.cumsum([0] + [p.value.shape[1] for p in nodes])
        for p, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            _accumulate(p, g[:, lo:hi])

    return Node(np.concatenate([p.value for p in nodes], axis=1), nodes, rule)


def sum_all(a: Node) -> Node:
    return Node(
        np.array([[a.value.sum()]]),
        (a,),
        lambda g: _accumulate(a, np.full_like(a.value, g[0, 0])),
    )


def mean_rows(a: Node) -> Node:
    """Column means: [m,n] -> [1,n]."""
    m = a.value.shape[0]
    return Node(
        a.value.mean(axis=0, keepdims=True),
        (a,),
        lambda g: _accumulate(a, np.repeat(g / m, m, axis=0)),
    )


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
            _accumulate(node, grad)

    return Node(v, (x, w1, b1, w2, b2), rule)


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_diff_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference d f / d x, one entry at a time.

    f maps a matrix to a float and must be deterministic for fixed x.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ij = it.multi_index
        orig = x[ij]
        x[ij] = orig + eps
        hi = f(x)
        x[ij] = orig - eps
        lo = f(x)
        x[ij] = orig
        grad[ij] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad
