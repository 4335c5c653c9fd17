import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmoe import autodiff as ad
from hdmoe.errors import NumericsError, ShapeError

from helpers import (add, affine, check_grads, finite_diff_gradient, mul, permute_entries,
                     sigmoid_masked, sum_all)


def test_matmul_identity():
    a = ad.leaf([[1.0, 2.0], [3.0, 4.0]])
    eye = ad.leaf(np.eye(2))
    assert np.array_equal(ad.matmul(a, eye).value, [[1.0, 2.0], [3.0, 4.0]])


def test_matmul_1x1():
    out = ad.matmul(ad.leaf([[1.0, 2.0]]), ad.leaf([[3.0], [4.0]]))
    assert out.value.shape == (1, 1)
    assert out.value[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ad.matmul(ad.leaf(np.zeros((2, 3))), ad.leaf(np.zeros((2, 2))))


def test_matmul_gradient_vs_fd():
    rng = np.random.default_rng(11)
    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    check_grads(lambda x, y: sum_all(ad.matmul(x, y)), [a, b], rtol=1e-6)


def test_row_softmax_uniform():
    p = ad.softmax(np.array([[0.0, 0.0, 0.0]]))
    assert np.allclose(p, 1.0 / 3.0, atol=1e-15)


def test_row_softmax_direct_value():
    x = np.array([[2.0, 1.0, 0.0]])
    expected = np.exp(x) / np.exp(x).sum()
    p = ad.softmax(x)
    assert np.allclose(p, expected, atol=1e-12)
    assert np.allclose(p, [[0.6652, 0.2447, 0.0900]], atol=5e-5)


def test_row_softmax_overflow_guard():
    p = ad.softmax(np.array([[1000.0, 0.0]]))
    assert np.isfinite(p).all()
    assert p[0, 0] == pytest.approx(1.0)
    assert p[0, 1] == pytest.approx(0.0, abs=1e-300)


def test_row_softmax_sums_and_range():
    rng = np.random.default_rng(5)
    for _ in range(100):
        x = rng.uniform(-2, 2, (3, 7))
        p = ad.softmax(x)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)
        assert np.abs(p.sum(axis=1) - 1.0).max() < 1e-12


def test_permute_identity():
    x = ad.leaf([[1.0, 2.0, 3.0]])
    out = permute_entries(x, [0, 1, 2])
    assert np.array_equal(out.value, x.value)


def test_permute_rotation():
    out = permute_entries(ad.leaf([[10.0, 11.0, 12.0, 13.0]]), [2, 3, 0, 1])
    assert np.array_equal(out.value, [[12.0, 13.0, 10.0, 11.0]])


def test_permute_rejects_non_bijection():
    with pytest.raises(ValueError, match="bijection"):
        permute_entries(ad.leaf([[1.0, 2.0, 3.0]]), [0, 0, 2])


def test_permute_gradient_is_inverse_permuted_weight():
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, (1, 6))
    w = rng.uniform(-2, 2, (1, 6))
    perm = rng.permutation(6)
    leaf = ad.leaf(x, requires_grad=True)
    out = sum_all(mul(permute_entries(leaf, perm), ad.leaf(w)))
    ad.backward(out)
    inv = np.argsort(perm)
    assert np.array_equal(leaf.grad, w[:, inv])
    check_grads(
        lambda xs: sum_all(mul(permute_entries(xs, perm), ad.leaf(w))), [x]
    )


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=32))
@settings(max_examples=50, deadline=None)
def test_permute_preserves_multiset_bitwise(values):
    x = np.array([values])
    rng = np.random.default_rng(len(values))
    perm = rng.permutation(len(values))
    out = permute_entries(ad.leaf(x), perm).value
    assert sorted(out[0].tolist()) == sorted(x[0].tolist())


def test_finite_diff_sum_of_squares():
    grad = finite_diff_gradient(lambda m: float((m * m).sum()), np.array([[1.0, 2.0]]))
    assert np.abs(grad - [[2.0, 4.0]]).max() < 1e-8


def test_finite_diff_constant():
    grad = finite_diff_gradient(lambda m: 3.5, np.ones((2, 3)))
    assert np.array_equal(grad, np.zeros((2, 3)))


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_diff_gradient(lambda m: 0.0, np.ones((1, 1)), eps=0.0)


def test_leaf_rejects_non_finite():
    with pytest.raises(NumericsError):
        ad.leaf([[np.nan, 1.0]])


def test_shared_subexpression_accumulates_once_per_path():
    x = ad.leaf([[1.5, -0.5]], requires_grad=True)
    sq = mul(x, x)
    out = sum_all(add(sq, sq))
    ad.backward(out)
    assert np.allclose(x.grad, 4.0 * x.value)


def test_nodes_no_gradient_reaches_keep_no_graph():
    c = ad.leaf([[1.0, 2.0]])
    x = ad.leaf([[3.0, 4.0]], requires_grad=True)
    const = mul(c, c)
    assert not const.requires_grad
    assert const.parents == () and const.backward_rule is None
    mixed = mul(c, x)  # a grad node keeps its constant input
    assert mixed.requires_grad and mixed.parents == (c, x)
    ad.backward(sum_all(mixed))
    assert np.array_equal(x.grad, c.value) and c.grad is None


def test_leaf_shared_by_several_rule_nodes_gets_every_path():
    x = ad.leaf([[1.0, -2.0]], requires_grad=True)
    w = ad.leaf([[3.0], [0.5]])
    # d/dx of x.w + sum(x*x) + sum(x) + 4 sum(x): w^T + 2x + 1 + 4
    total = add(add(ad.matmul(x, w), sum_all(mul(x, x))),
                add(sum_all(x), affine(sum_all(x), 4.0, 0.0)))
    ad.backward(total)
    assert np.array_equal(x.grad, [[10.0, 1.5]])
    assert w.grad is None


def test_backward_from_a_leaf_root():
    root = ad.leaf([[2.5]], requires_grad=True)
    ad.backward(root)
    assert np.array_equal(root.grad, [[1.0]])


@given(st.lists(st.floats(-800, 800), min_size=1, max_size=24))
@settings(max_examples=100, deadline=None)
def test_logistic_bitwise_equal_to_masked_sigmoid(values):
    specials = [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0]
    x = np.array([values + specials])
    v = ad.logistic(x)
    assert v.tobytes() == sigmoid_masked(x).tobytes()
    assert v.tobytes() == ad.sigmoid(ad.leaf(x)).value.tobytes()


def test_backward_requires_scalar_root():
    x = ad.leaf(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        ad.backward(mul(x, x))


# ---------------------------------------------------------------------------
# exhaustive per-op gradient sweep: >= 100 random trials per differentiable op


def _op_cases(rng):
    """(name, builder, input arrays) producing a scalar tape function.

    Weight constants are drawn once here so the builders are deterministic
    functions of their inputs (required by the FD oracle).
    """
    u = lambda shape, lo=-2.0, hi=2.0: rng.uniform(lo, hi, shape)
    w43 = ad.leaf(u((4, 3)))
    w24 = ad.leaf(u((2, 4)))
    cases = [
        ("matmul", lambda a, b: sum_all(ad.matmul(a, b)), [u((3, 4)), u((4, 2))]),
        ("add_bias", lambda a, b: sum_all(mul(ad.add_bias(a, b), w43)), [u((4, 3)), u((1, 3))]),
        ("sigmoid", lambda a: sum_all(mul(ad.sigmoid(a), w24)), [u((2, 4))]),
    ]
    return cases


@pytest.mark.parametrize("trial_block", range(4))
def test_every_op_gradient_matches_fd(trial_block):
    # 4 blocks x 25 trials = 100 seeded random trials per op
    for trial in range(25):
        rng = np.random.default_rng([trial_block, trial])
        for name, fn, arrays in _op_cases(rng):
            check_grads(fn, arrays, rtol=1e-4)
