import numpy as np
import pytest

from hdmoe import autodiff as ad
from hdmoe import losses
from hdmoe.errors import ConfigError
from hdmoe.moe import RouterTrace

from helpers import check_grads, decoupled_stub, finite_diff_gradient, max_rel_err


def _features(vecs):
    return decoupled_stub(*[v if isinstance(v, ad.Node) else ad.leaf(np.atleast_2d(v))
                            for v in vecs])


def _trace(probs, selected):
    probs = np.asarray(probs, dtype=np.float64)
    selected = np.asarray(selected, dtype=np.intp)
    return RouterTrace(probs=ad.leaf(probs), selected=selected)


# ---------------------------------------------------------------------------
# survival NLL


def test_nll_censored_zero_hazards_is_near_zero():
    h = ad.leaf(np.zeros((1, 4)))
    loss = losses.survival_nll(h, bin_label=4, censored=1)
    assert 0.0 <= loss.value[0, 0] < 1e-5


def test_nll_uncensored_bin2_hand_value():
    h = ad.leaf([[0.1, 0.5, 0.3, 0.9]])
    loss = losses.survival_nll(h, bin_label=2, censored=0)
    expected = -np.log(0.5) - np.log(0.9)
    assert loss.value[0, 0] == pytest.approx(expected, abs=1e-12)
    assert loss.value[0, 0] == pytest.approx(0.7985, abs=5e-5)


def test_nll_uncensored_first_bin_boundary():
    h = ad.leaf([[0.5, 0.2, 0.2, 0.2]])
    loss = losses.survival_nll(h, bin_label=1, censored=0)
    assert loss.value[0, 0] == pytest.approx(-np.log(0.5), abs=1e-12)
    assert loss.value[0, 0] == pytest.approx(0.6931, abs=5e-5)


def test_nll_censored_uses_full_survival():
    h = ad.leaf([[0.25, 0.5, 0.5, 0.5]])
    loss = losses.survival_nll(h, bin_label=2, censored=1)
    assert loss.value[0, 0] == pytest.approx(-np.log(0.75) - np.log(0.5), abs=1e-12)


def test_nll_invalid_bin():
    h = ad.leaf(np.full((1, 4), 0.5))
    with pytest.raises(ValueError):
        losses.survival_nll(h, bin_label=5, censored=0)
    with pytest.raises(ValueError):
        losses.survival_nll(h, bin_label=0, censored=0)


def test_nll_nonnegative_everywhere():
    rng = np.random.default_rng(0)
    for _ in range(100):
        h = ad.leaf(rng.uniform(0, 1, (1, 4)))
        n = int(rng.integers(1, 5))
        c = int(rng.integers(0, 2))
        assert losses.survival_nll(h, n, c).value[0, 0] >= 0.0


def test_nll_monotonic_in_hazards():
    # uncensored: raising h_n lowers the loss; raising any earlier h_j raises it
    rng = np.random.default_rng(1)
    for _ in range(20):
        h = rng.uniform(0.1, 0.9, (1, 4))
        n = 3
        leaf = ad.leaf(h, requires_grad=True)
        ad.backward(losses.survival_nll(leaf, n, censored=0))
        g = leaf.grad[0]
        assert g[n - 1] < 0
        assert (g[: n - 1] > 0).all()
        assert g[n:] == pytest.approx(0.0)


def test_nll_tape_gradient_matches_fd_oracle():
    rng = np.random.default_rng(2)
    h = rng.uniform(0.05, 0.95, (1, 4))

    def f(arr):
        return float(losses.survival_nll(ad.leaf(arr), 2, 0).value[0, 0])

    leaf = ad.leaf(h, requires_grad=True)
    ad.backward(losses.survival_nll(leaf, 2, 0))
    fd = finite_diff_gradient(f, h, eps=1e-5)
    assert max_rel_err(leaf.grad, fd) < 1e-4


# ---------------------------------------------------------------------------
# distance metrics


def test_cos_identical():
    x = ad.leaf([[1.0, 2.0, 3.0]])
    dm, dmp = losses.distance("cos", x, ad.leaf([[2.0, 4.0, 6.0]]))
    assert dm.value[0, 0] == pytest.approx(0.0, abs=1e-9)
    assert dmp.value[0, 0] == pytest.approx(1.0, abs=1e-9)


def test_cos_orthogonal():
    dm, dmp = losses.distance("cos", ad.leaf([[1.0, 0.0]]), ad.leaf([[0.0, 5.0]]))
    assert dm.value[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert dmp.value[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_cos_zero_vector_guarded():
    dm, dmp = losses.distance("cos", ad.leaf([[0.0, 0.0]]), ad.leaf([[1.0, 1.0]]))
    assert np.isfinite(dm.value).all() and np.isfinite(dmp.value).all()


def test_mse_hand_value():
    dm, dmp = losses.distance("mse", ad.leaf([[1.0, 2.0]]), ad.leaf([[3.0, 4.0]]))
    assert dm.value[0, 0] == pytest.approx(4.0)
    assert dmp.value[0, 0] == pytest.approx(-4.0)


def test_l1_hand_value():
    dm, dmp = losses.distance("l1", ad.leaf([[1.0, 2.0]]), ad.leaf([[4.0, -2.0]]))
    assert dm.value[0, 0] == pytest.approx(3.5)
    assert dmp.value[0, 0] == pytest.approx(-3.5)


def test_kl_identical_is_zero():
    x = [[0.3, -1.0, 2.0]]
    dm, dmp = losses.distance("kl", ad.leaf(x), ad.leaf(x))
    assert dm.value[0, 0] == pytest.approx(0.0, abs=1e-14)
    assert dmp.value[0, 0] == pytest.approx(0.0, abs=1e-14)


def test_kl_symmetric():
    x, y = ad.leaf([[0.5, -0.5, 1.0]]), ad.leaf([[2.0, 0.0, -1.0]])
    ab = losses.distance("kl", x, y)[0].value[0, 0]
    ba = losses.distance("kl", y, x)[0].value[0, 0]
    assert ab == pytest.approx(ba, abs=1e-14)
    assert ab > 0


def test_unknown_metric():
    with pytest.raises(ConfigError):
        losses.distance("cosine", ad.leaf([[1.0]]), ad.leaf([[1.0]]))


@pytest.mark.parametrize("kind", losses.DISTANCE_METRICS)
def test_dm_prime_gradient_is_exact_negative(kind):
    rng = np.random.default_rng(3)
    x = rng.uniform(0.2, 2, (1, 5))
    y = rng.uniform(0.2, 2, (1, 5))
    g = {}
    for which in (0, 1):
        leaf = ad.leaf(x, requires_grad=True)
        ad.backward(losses.distance(kind, leaf, ad.leaf(y))[which])
        g[which] = leaf.grad.copy()
    assert np.allclose(g[0], -g[1], atol=1e-15)


@pytest.mark.parametrize("kind", losses.DISTANCE_METRICS)
def test_distance_gradients_match_fd(kind):
    rng = np.random.default_rng(4)
    x = rng.uniform(0.2, 2, (1, 5))
    y = rng.uniform(0.2, 2, (1, 5))
    check_grads(lambda a, b: losses.distance(kind, a, b)[0], [x, y], rtol=1e-4)


# ---------------------------------------------------------------------------
# decouple loss


def test_decouple_parallel_vectors_gives_three():
    rng = np.random.default_rng(5)
    v = rng.normal(size=(1, 4))
    cat = np.concatenate([v, 3 * v], axis=1)
    f = _features([v, 2 * v, 3 * v, 6 * v, 5 * cat, 18 * cat])
    loss = losses.decouple_loss(f, "cos")
    assert loss.value[0, 0] == pytest.approx(3.0, abs=1e-9)


def test_decouple_constructed_minimum_is_zero():
    intra_a, share_a = [[1.0, 0.0]], [[0.0, 1.0]]
    intra_b, share_b = [[1.0, 0.0]], [[0.0, 1.0]]
    inter = [[1.0, 0.0, 1.0, 0.0]]
    share3 = [[0.0, 1.0, 0.0, 1.0]]
    f = _features([intra_a, share_a, intra_b, share_b, inter, share3])
    assert losses.decouple_loss(f, "cos").value[0, 0] == pytest.approx(0.0, abs=1e-9)


def test_decouple_dimension_mismatch_rejected():
    rng = np.random.default_rng(6)
    v1 = rng.normal(size=(1, 4))
    v2 = rng.normal(size=(1, 6))  # not 2*d1
    f = _features([v1, v1, v1, v1, v2, v2])
    with pytest.raises(ConfigError):
        losses.decouple_loss(f, "cos")


def test_decouple_gradients_match_fd():
    rng = np.random.default_rng(7)
    d1 = 3
    arrays = [rng.uniform(-2, 2, (1, d1)) for _ in range(4)]
    arrays += [rng.uniform(-2, 2, (1, 2 * d1)) for _ in range(2)]

    def build(a, b, c, d, e, f):
        return losses.decouple_loss(_features([a, b, c, d, e, f]), "cos")

    check_grads(build, arrays, rtol=1e-4)


def test_decouple_cos_scale_invariance():
    # cosine makes the loss invariant to rescaling the level-2 vectors
    # individually, and to joint rescaling of any concat pair; rescaling one
    # level-1 vector alone rotates the concatenated direction and is NOT
    # invariant (a consequence of the concatenation reading of the
    # cross-level terms)
    rng = np.random.default_rng(8)
    vecs = [rng.normal(size=(1, 3)) for _ in range(4)]
    vecs += [rng.normal(size=(1, 6)) for _ in range(2)]
    base = losses.decouple_loss(_features(list(vecs)), "cos").value[0, 0]
    for i in (4, 5):
        scaled = list(vecs)
        scaled[i] = scaled[i] * 7.3
        assert losses.decouple_loss(_features(scaled), "cos").value[0, 0] == pytest.approx(
            base, abs=1e-9
        )
    for pair in ((0, 2), (1, 3)):
        scaled = list(vecs)
        for i in pair:
            scaled[i] = scaled[i] * 7.3
        assert losses.decouple_loss(_features(scaled), "cos").value[0, 0] == pytest.approx(
            base, abs=1e-9
        )


# ---------------------------------------------------------------------------
# balance loss


def test_balance_uniform_routing_equals_one_over_n():
    n = 4
    probs = np.full((n, n), 1.0 / n)
    selected = np.arange(n, dtype=np.intp).reshape(n, 1)
    loss = losses.balance_loss([_trace(probs, selected)])
    assert loss.value[0, 0] == pytest.approx(1.0 / n, abs=1e-15)


def test_balance_collapsed_routing():
    p = np.array([0.7, 0.2, 0.1])
    probs = np.tile(p, (5, 1))
    selected = np.zeros((5, 1), dtype=np.intp)
    loss = losses.balance_loss([_trace(probs, selected)])
    assert loss.value[0, 0] == pytest.approx(0.7, abs=1e-15)


def test_balance_three_uniform_routers_n8():
    n = 8
    probs = np.full((n, n), 1.0 / n)
    selected = np.arange(n, dtype=np.intp).reshape(n, 1)
    traces = [_trace(probs, selected) for _ in range(3)]
    assert losses.balance_loss(traces).value[0, 0] == pytest.approx(0.375, abs=1e-15)


def test_balance_lower_bound_on_random_routed_traces():
    # 1/N is not a strict bound (f and P are positively associated but not
    # similarly ordered, and small violations occur even for Gaussian
    # logits); check the bound with a small slack per trace plus exactly on
    # the mean across traces
    from hdmoe.moe import select_top_k

    rng = np.random.default_rng(9)
    margins = []
    for _ in range(300):
        t = int(rng.integers(2, 20))
        n = int(rng.integers(2, 9))
        logits = rng.normal(size=(t, n))
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        selected = select_top_k(probs, 1)
        loss = losses.balance_loss([_trace(probs, selected)]).value[0, 0]
        margins.append(loss - 1.0 / n)
        assert loss >= 1.0 / n - 0.01
    assert np.mean(margins) > 0.0


def test_balance_gradient_flows_only_through_probs():
    n = 3
    probs = np.array([[0.6, 0.3, 0.1], [0.2, 0.5, 0.3]])
    selected = np.array([[0], [1]], dtype=np.intp)
    node = ad.leaf(probs, requires_grad=True)
    trace = RouterTrace(probs=node, selected=selected)
    ad.backward(losses.balance_loss([trace]))
    # d/dP of sum_i f_i * mean_t P[t, i]: each entry gets f_col / T
    expected = np.tile(np.array([0.5, 0.5, 0.0]) / 2, (2, 1))
    assert np.allclose(node.grad, expected, atol=1e-15)


def test_balance_empty_trace_rejected():
    trace = RouterTrace(probs=ad.leaf(np.zeros((0, 3))), selected=np.zeros((0, 1), dtype=np.intp))
    with pytest.raises(ValueError):
        losses.balance_loss([trace])


# ---------------------------------------------------------------------------
# total


def test_total_zero_weights_is_surv():
    surv, dm, bl = ad.leaf([[1.7]]), ad.leaf([[2.0]]), ad.leaf([[3.0]])
    breakdown, total = losses.total_loss(surv, dm, bl, alpha=0.0, beta=0.0)
    assert total.value[0, 0] == 1.7
    assert breakdown.total == 1.7


def test_total_hand_value():
    surv, dm, bl = ad.leaf([[1.0]]), ad.leaf([[2.0]]), ad.leaf([[3.0]])
    breakdown, total = losses.total_loss(surv, dm, bl, alpha=1.0, beta=0.01)
    assert breakdown.total == pytest.approx(3.03, abs=1e-12)


def test_total_breakdown_identity():
    rng = np.random.default_rng(10)
    for _ in range(50):
        s, d, b = rng.uniform(0, 3, 3)
        alpha, beta = rng.uniform(0, 2, 2)
        breakdown, _ = losses.total_loss(
            ad.leaf([[s]]), ad.leaf([[d]]), ad.leaf([[b]]), alpha, beta
        )
        assert abs(breakdown.total - (breakdown.surv + alpha * breakdown.dm + beta * breakdown.bl)) < 1e-12
