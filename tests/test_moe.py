import numpy as np
import pytest

from hdmoe import autodiff as ad
from hdmoe import moe
from hdmoe.errors import ConfigError

from helpers import add, check_grads, route, sum_all, tokenize


def _lift_moe(params: moe.MoEParams, requires_grad=True) -> moe.MoEParams:
    lift = lambda a: ad.leaf(a, requires_grad)
    le = lambda e: moe.ExpertParams(w1=lift(e.w1), b1=lift(e.b1), w2=lift(e.w2), b2=lift(e.b2))
    return moe.MoEParams(
        router=lift(params.router),
        experts=[le(e) for e in params.experts],
        shared=le(params.shared),
    )


def _zero_expert(l, e):
    h = e * l
    return moe.ExpertParams(w1=np.zeros((l, h)), b1=np.zeros((1, h)), w2=np.zeros((h, l)), b2=np.zeros((1, l)))


# ---------------------------------------------------------------------------
# tokenize


def test_tokenize_whole_vector_is_one_token():
    v = ad.leaf(np.arange(8.0).reshape(1, 8))
    t = tokenize(v, 8)
    assert t.value.shape == (1, 8)
    assert np.array_equal(t.value[0], np.arange(8.0))


def test_tokenize_pairs():
    v = ad.leaf(np.arange(8.0).reshape(1, 8))
    t = tokenize(v, 2)
    assert t.value.shape == (4, 2)
    assert np.array_equal(t.value, [[0, 1], [2, 3], [4, 5], [6, 7]])


def test_tokenize_default_dims_give_four_tokens():
    v = ad.leaf(np.zeros((1, 256)))
    assert tokenize(v, 64).value.shape == (4, 64)


def test_tokenize_non_divisor_rejected():
    with pytest.raises(ConfigError):
        tokenize(ad.leaf(np.zeros((1, 8))), 3)
    cfg = moe.MoEConfig(num_experts=2, top_k=1, token_len=3)
    lifted = _lift_moe(moe.init_moe_params(cfg, np.random.default_rng(0)))
    with pytest.raises(ConfigError, match="does not divide"):
        moe.moe_forward(ad.leaf(np.zeros((1, 8))), cfg, lifted)


# ---------------------------------------------------------------------------
# route


def test_route_tie_break_selects_lowest_index():
    router = np.zeros((4, 3))
    decision = route(np.ones((1, 4)), router, top_k=1)
    assert decision.selected[0, 0] == 0
    assert decision.gates[0, 0] == pytest.approx(1.0 / 3.0)


def test_route_top1_values():
    token = np.array([[1.0]])
    router = np.array([[2.0, 1.0, 0.0]])
    decision = route(token, router, top_k=1)
    expected = np.exp([2.0, 1.0, 0.0])
    expected /= expected.sum()
    assert decision.selected[0, 0] == 0
    assert decision.gates[0, 0] == pytest.approx(expected[0])
    assert decision.gates[0, 0] == pytest.approx(0.6652, abs=5e-5)


def test_route_top2_values():
    token = np.array([[1.0]])
    router = np.array([[2.0, 1.0, 0.0]])
    decision = route(token, router, top_k=2)
    expected = np.exp([2.0, 1.0, 0.0])
    expected /= expected.sum()
    assert list(decision.selected[0]) == [0, 1]
    assert decision.gates[0] == pytest.approx([expected[0], expected[1]])
    assert decision.gates[0] == pytest.approx([0.6652, 0.2447], abs=5e-5)


def test_select_top_k_matches_bruteforce_sort():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        probs = rng.uniform(0, 1, (1, n))
        if rng.uniform() < 0.3:  # force ties
            probs[0, rng.integers(0, n)] = probs[0, rng.integers(0, n)]
        got = moe.select_top_k(probs, k)[0]
        want = sorted(range(n), key=lambda j: (-probs[0, j], j))[:k]
        assert list(got) == want


# ---------------------------------------------------------------------------
# moe_forward


def test_single_expert_top1_is_plain_ffn():
    rng = np.random.default_rng(1)
    cfg = moe.MoEConfig(num_experts=1, top_k=1, token_len=4, expansion=2)
    params = moe.init_moe_params(cfg, rng)
    lifted = _lift_moe(params)
    v = ad.leaf(rng.normal(size=(1, 8)))
    out = moe.moe_forward(v, cfg, lifted)
    # gate is 1: softmax over one expert
    tokens = v.value.reshape(2, 4)
    e = params.experts[0]
    pre = tokens @ e.w1 + e.b1
    act = pre / (1 + np.exp(-pre))
    expected = (act @ e.w2 + e.b2).reshape(1, 8)
    assert np.allclose(out.routed.value, expected, atol=1e-12)
    gates = np.take_along_axis(out.trace.probs.value, out.trace.selected, axis=1)
    assert np.array_equal(gates, np.ones((2, 1)))


def test_zero_weights_give_bias_pattern():
    cfg = moe.MoEConfig(num_experts=2, top_k=1, token_len=4, expansion=2)
    rng = np.random.default_rng(2)
    params = moe.init_moe_params(cfg, rng)
    for e in params.experts + [params.shared]:
        e.w1[:] = 0.0
        e.w2[:] = 0.0
        e.b1[:] = rng.normal(size=e.b1.shape)
        e.b2[:] = rng.normal(size=e.b2.shape)
    params.router[:] = 0.0
    lifted = _lift_moe(params)
    v = ad.leaf(rng.normal(size=(1, 8)))
    out = moe.moe_forward(v, cfg, lifted)
    # ties route everything to expert 0 with gate 1/2; output = gate * b2
    assert np.allclose(out.routed.value.reshape(2, 4), 0.5 * params.experts[0].b2, atol=1e-14)
    assert np.allclose(out.shared.value.reshape(2, 4), params.shared.b2, atol=1e-14)


def test_moe_forward_shape_restoration_and_trace():
    rng = np.random.default_rng(3)
    cfg = moe.MoEConfig(num_experts=4, top_k=2, token_len=2, expansion=3)
    params = moe.init_moe_params(cfg, rng)
    out = moe.moe_forward(ad.leaf(rng.normal(size=(1, 12))), cfg, _lift_moe(params))
    assert out.routed.value.shape == (1, 12)
    assert out.shared.value.shape == (1, 12)
    trace = out.trace
    assert trace.probs.value.shape == (6, 4)
    assert np.allclose(trace.probs.value.sum(axis=1), 1.0, atol=1e-12)
    assert trace.selection_counts().sum() == 6 * 2
    assert trace.selected.shape == (6, 2)


def test_moe_forward_matches_per_token_reference_routing():
    rng = np.random.default_rng(4)
    cfg = moe.MoEConfig(num_experts=5, top_k=2, token_len=3, expansion=2)
    params = moe.init_moe_params(cfg, rng)
    v = rng.normal(size=(1, 12))
    out = moe.moe_forward(ad.leaf(v), cfg, _lift_moe(params))
    probs, selected = out.trace.probs.value, out.trace.selected
    gates = np.take_along_axis(probs, selected, axis=1)
    for t, token in enumerate(v.reshape(4, 3)):
        ref = route(token, params.router, cfg.top_k)
        assert np.allclose(probs[t], ref.probs[0], atol=1e-12)
        assert list(selected[t]) == list(ref.selected[0])
        assert np.allclose(gates[t], ref.gates[0], atol=1e-12)


def test_top_k_equals_n_matches_dense_mixture_oracle():
    rng = np.random.default_rng(5)
    cfg = moe.MoEConfig(num_experts=3, top_k=3, token_len=2, expansion=2)
    params = moe.init_moe_params(cfg, rng)
    v = rng.normal(size=(1, 6))
    out = moe.moe_forward(ad.leaf(v), cfg, _lift_moe(params))
    # dense oracle in plain numpy
    dense = np.zeros((3, 2))
    for t, token in enumerate(v.reshape(3, 2)):
        logits = token @ params.router
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        for j, e in enumerate(params.experts):
            pre = token @ e.w1 + e.b1
            act = pre / (1 + np.exp(-pre))
            dense[t] += probs[j] * (act @ e.w2 + e.b2)[0]
    assert np.abs(out.routed.value.reshape(3, 2) - dense).max() < 1e-12


def test_unselected_expert_gradients_are_exactly_zero():
    rng = np.random.default_rng(6)
    cfg = moe.MoEConfig(num_experts=4, top_k=1, token_len=4, expansion=2)
    params = moe.init_moe_params(cfg, rng)
    lifted = _lift_moe(params)
    v = ad.leaf(rng.normal(size=(1, 8)), requires_grad=True)
    out = moe.moe_forward(v, cfg, lifted)
    ad.backward(sum_all(add(out.routed, out.shared)))
    used = set(out.trace.selected.ravel().tolist())
    for j, e in enumerate(lifted.experts):
        grads = [e.w1.grad, e.b1.grad, e.w2.grad, e.b2.grad]
        if j in used:
            assert any(g is not None and np.abs(g).max() > 0 for g in grads)
        else:
            assert all(g is None for g in grads)


def test_moe_block_leaves_no_reference_cycle():
    # a cycle through the side outputs would keep each step's graph alive
    # until the cyclic collector runs
    import gc

    rng = np.random.default_rng(8)
    cfg = moe.MoEConfig(num_experts=3, top_k=2, token_len=2, expansion=2)
    lifted = _lift_moe(moe.init_moe_params(cfg, rng))
    gc.collect()
    gc.disable()
    try:
        out = moe.moe_forward(ad.leaf(rng.normal(size=(2, 6)), requires_grad=True), cfg, lifted)
        ad.backward(add(sum_all(add(out.routed, out.shared)), sum_all(out.trace.probs)))
        del out
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_moe_forward_gradients_match_fd():
    rng = np.random.default_rng(7)
    cfg = moe.MoEConfig(num_experts=2, top_k=1, token_len=3, expansion=2)
    v = rng.uniform(-2, 2, (1, 6))
    h = cfg.expansion * cfg.token_len

    def build(router, w1a, b1a, w2a, b2a, w1b, b1b, w2b, b2b, w1s, b1s, w2s, b2s):
        params = moe.MoEParams(
            router=router,
            experts=[
                moe.ExpertParams(w1a, b1a, w2a, b2a),
                moe.ExpertParams(w1b, b1b, w2b, b2b),
            ],
            shared=moe.ExpertParams(w1s, b1s, w2s, b2s),
        )
        out = moe.moe_forward(ad.leaf(v), cfg, params)
        return sum_all(add(out.routed, out.shared))

    arrays = [rng.uniform(-1, 1, (3, 2))]
    for _ in range(3):
        arrays += [
            rng.uniform(-1, 1, (3, h)),
            rng.uniform(-1, 1, (1, h)),
            rng.uniform(-1, 1, (h, 3)),
            rng.uniform(-1, 1, (1, 3)),
        ]
    # seed chosen so no token's top-2 probs are close enough for an eps-step
    # to flip the selection (FD probes would then straddle a discontinuity)
    check_grads(build, arrays, rtol=1e-4)


def test_moe_config_validation():
    with pytest.raises(ConfigError):
        moe.MoEConfig(num_experts=2, top_k=3, token_len=4)
    with pytest.raises(ConfigError):
        moe.MoEConfig(num_experts=2, top_k=0, token_len=4)
