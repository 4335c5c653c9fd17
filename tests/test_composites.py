"""The one-node tape composites (bag encoder, routed experts, MoE block,
cosine, survival NLL, balance loss, decouple loss, total loss, fusion) against
the fine-op composites they replaced, kept in `helpers`: values and gradients
bitwise (cosine: gradients to 1e-12 against the composite, bitwise against its
rule's own order and against its 1x1-array form), and against finite
differences. The fine ops those oracles are built from get their own FD sweep
here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as hp
from hdmoe import autodiff as ad
from hdmoe import losses
from hdmoe.encoder import EncoderParams, encode_bag
from hdmoe import moe
from hdmoe.moe import ExpertParams, RouterTrace
from hdmoe.rfr import rfr_forward, valid_segments
from helpers import check_grads


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _grads_of(build, arrays, weight):
    """Forward value and every input's gradient (None where none reached) of
    sum(build(*leaves) * weight)."""
    leaves = [ad.leaf(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    ad.backward(hp.sum_all(hp.mul(out, ad.leaf(weight))))
    return out.value, [leaf.grad for leaf in leaves]


def _expert_arrays(rng, num_experts, token_len, hidden):
    arrays = []
    for _ in range(num_experts):
        arrays += [
            rng.uniform(-1, 1, (token_len, hidden)), rng.uniform(-1, 1, (1, hidden)),
            rng.uniform(-1, 1, (hidden, token_len)), rng.uniform(-1, 1, (1, token_len)),
        ]
    return arrays


def _routed(fn, selected, num_experts):
    def build(tokens, probs, *params):
        experts = [ExpertParams(*params[4 * e:4 * e + 4]) for e in range(num_experts)]
        return fn(tokens, probs, selected, experts)

    return build


# ---------------------------------------------------------------------------
# bag encoder


def _encoder_arrays(rng, d_in=5, d1=6, d_att=3):
    return [rng.uniform(-1, 1, s) for s in ((d_in, d1), (d1, d_att), (d1, d_att), (d_att, 1))]


@given(st.lists(st.integers(1, 8), min_size=1, max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_encode_bag_bitwise_equal_to_composite(sizes, seed):
    rng = np.random.default_rng(seed)
    bags = [rng.normal(size=(n, 5)) for n in sizes]
    arrays = _encoder_arrays(rng)
    weight = rng.normal(size=(len(bags), 6))

    leaves = [ad.leaf(a, requires_grad=True) for a in arrays]
    out = encode_bag(bags, EncoderParams(*leaves))
    ad.backward(hp.sum_all(hp.mul(out, ad.leaf(weight))))
    # the composite, one bag at a time: the summed terms reach the parameters
    # bag 0 first, the order in which the node accumulates them
    ref_leaves = [ad.leaf(a, requires_grad=True) for a in arrays]
    rows = [hp.encode_bag_single(bag, EncoderParams(*ref_leaves)) for bag in bags]
    terms = [hp.sum_all(hp.mul(row, ad.leaf(weight[b:b + 1]))) for b, row in enumerate(rows)]
    total = terms[0]
    for term in terms[1:]:
        total = hp.add(total, term)
    ad.backward(total)

    assert _same_bits(out.value, np.concatenate([row.value for row in rows]))
    for leaf, ref in zip(leaves, ref_leaves):
        assert _same_bits(leaf.grad, ref.grad)


def test_encode_bag_gradients_match_fd():
    rng = np.random.default_rng(6)
    bags = [rng.uniform(-2, 2, (n, 5)) for n in (3, 1, 8, 3, 5)]
    weight = ad.leaf(rng.normal(size=(5, 6)))
    check_grads(lambda *p: hp.sum_all(hp.mul(encode_bag(bags, EncoderParams(*p)), weight)),
                _encoder_arrays(rng), rtol=1e-6)


# ---------------------------------------------------------------------------
# routed experts


@st.composite
def routings(draw):
    num_tokens = draw(st.integers(1, 9))
    num_experts = draw(st.integers(1, 6))
    top_k = draw(st.integers(1, num_experts))
    # routing only among the first `reachable` experts leaves the rest unreached
    reachable = draw(st.integers(top_k, num_experts))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    selected = np.stack([rng.permutation(reachable)[:top_k] for _ in range(num_tokens)])
    return num_tokens, num_experts, selected.astype(np.intp), rng


@given(routings(), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=80, deadline=None)
def test_routed_experts_bitwise_equal_to_composite(routing, token_len, expansion):
    num_tokens, num_experts, selected, rng = routing
    logits = rng.normal(size=(num_tokens, num_experts))
    probs = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    arrays = [rng.normal(size=(num_tokens, token_len)), probs]
    arrays += _expert_arrays(rng, num_experts, token_len, expansion * token_len)
    weight = rng.normal(size=(num_tokens, token_len))

    value, grads = _grads_of(_routed(hp.routed_experts, selected, num_experts), arrays, weight)
    ref_value, ref_grads = _grads_of(
        _routed(hp.routed_experts_composite, selected, num_experts), arrays, weight)
    assert _same_bits(value, ref_value)
    for i, (g, ref) in enumerate(zip(grads, ref_grads)):
        assert (g is None) == (ref is None), i
        assert g is None or _same_bits(g, ref), i
    reached = set(selected.ravel().tolist())
    for e in range(num_experts):  # an unreached expert's parameters get no gradient
        assert all((g is None) == (e not in reached) for g in grads[2 + 4 * e:6 + 4 * e])


def test_routed_experts_gradients_match_fd():
    rng = np.random.default_rng(0)
    num_experts, token_len, hidden = 4, 3, 5
    selected = np.array([[2, 0], [1, 2], [2, 1], [0, 1], [1, 0]], dtype=np.intp)  # 3 unreached
    arrays = [rng.uniform(-1, 1, (5, token_len)), rng.uniform(0.05, 1, (5, num_experts))]
    arrays += _expert_arrays(rng, num_experts, token_len, hidden)
    weight = ad.leaf(rng.normal(size=(5, token_len)))
    build = _routed(hp.routed_experts, selected, num_experts)
    check_grads(lambda *a: hp.sum_all(hp.mul(build(*a), weight)), arrays, rtol=1e-6)


def test_routed_experts_calls_the_kernel_once_per_reached_expert(monkeypatch):
    from hdmoe import kernels

    calls = []
    forward = kernels.ffn_forward
    monkeypatch.setattr(kernels, "ffn_forward", lambda x, *w: calls.append(x.shape[0]) or forward(x, *w))
    monkeypatch.setattr(moe, "select_top_k", lambda probs, top_k: np.array([[3], [0], [3], [3]]))
    rng = np.random.default_rng(1)
    experts = [ExpertParams(*(ad.leaf(a) for a in _expert_arrays(rng, 1, 2, 4)))
               for _ in range(6)]
    params = moe.MoEParams(ad.leaf(rng.normal(size=(2, 5))), experts[:5], experts[5])
    moe.moe_forward(ad.leaf(rng.normal(size=(1, 8))), moe.MoEConfig(5, 1, 2, 2), params)
    assert calls == [1, 3, 4]  # experts 0 and 3 over the tokens that chose each, then the shared


# ---------------------------------------------------------------------------
# MoE block


def _weighted(nodes, weights):
    """The sum of each node's entries times its weights, as one node whose
    parents are the nodes in the order given."""
    value = sum(float((n.value * w).sum()) for n, w in zip(nodes, weights))

    def rule(g):
        for n, w in zip(nodes, weights):
            ad.accumulate(n, g.item() * w)

    return ad.Node(np.array([[value]]), tuple(nodes), rule)


def _moe_block(forward, cfg, arrays, weights, order):
    """One MoE block over leaves of arrays (v, router, each expert's four,
    the shared expert's four) under a loss reading the outputs named in
    order; returns the block's output and every leaf's gradient."""
    leaves = [ad.leaf(a, requires_grad=True) for a in arrays]
    experts = [ExpertParams(*leaves[2 + 4 * e:6 + 4 * e]) for e in range(cfg.num_experts + 1)]
    out = forward(leaves[0], cfg, moe.MoEParams(leaves[1], experts[:-1], experts[-1]))
    outputs = {"routed": out.routed, "shared": out.shared, "probs": out.trace.probs}
    ad.backward(_weighted([outputs[k] for k in order], [weights[k] for k in order]))
    return out, [leaf.grad for leaf in leaves]


def _moe_arrays(rng, cfg, rows):
    """v (positive), a router that never picks its last expert, and the
    experts' weights."""
    router = rng.normal(size=(cfg.token_len, cfg.num_experts))
    router[:, -1] = -50.0
    return [rng.uniform(0.1, 2.0, (rows, 4 * cfg.token_len)), router,
            *_expert_arrays(rng, cfg.num_experts + 1, cfg.token_len, cfg.expansion * cfg.token_len)]


# The seven-op block summed the tokens' gradient in backward's order: the
# routed experts', the router's, the shared expert's when the shared output
# was reached first (level 1 in a step), else the shared expert's before the
# router's (level 2). Each loss order below gives one of them.
@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("top_k", [1, 2])
@pytest.mark.parametrize("router_last, order", [(False, ("probs", "routed", "shared")),
                                                (True, ("routed", "shared", "probs"))])
@pytest.mark.parametrize("seed", range(3))
def test_moe_block_bitwise_equal_to_its_seven_op_composition(rows, top_k, router_last, order, seed):
    rng = np.random.default_rng([rows, top_k, seed])
    cfg = moe.MoEConfig(num_experts=4, top_k=top_k, token_len=3, expansion=2)
    arrays = _moe_arrays(rng, cfg, rows)
    weights = {"routed": rng.normal(size=(rows, 12)), "shared": rng.normal(size=(rows, 12)),
               "probs": rng.normal(size=(4 * rows, 4))}
    out, grads = _moe_block(lambda v, c, p: moe.moe_forward(v, c, p, router_last), cfg, arrays,
                            weights, order)
    ref, ref_grads = _moe_block(hp.moe_forward_composite, cfg, arrays, weights, order)
    for got, want in [(out.routed.value, ref.routed.value), (out.shared.value, ref.shared.value),
                      (out.trace.probs.value, ref.trace.probs.value),
                      (out.trace.selected, ref.trace.selected), (out.tokens, ref.tokens)]:
        assert _same_bits(got, want)
    reached = set(out.trace.selected.ravel().tolist())
    assert 3 not in reached
    for i, (g, want) in enumerate(zip(grads, ref_grads)):
        expert = (i - 2) // 4  # 4 is the shared expert
        assert (g is None) == (want is None) == (expert in range(4) and expert not in reached), i
        assert g is None or _same_bits(g, want), i


@pytest.mark.parametrize("used", ["routed", "shared", "probs"])
def test_moe_block_gradient_through_one_output_alone(used):
    # the other outputs get no gradient: the node's rule reads theirs as zero,
    # where the seven ops leave the unreached ones' inputs without a gradient
    rng = np.random.default_rng(8)
    cfg = moe.MoEConfig(num_experts=4, top_k=2, token_len=3, expansion=2)
    arrays = _moe_arrays(rng, cfg, 3)
    weights = {used: rng.normal(size=(12, 4) if used == "probs" else (3, 12))}
    _, grads = _moe_block(moe.moe_forward, cfg, arrays, weights, (used,))
    _, ref_grads = _moe_block(hp.moe_forward_composite, cfg, arrays, weights, (used,))
    for i, (g, want) in enumerate(zip(grads, ref_grads)):
        assert np.array_equal(g, want) if want is not None else g is None or not g.any(), i
    assert grads[0] is not None and grads[0].any()


# ---------------------------------------------------------------------------
# cosine


def _cosine(x, y):
    return hp.pair_node(losses.cosine, x, y)


@given(st.integers(1, 12), st.integers(0, 2**32 - 1), st.sampled_from(["none", "x", "y"]))
@settings(max_examples=100, deadline=None)
def test_cosine_equals_composite(d, seed, zero):
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(1, d)), rng.normal(size=(1, d))
    if zero == "x":
        x[:] = 0.0
    elif zero == "y":
        y[:] = 0.0
    weight = rng.normal(size=(1, 1))
    eps = losses.COSINE_NORM_EPS
    value, grads = _grads_of(_cosine, [x, y], weight)
    with np.errstate(invalid="ignore"):  # the composite's gradient is nan at a zero row
        ref_value, ref_grads = _grads_of(lambda a, b: hp.cosine_composite(a, b, eps), [x, y],
                                         weight)
    assert _same_bits(value, ref_value)
    if zero == "none":
        for g, ref in zip(grads, ref_grads):
            # the three terms of each gradient may be summed in another order
            assert hp.max_rel_err(g, ref) < 1e-12
        return
    # the composite's gradient is nan at a zero row; the limit there keeps
    # only the dot term: weight * other / eps, and 0 for the other row
    (row, other), (g_row, g_other) = ((x, y), grads) if zero == "x" else ((y, x), grads[::-1])
    assert np.isfinite(g_row).all() and not g_other.any()
    assert hp.max_rel_err(g_row, weight * other / eps) < 1e-12
    # a step far below eps / |other|, where the value is linear in the row
    fd = hp.finite_diff_gradient(
        lambda v: (losses.cosine(v, other)[0] * weight).item(), row, eps=1e-20)
    assert hp.max_rel_err(g_row, fd) < 1e-6


@given(st.integers(1, 12), st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cosine_gradient_sums_its_three_terms_in_the_rule_order(d, seed):
    # training bits depend on this order; a float sum is commutative but not
    # associative, so only a reorder that regroups the terms changes the bits
    rng = np.random.default_rng(seed)
    x, y = rng.normal(size=(1, d)), rng.normal(size=(1, d))
    g = rng.normal(size=(1, 1))
    eps = losses.COSINE_NORM_EPS
    gx, gy = losses.cosine(x, y)[1](g.item())
    dot = x @ np.ascontiguousarray(y.T)
    nx, ny = np.sqrt(x @ np.ascontiguousarray(x.T)), np.sqrt(y @ np.ascontiguousarray(y.T))
    denom = nx * ny + eps
    g_dot = g / denom
    g_prod = -g * dot / (denom * denom)
    g_xx, g_yy = g_prod * ny / (2.0 * nx), g_prod * nx / (2.0 * ny)
    assert _same_bits(gx, g_dot * y + g_xx * x + x * g_xx)
    assert _same_bits(gy, x * g_dot + g_yy * y + y * g_yy)


def test_cosine_gradients_match_fd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        check_grads(_cosine,
                    [rng.uniform(-2, 2, (1, 5)), rng.uniform(-2, 2, (1, 5))], rtol=1e-6)


# ---------------------------------------------------------------------------
# survival NLL


@st.composite
def hazard_rows(draw):
    num_bins = draw(st.integers(1, 8))
    bounds = [0.0, losses.HAZARD_EPS, 1.0 - losses.HAZARD_EPS, 1.0]
    entry = st.one_of(st.floats(0.0, 1.0), st.sampled_from(bounds))
    hazards = np.array([draw(st.lists(entry, min_size=num_bins, max_size=num_bins))])
    return hazards, draw(st.integers(1, num_bins)), draw(st.integers(0, 1))


@given(hazard_rows())
@settings(max_examples=150, deadline=None)
def test_survival_nll_bitwise_equal_to_composite(case):
    hazards, bin_label, censored = case
    weight = np.array([[1.7]])
    value, grads = _grads_of(lambda h: losses.survival_nll(h, bin_label, censored),
                             [hazards], weight)
    ref_value, ref_grads = _grads_of(
        lambda h: hp.survival_nll_composite(h, bin_label, censored), [hazards], weight)
    assert _same_bits(value, ref_value)
    assert _same_bits(grads[0], ref_grads[0])


def test_survival_nll_gradients_match_fd():
    rng = np.random.default_rng(3)
    for _ in range(30):
        num_bins = int(rng.integers(1, 7))
        label, censored = int(rng.integers(1, num_bins + 1)), int(rng.integers(0, 2))
        check_grads(lambda h: losses.survival_nll(h, label, censored),
                    [rng.uniform(0.05, 0.95, (1, num_bins))], rtol=1e-6)


# ---------------------------------------------------------------------------
# balance loss


def _traces(nodes, selections):
    return [
        RouterTrace(probs=n, selected=s) for n, s in zip(nodes, selections)
    ]


@given(st.integers(1, 3), st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_balance_loss_bitwise_equal_to_composite(num_routers, seed):
    rng = np.random.default_rng(seed)
    arrays, selections = [], []
    for _ in range(num_routers):
        num_tokens, num_experts = int(rng.integers(1, 10)), int(rng.integers(1, 7))
        top_k = int(rng.integers(1, num_experts + 1))
        logits = rng.normal(size=(num_tokens, num_experts))
        arrays.append(np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True))
        selections.append(np.stack([rng.permutation(num_experts)[:top_k]
                                    for _ in range(num_tokens)]))
    weight = rng.normal(size=(1, 1))
    value, grads = _grads_of(
        lambda *p: losses.balance_loss(_traces(p, selections)), arrays, weight)
    ref_value, ref_grads = _grads_of(
        lambda *p: hp.balance_loss_composite(_traces(p, selections)), arrays, weight)
    assert _same_bits(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert _same_bits(g, ref)


def test_balance_loss_gradients_match_fd():
    rng = np.random.default_rng(4)
    selections = [np.array([[0], [2], [2]]), np.array([[1, 0], [3, 1]])]
    arrays = [rng.uniform(0, 1, (3, 3)), rng.uniform(0, 1, (2, 4))]
    check_grads(lambda *p: losses.balance_loss(_traces(p, selections)), arrays, rtol=1e-6)


# ---------------------------------------------------------------------------
# decouple loss, total loss and the fusion stage, as in a training step:
# the second fusion reaches V_inter and V_share_3 before the decouple loss


def _step_loss(fns, kind, alpha, beta, segments, weight):
    """total_loss(sum(rfr(V_inter, V_share_3) * weight), decouple_loss, bl)
    over seven leaves: the six decoupled rows and bl, by the given
    (rfr, decouple, total) implementations."""
    rfr, decouple, total = fns

    def build(*nodes):
        surv = hp.sum_all(hp.mul(rfr(list(nodes[4:6]), segments), ad.leaf(weight)))
        return total(surv, decouple(hp.decoupled_stub(*nodes[:6]), kind), nodes[6], alpha, beta)

    return build


ONE_NODE = (rfr_forward, losses.decouple_loss, losses.total_loss)
FINE_OPS = (hp.rfr_composite, hp.decouple_loss_composite, hp.total_loss_composite)


@given(st.sampled_from(losses.DISTANCE_METRICS), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 5), max_size=3), st.sampled_from([0.0, 0.01, 1.0, -2.5]))
@settings(max_examples=150, deadline=None)
def test_decouple_and_total_loss_bitwise_equal_to_composites(kind, d1, seed, zero_rows, beta):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(1, d)) for d in (d1, d1, d1, d1, 2 * d1, 2 * d1)]
    for i in zero_rows:
        arrays[i][:] = 0.0
    arrays.append(rng.normal(size=(1, 1)))
    alpha = float(rng.uniform(0.0, 2.0))
    segments = [int(rng.choice(valid_segments((1, 2, 4, 8), 2 * d1)))]
    weight = rng.normal(size=(1, 4 * d1))
    leaves = [[ad.leaf(a, requires_grad=True) for a in arrays] for _ in range(2)]
    totals = [_step_loss(fns, kind, alpha, beta, segments, weight)(*nodes)
              for fns, nodes in zip((ONE_NODE, FINE_OPS), leaves)]
    for root in totals:
        ad.backward(root)
    assert _same_bits(totals[0].value, totals[1].value)
    for leaf, ref in zip(*leaves):
        assert _same_bits(leaf.grad, ref.grad)


@given(st.integers(1, 4), st.integers(1, 4), st.sampled_from([1, 4, 8, 12]),
       st.integers(0, 2**32 - 1))
@settings(max_examples=80, deadline=None)
def test_rfr_forward_bitwise_equal_to_composite(num_vectors, rows, d, seed):
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=(rows, d)) for _ in range(num_vectors)]
    segments = [int(rng.choice(valid_segments((1, 2, 4, 8), d))) for _ in range(rows)]
    weight = rng.normal(size=(rows, num_vectors * d))
    value, grads = _grads_of(lambda *v: rfr_forward(list(v), segments), arrays, weight)
    ref_value, ref_grads = _grads_of(lambda *v: hp.rfr_composite(list(v), segments), arrays,
                                     weight)
    assert _same_bits(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert _same_bits(g, ref)


def test_rfr_forward_bitwise_equal_to_composite_over_mixed_segments():
    # three rows, each its own segment, and one input given twice
    rng = np.random.default_rng(9)
    arrays = [rng.normal(size=(3, 8)) for _ in range(3)]
    segments = [4, 1, 8]
    weight = rng.normal(size=(3, 32))
    build = lambda fn: lambda a, b, c: fn([a, b, c, a], segments)
    value, grads = _grads_of(build(rfr_forward), arrays, weight)
    ref_value, ref_grads = _grads_of(build(hp.rfr_composite), arrays, weight)
    assert _same_bits(value, ref_value)
    for g, ref in zip(grads, ref_grads):
        assert _same_bits(g, ref)


@pytest.mark.parametrize("kind", losses.DISTANCE_METRICS)
@pytest.mark.parametrize("zero", ["x", "y"])
def test_distance_at_a_zero_row_bitwise_equal_to_composite(kind, zero):
    # for cos, against its 1x1-array form, whose rule takes the same limit at a zero row
    rng = np.random.default_rng(10)
    x, y = rng.normal(size=(1, 6)), rng.normal(size=(1, 6))
    (x if zero == "x" else y)[:] = 0.0
    weight = rng.normal(size=(1, 1))
    for prime in (False, True):
        value, grads = _grads_of(
            lambda a, b: hp.pair_node(lambda u, v: losses.distance(kind, u, v, prime), a, b),
            [x, y], weight)
        ref_value, ref_grads = _grads_of(lambda a, b: hp.distance_composite(kind, a, b)[prime],
                                         [x, y], weight)
        assert _same_bits(value, ref_value)
        for g, ref in zip(grads, ref_grads):
            assert np.isfinite(g).all() and _same_bits(g, ref)


@pytest.mark.parametrize("kind", losses.DISTANCE_METRICS)
def test_decouple_loss_gradients_match_fd(kind):
    rng = np.random.default_rng(5)
    arrays = [rng.uniform(-2, 2, (1, d)) for d in (3, 3, 3, 3, 6, 6)]
    check_grads(lambda *v: losses.decouple_loss(hp.decoupled_stub(*v), kind), arrays, rtol=1e-4)


# ---------------------------------------------------------------------------
# the fine ops the oracles are built from: 100 random FD trials each


def _fine_op_cases(rng):
    u = lambda shape, lo=-2.0, hi=2.0: rng.uniform(lo, hi, shape)
    rows = rng.integers(0, 4, size=5)
    cols = rng.integers(0, 3, size=5)
    w43a, w43b = ad.leaf(u((4, 3))), ad.leaf(u((4, 3)))
    w53, w63, w51, w14, w24 = (ad.leaf(u(s)) for s in ((5, 3), (6, 3), (5, 1), (1, 4), (2, 4)))
    perm = rng.permutation(6)
    w33, w25, w6, w17 = (ad.leaf(u(s)) for s in ((3, 3), (2, 5), (1, 6), (1, 7)))
    w26, w35 = ad.leaf(u((2, 6))), ad.leaf(u((3, 5)))
    return [
        ("add", lambda a, b: hp.sum_all(hp.mul(hp.add(a, b), w33)), [u((3, 3)), u((3, 3))]),
        ("sub", lambda a, b: hp.sum_all(hp.mul(hp.sub(a, b), w33)), [u((3, 3)), u((3, 3))]),
        ("mul", lambda a, b: hp.sum_all(hp.mul(hp.mul(a, b), w25)), [u((2, 5)), u((2, 5))]),
        ("affine", lambda a: hp.sum_all(hp.affine(a, -1.7, 0.3)), [u((2, 4))]),
        ("log", lambda a: hp.sum_all(hp.log(a)), [u((2, 4), 0.2, 2.0)]),
        ("absolute", lambda a: hp.sum_all(hp.absolute(a)),
         [np.sign(u((2, 4))) * u((2, 4), 0.1, 2.0)]),
        ("clip", lambda a: hp.sum_all(hp.clip(a, -1.0, 1.0)), [u((2, 4), -0.9, 0.9)]),
        ("permute_entries", lambda a: hp.sum_all(hp.mul(hp.permute_entries(a, perm), w6)),
         [u((1, 6))]),
        ("concat_cols", lambda a, b: hp.sum_all(hp.mul(hp.concat_cols([a, b]), w17)),
         [u((1, 3)), u((1, 4))]),
        ("sum_all", lambda a: hp.sum_all(a), [u((3, 4))]),
        ("tanh", lambda a: hp.sum_all(hp.mul(hp.tanh(a), w24)), [u((2, 4))]),
        ("transpose", lambda a: hp.sum_all(hp.mul(hp.transpose(a), w43a)), [u((3, 4))]),
        ("div", lambda a, b: hp.sum_all(hp.div(a, b)), [u((2, 4)), u((2, 4), 0.5, 2.0)]),
        ("sqrt", lambda a: hp.sum_all(hp.sqrt(a)), [u((2, 4), 0.2, 2.0)]),
        ("gather_rows", lambda a: hp.sum_all(hp.mul(hp.gather_rows(a, rows), w53)), [u((4, 3))]),
        ("scatter_rows", lambda a: hp.sum_all(hp.mul(hp.scatter_rows(a, rows, 6), w63)),
         [u((5, 3))]),
        ("gather_entries", lambda a: hp.sum_all(hp.mul(hp.gather_entries(a, rows, cols), w51)),
         [u((4, 3))]),
        ("scale_rows", lambda a, s: hp.sum_all(hp.mul(hp.scale_rows(a, s), w43b)),
         [u((4, 3)), u((4, 1))]),
        ("mean_rows", lambda a: hp.sum_all(hp.mul(hp.mean_rows(a), w14)), [u((3, 4))]),
        ("reshape", lambda a: hp.sum_all(hp.mul(hp.reshape(a, (2, 6)), w26)), [u((3, 4))]),
        ("row_softmax", lambda a: hp.sum_all(hp.mul(hp.row_softmax(a), w35)), [u((3, 5))]),
        ("expert_ffn", lambda x, w1, b1, w2, b2: hp.sum_all(hp.expert_ffn(x, w1, b1, w2, b2)),
         [u((3, 4)), u((4, 8)), u((1, 8)), u((8, 4)), u((1, 4))]),
    ]


@pytest.mark.parametrize("trial_block", range(4))
def test_fine_op_gradient_matches_fd(trial_block):
    for trial in range(25):
        rng = np.random.default_rng([trial_block, trial])
        for name, fn, arrays in _fine_op_cases(rng):
            check_grads(fn, arrays, rtol=1e-4)
