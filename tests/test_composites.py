"""The one-node tape composites (routed experts, cosine, survival NLL, balance
loss) against the fine-op composites they replaced, kept in `helpers`: values
and gradients bitwise (cosine: gradients to 1e-12), and against finite
differences. The fine ops those oracles are built from get their own FD sweep
here."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers as hp
from hdmoe import autodiff as ad
from hdmoe import losses
from hdmoe.moe import ExpertParams, RouterTrace
from helpers import check_grads


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _grads_of(build, arrays, weight):
    """Forward value and every input's gradient (None where none reached) of
    sum(build(*leaves) * weight)."""
    leaves = [ad.leaf(a, requires_grad=True) for a in arrays]
    out = build(*leaves)
    ad.backward(ad.sum_all(ad.mul(out, ad.leaf(weight))))
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

    value, grads = _grads_of(_routed(ad.routed_experts, selected, num_experts), arrays, weight)
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
    build = _routed(ad.routed_experts, selected, num_experts)
    check_grads(lambda *a: ad.sum_all(ad.mul(build(*a), weight)), arrays, rtol=1e-6)


def test_routed_experts_calls_the_kernel_once_per_reached_expert(monkeypatch):
    from hdmoe import kernels

    calls = []
    forward = kernels.ffn_forward
    monkeypatch.setattr(kernels, "ffn_forward", lambda x, *w: calls.append(x.shape[0]) or forward(x, *w))
    rng = np.random.default_rng(1)
    selected = np.array([[3], [0], [3], [3]], dtype=np.intp)
    experts = [ExpertParams(*(ad.leaf(a) for a in _expert_arrays(rng, 1, 2, 4)))
               for _ in range(5)]
    ad.routed_experts(ad.leaf(rng.normal(size=(4, 2))), ad.leaf(np.full((4, 5), 0.2)),
                      selected, experts)
    assert calls == [1, 3]  # experts 0 and 3, each over the tokens that chose it


# ---------------------------------------------------------------------------
# cosine


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
    value, grads = _grads_of(lambda a, b: ad.cosine(a, b, eps), [x, y], weight)
    ref_value, ref_grads = _grads_of(lambda a, b: hp.cosine_composite(a, b, eps), [x, y], weight)
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
        lambda v: (ad.cosine(ad.leaf(v), ad.leaf(other), eps).value * weight).item(), row, eps=1e-20)
    assert hp.max_rel_err(g_row, fd) < 1e-6


def test_cosine_gradients_match_fd():
    rng = np.random.default_rng(2)
    for _ in range(20):
        check_grads(lambda a, b: ad.cosine(a, b, 1e-12),
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
# the fine ops the oracles are built from: 100 random FD trials each


def _fine_op_cases(rng):
    u = lambda shape, lo=-2.0, hi=2.0: rng.uniform(lo, hi, shape)
    rows = rng.integers(0, 4, size=5)
    cols = rng.integers(0, 3, size=5)
    w43a, w43b = ad.leaf(u((4, 3))), ad.leaf(u((4, 3)))
    w53, w63, w51, w14 = (ad.leaf(u(s)) for s in ((5, 3), (6, 3), (5, 1), (1, 4)))
    return [
        ("transpose", lambda a: ad.sum_all(ad.mul(hp.transpose(a), w43a)), [u((3, 4))]),
        ("div", lambda a, b: ad.sum_all(hp.div(a, b)), [u((2, 4)), u((2, 4), 0.5, 2.0)]),
        ("sqrt", lambda a: ad.sum_all(hp.sqrt(a)), [u((2, 4), 0.2, 2.0)]),
        ("gather_rows", lambda a: ad.sum_all(ad.mul(hp.gather_rows(a, rows), w53)), [u((4, 3))]),
        ("scatter_rows", lambda a: ad.sum_all(ad.mul(hp.scatter_rows(a, rows, 6), w63)),
         [u((5, 3))]),
        ("gather_entries", lambda a: ad.sum_all(ad.mul(hp.gather_entries(a, rows, cols), w51)),
         [u((4, 3))]),
        ("scale_rows", lambda a, s: ad.sum_all(ad.mul(hp.scale_rows(a, s), w43b)),
         [u((4, 3)), u((4, 1))]),
        ("mean_rows", lambda a: ad.sum_all(ad.mul(hp.mean_rows(a), w14)), [u((3, 4))]),
    ]


@pytest.mark.parametrize("trial_block", range(4))
def test_fine_op_gradient_matches_fd(trial_block):
    for trial in range(25):
        rng = np.random.default_rng([trial_block, trial])
        for name, fn, arrays in _fine_op_cases(rng):
            check_grads(fn, arrays, rtol=1e-4)
