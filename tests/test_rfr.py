import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmoe import autodiff as ad
from hdmoe import rfr
from hdmoe.errors import ConfigError, ShapeError

from helpers import check_grads, draw_segments_loop

FULL_SET = (1, 2, 4, 8, 16, 32, 64, 128)


def test_sample_segment_all_divide():
    rng = np.random.default_rng(0)
    seen = {rfr.sample_segment(FULL_SET, 256, rng) for _ in range(400)}
    assert seen == set(FULL_SET)


def test_sample_segment_filters_divisors():
    rng = np.random.default_rng(1)
    seen = {rfr.sample_segment(FULL_SET, 24, rng) for _ in range(200)}
    assert seen == {1, 2, 4, 8}


def test_sample_segment_no_divisor_is_config_error():
    with pytest.raises(ConfigError, match="8"):
        rfr.sample_segment((3,), 8, np.random.default_rng(0))


def test_sample_segment_singleton():
    rng = np.random.default_rng(2)
    assert all(rfr.sample_segment((1,), d, rng) == 1 for d in (3, 7, 256))


def test_sample_segment_deterministic_under_fixed_state():
    a = [rfr.sample_segment(FULL_SET, 64, np.random.default_rng(7)) for _ in range(5)]
    b = [rfr.sample_segment(FULL_SET, 64, np.random.default_rng(7)) for _ in range(5)]
    assert a == b


def test_build_permutation_s1_is_concat():
    assert np.array_equal(rfr.build_permutation(2, 4, 1), np.arange(8))


def test_build_permutation_hand_trace_s2():
    # rows a0..a3 / b0..b3, s=2 -> a0 a1 b0 b1 a2 a3 b2 b3
    assert list(rfr.build_permutation(2, 4, 2)) == [0, 1, 4, 5, 2, 3, 6, 7]


def test_build_permutation_full_interleave():
    assert list(rfr.build_permutation(2, 4, 4)) == [0, 4, 1, 5, 2, 6, 3, 7]


def test_rfr_forward_four_vectors():
    rng = np.random.default_rng(3)
    vectors = [ad.leaf(rng.normal(size=(1, 8))) for _ in range(4)]
    segment = rfr.sample_segment(FULL_SET, 8, rng)
    fused = rfr.rfr_forward(vectors, [segment])
    assert fused.value.shape == (1, 32)
    concat = np.concatenate([v.value[0] for v in vectors])
    assert sorted(fused.value[0]) == sorted(concat)
    assert np.array_equal(fused.value[0], concat[rfr.build_permutation(4, 8, segment)])


def test_rfr_forward_two_vectors_shape():
    rng = np.random.default_rng(4)
    vectors = [ad.leaf(rng.normal(size=(1, 16))) for _ in range(2)]
    fused = rfr.rfr_forward(vectors, [rfr.sample_segment(FULL_SET, 16, rng)])
    assert fused.value.shape == (1, 32)


def test_rfr_forward_length_mismatch():
    with pytest.raises(ShapeError):
        rfr.rfr_forward([ad.leaf(np.zeros((1, 4))), ad.leaf(np.zeros((1, 8)))], [1])


def test_rfr_pin_segment():
    vectors = [ad.leaf(np.arange(4.0).reshape(1, 4)), ad.leaf(np.arange(4.0, 8.0).reshape(1, 4))]
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert rfr.draw_segments(FULL_SET, (4, 8), (1, 8), rng, 3) == [(1, 8)] * 3
    assert rng.bit_generator.state == state  # a pinned segment draws nothing
    fused = rfr.rfr_forward(vectors, [1])
    assert np.array_equal(fused.value[0], np.arange(8.0))
    for bad in (3, 0, -1):
        with pytest.raises(ConfigError):
            rfr.draw_segments(FULL_SET, (4,), (bad,), rng, 1)


@pytest.mark.parametrize("pins", [(None, None), (1, None), (None, 2), (1, 2)],
                         ids=["none", "level1", "level2", "both"])
@pytest.mark.parametrize("lengths", [(32, 64), (32, 32), (1, 64), (4, 16)],
                         ids=["bounds6_7", "bounds6_6", "bounds1_7", "bounds3_5"])
def test_draw_segments_equals_per_draw_loop(lengths, pins):
    for seed in range(40):
        for count in (1, 2, 7, 30, 60):
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            picks = rfr.draw_segments(FULL_SET, lengths, pins, rng, count)
            assert picks == draw_segments_loop(FULL_SET, lengths, pins, ref_rng, count)
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            assert np.array_equal(rng.integers(0, 7, size=3), ref_rng.integers(0, 7, size=3))


@given(
    m=st.sampled_from([2, 3, 4]),
    d=st.sampled_from([4, 8, 16, 64]),
    seed=st.integers(0, 1000),
)
@settings(max_examples=60, deadline=None)
def test_permutation_soundness_properties(m, d, seed):
    rng = np.random.default_rng(seed)
    s = rfr.sample_segment(FULL_SET, d, rng)
    perm = rfr.build_permutation(m, d, s)
    # bijection
    assert np.array_equal(np.sort(perm), np.arange(m * d))
    x = rng.normal(size=m * d)
    out = x[perm]
    # multiset preserved bitwise
    assert sorted(out.tolist()) == sorted(x.tolist())
    # inverse round-trips bitwise
    inv = np.argsort(perm)
    assert np.array_equal(out[inv], x)
    # norm preserved exactly (same multiset of entries; sum squares in a
    # canonical order so the float accumulation order cannot differ)
    assert np.sort(out * out).sum() == np.sort(x * x).sum()


def test_rfr_gradient_routes_through_inverse_permutation():
    rng = np.random.default_rng(5)
    m, d = 3, 8
    vecs = [rng.uniform(-2, 2, (1, d)) for _ in range(m)]
    w = ad.leaf(rng.uniform(-2, 2, (1, m * d)))
    pin = 4

    def build(*nodes):
        fused = rfr.rfr_forward(list(nodes), [pin])
        return ad.sum_all(ad.mul(fused, w))

    check_grads(build, vecs, rtol=1e-6)
    # direct check: gradient equals the weight row routed back through the
    # inverse permutation
    nodes = [ad.leaf(v, requires_grad=True) for v in vecs]
    fused = rfr.rfr_forward(nodes, [pin])
    ad.backward(ad.sum_all(ad.mul(fused, w)))
    inv = np.argsort(rfr.build_permutation(m, d, pin))
    routed_back = w.value[0, inv]
    for i, node in enumerate(nodes):
        assert np.array_equal(node.grad[0], routed_back[i * d : (i + 1) * d])


def test_permutation_cache_returns_readonly():
    perm = rfr.build_permutation(2, 8, 2)
    assert not perm.flags.writeable
    assert rfr.build_permutation(2, 8, 2) is perm
