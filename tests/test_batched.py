"""The batched forward against the one-sample forward it replaced: equal draws
in the same order, values within 1e-12 at any batch size and however a fold
is chunked, and bitwise equal (gradients included) at B = 1."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmoe import autodiff as ad
from hdmoe import model as hm
from hdmoe.config import RunConfig, apply_desk_preset
from hdmoe.data import SampleRecord
from hdmoe.encoder import EncoderParams, encode_bag, init_encoder_params
from hdmoe.losses import balance_loss, decouple_loss, survival_nll, total_loss

from helpers import (check_grads, encode_bag_single, forward_loop, forward_single, mul,
                     permute_entries, result_arrays, sum_all)

SMALL = hm.ModelConfig(
    d_in=5, d1=8, d2=16, token_len_l1=4, token_len_l2=4, num_experts=3, top_k=1,
    expansion=2, num_bins=4, segment_values=(1, 2, 4, 8, 16),
)
WIDE = hm.ModelConfig(
    d_in=5, d1=8, d2=16, token_len_l1=2, token_len_l2=4, num_experts=4, top_k=2,
    expansion=2, num_bins=3, segment_values=(1, 2, 4),
)
DESK = apply_desk_preset(RunConfig()).model_config()


def _records(rng, cfg, sizes_a, sizes_b):
    return [
        SampleRecord(f"s{i}", rng.normal(size=(na, cfg.d_in)), rng.normal(size=(nb, cfg.d_in)),
                     float(i + 1), i % 2)
        for i, (na, nb) in enumerate(zip(sizes_a, sizes_b))
    ]


def _bits(a) -> bytes:
    return np.ascontiguousarray(a).tobytes()


@given(
    cfg=st.sampled_from([SMALL, WIDE]),
    sizes=st.lists(st.tuples(st.integers(1, 7), st.integers(1, 7)), min_size=1, max_size=40),
    pins=st.tuples(st.sampled_from([None, 1, 2, 4]), st.sampled_from([None, 1, 4])),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_batched_forward_matches_per_sample_loop(cfg, sizes, pins, seed):
    rng = np.random.default_rng(seed)
    params = hm.init_params(cfg, rng)
    records = _records(rng, cfg, *zip(*sizes))
    lifted = hm.lift_params(params, requires_grad=False)
    rng_batch, rng_loop = np.random.default_rng(seed), np.random.default_rng(seed)
    res = hm.forward(records, lifted, cfg, rng_batch, pin_segments=pins)
    hazards, risks, segments, _ = forward_loop(records, lifted, cfg, rng_loop, pins)
    assert res.segments == segments
    assert rng_batch.bit_generator.state == rng_loop.bit_generator.state
    assert res.hazards.value.shape == (len(records), cfg.num_bins)
    assert np.abs(res.hazards.value - hazards).max() <= 1e-12
    assert np.abs(res.risk - risks).max() <= 1e-12
    for trace in res.traces:
        assert trace.num_tokens % len(records) == 0


@pytest.mark.parametrize("cfg", [SMALL, WIDE, DESK], ids=["small", "wide", "desk"])
@given(cuts=st.lists(st.integers(2, 16), min_size=1, max_size=6), seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_fold_scored_whole_agrees_with_chunks(cfg, cuts, seed):
    # the same draws in the same order; the values agree within 1e-12 but
    # not always bitwise: with numpy on OpenBLAS the row bits of a product
    # with fewer than 4 output columns (the attention scores, a head with 3
    # bins) depend on its row count, as do those of a routed expert that
    # one token of a chunk reaches (a one-row product)
    rng = np.random.default_rng(seed)
    params = hm.init_params(cfg, rng)
    records = _records(rng, cfg, rng.integers(1, 8, 96), rng.integers(1, 8, 96))
    bounds = np.cumsum([0, *cuts])
    records = records[:bounds[-1]]
    lifted = hm.lift_params(params, requires_grad=False)
    whole = hm.forward(records, lifted, cfg, np.random.default_rng(seed))
    rng_chunks = np.random.default_rng(seed)
    parts = [hm.forward(records[lo:hi], lifted, cfg, rng_chunks)
             for lo, hi in zip(bounds[:-1], bounds[1:])]
    assert [s for part in parts for s in part.segments] == whole.segments
    hazards = np.concatenate([part.hazards.value for part in parts])
    risks = np.concatenate([part.risk for part in parts])
    assert np.abs(whole.hazards.value - hazards).max() <= 1e-12
    assert np.abs(whole.risk - risks).max() <= 1e-12


def _total(res):
    return total_loss(survival_nll(res.hazards, 2, 0), decouple_loss(res, "cos"),
                      balance_loss(res.traces), 1.0, 0.01)


@pytest.mark.parametrize("cfg", [SMALL, WIDE, DESK], ids=["small", "wide", "desk"])
@pytest.mark.parametrize("pins", [(None, None), (2, 4)])
def test_one_sample_batch_equals_one_sample_forward_bitwise(cfg, pins):
    for seed in range(4):
        rng = np.random.default_rng(seed)
        params = hm.init_params(cfg, rng)
        (sample,) = _records(rng, cfg, [int(rng.integers(1, 8))], [int(rng.integers(1, 8))])
        lifted = hm.lift_params(params, requires_grad=True)
        o_lifted = hm.lift_params(params, requires_grad=True)
        nodes, o_nodes = dict(hm.named_params(lifted)), dict(hm.named_params(o_lifted))
        rng_batch, rng_single = np.random.default_rng(seed), np.random.default_rng(seed)
        res = hm.forward([sample], lifted, cfg, rng_batch, pin_segments=pins)
        oracle = forward_single(sample, o_lifted, cfg, rng_single, pins)
        assert res.segments == oracle.segments
        assert rng_batch.bit_generator.state == rng_single.bit_generator.state
        arrays, o_arrays = result_arrays(res), result_arrays(oracle)
        assert arrays.keys() == o_arrays.keys()
        for name, value in arrays.items():
            assert _bits(value) == _bits(o_arrays[name]), name
        total = _total(res)
        o_total = _total(oracle)
        assert _bits(total.value) == _bits(o_total.value)
        ad.backward(total)
        ad.backward(o_total)
        for path, node in nodes.items():
            other = o_nodes[path]
            assert (node.grad is None) == (other.grad is None), path
            if node.grad is not None:
                assert _bits(node.grad) == _bits(other.grad), path


def _lifted_encoder(rng):
    p = init_encoder_params(5, 6, 3, rng)
    return EncoderParams(**{k: ad.leaf(v) for k, v in vars(p).items()})


@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=12), seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_ragged_bags_pool_like_single_bags(sizes, seed):
    rng = np.random.default_rng(seed)
    params = _lifted_encoder(rng)
    bags = [rng.normal(size=(n, 5)) for n in sizes]
    out = encode_bag(bags, params).value
    assert out.shape == (len(bags), 6)
    for row, bag in zip(out, bags):
        assert _bits(row) == _bits(encode_bag_single(bag, params).value[0])


def test_ragged_bag_gradients_match_fd():
    rng = np.random.default_rng(3)
    bags = [rng.uniform(-2, 2, (n, 5)) for n in (3, 1, 3, 5)]
    weight = ad.leaf(rng.uniform(-1, 1, (4, 6)))

    def build(w_proj, v_att, u_att, w_att):
        params = EncoderParams(w_proj, v_att, u_att, w_att)
        return sum_all(mul(encode_bag(bags, params), weight))

    shapes = [(5, 6), (6, 3), (6, 3), (3, 1)]
    check_grads(build, [rng.uniform(-1, 1, s) for s in shapes], rtol=1e-4)


def test_permute_entries_per_row():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(3, 5))
    perm = np.stack([rng.permutation(5) for _ in range(3)])
    out = permute_entries(ad.leaf(x), perm).value
    for b in range(3):
        assert np.array_equal(out[b], x[b, perm[b]])
    w = rng.normal(size=(3, 5))
    check_grads(lambda a: sum_all(mul(permute_entries(a, perm), ad.leaf(w))), [x], rtol=1e-6)
    broken = perm.copy()
    broken[1, 0] = broken[1, 1]
    with pytest.raises(ValueError, match="bijection"):
        permute_entries(ad.leaf(x), broken)
    with pytest.raises(ValueError, match="bijection"):
        permute_entries(ad.leaf(x), perm[:2])
