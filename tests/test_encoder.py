import numpy as np
import pytest

from hdmoe import autodiff as ad
from hdmoe.encoder import EncoderParams, encode_bag, init_encoder_params
from hdmoe.errors import DataError

from helpers import check_grads, mul, sum_all


def _lifted_params(rng, d_in=5, d1=6, d_att=3, requires_grad=True):
    p = init_encoder_params(d_in, d1, d_att, rng)
    return EncoderParams(
        w_proj=ad.leaf(p.w_proj, requires_grad),
        v_att=ad.leaf(p.v_att, requires_grad),
        u_att=ad.leaf(p.u_att, requires_grad),
        w_att=ad.leaf(p.w_att, requires_grad),
    ), p


def test_single_instance_equals_projection():
    rng = np.random.default_rng(0)
    lifted, raw = _lifted_params(rng)
    bag = rng.normal(size=(1, 5))
    out = encode_bag([bag], lifted)
    assert np.allclose(out.value, bag @ raw.w_proj, atol=1e-14)


def test_duplicate_instances_match_single():
    rng = np.random.default_rng(1)
    lifted, _ = _lifted_params(rng)
    one = rng.normal(size=(1, 5))
    two = np.vstack([one, one])
    assert np.allclose(encode_bag([two], lifted).value, encode_bag([one], lifted).value, atol=1e-12)


def test_permutation_invariance():
    rng = np.random.default_rng(2)
    lifted, _ = _lifted_params(rng)
    bag = rng.normal(size=(7, 5))
    shuffled = bag[rng.permutation(7)]
    a = encode_bag([bag], lifted).value
    b = encode_bag([shuffled], lifted).value
    assert np.abs(a - b).max() < 1e-12


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(3)
    lifted, raw = _lifted_params(rng)
    bag = rng.normal(size=(6, 5))
    h = bag @ raw.w_proj
    scores = (np.tanh(h @ raw.v_att) * (1 / (1 + np.exp(-(h @ raw.u_att))))) @ raw.w_att
    weights = np.exp(scores - scores.max())
    weights /= weights.sum()
    # reproduce the pooled output from first principles
    assert np.allclose(encode_bag([bag], lifted).value, weights.T @ h, atol=1e-12)
    assert weights.sum() == pytest.approx(1.0)


def test_empty_bag_rejected():
    rng = np.random.default_rng(4)
    lifted, _ = _lifted_params(rng)
    with pytest.raises(DataError):
        encode_bag([np.zeros((0, 5))], lifted)


def test_encoder_gradients_match_fd():
    rng = np.random.default_rng(5)
    bag = rng.uniform(-2, 2, (4, 5))

    def build(w_proj, v_att, u_att, w_att):
        params = EncoderParams(w_proj=w_proj, v_att=v_att, u_att=u_att, w_att=w_att)
        weight = ad.leaf(np.linspace(-1, 1, 6).reshape(1, 6))
        return sum_all(mul(encode_bag([bag], params), weight))

    arrays = [
        rng.uniform(-1, 1, (5, 6)),
        rng.uniform(-1, 1, (6, 3)),
        rng.uniform(-1, 1, (6, 3)),
        rng.uniform(-1, 1, (3, 1)),
    ]
    check_grads(build, arrays, rtol=1e-4)
