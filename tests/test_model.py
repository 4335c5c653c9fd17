import base64
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hdmoe import autodiff as ad
from hdmoe import model as hm
from hdmoe.data import SampleRecord
from hdmoe.errors import ConfigError
from hdmoe.losses import balance_loss, decouple_loss, survival_nll, total_loss

from helpers import checkpoint_as_v1, max_rel_err, result_arrays

TINY = hm.ModelConfig(
    d_in=5, d1=8, d2=16, token_len_l1=4, token_len_l2=4, num_experts=2, top_k=1,
    expansion=2, num_bins=4, segment_values=(1, 2, 4, 8, 16, 32, 64, 128),
)


def _sample(rng, cfg=TINY, bag=3):
    return SampleRecord(
        "s0",
        rng.normal(size=(bag, cfg.d_in)),
        rng.normal(size=(bag + 1, cfg.d_in)),
        time_months=12.0,
        censored=0,
    )


def _lift(params):
    """The no-grad node tree of params."""
    return hm.lift_params(params, requires_grad=False)


def _zeroed(params):
    for _, arr in hm.named_params(params):
        arr[:] = 0.0
    return params


def test_config_validation():
    with pytest.raises(ConfigError):
        hm.ModelConfig(d1=8, d2=24)  # 2*d1 != d2
    with pytest.raises(ConfigError):
        hm.ModelConfig(d1=8, d2=16, token_len_l1=3)
    with pytest.raises(ConfigError):
        hm.ModelConfig(d1=8, d2=16, token_len_l1=4, token_len_l2=4, segment_values=(5,))
    with pytest.raises(ConfigError):
        hm.ModelConfig(d1=8, d2=16, token_len_l1=4, token_len_l2=4, num_experts=2, top_k=3)
    with pytest.raises(ConfigError, match="token_len"):
        hm.ModelConfig(d1=8, d2=16, token_len_l1=0, token_len_l2=4)  # not a ZeroDivisionError


def test_config_segment_list_becomes_tuple():
    cfg = hm.ModelConfig(segment_values=[1, 2, 4])
    assert cfg.segment_values == (1, 2, 4)
    assert hash(cfg) == hash(hm.ModelConfig(segment_values=(1, 2, 4)))


def test_zero_weights_give_half_hazards_and_equal_risk():
    rng = np.random.default_rng(0)
    params = _zeroed(hm.init_params(TINY, rng))
    risks = []
    for seed in range(3):
        srng = np.random.default_rng(seed)
        res = hm.forward([_sample(srng)], _lift(params), TINY, np.random.default_rng(seed))
        assert np.allclose(res.hazards.value, 0.5, atol=1e-15)
        risks.append(float(res.risk[0]))
    assert len(set(risks)) == 1


def test_forward_deterministic_for_fixed_seed():
    rng = np.random.default_rng(1)
    params = hm.init_params(TINY, rng)
    sample = _sample(np.random.default_rng(2))
    a = hm.forward([sample], _lift(params), TINY, np.random.default_rng(7))
    b = hm.forward([sample], _lift(params), TINY, np.random.default_rng(7))
    assert np.array_equal(a.hazards.value, b.hazards.value)
    assert np.array_equal(a.risk, b.risk)
    assert a.segments == b.segments


def test_default_scale_shapes():
    cfg = hm.ModelConfig()  # full-scale defaults
    rng = np.random.default_rng(3)
    params = hm.init_params(cfg, rng)
    sample = SampleRecord(
        "big", rng.normal(size=(4, cfg.d_in)), rng.normal(size=(6, cfg.d_in)), 10.0, 0
    )
    res = hm.forward([sample], _lift(params), cfg, np.random.default_rng(0))
    assert res.v_f1.value.shape == (1, 1024)
    assert res.v_f1_proj.value.shape == (1, 512)
    assert res.moe_inter.routed.value.shape == (1, 512)
    assert res.moe_inter.shared.value.shape == (1, 512)
    assert res.v_f2.value.shape == (1, 1024)
    assert res.hazards.value.shape == (1, 4)
    assert res.risk.shape == (1,)
    # level-1/2 token counts at the published defaults
    assert res.moe_a.tokens.shape == (4, 64)
    assert res.moe_inter.tokens.shape == (16, 32)


def _reachable(roots):
    seen, stack = {}, list(roots)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.parents)
    return list(seen.values())


def test_no_grad_pass_equals_grad_pass_and_keeps_no_graph():
    params = hm.init_params(TINY, np.random.default_rng(11))
    sample = _sample(np.random.default_rng(12))
    passes = {
        grad: hm.forward(
            [sample], hm.lift_params(params, requires_grad=grad), TINY,
            np.random.default_rng(13),
        )
        for grad in (True, False)
    }
    assert np.array_equal(passes[False].hazards.value, passes[True].hazards.value)
    assert _same_bits(passes[False].risk, passes[True].risk)

    def roots(res):
        return [res.hazards] + [t.probs for t in res.traces]

    assert len(_reachable(roots(passes[True]))) > 50  # the grad pass records its graph
    for node in _reachable(roots(passes[False])):
        assert not node.requires_grad
        assert node.parents == () and node.backward_rule is None


def _ops_per_step(cfg, seed=0):
    rng = np.random.default_rng(seed)
    lifted = hm.lift_params(hm.init_params(cfg, rng), requires_grad=True)
    res = hm.forward([_sample(rng, cfg)], lifted, cfg, rng)
    total = total_loss(survival_nll(res.hazards, 2, 0), decouple_loss(res, "cos"),
                       balance_loss(res.traces), 1.0, 0.01)
    return sum(1 for node in _reachable([total]) if node.parents)


def test_training_step_records_one_node_per_composite():
    # the bag encoders, routed experts, cosine distances, NLL and balance are
    # one node each, so the tape of a step does not grow with the number of
    # experts, top_k or the instances of a bag
    ops = _ops_per_step(TINY)
    wide = hm.ModelConfig(d_in=5, d1=8, d2=16, token_len_l1=2, token_len_l2=4,
                          num_experts=6, top_k=3, expansion=2, num_bins=4)
    assert _ops_per_step(wide) == ops <= 50


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("grad", [False, True])
def test_fuse_of_encode_equals_forward_bitwise(grad):
    params = hm.init_params(TINY, np.random.default_rng(21))
    lifted = hm.lift_params(params, requires_grad=grad)
    for seed in range(4):
        sample = _sample(np.random.default_rng(100 + seed))
        rng_full, rng_split = np.random.default_rng(seed), np.random.default_rng(seed)
        full = hm.forward([sample], lifted, TINY, rng_full)
        split = hm.fuse(hm.encode([sample], lifted, TINY), lifted, TINY, rng_split)
        assert _same_bits(full.risk, split.risk)
        assert full.segments == split.segments
        arrays, split_arrays = result_arrays(full), result_arrays(split)
        assert arrays.keys() == split_arrays.keys()
        for name, value in arrays.items():
            assert _same_bits(value, split_arrays[name]), name
        # the two passes drew the same numbers from the same stream
        assert rng_full.bit_generator.state == rng_split.bit_generator.state


def test_encode_draws_nothing():
    params = hm.init_params(TINY, np.random.default_rng(22))
    lifted = _lift(params)
    sample = _sample(np.random.default_rng(23))
    def global_state():
        state = np.random.get_state(legacy=False)
        return state["state"]["key"].tobytes(), state["state"]["pos"], state["gauss"]

    before = global_state()
    out_a, out_b = hm.encode([sample], lifted, TINY)
    assert global_state() == before
    # the prefix is a pure function of sample and parameters
    again_a, again_b = hm.encode([sample], lifted, TINY)
    assert _same_bits(out_a.routed.value, again_a.routed.value)
    assert _same_bits(out_b.shared.value, again_b.shared.value)
    # forward consumes exactly the draws of its fusion suffix
    rng_full, rng_fuse = np.random.default_rng(5), np.random.default_rng(5)
    hm.forward([sample], lifted, TINY, rng_full)
    hm.fuse((out_a, out_b), lifted, TINY, rng_fuse)
    assert rng_full.bit_generator.state == rng_fuse.bit_generator.state


def test_risk_score_examples():
    assert hm.risk_score(np.zeros(4)) == pytest.approx(-4.0)
    assert hm.risk_score(np.ones(4)) == pytest.approx(0.0)
    assert hm.risk_score(np.full(4, 0.5)) == pytest.approx(-0.9375)


def test_hazard_prediction_survival_monotone():
    rng = np.random.default_rng(4)
    params = hm.init_params(TINY, rng)
    res = hm.forward([_sample(rng)], _lift(params), TINY, np.random.default_rng(0))
    hazards = res.hazards.value
    assert np.all((hazards >= 0) & (hazards <= 1))


def test_parameter_count_examples():
    cfg = hm.ModelConfig()
    params = hm.init_params(cfg, np.random.default_rng(0))
    total, per = hm.parameter_count(params)
    assert per["bridge"] == 1024 * 512 == 524288
    assert per["head"] == 1024 * 4 + 4 == 4100
    assert total == sum(per.values())


def test_doubling_experts_doubles_routed_parameter_count():
    def routed_params(n):
        cfg = hm.ModelConfig(
            d_in=5, d1=8, d2=16, token_len_l1=4, token_len_l2=4,
            num_experts=n, top_k=1, expansion=2,
        )
        params = hm.init_params(cfg, np.random.default_rng(0))
        per = hm.parameter_count(params)[1]
        expert = params.level2_moe.experts[0]
        expert_size = sum(a.size for a in (expert.w1, expert.b1, expert.w2, expert.b2))
        router_size = params.level2_moe.router.size
        return per["level2_moe"] - expert_size - router_size  # minus shared+router

    assert routed_params(4) == 2 * routed_params(2)


def test_rfr_draw_changes_v_f2_only_by_permutation():
    rng = np.random.default_rng(5)
    params = hm.init_params(TINY, rng)
    sample = _sample(np.random.default_rng(6))
    lifted = _lift(params)
    baseline = hm.forward([sample], lifted, TINY, np.random.default_rng(0), pin_segments=(2, 1))
    base_entries = sorted(baseline.v_f2.value[0].tolist())
    for s2 in (1, 2, 4, 8, 16):
        res = hm.forward([sample], lifted, TINY, np.random.default_rng(0), pin_segments=(2, s2))
        entries = sorted(res.v_f2.value[0].tolist())
        assert entries == base_entries
        concat = np.concatenate(
            [res.moe_inter.routed.value[0], res.moe_inter.shared.value[0]]
        )
        assert sorted(concat.tolist()) == entries


def test_end_to_end_gradients_match_fd_tiny_config():
    rng = np.random.default_rng(8)
    params = hm.init_params(TINY, rng)
    sample = _sample(rng)
    pins = (2, 4)

    def loss_value(p):
        res = hm.forward([sample], _lift(p), TINY, np.random.default_rng(0), pin_segments=pins)
        surv = survival_nll(res.hazards, 2, 0)
        dm = decouple_loss(res, "cos")
        bl = balance_loss(res.traces)
        return total_loss(surv, dm, bl, 1.0, 0.01)

    lifted = hm.lift_params(params, requires_grad=True)
    nodes = dict(hm.named_params(lifted))
    res = hm.forward([sample], lifted, TINY, np.random.default_rng(0), pin_segments=pins)
    surv = survival_nll(res.hazards, 2, 0)
    total = total_loss(surv, decouple_loss(res, "cos"),
                       balance_loss(res.traces), 1.0, 0.01)
    ad.backward(total)

    # spot-check a handful of coordinates in every parameter group
    arrays = dict(hm.named_params(params))
    check_rng = np.random.default_rng(9)
    for path, arr in arrays.items():
        node = nodes[path]
        grad = node.grad if node.grad is not None else np.zeros_like(arr)
        flat = arr.reshape(-1)
        for idx in check_rng.choice(flat.size, size=min(3, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + 1e-5
            hi = loss_value(params).value.item()
            flat[idx] = orig - 1e-5
            lo = loss_value(params).value.item()
            flat[idx] = orig
            fd = (hi - lo) / 2e-5
            g = grad.reshape(-1)[idx]
            scale = max(abs(fd), abs(g), 1e-6)
            assert abs(fd - g) / scale < 1e-3, f"{path}[{idx}]: fd {fd} vs tape {g}"


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    params = hm.init_params(TINY, rng)
    meta = {"fold": 2, "bin_edges": [1.0, 2.0, 3.0], "num_bins": 4}
    path = tmp_path / "ckpt.json"
    hm.save_checkpoint(path, params, meta)
    loaded, loaded_meta = hm.load_checkpoint(path, TINY)
    assert loaded_meta == meta
    for (p1, a1), (p2, a2) in zip(hm.named_params(params), hm.named_params(loaded)):
        assert p1 == p2
        assert np.array_equal(a1, a2)


# Checkpoints of init_params(GOLDEN, default_rng(0)): format v1, written by an
# earlier release, pins v1's key names, key order and number formatting, and
# format v2 pins the bytes that save_checkpoint writes today.
GOLDEN = hm.ModelConfig(
    d_in=2, d1=2, d2=4, token_len_l1=2, token_len_l2=2, num_experts=2, top_k=1,
    expansion=1, num_bins=2, segment_values=(1, 2),
)
GOLDEN_PATH = Path(__file__).parent / "data" / "checkpoint_v1.json"
GOLDEN_V2_PATH = Path(__file__).parent / "data" / "checkpoint_v2.json"


def _loads_golden_params(path):
    loaded, meta = hm.load_checkpoint(path, GOLDEN)
    assert meta == {"fold": 0, "num_bins": 2}
    fresh = hm.init_params(GOLDEN, np.random.default_rng(0))
    pairs = list(zip(hm.named_params(fresh), hm.named_params(loaded)))
    assert len(pairs) == len(json.loads(path.read_text())["params"])
    for (p1, a1), (p2, a2) in pairs:
        assert p1 == p2
        assert a1.tobytes() == a2.tobytes() and a2.flags.writeable, p1
    return loaded, meta


def test_golden_v1_checkpoint_loads_bitwise():
    _loads_golden_params(GOLDEN_PATH)
    # the v1 writer of tests/helpers gives the v1 file from the v2 one
    v1 = checkpoint_as_v1(json.loads(GOLDEN_V2_PATH.read_text()))
    assert json.dumps(v1).encode() == GOLDEN_PATH.read_bytes()


def test_golden_v2_checkpoint_loads_and_resaves_byte_identical(tmp_path):
    loaded, meta = _loads_golden_params(GOLDEN_V2_PATH)
    out = tmp_path / "ckpt.json"
    hm.save_checkpoint(out, loaded, meta)
    assert out.read_bytes() == GOLDEN_V2_PATH.read_bytes()


# finite float64 values the decimal text of v1 needed care for: signed zeros,
# subnormals, the smallest normal and the largest magnitudes
EDGE_VALUES = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.7976931348623157e308, 0.1, 1 / 3]


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
@example(EDGE_VALUES)
@settings(max_examples=60, deadline=None)
def test_checkpoint_round_trip_is_bitwise_for_any_finite_values(values):
    params = hm.init_params(GOLDEN, np.random.default_rng(0))
    flat, views = hm.flatten_params(params)
    flat[:] = np.resize(np.array(values, dtype=np.float64), flat.size)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        hm.save_checkpoint(path, views, {"fold": 0})
        loaded, _ = hm.load_checkpoint(path, GOLDEN)
    for (p1, a1), (p2, a2) in zip(hm.named_params(views), hm.named_params(loaded)):
        assert p1 == p2 and a1.tobytes() == a2.tobytes()
        assert a2.dtype == np.float64 and a2.dtype.isnative and a2.flags.writeable


def test_load_checkpoint_touches_no_generator(tmp_path, monkeypatch):
    params = hm.init_params(TINY, np.random.default_rng(0))
    path = tmp_path / "ckpt.json"
    hm.save_checkpoint(path, params, {})

    def no_generator(*args, **kwargs):
        raise AssertionError("load_checkpoint made a random generator")

    monkeypatch.setattr(np.random, "default_rng", no_generator)
    monkeypatch.setattr(np.random, "Generator", no_generator)
    loaded, _ = hm.load_checkpoint(path, TINY)
    for (p1, a1), (p2, a2) in zip(hm.named_params(params), hm.named_params(loaded)):
        assert p1 == p2 and np.array_equal(a1, a2) and a2.flags.writeable


def test_checkpoint_shape_mismatch_rejected(tmp_path):
    params = hm.init_params(TINY, np.random.default_rng(0))
    path = tmp_path / "ckpt.json"
    hm.save_checkpoint(path, params, {})
    other = hm.ModelConfig(
        d_in=5, d1=16, d2=32, token_len_l1=4, token_len_l2=4, num_experts=2,
        top_k=1, expansion=2,
    )
    with pytest.raises(ConfigError, match="shape|mismatch"):
        hm.load_checkpoint(path, other)


def _drop_key(key):
    def edit(blob):
        del blob["params"]["bridge"][key]
        return json.dumps(blob)
    return edit


def _short_data(blob):
    blob["params"]["bridge"]["data"].pop()
    return json.dumps(blob)


def _set_entry(key, value):
    def edit(blob):
        entry = blob["params"]["bridge"]
        entry[key] = value(entry) if callable(value) else value
        return json.dumps(blob)

    return edit


def _nan_data(blob):
    blob["params"]["bridge"]["data"][3] = float("nan")
    return json.dumps(blob)  # Python's json writes and reads NaN


def _head_b_shape(first):
    def edit(blob):
        blob["params"]["head.b"]["shape"][0] = first  # the expected shape is [1, K]
        return json.dumps(blob)
    return edit


def _list_meta(blob):
    blob["meta"] = [blob["meta"]]
    return json.dumps(blob)


@pytest.mark.parametrize(
    "edit",
    [
        lambda blob: json.dumps(blob)[:1000],
        lambda blob: json.dumps([blob]),
        lambda blob: json.dumps({k: v for k, v in blob.items() if k != "params"}),
        _drop_key("shape"),
        _drop_key("data"),
        _short_data,
        _set_entry("shape", 5),
        _set_entry("shape", None),
        _set_entry("shape", [32, True]),
        _set_entry("data", lambda e: [[x] for x in e["data"]]),
        _set_entry("data", lambda e: [str(x) for x in e["data"]]),
        _set_entry("data", {}),
        _nan_data,
        _list_meta,
        _set_entry("data", lambda e: [True, *e["data"][1:]]),
        _set_entry("data", lambda e: [*e["data"][:-1], [0.5]]),
        _set_entry("data", lambda e: [*e["data"][:-1], 10**400]),
        _head_b_shape(True),
        _head_b_shape(1.0),
        _set_entry("data", lambda e: base64.b64encode(np.array(e["data"]).tobytes()).decode()),
    ],
    ids=["truncated", "not_an_object", "no_params", "no_shape", "no_data", "short_data",
         "int_shape", "null_shape", "bool_in_shape", "nested_data", "string_data",
         "object_data", "nan_data", "list_meta", "bool_in_data", "one_nested_entry",
         "int_too_large", "bool_equal_to_its_int_in_shape", "float_equal_to_its_int_in_shape",
         "base64_data"],
)
def test_damaged_checkpoint_is_config_error_naming_the_file(tmp_path, edit):
    # each edit of a format-v1 checkpoint, which earlier runs left behind
    path = tmp_path / "ckpt.json"
    hm.save_checkpoint(path, hm.init_params(TINY, np.random.default_rng(0)), {"fold": 0})
    path.write_text(edit(checkpoint_as_v1(json.loads(path.read_text()))))
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        hm.load_checkpoint(path, TINY)


def _bridge_bytes(edit):
    """Set bridge's v2 data to the base64 of edit(its float64 bytes)."""
    def edit_blob(blob):
        raw = base64.b64decode(blob["params"]["bridge"]["data"])
        blob["params"]["bridge"]["data"] = base64.b64encode(edit(raw)).decode("ascii")
        return blob
    return edit_blob


def _bridge_text(edit):
    def edit_blob(blob):
        blob["params"]["bridge"]["data"] = edit(blob["params"]["bridge"]["data"])
        return blob
    return edit_blob


def _bridge_value(value):
    return _bridge_bytes(lambda raw: raw[:24] + np.float64(value).tobytes() + raw[32:])


@pytest.mark.parametrize(
    "edit",
    [
        _bridge_text(lambda text: 12345),
        _bridge_text(lambda text: None),
        _bridge_text(lambda text: text[:8] + "-" + text[9:]),
        _bridge_text(lambda text: text[:8] + "\n" + text[8:]),
        _bridge_text(lambda text: text.rstrip("=")),
        _bridge_text(lambda text: text + "="),
        _bridge_bytes(lambda raw: raw[:-8]),
        _bridge_bytes(lambda raw: raw + raw[:8]),
        _bridge_bytes(lambda raw: raw[:-1]),
        _bridge_value(np.nan),
        _bridge_value(np.inf),
        _bridge_value(-np.inf),
        _bridge_text(lambda text: np.frombuffer(base64.b64decode(text), "<f8").tolist()),
        lambda blob: blob | {"format_version": True},
        lambda blob: blob | {"format_version": 3},
    ],
    ids=["number_data", "null_data", "non_alphabet_char", "newline_in_data", "no_padding",
         "extra_padding", "one_value_short", "one_value_long", "one_byte_short", "nan_bytes",
         "inf_bytes", "minus_inf_bytes", "v1_list_under_v2", "bool_version", "version_3"],
)
def test_damaged_v2_checkpoint_is_config_error_naming_the_file_and_entry(tmp_path, edit):
    path = tmp_path / "ckpt.json"
    hm.save_checkpoint(path, hm.init_params(TINY, np.random.default_rng(0)), {"fold": 0})
    blob = edit(json.loads(path.read_text()))
    path.write_text(json.dumps(blob))
    entry = "bridge" if blob["format_version"] == 2 else "version"
    with pytest.raises(ConfigError, match=re.escape(f"{path}: ") + f".*{entry}"):
        hm.load_checkpoint(path, TINY)


def test_checkpoint_is_valid_json_with_paths(tmp_path):
    params = hm.init_params(TINY, np.random.default_rng(0))
    path = tmp_path / "ckpt.json"
    hm.save_checkpoint(path, params, {"fold": 0})
    blob = json.loads(path.read_text())
    assert blob["format_version"] == 2
    assert "level1_moe_a.expert1.W1" in blob["params"]
    assert blob["params"]["bridge"]["shape"] == [32, 16]
    raw = base64.b64decode(blob["params"]["bridge"]["data"], validate=True)
    assert raw == params.bridge.astype("<f8").tobytes()
