"""Smoke tests of the scripts under tools/, which import the package as a
user would and would otherwise break silently when its API changes."""

import importlib.util
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from hdmoe import losses, model
from hdmoe.config import RunConfig, apply_desk_preset

from helpers import checkpoint_as_v1

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_step_profile_runs_on_desk_config(monkeypatch):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "STEPS", {"desk": (1, 2)})
    monkeypatch.setattr(profile, "REPEATER_CALLS", 1)
    monkeypatch.setattr(profile, "CHECKPOINT_CALLS", 1)
    benches = sorted(profile.ROOT.glob("BENCH_*.json"))
    cfg = apply_desk_preset(RunConfig()).model_config()
    steps, nodes, rules, nograd, repeaters, checkpoint = profile.profile_scale(cfg, "desk")
    assert set(steps) == {*profile.STAGES, "step"}
    assert set(nograd) == {"1", str(profile.FORWARDS)}
    assert set(repeaters) == {"stability", "redundancy"}
    assert set(checkpoint) == {"save", "load", "mb"}
    for value in (*steps.values(), *nograd.values(), *repeaters.values(), *checkpoint.values()):
        assert math.isfinite(value) and value > 0
    assert 0 < nodes["ops"] <= 22 and nodes["leaves"] > 0
    # each kind of rule a desk step runs, by the function that defines it
    assert set(rules) == {"encoder.encode_bag", "moe.moe_forward", "autodiff.side_output",
                          "rfr.rfr_forward", "autodiff.matmul", "autodiff.add_bias",
                          "autodiff.sigmoid", "losses.survival_nll", "losses.decouple_loss",
                          "losses.balance_loss", "losses.total_loss"}
    assert all(math.isfinite(ms) and ms > 0 for ms in rules.values())
    assert sorted(profile.ROOT.glob("BENCH_*.json")) == benches


def test_step_profile_times_train_end_to_end(monkeypatch):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "TRAIN_COHORTS", ((60, 2),))
    monkeypatch.setattr(profile, "TRAIN_CALLS", 1)
    monkeypatch.setattr(profile, "EVAL_CALLS", 1)
    times, lanes, eval_times, eval_lanes = profile.profile_train()
    assert set(times) == set(lanes) == set(eval_lanes) == {"60x2"}
    assert set(eval_times) == {"60x2", "60x2/eval", "60x2/analyze"}  # the sum, and each command
    for ms in (times["60x2"], *eval_times.values()):
        assert math.isfinite(ms) and ms > 0
    assert 1 <= lanes["60x2"] <= 2
    # eval: one lane per checkpoint; analyze reads in this process
    usable = len(os.sched_getaffinity(0))
    assert eval_lanes["60x2"] == {"eval": min(2, usable), "analyze": 1}


def test_step_profile_times_each_metric_and_the_whole_pass(monkeypatch):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "METRIC_SIZES", (30, 200))
    monkeypatch.setattr(profile, "METRIC_REPEATS", 1)
    metrics = profile.profile_metrics()
    assert set(metrics) == {"c_index", "km_estimate", "log_rank_p", "welch_t_test",
                            "metric_pass"}
    for times in metrics.values():
        assert set(times) == {"30", "200"}
        assert all(math.isfinite(ms) and ms > 0 for ms in times.values())


@pytest.mark.parametrize("kind", losses.DISTANCE_METRICS)
def test_desk_step_records_at_most_22_ops_for_every_metric(kind):
    profile = _load_tool("step_profile")
    cfg = apply_desk_preset(RunConfig()).model_config()
    sample = profile._records(cfg)[0]
    lifted, _ = model.lift_params(model.init_params(cfg, np.random.default_rng(1)),
                                  requires_grad=True)
    res = model.forward([sample], lifted, cfg, np.random.default_rng(2))
    _, total = losses.total_loss(
        losses.survival_nll(res.hazards, sample.bin_label, sample.censored),
        losses.decouple_loss(res, kind), losses.balance_loss(res.traces), 1.0, 0.01)
    # per MoE block 3 (the block and its shared and router-softmax outputs), per fusion 1,
    # each encoder, loss term and the total 1, head 3, bridge 1
    assert profile.tape_nodes(total)[1] == 21 <= 22


def test_desk_digest_params_line_is_the_same_for_v1_and_v2(tmp_path):
    desk_digest = _load_tool("desk_digest")
    params = model.init_params(apply_desk_preset(RunConfig()).model_config(),
                               np.random.default_rng(0))
    runs = {version: tmp_path / f"v{version}" for version in (1, 2)}
    for run in runs.values():
        model.save_checkpoint(run / "fold0" / "checkpoint.json", params, {"fold": 0, "seed": 3})
    v1 = runs[1] / "fold0" / "checkpoint.json"
    v1.write_text(json.dumps(checkpoint_as_v1(json.loads(v1.read_text()))))
    (file_1, params_1), (file_2, params_2) = (desk_digest.digest(run) for run in runs.values())
    assert params_1.endswith("  fold0/checkpoint.json#params") and params_1 == params_2
    assert file_1.endswith("  fold0/checkpoint.json") and file_1 != file_2
    # a one-bit change of one value moves the line
    blob = json.loads(v1.read_text())
    blob["params"]["bridge"]["data"][0] = np.nextafter(blob["params"]["bridge"]["data"][0], 2.0)
    v1.write_text(json.dumps(blob))
    assert desk_digest.digest(runs[1])[1] != params_2
