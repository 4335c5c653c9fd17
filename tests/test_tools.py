"""Smoke tests of the scripts under tools/, which import the package as a
user would and would otherwise break silently when its API changes."""

import importlib.util
import json
import math
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from hdmoe import kernels, losses, model
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
    raw, norm = profile.profile_metrics()
    for metrics in (raw, norm):
        assert set(metrics) == {"c_index", "km_estimate", "log_rank_p", "welch_t_test",
                                "metric_pass"}
        for times in metrics.values():
            # tied tables under the sizes alone, as before; untied ones under untied/
            assert set(times) == {"30", "200", "untied/30", "untied/200"}
            assert all(math.isfinite(ms) and ms > 0 for ms in times.values())


def test_step_profile_tables_tied_as_the_stats_workload_and_untied():
    profile = _load_tool("step_profile")
    tied = profile.tied_table(np.random.default_rng(3), 2000)
    again = profile.tied_table(np.random.default_rng(3), 2000, None)
    # rounding draws nothing: the untied table is the tied one before rounding
    assert all(np.array_equal(np.round(u, 1), t) for u, t in zip(again[:2], tied[:2]))
    assert np.array_equal(again[2], tied[2])
    risks, times, events = again
    assert np.unique(risks).size == np.unique(times).size == 2000
    # the c-index counts the tied table on its grid and the untied one by its levels
    for (risks, times, events), grid in ((tied, True), (again, False)):
        cells = (np.unique(times[events == 1]).size + 1) * (np.unique(risks).size + 1)
        assert (cells <= kernels.GRID_CELLS * 2000) == grid


def test_step_profile_normalised_ms_divides_each_call_by_the_loop_before_it(monkeypatch):
    profile = _load_tool("step_profile")
    hostspeed = profile._hostspeed()
    clock = iter([0.0, 0.002, 1.0, 1.001, 2.0, 2.005])  # three calls: 2, 1 and 5 ms
    loops = iter([0.02, 0.01, 0.05])  # each loop twice the REF_S figure it would be
    monkeypatch.setattr(hostspeed, "REF_S", 0.005)
    monkeypatch.setattr(hostspeed, "calibrate", lambda: next(loops))
    monkeypatch.setattr(profile.time, "perf_counter", lambda: next(clock))
    calls = []
    # the warm-up call is not timed; every ratio is 0.1, so 0.1 * REF_S = 0.5 ms
    assert profile._normalised_ms(lambda: calls.append(1), 3) == 0.5
    assert len(calls) == 4


def test_step_profile_host_ms_is_the_median_of_perfbench_calibration_loops(monkeypatch):
    profile = _load_tool("step_profile")
    assert math.isfinite(profile.host_ms()) and profile.host_ms() > 0
    hostspeed = sys.modules["hostspeed"]  # imported from perfbench/, not a copy
    assert Path(hostspeed.__file__) == profile.ROOT / "perfbench" / "hostspeed.py"
    loops = iter([0.004, 0.001, 0.005, 0.002, 0.003])
    monkeypatch.setattr(hostspeed, "calibrate", lambda: next(loops))
    assert profile.host_ms() == 3.0


@pytest.mark.parametrize("kind", losses.DISTANCE_METRICS)
def test_desk_step_records_at_most_22_ops_for_every_metric(kind):
    profile = _load_tool("step_profile")
    cfg = apply_desk_preset(RunConfig()).model_config()
    records, labels = profile._records(cfg)
    sample = records[0]
    lifted = model.lift_params(model.init_params(cfg, np.random.default_rng(1)), requires_grad=True)
    res = model.forward([sample], lifted, cfg, np.random.default_rng(2))
    total = losses.total_loss(
        losses.survival_nll(res.hazards, labels[0], sample.censored),
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


def test_desk_digest_prints_each_refusal_probe_after_the_artifacts(capsys):
    desk_digest = _load_tool("desk_digest")
    assert desk_digest.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    artifacts, probes = lines[:-len(desk_digest.PROBES)], lines[-len(desk_digest.PROBES):]
    # the artifacts of the pipeline alone, hashed before any probe copied the run
    assert {line.split("  ")[1].split("/")[0] for line in artifacts} == {
        "base.json", "data", "train", "eval", "analysis"}
    assert artifacts[-1].endswith("  train/predictions.csv")
    messages = {
        "fold1_checkpoint_removed": "{0}/folds.csv names folds with no checkpoint: fold1",
        "fold0_copied_into_fold1":
            "checkpoints {0}/fold0/checkpoint.json and {0}/fold1/checkpoint.json both hold fold 0",
        "malformed_folds_row":
            "{0}/folds.csv:62: expected 'sample_id,fold', got ['synth0000', 'one']",
        "meta_fold_dropped":
            "{0}/fold1/checkpoint.json: meta.fold is missing, so its held-out samples are unknown",
        "folds_renamed_samples": "fold 0: {0}/folds.csv assigns no sample of the dataset to it",
        "folds_without_fold1": "{0}/fold1/checkpoint.json: {0}/folds.csv has no fold 1, "
                               "so the checkpoint is not from this run",
    }
    assert probes == [f"probe {name}: exit 2: error: " + message.format(f"probe-{name}")
                      for name, message in messages.items()]
