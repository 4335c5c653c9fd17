"""Smoke tests of the scripts under tools/, which import the package as a
user would and would otherwise break silently when its API changes."""

import importlib.util
import math
from pathlib import Path

from hdmoe.config import RunConfig, apply_desk_preset

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
    steps, nodes, nograd, repeaters, checkpoint = profile.profile_scale(cfg, "desk")
    assert set(steps) == {*profile.STAGES, "step"}
    assert set(nograd) == {"1", str(profile.FORWARDS)}
    assert set(repeaters) == {"stability", "redundancy"}
    assert set(checkpoint) == {"save", "load", "mb"}
    for value in (*steps.values(), *nograd.values(), *repeaters.values(), *checkpoint.values()):
        assert math.isfinite(value) and value > 0
    assert 0 < nodes["ops"] <= 50 and nodes["leaves"] > 0
    assert sorted(profile.ROOT.glob("BENCH_*.json")) == benches


def test_step_profile_times_train_end_to_end(monkeypatch):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "TRAIN_COHORTS", ((60, 2),))
    monkeypatch.setattr(profile, "TRAIN_CALLS", 1)
    times, lanes = profile.profile_train()
    assert set(times) == set(lanes) == {"60x2"}
    assert math.isfinite(times["60x2"]) and times["60x2"] > 0
    assert 1 <= lanes["60x2"] <= 2
