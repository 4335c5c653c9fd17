"""Smoke tests of the scripts under tools/, which import the package as a
user would and would otherwise break silently when its API changes."""

import ast
import contextlib
import importlib.util
import io
import json
import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import hdmoe
from hdmoe import kernels, losses, model
from hdmoe.config import RunConfig, apply_desk_preset

from helpers import checkpoint_as_v1

TOOLS = Path(__file__).resolve().parent.parent / "tools"
GOLDEN_DIGEST = Path(__file__).resolve().parent / "data" / "desk_digest.txt"


def _load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _figures(report: dict):
    """(path, figure) of each timed figure of a step_profile report: the leaves of
    its "_ms" sections, each a {"change": ms, ...} dict."""
    def walk(path, node):
        if "change" in node:
            yield path, node
        else:
            for key, child in node.items():
                yield from walk(f"{path}/{key}", child)
    for key, section in report.items():
        if "ms" in key.split("_"):
            yield from walk(key, section)


def test_step_profile_runs_on_desk_config(monkeypatch):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "STEPS", {"desk": (1, 2)})
    for calls in ("SINGLE_CALLS", "REPEATER_CALLS", "CHECKPOINT_CALLS"):
        monkeypatch.setattr(profile, calls, 1)
    benches = sorted(profile.ROOT.glob("BENCH_*.json"))
    report = profile.profile_scale({"change": hdmoe}, "desk")
    assert set(report["step_ms"]) == {*profile.STAGES, "step"}
    assert set(report["nograd_forward_ms_per_sample"]) == {"1", str(profile.FORWARDS)}
    assert set(report["checkpoint_ms"]) == {"save", "load"}
    assert all(set(figure) == {"change"} and math.isfinite(figure["change"])
               and figure["change"] > 0 for _, figure in _figures(report))
    nodes = report["tape_nodes_per_step"]["change"]
    assert 0 < nodes["ops"] <= 22 and nodes["leaves"] > 0
    assert report["checkpoint_mb"]["change"] > 0
    # each kind of rule a desk step runs, by the function that defines it
    assert set(report["backward_rule_ms_per_step"]) == {
        "encoder.encode_bag", "moe.moe_forward", "autodiff.side_output", "rfr.rfr_forward",
        "autodiff.matmul", "autodiff.add_bias", "autodiff.sigmoid", "losses.survival_nll",
        "losses.decouple_loss", "losses.balance_loss", "losses.total_loss"}
    assert sorted(profile.ROOT.glob("BENCH_*.json")) == benches


def test_step_profile_times_train_end_to_end(monkeypatch):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "TRAIN_COHORTS", ((60, 2),))
    monkeypatch.setattr(profile, "TRAIN_CALLS", 1)
    monkeypatch.setattr(profile, "EVAL_CALLS", 1)
    report = profile.profile_train({"change": hdmoe})
    assert set(report["train_ms"]) == set(report["train_lanes"]) == {"60x2"}
    assert set(report["eval_lanes"]) == {"60x2"}
    # the sum, and each command
    assert set(report["eval_ms"]) == {"60x2", "60x2/eval", "60x2/analyze"}
    for _, figure in _figures(report):
        assert math.isfinite(figure["change"]) and figure["change"] > 0
    assert 1 <= report["train_lanes"]["60x2"]["change"] <= 2
    # eval: one lane per checkpoint; analyze reads in this process
    usable = len(os.sched_getaffinity(0))
    assert report["eval_lanes"]["60x2"] == {"change": {"eval": min(2, usable), "analyze": 1}}


def test_step_profile_times_each_metric_and_the_whole_pass(monkeypatch):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "METRIC_SIZES", (30, 200))
    monkeypatch.setattr(profile, "METRIC_REPEATS", 1)
    metrics = profile.profile_metrics({"change": hdmoe})
    assert set(metrics) == {"c_index", "km_estimate", "log_rank_p", "welch_t_test", "metric_pass"}
    for figures in metrics.values():
        # tied tables under the sizes alone, as before; untied ones under untied/
        assert set(figures) == {"30", "200", "untied/30", "untied/200"}
        assert all(math.isfinite(f["change"]) and f["change"] > 0 for f in figures.values())


def test_step_profile_against_a_tree_times_both_sides_in_one_run(monkeypatch, tmp_path):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "STEPS", {"desk": (1, 2)})
    for calls in ("SINGLE_CALLS", "REPEATER_CALLS", "CHECKPOINT_CALLS", "READER_CALLS",
                  "TRAIN_CALLS", "EVAL_CALLS", "METRIC_REPEATS"):
        monkeypatch.setattr(profile, calls, 2)
    monkeypatch.setattr(profile, "TRAIN_COHORTS", ((60, 2),))
    monkeypatch.setattr(profile, "METRIC_SIZES", (30,))
    monkeypatch.setattr(profile, "ROOT", tmp_path / "checkout")  # where the report goes
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    # this checkout's package as the parent tree, with bytecode the copy must leave behind
    tree = tmp_path / "tree"
    shutil.copytree(Path(hdmoe.__file__).parent, tree / "hdmoe",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tree / "hdmoe" / "__pycache__").mkdir()
    (tree / "hdmoe" / "__pycache__" / "stale.pyc").write_bytes(b"")
    before = {p: p.stat().st_mtime_ns for p in tree.rglob("*")}
    profile.ROOT.mkdir()
    copies, imported_copy = [], profile.imported_copy

    @contextlib.contextmanager
    def recorded(src):
        with imported_copy(src) as parent:
            copies.append(Path(parent.__file__).parent)
            assert parent.__name__ == "hdmoe_parent" and copies[0].name == "hdmoe_parent"
            assert not (copies[0] / "__pycache__").exists()
            yield parent

    monkeypatch.setattr(profile, "imported_copy", recorded)
    with contextlib.redirect_stdout(io.StringIO()):
        assert profile.main(["--label", "both", "--against", str(tree)]) == 0
        assert profile.main(["--label", "one"]) == 0
    assert len(copies) == 1 and not copies[0].parent.exists()
    assert not any(name.startswith("hdmoe_parent") for name in sys.modules)
    assert {p: p.stat().st_mtime_ns for p in tree.rglob("*")} == before
    assert sorted(p.name for p in profile.ROOT.iterdir()) == ["BENCH_both.json", "BENCH_one.json"]
    both, one = (json.loads((profile.ROOT / f"BENCH_{label}.json").read_text())
                 for label in ("both", "one"))
    assert both["sides"] == ["change", "parent"] and one["sides"] == ["change"]
    figures = dict(_figures(both))
    assert dict(_figures(one)).keys() == figures.keys()
    assert {"step_ms/desk/step", "metrics_ms/metric_pass/30", "load_samples_ms/desk",
            "train_ms/60x2", "eval_ms/60x2/analyze"} <= figures.keys()
    for figure in figures.values():
        assert set(figure) == {"change", "parent", "ratio"}
        ratio = figure["ratio"]
        assert 0 < ratio["q1"] <= ratio["median"] <= ratio["q3"]
    for _, figure in _figures(one):
        assert set(figure) == {"change"} and figure["change"] > 0
    assert both["train_lanes"]["60x2"].keys() == {"change", "parent"}


def test_step_profile_against_refuses_a_dir_without_the_package(monkeypatch, tmp_path, capsys):
    profile = _load_tool("step_profile")
    monkeypatch.setattr(profile, "ROOT", tmp_path)
    monkeypatch.setattr(profile, "profile_scale", lambda *args: pytest.fail("timed"))
    (tmp_path / "src" / "hdmoe").mkdir(parents=True)  # a package directory with no __init__.py
    for tree in (tmp_path / "src", tmp_path / "missing"):
        with pytest.raises(SystemExit) as exit_:
            profile.main(["--label", "x", "--against", str(tree)])
        assert exit_.value.code == 2
        assert f"--against {tree}: no hdmoe/__init__.py there" in capsys.readouterr().err
    assert not list(tmp_path.glob("BENCH_*.json"))


def test_step_profile_removes_the_parent_copy_on_an_error(monkeypatch):
    profile = _load_tool("step_profile")
    copies = []

    def fail(sides, scale):
        copies.append(Path(sides["parent"].__file__).parent)
        raise RuntimeError("stop")

    monkeypatch.setattr(profile, "profile_scale", fail)
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    with pytest.raises(RuntimeError, match="stop"):
        profile.main(["--label", "x", "--against", str(Path(hdmoe.__file__).parent.parent)])
    assert len(copies) == 1 and not copies[0].parent.exists()
    assert not any(name.startswith("hdmoe_parent") for name in sys.modules)


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


@pytest.mark.parametrize("kind", losses.DISTANCE_METRICS)
def test_desk_step_records_at_most_22_ops_for_every_metric(kind):
    profile = _load_tool("step_profile")
    cfg = apply_desk_preset(RunConfig()).model_config()
    records, labels = profile._records(hdmoe, cfg)
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


@pytest.fixture(scope="module")
def digest_lines():
    """The output of one run of tools/desk_digest.py on this checkout's src."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert _load_tool("desk_digest").main([]) == 0
    return out.getvalue().splitlines()


def test_desk_digest_prints_each_refusal_probe_after_the_artifacts(digest_lines):
    desk_digest = _load_tool("desk_digest")
    header, *lines = digest_lines
    assert header == desk_digest.environment()
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


def _digest_entries(lines: list[str]) -> dict[str, str]:
    """An artifact's path -> its sha256, and "probe <name>" -> its outcome, below the header."""
    entries = {}
    for line in lines[1:]:
        probe = line.startswith("probe ")
        key, value = line.partition(": ")[::2] if probe else line.split("  ")[::-1]
        entries[key] = value
    return entries


def test_desk_digest_matches_the_golden_file(digest_lines):
    # every artifact and refusal of the desk pipeline keeps its bytes; a change that moves
    # them on purpose rewrites tests/data/desk_digest.txt and names each moved line
    golden = GOLDEN_DIGEST.read_text().splitlines()
    problems = []
    if digest_lines[0] != golden[0]:  # another numpy or BLAS may round otherwise
        problems.append(f"environment: the golden file was made under {golden[0][2:]!r}, "
                        f"this run under {digest_lines[0][2:]!r}")
    want, got = _digest_entries(golden), _digest_entries(digest_lines)
    problems += [f"{key}: golden {want.get(key, '(absent)')}, now {got.get(key, '(absent)')}"
                 for key in sorted(want.keys() | got.keys()) if want.get(key) != got.get(key)]
    if problems:
        pytest.fail("\n".join(problems))
    assert digest_lines == golden  # and in the same order


def test_no_package_module_imports_hdmoe_by_absolute_name():
    # a copy of the package under another name (a parent tree beside this one) imports itself
    package = Path(__file__).resolve().parent.parent / "src" / "hdmoe"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import) else
                     [node.module] if isinstance(node, ast.ImportFrom) and node.level == 0 else [])
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name == "hdmoe" or name.startswith("hdmoe.")]
    assert not found, found
