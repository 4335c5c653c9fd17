import collections
import contextlib
import csv
import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import numpy as np
import pytest

import hdmoe
from hdmoe import cli, data
from hdmoe.config import RunConfig, apply_desk_preset, load_config, save_config
from hdmoe.data import SynthConfig, load_samples, write_dataset
from hdmoe.errors import ConfigError, NumericsError
from hdmoe.model import ModelConfig, init_params, save_checkpoint
from hdmoe.trainer import TrainConfig

from helpers import checkpoint_as_v1

TINY_KW = dict(
    d_in=4, d1=8, d2=16, token_len_l1=4, token_len_l2=4, num_experts=2,
    top_k=1, expansion=2, num_bins=2, k_folds=2, epochs=1,
    cohort=12, bag_a=2, bag_b=2, latent_shared=2, latent_spec=2,
    noise=0.2, censor_max=30.0, seed=11,
)


def _tiny_config(tmp_path, **overrides) -> Path:
    kw = {**TINY_KW, **overrides}
    cfg = dataclasses.replace(RunConfig(), **kw)
    path = tmp_path / "config.json"
    save_config(cfg, path)
    return path


def _synth(tmp_path, **overrides) -> Path:
    cfg_path = _tiny_config(tmp_path, **overrides)
    out = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    return out / "config.json"  # resolved config with manifest filled in


# ---------------------------------------------------------------------------
# config


def test_config_round_trip(tmp_path):
    cfg = RunConfig(seed=5, d1=32, d2=64, token_len_l1=8, token_len_l2=4)
    path = tmp_path / "c.json"
    save_config(cfg, path)
    assert load_config(path) == cfg


# save_config(RunConfig()) as written by an earlier release: pins the flat key
# set, every default and the number formatting of a config file.
GOLDEN_CONFIG = Path(__file__).parent / "data" / "run_config_default.json"


def test_default_config_matches_golden_file(tmp_path):
    path = tmp_path / "c.json"
    save_config(RunConfig(), path)
    assert path.read_bytes() == GOLDEN_CONFIG.read_bytes()
    assert load_config(GOLDEN_CONFIG) == RunConfig()


def test_sub_configs_keep_their_own_defaults():
    cfg = RunConfig()
    assert cfg.model_config() == ModelConfig()
    assert cfg.train_config() == TrainConfig()
    # d_in is shared; ModelConfig owns its default
    assert cfg.synth_config() == dataclasses.replace(SynthConfig(), d_in=64)


def test_config_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"learning_rate": 0.1}')
    with pytest.raises(ConfigError, match="unknown config keys"):
        load_config(path)


# Each value is of the wrong JSON type for its key; before the typed check,
# epochs 1.5 and lr "x" died with tracebacks (epochs 1.5 after writing
# config.json and folds.csv), alpha NaN exited 3 after those two files, and
# epochs true and d1 "32" (overwritten by --desk) trained.
@pytest.mark.parametrize("key, value, kind", [
    ("epochs", 1.5, "an integer"),
    ("lr", "x", "a finite number"),
    ("alpha", float("nan"), "a finite number"),
    ("epochs", True, "an integer"),
    ("d1", "32", "an integer"),
    ("segment_values", [1, 2.0], "a list of integers"),
    ("manifest", 3, "a string or null"),
    pytest.param("lr", 10 ** 400, "a finite number", id="lr-int-too-large-for-a-float"),
])
def test_config_value_of_the_wrong_type_exit_2_before_any_output(tmp_path, capsys, key, value,
                                                                   kind):
    raw = json.loads(_synth(tmp_path).read_text())
    raw[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw))  # NaN is written as the bare token json.load accepts
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--desk", "--config", str(bad), "--out", str(run_dir)]) == 2
    assert f"config key {key!r} must be {kind}, got {value!r}" in capsys.readouterr().err
    assert not run_dir.exists()


def test_config_accepts_an_int_for_a_float_key(tmp_path):
    path = tmp_path / "c.json"
    path.write_text('{"lr": 1, "noise": 0, "manifest": "m.csv"}')
    assert load_config(path) == RunConfig(lr=1, noise=0, manifest="m.csv")


def test_desk_preset_scales_dims_down_8x():
    desk = apply_desk_preset(RunConfig())
    assert (desk.d1, desk.d2, desk.token_len_l1, desk.token_len_l2) == (32, 64, 8, 4)
    assert desk.num_experts == 4
    desk.validate()


def test_full_scale_defaults_match_published_settings():
    cfg = RunConfig()
    assert (cfg.d1, cfg.d2) == (256, 512)
    assert (cfg.token_len_l1, cfg.token_len_l2) == (64, 32)
    assert (cfg.num_experts, cfg.top_k) == (8, 1)
    assert cfg.segment_values == [1, 2, 4, 8, 16, 32, 64, 128]
    assert (cfg.lr, cfg.weight_decay, cfg.epochs, cfg.batch_size) == (5e-4, 1e-3, 30, 1)
    assert (cfg.alpha, cfg.beta) == (1.0, 0.01)
    assert (cfg.num_bins, cfg.k_folds) == (4, 5)
    assert cfg.distance_metric == "cos"
    cfg.validate()


# ---------------------------------------------------------------------------
# synth


def test_synth_writes_cohort(tmp_path):
    resolved = _synth(tmp_path, cohort=5)
    data_dir = resolved.parent
    manifest_lines = (data_dir / "manifest.csv").read_text().strip().split("\n")
    assert len(manifest_lines) == 6  # header + 5 rows
    assert len(list((data_dir / "features").glob("*.csv"))) == 10
    assert (data_dir / "ground_truth.csv").exists()


def test_synth_deterministic_rerun(tmp_path):
    cfg_path = _tiny_config(tmp_path, cohort=4)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out1)]) == 0
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out2)]) == 0
    assert (out1 / "manifest.csv").read_bytes() == (out2 / "manifest.csv").read_bytes()
    for f in sorted((out1 / "features").glob("*.csv")):
        assert f.read_bytes() == (out2 / "features" / f.name).read_bytes()
    assert (out1 / "ground_truth.csv").read_bytes() == (out2 / "ground_truth.csv").read_bytes()


def test_synth_empty_cohort(tmp_path):
    resolved = _synth(tmp_path, cohort=0)
    manifest_lines = (resolved.parent / "manifest.csv").read_text().strip().split("\n")
    assert manifest_lines == ["sample_id,time_months,censored,modality_a_file,modality_b_file"]


@pytest.mark.parametrize("value", ["verbose", "", "warn"])
def test_unknown_hdmoe_log_value_is_named_on_stderr(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("HDMOE_LOG", value)
    _synth(tmp_path, cohort=2)
    err = capsys.readouterr().err
    assert err == (f"hdmoe: unknown HDMOE_LOG value {value!r} (expected debug, info, warning); "
                   "logging at warning\n")


def test_known_hdmoe_log_values_print_nothing(tmp_path, monkeypatch, capsys):
    for i, value in enumerate(["debug", " INFO ", "Warning"]):
        monkeypatch.setenv("HDMOE_LOG", value)
        cfg_path = _tiny_config(tmp_path, cohort=2)
        assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / str(i))]) == 0
        assert "HDMOE_LOG" not in capsys.readouterr().err


# ---------------------------------------------------------------------------
# train


def test_train_outputs_and_metrics(tmp_path, capsys):
    resolved = _synth(tmp_path)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 0
    out = capsys.readouterr().out
    assert "fold 0: c-index" in out and "overall c-index" in out
    for fid in (0, 1):
        fold_dir = run_dir / f"fold{fid}"
        assert (fold_dir / "checkpoint.json").exists()
        assert (fold_dir / "predictions.csv").exists()
        log_lines = (fold_dir / "run_log.csv").read_text().strip().split("\n")
        loss_lines = [l for l in log_lines if not l.startswith("rfr,")]
        rfr_lines = [l for l in log_lines if l.startswith("rfr,")]
        assert len(rfr_lines) == 2 * len(loss_lines)
        assert all(len(l.split(",")) == 5 for l in loss_lines)
        assert all(l.split(",")[1] in ("1", "2") for l in rfr_lines)
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert set(metrics["folds"].keys()) == {"0", "1"}
    assert "mean" in metrics["overall"] and "std" in metrics["overall"]
    assert (run_dir / "folds.csv").exists()
    assert (run_dir / "predictions.csv").exists()
    assert (run_dir / "config.json").exists()


@pytest.mark.parametrize(
    "overrides",
    [
        dict(token_len_l1=3),
        dict(distance_metric="foo"),
        dict(k_folds=1),
        dict(top_k=3, num_experts=2),
        dict(beta1=1.0),
        dict(beta1=-3.0),
        dict(beta2=1.0),
        dict(eps_opt=0.0),
        dict(weight_decay=-5.0),
    ],
    ids=["token_len_l1", "distance_metric", "k_folds", "top_k", "beta1_one", "beta1_negative",
         "beta2_one", "eps_opt_zero", "weight_decay_negative"],
)
def test_train_invalid_config_no_partial_outputs(tmp_path, overrides):
    resolved = _synth(tmp_path)
    cfg = load_config(resolved)
    bad = dataclasses.replace(cfg, **overrides)
    bad_path = tmp_path / "bad.json"
    json_text = json.dumps(dataclasses.asdict(bad))
    bad_path.write_text(json_text)
    run_dir = tmp_path / "bad_run"
    assert cli.main(["train", "--config", str(bad_path), "--out", str(run_dir)]) == 2
    assert not run_dir.exists()


def test_train_epochs_zero_gives_chance_level(tmp_path):
    resolved = _synth(tmp_path, cohort=60, bag_a=3, bag_b=3)
    cfg = load_config(resolved)
    cfg = dataclasses.replace(cfg, epochs=0)
    cfg_path = tmp_path / "e0.json"
    save_config(cfg, cfg_path)
    run_dir = tmp_path / "run0"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 0
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert 0.3 < metrics["overall"]["mean"] < 0.7
    for fold_dir in (d for d in run_dir.glob("fold*") if d.is_dir()):
        assert (fold_dir / "run_log.csv").read_text() == ""


def test_train_determinism_bitwise(tmp_path):
    resolved = _synth(tmp_path)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert cli.main(["train", "--config", str(resolved), "--out", str(d1)]) == 0
    assert cli.main(["train", "--config", str(resolved), "--out", str(d2)]) == 0
    for rel in ("fold0/checkpoint.json", "fold1/checkpoint.json",
                "fold0/predictions.csv", "predictions.csv", "metrics.json"):
        assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel


def test_config_round_trip_reproduces_run(tmp_path):
    # re-running from the resolved config written next to the outputs
    # reproduces the run bitwise
    resolved = _synth(tmp_path)
    d1 = tmp_path / "r1"
    assert cli.main(["train", "--config", str(resolved), "--out", str(d1)]) == 0
    d2 = tmp_path / "r2"
    rerun_cfg = d1 / "config.json"
    assert cli.main(["train", "--config", str(rerun_cfg), "--out", str(d2)]) == 0
    assert (d1 / "predictions.csv").read_bytes() == (d2 / "predictions.csv").read_bytes()
    assert (d1 / "fold0/checkpoint.json").read_bytes() == (d2 / "fold0/checkpoint.json").read_bytes()


@pytest.mark.parametrize("command", ["synth", "train", "eval", "analyze"])
def test_negative_seed_exit_2_before_any_output(tmp_path, capsys, command):
    resolved, run_dir = _trained_run(tmp_path)
    bad_config = tmp_path / "bad_seed.json"
    bad_config.write_text(json.dumps({**json.loads(resolved.read_text()), "seed": -2}))
    checkpoint = ["--checkpoint", str(run_dir)] if command in ("eval", "analyze") else []
    for i, (args, seed) in enumerate(((["--config", str(resolved), "--seed", "-1"], -1),
                                      (["--config", str(bad_config)], -2))):
        out_dir = tmp_path / f"out{i}"
        capsys.readouterr()
        assert cli.main([command, *args, *checkpoint, "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err == f"error: seed must be >= 0, got {seed}\n"
        assert not out_dir.exists()


@pytest.mark.parametrize("pin", ["0", "-1", "3"])
def test_train_bad_pin_segment_exit_2_before_any_output(tmp_path, pin):
    resolved = _synth(tmp_path)  # d1=8: a pin must be a positive divisor of 8
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir),
                     "--pin-segment", pin]) == 2
    assert not run_dir.exists()


def test_synth_rejects_pin_segment(tmp_path):
    cfg_path = _tiny_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "d"),
                  "--pin-segment", "2"])
    assert exc.value.code == 2


def test_one_parser_per_process_unchanged_by_the_commands_it_rejects(tmp_path, capsys):
    cfg_path = _tiny_config(tmp_path)
    assert cli.build_parser() is cli.build_parser()
    for argv in (["synth", "--no-such-flag"], ["train", "--config", str(cfg_path), "--repeats", "1"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --no-such-flag" in err
    assert "unrecognized arguments: --repeats 1" in err
    argv = ["eval", "--config", str(cfg_path), "--checkpoint", "run", "--repeats", "3", "--desk"]
    assert cli.build_parser().parse_args(argv) == cli.build_parser.__wrapped__().parse_args(argv)
    out = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert load_config(out / "config.json").manifest == str(out / "manifest.csv")


def test_sample_id_with_comma_round_trips(tmp_path):
    resolved = _synth(tmp_path)
    manifest = load_config(resolved).manifest
    records = load_samples(manifest)
    records[0] = dataclasses.replace(records[0], sample_id="patient,0001")
    write_dataset(Path(manifest).parent, records)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 0
    with open(run_dir / "folds.csv", newline="", encoding="utf-8") as fh:
        folds = dict(list(csv.reader(fh))[1:])
    with open(run_dir / "predictions.csv", newline="", encoding="utf-8") as fh:
        predicted = {row["sample_id"]: row["fold"] for row in csv.DictReader(fh)}
    assert predicted["patient,0001"] == folds["patient,0001"]
    assert cli.main(["eval", "--config", str(resolved), "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(run_dir)]) == 0


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_train_non_finite_time_exit_2_before_any_output(tmp_path, capsys, time):
    resolved = _synth(tmp_path)
    manifest = Path(load_config(resolved).manifest)
    with open(manifest, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    rows[1][rows[0].index("time_months")] = time
    with open(manifest, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 2
    assert "non-finite time_months" in capsys.readouterr().err
    assert not run_dir.exists()


@pytest.mark.parametrize("cell", [b"synth\xff0001", b"x" * 131073], ids=["non_utf8", "oversized"])
def test_train_unreadable_manifest_row_exit_2_naming_it(tmp_path, capsys, cell):
    resolved = _synth(tmp_path)
    manifest = Path(load_config(resolved).manifest)
    lines = manifest.read_bytes().split(b"\n")
    lines[2] = cell + lines[2][lines[2].index(b","):]
    manifest.write_bytes(b"\n".join(lines))
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 2
    assert f"{manifest}:3: " in capsys.readouterr().err
    assert not run_dir.exists()


def test_train_too_few_event_times_for_the_bins_exit_2_before_any_output(tmp_path, capsys):
    resolved = _synth(tmp_path)
    cfg = dataclasses.replace(load_config(resolved), num_bins=1000)
    cfg_path = tmp_path / "bins.json"
    save_config(cfg, cfg_path)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(cfg_path), "--out", str(run_dir)]) == 2
    assert "distinct uncensored event times" in capsys.readouterr().err
    assert not run_dir.exists()


def _feature_file(resolved: Path, name: str) -> Path:
    return Path(load_config(resolved).manifest).parent / "features" / name


@pytest.mark.parametrize("content", [
    b"0.1,0.2,0.3,0.4\n0.5,abc,0.7,0.8\n",
    b"0.1,0.2,0.3,0.4\n0.5,0.6,0.7\n",
    b"0.1,0.2,0.3,0.4\n0.5,nan,0.7,0.8\n",
    b"0.1,0.2,0.3,0.4\n0.5,0.6,inf,0.8\n",
    b"",
    b"# no instances\n\n",
    b"0.1,0.2,0.3,0.4\n0.5,0.6,0.7,0.\xff8\n",
], ids=["non_numeric", "ragged", "nan", "inf", "empty", "comment_only", "non_utf8"])
@pytest.mark.filterwarnings("error")  # the error line is all the user sees: no numpy warning
def test_train_malformed_feature_file_exit_2_naming_it(tmp_path, capsys, content):
    resolved = _synth(tmp_path)
    bad = _feature_file(resolved, "synth0003_b.csv")
    bad.write_bytes(content)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(bad) in err[0]
    assert not run_dir.exists()


def test_train_missing_feature_file_exit_4_naming_it(tmp_path, capsys):
    resolved = _synth(tmp_path)
    missing = _feature_file(resolved, "synth0003_a.csv")
    missing.unlink()
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 4
    assert str(missing) in capsys.readouterr().err
    assert not run_dir.exists()


def test_train_feature_file_comments_and_blank_lines_skipped(tmp_path):
    resolved = _synth(tmp_path)
    path = _feature_file(resolved, "synth0003_a.csv")
    rows = path.read_text().splitlines()
    path.write_text("# instance features\n" + rows[0] + "\n\n" + "\n".join(rows[1:]) + "\n")
    assert load_samples(load_config(resolved).manifest)[3].features_a.shape == (2, 4)
    assert cli.main(["train", "--config", str(resolved), "--out", str(tmp_path / "run")]) == 0


def _narrow_sample(resolved: Path, sample_id: str, width: int) -> None:
    for side in ("a", "b"):
        path = _feature_file(resolved, f"{sample_id}_{side}.csv")
        rows = path.read_text().splitlines()
        path.write_text("".join(",".join(row.split(",")[:width]) + "\n" for row in rows))


def test_feature_width_checked_for_every_sample_exit_2(tmp_path, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    _narrow_sample(resolved, "synth0005", 2)  # d_in = 4
    for argv in (["train"], ["eval", "--checkpoint", str(run_dir)],
                 ["analyze", "--checkpoint", str(run_dir / "fold0" / "checkpoint.json")]):
        out_dir = tmp_path / f"out_{argv[0]}"
        assert cli.main([*argv, "--config", str(resolved), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "synth0005" in err and "width 2" in err and "d_in 4" in err
        assert not out_dir.exists()


# ---------------------------------------------------------------------------
# eval


def test_train_lifts_once_per_fold_for_training_and_once_for_prediction(tmp_path, monkeypatch):
    resolved = _synth(tmp_path)
    _cores(monkeypatch, 1)  # the count is in-process; a forked lane's lifts are not seen
    lifts = []
    lift = hdmoe.trainer.lift_params
    monkeypatch.setattr(hdmoe.trainer, "lift_params",
                        lambda params, requires_grad=True:
                        lifts.append(requires_grad) or lift(params, requires_grad))
    assert cli.main(["train", "--config", str(resolved), "--out", str(tmp_path / "run")]) == 0
    assert lifts == [True, False, True, False]  # two folds


def _trained_run(tmp_path):
    resolved = _synth(tmp_path)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 0
    return resolved, run_dir


def test_eval_directory_checkpoint(tmp_path):
    resolved, run_dir = _trained_run(tmp_path)
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir)]) == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert set(metrics["folds"].keys()) == {"0", "1"}
    km = (eval_dir / "km_curves.csv").read_text().strip().split("\n")
    assert km[0] == "group,time,survival,at_risk,events"
    assert any(l.startswith("high_risk,") for l in km[1:])
    assert any(l.startswith("low_risk,") for l in km[1:])


def test_eval_repeats_writes_stability(tmp_path, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir), "--repeats", "5"]) == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert set(metrics["stability"].keys()) == {"0", "1"}
    for s in metrics["stability"].values():
        assert len(s["scores"]) == 5
        assert s["std"] >= 0.0
    assert "stability" in capsys.readouterr().out


@pytest.mark.parametrize("repeats", ["-1", "0"])
def test_eval_bad_repeats_exit_2_before_any_output(tmp_path, repeats):
    resolved, run_dir = _trained_run(tmp_path)
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir), "--repeats", repeats]) == 2
    assert not eval_dir.exists()


def test_eval_pinned_segment_deterministic(tmp_path):
    resolved, run_dir = _trained_run(tmp_path)
    outs = []
    for name in ("e1", "e2"):
        eval_dir = tmp_path / name
        assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                         "--checkpoint", str(run_dir), "--pin-segment", "1"]) == 0
        outs.append((eval_dir / "metrics.json").read_bytes())
    assert outs[0] == outs[1]


def test_eval_single_checkpoint_file(tmp_path):
    resolved, run_dir = _trained_run(tmp_path)
    eval_dir = tmp_path / "eval_one"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir / "fold0" / "checkpoint.json")]) == 0
    metrics = json.loads((eval_dir / "metrics.json").read_text())
    assert list(metrics["folds"].keys()) == ["0"]


def test_eval_missing_checkpoint_exit_code_4(tmp_path):
    resolved, _ = _trained_run(tmp_path)
    assert cli.main(["eval", "--config", str(resolved), "--out", str(tmp_path / "x"),
                     "--checkpoint", str(tmp_path / "nope.json")]) == 4


def test_eval_checkpoint_config_mismatch_exit_code_2(tmp_path):
    resolved, run_dir = _trained_run(tmp_path)
    cfg = load_config(resolved)
    other = dataclasses.replace(cfg, d1=16, d2=32, token_len_l1=4, token_len_l2=4)
    other_path = tmp_path / "other.json"
    save_config(other, other_path)
    assert cli.main(["eval", "--config", str(other_path), "--out", str(tmp_path / "y"),
                     "--checkpoint", str(run_dir)]) == 2


def test_eval_truncated_checkpoint_exit_2_naming_it(tmp_path, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    ckpt = run_dir / "fold1" / "checkpoint.json"
    ckpt.write_bytes(ckpt.read_bytes()[:500])
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir)]) == 2
    assert str(ckpt) in capsys.readouterr().err
    assert not eval_dir.exists()


def _edit_bridge(blob, key, value):
    blob["params"]["bridge"][key] = value
    return blob


@pytest.mark.parametrize("edit", [
    lambda blob: _edit_bridge(blob, "shape", 5),
    lambda blob: _edit_bridge(blob, "data", [[x] for x in blob["params"]["bridge"]["data"]]),
    lambda blob: _edit_bridge(blob, "data", [float("nan")] * len(blob["params"]["bridge"]["data"])),
    lambda blob: {**blob, "meta": [blob["meta"]]},
    lambda blob: _edit_bridge(blob, "data", [False, *blob["params"]["bridge"]["data"][1:]]),
], ids=["int_shape", "nested_data", "nan_data", "list_meta", "bool_in_data"])
def test_eval_malformed_checkpoint_entry_exit_2_naming_it(tmp_path, capsys, edit):
    # each edit of the format-v1 checkpoint of the same parameters
    resolved, run_dir = _trained_run(tmp_path)
    ckpt = run_dir / "fold1" / "checkpoint.json"
    ckpt.write_text(json.dumps(edit(checkpoint_as_v1(json.loads(ckpt.read_text())))))
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir)]) == 2
    assert str(ckpt) in capsys.readouterr().err
    assert not eval_dir.exists()


@pytest.mark.parametrize("fold", [None, [0], "0", 0.5, True, -1],
                         ids=["null", "list", "string", "float", "bool", "negative"])
def test_eval_checkpoint_fold_not_an_int_exit_2(tmp_path, capsys, fold):
    # a lone checkpoint over a manifest without folds scores every sample,
    # so no later check stands in for this one
    resolved, run_dir = _trained_run(tmp_path)
    blob = json.loads((run_dir / "fold0" / "checkpoint.json").read_text())
    ckpt = tmp_path / "checkpoint.json"
    ckpt.write_text(json.dumps({**blob, "meta": {**blob["meta"], "fold": fold}}))
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(ckpt)]) == 2
    assert str(ckpt) in capsys.readouterr().err
    assert not eval_dir.exists()


def test_eval_run_missing_a_fold_checkpoint_exit_2(tmp_path, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    (run_dir / "fold1" / "checkpoint.json").unlink()
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir)]) == 2
    err = capsys.readouterr().err
    assert str(run_dir / "folds.csv") in err and "fold1" in err and "fold0" not in err
    assert not eval_dir.exists()


@pytest.mark.parametrize("row", ["synth0000,0,extra", "synth0000", "synth0000,one",
                                 pytest.param("synth0000," + "0" * 131073, id="oversized_field")])
def test_eval_malformed_folds_csv_exit_2_naming_it(tmp_path, capsys, row):
    resolved, run_dir = _trained_run(tmp_path)
    folds = run_dir / "folds.csv"
    folds.write_text(folds.read_text() + row + "\n")
    eval_dir = tmp_path / "eval"
    for checkpoint in (run_dir, run_dir / "fold0" / "checkpoint.json"):
        assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                         "--checkpoint", str(checkpoint)]) == 2
        assert f"{folds}:14" in capsys.readouterr().err
        assert not eval_dir.exists()


@pytest.mark.parametrize("edit", ["copied", "no_fold"])
def test_eval_two_checkpoints_of_one_fold_exit_2_naming_both(tmp_path, capsys, edit):
    resolved, run_dir = _trained_run(tmp_path)
    first, second = (run_dir / f"fold{f}" / "checkpoint.json" for f in (0, 1))
    if edit == "copied":  # fold 0's checkpoint in fold1/
        second.write_bytes(first.read_bytes())
    else:  # neither names its fold, in a run without fold assignments: both read as fold 0
        (run_dir / "folds.csv").unlink()
        for ckpt in (first, second):
            blob = json.loads(ckpt.read_text())
            del blob["meta"]["fold"]
            ckpt.write_text(json.dumps(blob))
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"error: checkpoints {first} and {second} both hold fold 0\n"
    assert not eval_dir.exists()


def _drop_meta_fold(ckpt: Path, to: Path) -> Path:
    blob = json.loads(ckpt.read_text())
    del blob["meta"]["fold"]
    to.parent.mkdir(parents=True, exist_ok=True)
    to.write_text(json.dumps(blob))
    return to


def _with_fold_column(manifest: Path, folds: Path) -> None:
    """Adds the fold of each sample that `folds` assigns as the manifest's fold column."""
    by_id = {row[0]: row[1] for _, row in data.csv_rows(folds, ValueError)[1:]}
    header, *rows = [row for _, row in data.csv_rows(manifest, ValueError)]
    manifest.write_text(data.csv_text([header + ["fold"], *(row + [by_id[row[0]]] for row in rows)]))


def test_eval_checkpoint_without_meta_fold_exit_2_where_folds_are_assigned(tmp_path, capsys,
                                                                          monkeypatch):
    resolved, run_dir = _trained_run(tmp_path)
    eval_dir = tmp_path / "eval"
    ckpt = run_dir / "fold1" / "checkpoint.json"
    lone = _drop_meta_fold(ckpt, tmp_path / "lone" / "checkpoint.json")  # outside the run
    _drop_meta_fold(ckpt, ckpt)
    argv = ["eval", "--config", str(resolved), "--out", str(eval_dir), "--checkpoint"]
    # by the run's folds.csv: it held out half the samples, and trained on the rest
    capsys.readouterr()
    assert cli.main([*argv, str(ckpt)]) == 2
    assert capsys.readouterr().err == (
        f"error: {ckpt}: meta.fold is missing, so its held-out samples are unknown\n")
    assert not eval_dir.exists()
    # with no fold assignment anywhere, a checkpoint without meta.fold scores every sample
    _cores(monkeypatch, 1)
    n = len(load_samples(load_config(resolved).manifest))
    assert _count_encodes(monkeypatch, [*argv, str(lone)]) == [n, n]
    assert list(json.loads((eval_dir / "metrics.json").read_text())["folds"]) == ["0"]
    # by the manifest's fold column
    shutil.rmtree(eval_dir)
    _with_fold_column(Path(load_config(resolved).manifest), run_dir / "folds.csv")
    capsys.readouterr()
    assert cli.main([*argv, str(lone)]) == 2
    assert capsys.readouterr().err == (
        f"error: {lone}: meta.fold is missing, so its held-out samples are unknown\n")
    assert not eval_dir.exists()


def test_eval_ignores_directories_not_named_fold_and_a_number(tmp_path, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    eval_dir = tmp_path / "eval"
    outputs = []
    for copied in (False, True):
        if copied:  # a kept copy of fold 0, and one of fold 1 under another name
            shutil.copytree(run_dir / "fold0", run_dir / "fold0_old")
            shutil.copytree(run_dir / "fold1", run_dir / "fold_1")
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                         "--checkpoint", str(run_dir), "--repeats", "2"]) == 0
        outputs.append((_files(eval_dir), capsys.readouterr()))
    assert outputs[0] == outputs[1]


def test_checkpoint_paths_of_a_run_in_fold_order(tmp_path):
    for k in (*range(11), "0_old", "s", "x1"):
        (tmp_path / f"fold{k}").mkdir()
        (tmp_path / f"fold{k}" / "checkpoint.json").touch()
    assert cli._checkpoint_paths(str(tmp_path)) == [
        tmp_path / f"fold{k}" / "checkpoint.json" for k in range(11)]


def test_eval_folds_csv_without_the_fold_exit_2(tmp_path, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    folds = run_dir / "folds.csv"
    header, *rows = folds.read_text().splitlines()
    folds.write_text("\n".join([header, *("renamed-" + row for row in rows)]) + "\n")
    eval_dir = tmp_path / "eval"
    for checkpoint in (run_dir, run_dir / "fold0" / "checkpoint.json"):
        assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                         "--checkpoint", str(checkpoint)]) == 2
        assert f"fold 0: {folds} assigns no sample" in capsys.readouterr().err
        assert not eval_dir.exists()


def test_eval_stale_fold_checkpoint_exit_2_naming_it(tmp_path, capsys):
    # a 2-fold train into the directory of a 3-fold run leaves fold2/ behind
    resolved = _synth(tmp_path, k_folds=3)
    two_folds = tmp_path / "two_folds.json"
    save_config(dataclasses.replace(load_config(resolved), k_folds=2), two_folds)
    run_dir = tmp_path / "run"
    for config in (resolved, two_folds):
        assert cli.main(["train", "--config", str(config), "--out", str(run_dir)]) == 0
    stale = run_dir / "fold2" / "checkpoint.json"
    assert stale.exists()
    capsys.readouterr()
    eval_dir = tmp_path / "eval"
    for checkpoint in (run_dir, stale):
        assert cli.main(["eval", "--config", str(two_folds), "--out", str(eval_dir),
                         "--checkpoint", str(checkpoint)]) == 2
        assert capsys.readouterr().err == (f"error: {stale}: {run_dir / 'folds.csv'} has no fold 2, "
                                           "so the checkpoint is not from this run\n")
        assert not eval_dir.exists()


def _fault_fold1_checkpoint_removed_and_a_malformed_folds_row(resolved, run_dir):
    (run_dir / "fold1" / "checkpoint.json").unlink()
    folds = run_dir / "folds.csv"
    folds.write_text(folds.read_text() + "synth0000,one\n")
    return f"{folds}:14: expected 'sample_id,fold', got ['synth0000', 'one']"


def _fault_fold1_bad_shape_and_no_meta_fold(resolved, run_dir):
    ckpt = run_dir / "fold1" / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    del blob["meta"]["fold"]
    shape = blob["params"]["bridge"]["shape"]
    ckpt.write_text(json.dumps(_edit_bridge(blob, "shape", 5)))
    return f"{ckpt}: bridge has shape 5, config expects {shape}"


def _fold_sample(run_dir: Path, fold: str) -> str:
    return next(row[0] for _, row in data.csv_rows(run_dir / "folds.csv", ValueError)[1:]
                if row[1] == fold)


def _fault_fold0_stale_and_a_bad_fold1_feature_file(resolved, run_dir):
    ckpt = run_dir / "fold0" / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    ckpt.write_text(json.dumps({**blob, "meta": {**blob["meta"], "fold": 7}}))
    _feature_file(resolved, f"{_fold_sample(run_dir, '1')}_a.csv").write_bytes(b"")
    return f"{ckpt}: {run_dir / 'folds.csv'} has no fold 7, so the checkpoint is not from this run"


def _fault_fold0_copied_and_a_bad_fold0_feature_file(resolved, run_dir):
    (run_dir / "fold1" / "checkpoint.json").write_bytes(
        (run_dir / "fold0" / "checkpoint.json").read_bytes())
    sample = _fold_sample(run_dir, "0")
    bad = _feature_file(resolved, f"{sample}_a.csv")
    bad.write_bytes(b"")
    return f"{bad}: empty feature file for {sample}"


@pytest.mark.parametrize("fault", [
    _fault_fold1_checkpoint_removed_and_a_malformed_folds_row,
    _fault_fold1_bad_shape_and_no_meta_fold,
    _fault_fold0_stale_and_a_bad_fold1_feature_file,
    _fault_fold0_copied_and_a_bad_fold0_feature_file,
], ids=["malformed_folds_row_before_missing_fold", "checkpoint_shape_before_meta_fold",
        "lowest_checkpoint_first", "lane_error_before_duplicate_fold"])
def test_eval_of_a_run_with_two_faults_reports_the_first_check_in_order(tmp_path, capsys,
                                                                         fault):
    resolved, run_dir = _trained_run(tmp_path)
    expected = fault(resolved, run_dir)
    capsys.readouterr()
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"
    assert not eval_dir.exists()


def _desk_cohort(tmp_path) -> Path:
    """A 60-sample desk cohort in 2 folds, trained for 1 epoch: its resolved config."""
    cfg_path = tmp_path / "desk.json"
    save_config(dataclasses.replace(apply_desk_preset(RunConfig()), cohort=60, k_folds=2,
                                    epochs=1, seed=3), cfg_path)
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(tmp_path / "data")]) == 0
    return tmp_path / "data" / "config.json"


def test_eval_pinned_as_train_writes_trains_fold_metrics_bitwise(tmp_path):
    resolved = _desk_cohort(tmp_path)
    run_dir, eval_dir = tmp_path / "run", tmp_path / "eval"
    pin = ["--config", str(resolved), "--pin-segment", "2"]
    assert cli.main(["train", *pin, "--out", str(run_dir)]) == 0
    assert cli.main(["eval", *pin, "--out", str(eval_dir), "--checkpoint", str(run_dir)]) == 0
    trained, scored = (json.loads((d / "metrics.json").read_text())["folds"]
                       for d in (run_dir, eval_dir))
    assert scored == trained and set(scored) == {"0", "1"}


def test_eval_of_one_fold_checkpoint_writes_that_folds_entries_of_the_run_eval(tmp_path):
    resolved = _desk_cohort(tmp_path)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 0
    reports = {}
    for name, checkpoint in (("run", run_dir), *((str(k), run_dir / f"fold{k}" / "checkpoint.json")
                                                  for k in (0, 1))):
        out = tmp_path / f"eval_{name}"
        assert cli.main(["eval", "--config", str(resolved), "--out", str(out),
                         "--checkpoint", str(checkpoint), "--repeats", "2"]) == 0
        reports[name] = json.loads((out / "metrics.json").read_text())
    for k in ("0", "1"):
        for block in ("folds", "stability"):
            assert reports[k][block] == {k: reports["run"][block][k]}


def test_eval_reads_the_feature_files_of_the_samples_it_scores_once(tmp_path, monkeypatch):
    resolved, run_dir = _trained_run(tmp_path)
    _cores(monkeypatch, 1)  # the count is in-process; a forked lane's reads are not seen
    features = Path(load_config(resolved).manifest).parent / "features"
    fold0 = [row[0] for _, row in data.csv_rows(run_dir / "folds.csv", ValueError)[1:]
             if row[1] == "0"]
    opened = []
    real_open = open
    monkeypatch.setattr("builtins.open", lambda file, *a, **kw: opened.append(Path(file)) or
                        real_open(file, *a, **kw))
    for checkpoint, scored in ((run_dir, sorted(features.iterdir())),  # each sample once
                               (run_dir / "fold0" / "checkpoint.json",
                                sorted(features / f"{s}_{m}.csv" for s in fold0 for m in "ab"))):
        opened.clear()
        assert cli.main(["eval", "--config", str(resolved), "--out", str(tmp_path / "eval"),
                         "--checkpoint", str(checkpoint)]) == 0
        assert sorted(p for p in opened if p.parent == features) == scored


def _opened_inputs(monkeypatch, argv, code: int) -> collections.Counter:
    """How many times cli.main(argv), exiting with `code`, opened each file to read it."""
    opened = collections.Counter()
    real_open, read_bytes, read_text = open, Path.read_bytes, Path.read_text

    def counted(file, mode="r", *args, **kwargs):
        if not set(mode) & set("wxa+"):
            opened[Path(file)] += 1
        return real_open(file, mode, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr("builtins.open", counted)  # Path.read_* do not call builtins.open
        m.setattr(Path, "read_bytes", lambda self: opened.update([self]) or read_bytes(self))
        m.setattr(Path, "read_text",
                  lambda self, *a, **kw: opened.update([self]) or read_text(self, *a, **kw))
        assert cli.main(argv) == code
    return opened


@pytest.mark.parametrize("cohort", ["good", "last_file_bad"])
def test_each_command_opens_each_input_file_once(tmp_path, monkeypatch, cohort):
    resolved, run_dir = _trained_run(tmp_path)
    _cores(monkeypatch, 1)  # the count is in-process; a forked lane's opens are not seen
    manifest = Path(load_config(resolved).manifest)
    features = sorted((manifest.parent / "features").iterdir())
    code = 0
    if cohort == "last_file_bad":  # every file parses but the last in manifest order
        (manifest.parent / data.load_manifest(manifest)[-1].modality_b_file).write_text(
            "0.1,abc,0.3,0.4\n")
        code = 2
    for argv in (["train"], ["eval", "--checkpoint", str(run_dir), "--repeats", "2"],
                 ["analyze", "--checkpoint", str(run_dir)]):
        opened = _opened_inputs(monkeypatch, [*argv, "--config", str(resolved),
                                              "--out", str(tmp_path / argv[0])], code)
        assert max(opened.values()) == 1, (argv[0], opened.most_common(3))
        assert {resolved, manifest} <= set(opened)
        if argv[0] != "eval" or cohort == "good":  # eval stops at the fold that fails
            assert set(features) <= set(opened), argv[0]
        assert (run_dir / "folds.csv" in opened) == (argv[0] == "eval"), argv[0]
        if code:
            assert not (tmp_path / argv[0]).exists()


def _count_encodes(monkeypatch, argv) -> list[int]:
    """The number of bags of each encode_bag call."""
    calls = []
    encode_bag = hdmoe.model.encode_bag
    monkeypatch.setattr(hdmoe.model, "encode_bag",
                        lambda bags, *a: calls.append(len(bags)) or encode_bag(bags, *a))
    assert cli.main(argv) == 0
    return calls


def test_eval_and_analyze_encode_each_sample_once(tmp_path, monkeypatch):
    resolved, run_dir = _trained_run(tmp_path)
    _cores(monkeypatch, 1)  # the count is in-process; a forked lane's encodes are not seen
    n = len(load_samples(load_config(resolved).manifest))  # each is held out once
    # eval: one batch per checkpoint and modality; analyze: one per modality
    calls = _count_encodes(monkeypatch, [
        "eval", "--config", str(resolved), "--out", str(tmp_path / "eval"),
        "--checkpoint", str(run_dir), "--repeats", "3",
    ])
    assert len(calls) == 2 * len(list(run_dir.glob("fold*/checkpoint.json")))
    assert sum(calls) == 2 * n
    assert _count_encodes(monkeypatch, [
        "analyze", "--config", str(resolved), "--out", str(tmp_path / "analysis"),
        "--checkpoint", str(run_dir / "fold0" / "checkpoint.json"),
    ]) == [n, n]


# ---------------------------------------------------------------------------
# analyze


def test_analyze_outputs(tmp_path):
    resolved, run_dir = _trained_run(tmp_path)
    out_dir = tmp_path / "analysis"
    assert cli.main(["analyze", "--config", str(resolved), "--out", str(out_dir),
                     "--checkpoint", str(run_dir / "fold0" / "checkpoint.json")]) == 0
    for router in ("level1_a", "level1_b", "level2"):
        lines = (out_dir / f"histogram_{router}.csv").read_text().strip().split("\n")
        assert lines[0] == "expert,count"
        assert len(lines) == 1 + 2  # num_experts rows
    for modality in ("a", "b"):
        pre = np.loadtxt(out_dir / f"redundancy_{modality}_pre.csv", delimiter=",", ndmin=2)
        post = np.loadtxt(out_dir / f"redundancy_{modality}_post.csv", delimiter=",", ndmin=2)
        assert pre.shape == (2, 2) and post.shape == (2, 2)  # T1 x T1
    summary = (out_dir / "redundancy_summary.csv").read_text().strip().split("\n")
    assert summary[0] == "modality,delta"
    deltas = [float(l.split(",")[1]) for l in summary[1:]]
    assert all(np.isfinite(d) for d in deltas)


# ---------------------------------------------------------------------------
# crash-safe writes: a writer that fails leaves the old file or none, and no
# temp file. "serialize" fails before any byte is written; "write" fails
# halfway through the temp file; "replace" fails at its rename.

FAULTS = ["serialize", "write", "replace"]


class _HalfWrite:
    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text):
        self.fh.write(text[: len(text) // 2])
        self.fh.flush()
        raise OSError("injected write failure")


def _inject(monkeypatch, fault, name):
    """Make data.write_text fail for files called `name`; "serialize" is left
    to the caller, which hands the writer a value it cannot encode."""
    if fault == "write":
        def fake_open(file, mode="r", *args, **kwargs):
            fh = open(file, mode, *args, **kwargs)
            return _HalfWrite(fh) if Path(file).name.startswith(f".{name}.") else fh
        monkeypatch.setattr(data, "open", fake_open, raising=False)
    elif fault == "replace":
        real = os.replace

        def fake_replace(src, dst):
            if Path(dst).name == name:
                raise OSError("injected replace failure")
            real(src, dst)
        monkeypatch.setattr(os, "replace", fake_replace)


def _assert_old_or_none(tmp_path, target, old):
    assert (target.read_bytes() if target.exists() else None) == old
    assert not [p for p in tmp_path.rglob("*") if p.name.endswith(".tmp")]


def _save_checkpoint(path, note):
    params = init_params(dataclasses.replace(RunConfig(), **TINY_KW).model_config(),
                         np.random.default_rng(0))
    save_checkpoint(path, params, {"fold": 0, "note": note})


def _save_metrics(path, note):
    cli._write_metrics(path, {"0": {"cindex": 0.5, "logrank_p": None, "ttest_p": None}},
                       {"note": note})


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("name, save", [("fold0/checkpoint.json", _save_checkpoint),
                                        ("metrics.json", _save_metrics)],
                         ids=["checkpoint", "metrics"])
def test_failed_save_leaves_old_file_or_none(tmp_path, monkeypatch, name, save, fault, existing):
    target = tmp_path / "run" / name
    old = None
    if existing:
        save(target, "old")
        old = target.read_bytes()
    _inject(monkeypatch, fault, target.name)
    with pytest.raises(TypeError if fault == "serialize" else OSError):
        save(target, object() if fault == "serialize" else "new")
    _assert_old_or_none(tmp_path, target, old)


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("fault", FAULTS)
def test_failed_predictions_write_leaves_old_file_or_none(tmp_path, monkeypatch, fault, existing):
    resolved = _synth(tmp_path)
    run_dir = tmp_path / "run"
    argv = ["train", "--config", str(resolved), "--out", str(run_dir)]
    target = run_dir / "fold0" / "predictions.csv"
    old = None
    if existing:
        assert cli.main(argv) == 0
        old = target.read_bytes()
    _inject(monkeypatch, fault, target.name)
    if fault == "serialize":
        real = cli.predict_fold
        monkeypatch.setattr(cli, "predict_fold", lambda *a, **k: [
            dataclasses.replace(r, risk=object()) for r in real(*a, **k)])
        with pytest.raises(TypeError):
            cli.main(argv)
    else:
        assert cli.main(argv) == 4  # an OSError is an io error
    assert (run_dir / "fold0" / "checkpoint.json").exists()
    _assert_old_or_none(tmp_path, target, old)


def _sigterm_at_each_instruction(tmp_path, monkeypatch, fault, send):
    # SIGTERM, a KeyboardInterrupt here as in a fold lane, is sent by send() at
    # each bytecode instruction of write_text in turn, the clean-up after a failed
    # write or os.replace included: one that arrives there waits for the unlink,
    # and write_text itself raises it.
    target = tmp_path / "out.txt"
    _inject(monkeypatch, fault, target.name)
    seen = [0]

    def trace(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes = frame.f_code is data.write_text.__code__
            return trace if frame.f_trace_opcodes else None
        if event == "opcode":
            seen[0] += 1
            if seen[0] == send_at:
                send()
        return trace

    def write():
        seen[0] = 0
        target.unlink(missing_ok=True)
        sys.settrace(trace)
        try:
            data.write_text(target, "text")
        finally:
            sys.settrace(None)

    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    try:
        send_at = 0
        with pytest.raises(OSError) if fault else contextlib.nullcontext():
            write()
        opcodes = seen[0]
        assert opcodes > 10
        for send_at in range(1, opcodes + 1):
            with pytest.raises(KeyboardInterrupt) as raised:
                write()
                time.sleep(0.01)  # a signal still pending surfaces here, not from write_text
            frames = {frame.f_code for frame, _ in traceback.walk_tb(raised.tb)}
            assert data.write_text.__code__ in frames, send_at
            assert [p.name for p in tmp_path.iterdir()] in ([], [target.name]), send_at
    finally:
        signal.signal(signal.SIGTERM, previous)


@pytest.mark.parametrize("fault", [None, "write", "replace"])
def test_sigterm_at_any_point_of_a_write_leaves_no_temp_file(tmp_path, monkeypatch, fault):
    _sigterm_at_each_instruction(tmp_path, monkeypatch, fault,
                                 lambda: signal.pthread_kill(threading.get_ident(), signal.SIGTERM))


@pytest.mark.parametrize("fault", [None, "write", "replace"])
def test_sigterm_to_the_process_with_a_second_thread_leaves_no_temp_file(
        tmp_path, monkeypatch, fault):
    # Sent to the process, the signal may be taken by the other thread, and CPython
    # then runs the handler in this thread at its next check, whatever its mask.
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        _sigterm_at_each_instruction(tmp_path, monkeypatch, fault,
                                     lambda: os.kill(os.getpid(), signal.SIGTERM))
    finally:
        stop.set()
        other.join()


def test_cohort_write_swaps_the_signal_handlers_once(tmp_path, monkeypatch):
    records, truths = data.generate_synthetic(SynthConfig(cohort=3, d_in=2),
                                              np.random.default_rng(0))
    swaps = []
    real = signal.signal
    monkeypatch.setattr(signal, "signal", lambda sig, handler: swaps.append(sig) or real(sig, handler))
    write_dataset(tmp_path / "ds", records, truths)
    assert sorted(swaps) == sorted([signal.SIGINT, signal.SIGTERM] * 2)  # 8 files, one swap


@pytest.mark.parametrize("second_thread", [False, True])
def test_sigterm_between_two_handler_restorations_leaves_no_recorder(monkeypatch, second_thread):
    # SIGTERM goes to the process right after release() puts back SIGTERM's handler, a
    # raising one as in a fold lane, and before SIGINT's: SIGINT's must come back all the same.
    before = signal.getsignal(signal.SIGINT)
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    if second_thread:  # which may take the signal; its handler still runs in this thread
        other.start()
    hold, real, restored = data._SignalHold(), signal.signal, []

    def restore(sig, handler):
        old = real(sig, handler)
        if not restored:
            restored.append(sig)
            os.kill(os.getpid(), signal.SIGTERM)
        return old

    try:
        hold.start()
        monkeypatch.setattr(signal, "signal", restore)
        with pytest.raises(KeyboardInterrupt):
            hold.release()
            time.sleep(0.01)  # a signal still pending surfaces here
        monkeypatch.undo()
        assert restored == [signal.SIGTERM]
        assert signal.getsignal(signal.SIGINT) is before
        assert signal.getsignal(signal.SIGTERM) is signal.default_int_handler
    finally:
        monkeypatch.undo()
        signal.signal(signal.SIGINT, before)
        signal.signal(signal.SIGTERM, previous)
        stop.set()
        if second_thread:
            other.join()


def test_sigterm_to_the_process_during_a_cohort_write_leaves_no_temp_file_or_manifest(tmp_path):
    # SIGTERM (a KeyboardInterrupt here) goes to the process at each bytecode
    # instruction of write_dataset and of every write_text it calls, in turn, while
    # a second thread may take it. The files present must be the first ones of the
    # write order, the manifest last: every file begun before the signal, or all
    # but the one begun last. No temp file is left, and no manifest unless its own
    # write had begun.
    records, _ = data.generate_synthetic(SynthConfig(cohort=2, d_in=2), np.random.default_rng(0))
    traced = {data.write_dataset.__code__, data.write_text.__code__}
    seen, begun = [0], [0]

    def trace(frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes = frame.f_code in traced
            if frame.f_code is data.write_text.__code__ and seen[0] < send_at:
                begun[0] += 1
            return trace if frame.f_trace_opcodes else None
        if event == "opcode":
            seen[0] += 1
            if seen[0] == send_at:
                os.kill(os.getpid(), signal.SIGTERM)
        return trace

    def write(out):
        seen[0] = begun[0] = 0
        sys.settrace(trace)
        try:
            write_dataset(out, records)
        finally:
            sys.settrace(None)

    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    previous = signal.signal(signal.SIGTERM, signal.default_int_handler)
    sigint = signal.getsignal(signal.SIGINT)
    try:
        send_at = float("inf")
        write(tmp_path / "whole")
        order = [f"features/{r.sample_id}_{m}.csv" for r in records for m in "ab"]
        order.append("manifest.csv")
        assert seen[0] > 100 and begun[0] == len(order)
        for send_at in range(1, seen[0] + 1):
            out = tmp_path / str(send_at)
            with pytest.raises(KeyboardInterrupt) as raised:
                write(out)
                time.sleep(0.01)  # a signal still pending surfaces here, not from write_dataset
            frames = {frame.f_code for frame, _ in traceback.walk_tb(raised.tb)}
            assert data.write_dataset.__code__ in frames, send_at
            files = sorted(str(p.relative_to(out)) for p in out.rglob("*") if p.is_file())
            assert files == sorted(order[:len(files)]), send_at
            assert len(files) in (begun[0], begun[0] - 1), send_at
            assert signal.getsignal(signal.SIGTERM) is signal.default_int_handler
            assert signal.getsignal(signal.SIGINT) is sigint
    finally:
        signal.signal(signal.SIGTERM, previous)
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()


# ---------------------------------------------------------------------------
# fold lanes: train's folds run in forked processes, one per usable core


def _cores(monkeypatch, count: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _files(run_dir: Path) -> dict[str, bytes]:
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*"))
            if p.is_file()}


def test_train_two_lanes_write_the_bytes_of_one(tmp_path, monkeypatch, capsys):
    resolved = _synth(tmp_path)
    runs = {}
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        capsys.readouterr()
        run_dir = tmp_path / f"run{cores}"
        assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 0
        files = _files(run_dir)
        del files["config.json"]  # names out_dir
        runs[cores] = files, capsys.readouterr().out
    assert set(runs[2][0]) == {"folds.csv", "metrics.json", "predictions.csv",
                               *(f"fold{f}/{n}" for f in (0, 1)
                                 for n in ("checkpoint.json", "run_log.csv", "predictions.csv"))}
    assert runs[2] == runs[1]


@pytest.mark.parametrize("error, code, prefix", [
    (NumericsError("non-finite loss at fold 1 epoch 0 step 3"), 3, "numerical error"),
    (ConfigError("fold 1: something is off"), 2, "error"),
], ids=["numerics", "config"])
def test_train_error_in_a_forked_lane_keeps_its_exit_code_and_message(tmp_path, monkeypatch,
                                                                      capsys, error, code, prefix):
    resolved = _synth(tmp_path)
    _cores(monkeypatch, 2)
    train = cli.train_fold

    def train_fold(records, fid, *args):
        if fid == 1:  # the forked lane's fold
            raise error
        return train(records, fid, *args)

    monkeypatch.setattr(cli, "train_fold", train_fold)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == code
    assert capsys.readouterr().err == f"{prefix}: {error}\n"
    assert not (run_dir / "metrics.json").exists()


def test_train_lost_lane_exit_4_and_eval_reads_nothing_it_left(tmp_path, monkeypatch, capsys):
    resolved = _synth(tmp_path)
    _cores(monkeypatch, 2)
    replace = os.replace

    def killed_mid_write(src, dst):
        if Path(dst).parent.name == "fold1":  # only the forked lane writes fold 1
            os.kill(os.getpid(), signal.SIGKILL)
        replace(src, dst)

    monkeypatch.setattr(os, "replace", killed_mid_write)
    run_dir = tmp_path / "run"
    assert cli.main(["train", "--config", str(resolved), "--out", str(run_dir)]) == 4
    assert capsys.readouterr().err == (
        "io error: the lane of folds [1] ended without a result (signal SIGKILL)\n")
    monkeypatch.setattr(os, "replace", replace)
    assert not (run_dir / "metrics.json").exists()
    assert not (run_dir / "predictions.csv").exists()
    assert not (run_dir / "fold1" / "checkpoint.json").exists()
    assert [p.name[:17] for p in (run_dir / "fold1").iterdir()] == [".checkpoint.json."]
    # the temp file is never read: eval finds fold 1 missing and writes nothing
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--checkpoint", str(run_dir),
                     "--out", str(eval_dir)]) == 2
    assert "names folds with no checkpoint: fold1" in capsys.readouterr().err
    assert not eval_dir.exists()
    with pytest.raises(ChildProcessError):  # no forked lane is left unreaped
        os.waitpid(-1, os.WNOHANG)


def _eval_and_analyze(resolved, run_dir, out: Path) -> tuple[int, int]:
    """Exit codes of eval (--repeats 3) over run_dir and analyze of its fold 1."""
    return (cli.main(["eval", "--config", str(resolved), "--out", str(out / "eval"),
                      "--checkpoint", str(run_dir), "--repeats", "3"]),
            cli.main(["analyze", "--config", str(resolved), "--out", str(out / "analyze"),
                      "--checkpoint", str(run_dir / "fold1" / "checkpoint.json")]))


def test_eval_and_analyze_two_lanes_write_the_bytes_of_one(tmp_path, monkeypatch, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    runs = {}
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        capsys.readouterr()
        out = tmp_path / f"out{cores}"
        assert _eval_and_analyze(resolved, run_dir, out) == (0, 0)
        files = _files(out)
        del files["eval/config.json"], files["analyze/config.json"]  # name out_dir
        runs[cores] = files, capsys.readouterr().out.replace(str(out), "<out>")
    assert {"eval/metrics.json", "eval/km_curves.csv",
            "analyze/redundancy_summary.csv"} <= set(runs[2][0])
    assert runs[2] == runs[1]
    with pytest.raises(ChildProcessError):  # no forked lane is left unreaped
        os.waitpid(-1, os.WNOHANG)


def _lane_errors(monkeypatch, capsys, resolved, run_dir, out: Path) -> str:
    """stderr of eval and analyze, each failing with exit 2 and writing nothing, the same
    with one usable core and with two."""
    errors = {}
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        capsys.readouterr()
        assert _eval_and_analyze(resolved, run_dir, out) == (2, 2)
        assert not out.exists()
        errors[cores] = capsys.readouterr().err
    assert errors[2] == errors[1]  # eval's one line, then analyze's
    return errors[1]


def test_eval_and_analyze_error_in_a_forked_lane_keeps_its_exit_code_and_message(
        tmp_path, monkeypatch, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    # a feature file of a fold-1 sample: eval reads it in the forked lane alone
    sample = next(row[0] for _, row in data.csv_rows(run_dir / "folds.csv", ValueError)[1:]
                  if row[1] == "1")
    bad = _feature_file(resolved, f"{sample}_b.csv")
    good = bad.read_bytes()
    bad.write_text("0.1,abc,0.3,0.4\n")
    err = _lane_errors(monkeypatch, capsys, resolved, run_dir, tmp_path / "out")
    assert err.count(f"error: {bad}: bad feature file for {sample}:") == err.count("\n") == 2
    bad.write_bytes(good)
    ckpt = run_dir / "fold1" / "checkpoint.json"  # read by the forked lane alone
    ckpt.write_bytes(ckpt.read_bytes()[:500])
    err = _lane_errors(monkeypatch, capsys, resolved, run_dir, tmp_path / "out")
    assert err.count(f"error: {ckpt}: invalid JSON") == err.count("\n") == 2
    # the manifest, read in this process, fails first: its error is the one raised
    manifest = Path(load_config(resolved).manifest)
    manifest.write_text(manifest.read_text() + "broken\n")
    assert _eval_and_analyze(resolved, run_dir, tmp_path / "out") == (2, 2)
    assert capsys.readouterr().err.count(f"error: {manifest}:") == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_eval_lost_lane_exit_4_writing_nothing(tmp_path, monkeypatch, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    _cores(monkeypatch, 2)
    load = cli.load_checkpoint

    def killed_reading(path, *args):
        if path.parent.name == "fold1":  # only the forked lane reads fold 1
            os.kill(os.getpid(), signal.SIGKILL)
        return load(path, *args)

    monkeypatch.setattr(cli, "load_checkpoint", killed_reading)
    eval_dir = tmp_path / "eval"
    assert cli.main(["eval", "--config", str(resolved), "--out", str(eval_dir),
                     "--checkpoint", str(run_dir), "--repeats", "3"]) == 4
    assert capsys.readouterr().err == (
        f"io error: the lane of checkpoint {run_dir / 'fold1' / 'checkpoint.json'} "
        "ended without a result (signal SIGKILL)\n")
    assert not eval_dir.exists()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_analyze_forks_nothing_and_writes_the_bytes_of_one_core(tmp_path, monkeypatch, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("analyze forked"))
    runs = {}
    for cores in (2, 1):
        _cores(monkeypatch, cores)
        capsys.readouterr()
        out = tmp_path / f"analyze{cores}"
        assert cli.main(["analyze", "--config", str(resolved), "--out", str(out),
                         "--checkpoint", str(run_dir)]) == 0
        files = _files(out)
        del files["config.json"]  # names out_dir
        runs[cores] = files, capsys.readouterr().out.replace(str(out), "<out>")
    assert "redundancy_summary.csv" in runs[2][0]
    assert runs[2] == runs[1]


def test_analyze_reads_neither_folds_csv_nor_a_second_checkpoint(tmp_path, capsys):
    resolved, run_dir = _trained_run(tmp_path)
    out = tmp_path / "analysis"
    outputs = []
    for broken in (False, True):
        if broken:  # a malformed folds.csv, and no fold1/
            folds = run_dir / "folds.csv"
            folds.write_text(folds.read_text() + "synth0000,one\n")
            shutil.rmtree(run_dir / "fold1")
            shutil.rmtree(out)
        capsys.readouterr()
        assert cli.main(["analyze", "--config", str(resolved), "--out", str(out),
                         "--checkpoint", str(run_dir)]) == 0
        outputs.append((_files(out), capsys.readouterr()))
    assert outputs[0] == outputs[1]


def _processes_naming(marker: str) -> list[int]:
    pids = []
    for proc in Path("/proc").iterdir():
        try:
            if proc.name.isdigit() and marker.encode() in (proc / "cmdline").read_bytes():
                pids.append(int(proc.name))
        except OSError:  # ended meanwhile
            pass
    return pids


# A signal to the hdmoe process alone: a forked lane must not train on and write
# its fold<k>/ files into the run dir after the command has ended.
@pytest.mark.skipif(not Path("/proc/self/cmdline").exists(), reason="lists processes in /proc")
@pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["term", "kill"])
def test_train_signalled_leaves_no_lane_running_or_writing(tmp_path, sig):
    resolved = _synth(tmp_path, epochs=20000)  # minutes of training, stopped in its first epochs
    run_dir = tmp_path / "run"
    env = {"PATH": os.environ.get("PATH", ""), "HDMOE_LOG": "info",
           "PYTHONPATH": str(Path(hdmoe.__file__).resolve().parents[1])}
    code = ("import os, sys; os.sched_getaffinity = lambda pid: {0, 1}; "
            "from hdmoe import cli; sys.exit(cli.main(sys.argv[1:]))")
    log = tmp_path / "stderr.txt"
    with open(log, "w") as err:
        proc = subprocess.Popen([sys.executable, "-c", code, "train", "--config", str(resolved),
                                 "--out", str(run_dir)], env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
    try:
        deadline = time.monotonic() + 60
        while "fold 1 epoch 0 " not in log.read_text():  # the forked lane trains
            assert proc.poll() is None and time.monotonic() < deadline, log.read_text()
            time.sleep(0.02)
        proc.send_signal(sig)
        assert proc.wait(timeout=30) == -sig
        deadline = time.monotonic() + 5
        while _processes_naming(str(run_dir)):
            assert time.monotonic() < deadline, "a fold lane outlived hdmoe train"
            time.sleep(0.02)
    finally:
        proc.kill()
        for pid in _processes_naming(str(run_dir)):
            os.kill(pid, signal.SIGKILL)
    files = _files(run_dir)
    time.sleep(0.5)
    assert _files(run_dir) == files
    assert sorted(files) == ["config.json", "folds.csv"]


# ---------------------------------------------------------------------------
# package import

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_env_after_import(tmp_path, **preset) -> list[str]:
    # a clean child interpreter that finds the hdmoe this test imported
    env = {"PATH": os.environ.get("PATH", ""),
           "PYTHONPATH": str(Path(hdmoe.__file__).resolve().parents[1]), **preset}
    code = f"import os, hdmoe; print(*(os.environ[v] for v in {BLAS_VARS!r}))"
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, check=True)
    return proc.stdout.split()


def test_import_pins_blas_to_one_thread_unless_preset(tmp_path):
    assert _blas_env_after_import(tmp_path) == ["1", "1", "1"]
    assert _blas_env_after_import(tmp_path, OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
