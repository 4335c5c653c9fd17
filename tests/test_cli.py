import csv
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hdmoe
from hdmoe import cli, data
from hdmoe.config import RunConfig, apply_desk_preset, load_config, save_config
from hdmoe.data import SynthConfig, load_samples, write_dataset
from hdmoe.errors import ConfigError
from hdmoe.model import ModelConfig, init_params, save_checkpoint
from hdmoe.trainer import TrainConfig

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
    ],
    ids=["token_len_l1", "distance_metric", "k_folds", "top_k"],
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
    resolved, run_dir = _trained_run(tmp_path)
    ckpt = run_dir / "fold1" / "checkpoint.json"
    ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))))
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


@pytest.mark.parametrize("row", ["synth0000,0,extra", "synth0000", "synth0000,one"])
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
