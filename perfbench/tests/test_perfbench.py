"""Tests of the benchmark's tracing, output checks and metric list.

Run from the checkout root: python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hdmoe.config import RunConfig, apply_desk_preset  # noqa: E402
from hdmoe.evaluation import RiskTable, c_index  # noqa: E402

# bindings the package looks up under a module other than the defining one
IMPORTED_BINDINGS = {
    "trainer": ["forward", "lift_params", "optimizer_step", "survival_nll", "decouple_loss",
                "balance_loss", "total_loss"],
    "cli": ["train_fold", "predict_fold", "forward", "save_checkpoint", "load_checkpoint",
            "load_samples", "c_index", "expert_histogram", "km_estimate", "log_rank_p",
            "redundancy_score", "stability_report", "welch_t_test"],
    "model": ["encode_bag", "moe_forward", "rfr_forward", "lift_params"],
    "kernels": ["ffn_forward", "ffn_backward", "concordance_counts"],
    "autodiff": ["backward"],
    "evaluation": ["c_index"],
}

TINY = dataclasses.replace(
    apply_desk_preset(RunConfig()),
    cohort=24, bag_a=2, bag_b=2, epochs=2, k_folds=2, num_bins=2, seed=13,
)


def _snapshot():
    return {
        (mod.__name__, attr): value
        for mod in spans._package_modules()
        for attr, value in vars(mod).items()
    }


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Train and eval+analyze on a tiny cohort, once plain and once traced."""
    root = tmp_path_factory.mktemp("tiny")
    (root / "inputs").mkdir()
    train, evaluate = workloads.TrainWorkload(TINY, pool=1), workloads.EvalWorkload(TINY, pool=1)
    configs = evaluate.prepare(root / "inputs", seed=5)
    before = _snapshot()
    tracer = spans.Tracer()
    runs = {}
    for label, call in (("plain", lambda op: op()), ("traced", tracer.measure)):
        out = root / label
        rc_train = call(lambda: train.run(configs, out / "train"))
        rc_eval = call(lambda: evaluate.run(configs, out / "eval"))
        runs[label] = (
            train.check(rc_train, out / "train"),
            evaluate.check(rc_eval, out / "eval"),
        )
    return runs, tracer, before


def test_traced_and_plain_artifacts_are_byte_identical(tiny_runs):
    runs, _, _ = tiny_runs
    for plain, traced in zip(runs["plain"], runs["traced"]):
        assert plain.errors == [] and traced.errors == []
        assert plain.digest == traced.digest


def test_every_binding_is_patched_and_restored(tiny_runs):
    _, _, before = tiny_runs
    assert _same(_snapshot(), before)
    with spans.Tracer().installed():
        for module, names in IMPORTED_BINDINGS.items():
            mod = sys.modules[f"hdmoe.{module}"]
            for name in names:
                assert hasattr(getattr(mod, name), "__wrapped__"), f"{module}.{name} not patched"
        patched = _snapshot()
    assert _same(_snapshot(), before)
    changed = {key for key in before if patched[key] is not before[key]}
    expected = {
        (mod.__name__, attr)
        for name in spans.TRACED
        for mod, attr in spans.bindings(getattr(sys.modules[f"hdmoe.{name.split('.')[0]}"], name.split(".")[1]))
    }
    assert changed == expected


def test_self_times_and_remainder_add_up_to_traced_wall(tiny_runs):
    _, tracer, _ = tiny_runs
    self_total = sum(s.self_s for s in tracer.stats.values())
    assert tracer.wall_s > 0
    assert self_total + tracer.remainder_s == pytest.approx(tracer.wall_s, rel=1e-12, abs=1e-12)
    assert tracer.remainder_s >= 0
    assert all(s.self_s >= 0 and s.calls >= 0 for s in tracer.stats.values())
    for name in ("trainer.train_fold", "trainer.optimizer_step", "model.forward",
                 "evaluation.stability_report", "model.load_checkpoint", "data.load_samples"):
        assert tracer.stats[name].calls > 0, name


def test_failed_command_is_reported(tmp_path):
    (tmp_path / "inputs").mkdir()
    train = workloads.TrainWorkload(TINY, pool=1)
    configs = train.prepare(tmp_path / "inputs", seed=5)
    cfg = json.loads(configs[0].read_text())
    cfg["manifest"] = str(tmp_path / "missing.csv")
    configs[0].write_text(json.dumps(cfg))
    result = train.run(configs, tmp_path / "out")
    assert result[1] != 0
    with pytest.raises(OSError):
        train.check(result, tmp_path / "out")


def test_brute_force_count_matches_c_index_on_tied_tables():
    rng = np.random.default_rng(3)
    for n in (2, 7, 60, 300):
        table = workloads.make_table(rng, n)
        if not (table.events == 1).any():
            continue
        assert workloads.brute_force_cindex(table) == c_index(table)
    flipped = RiskTable(risks=np.array([1.0, 2.0, 2.0]), times=np.array([1.0, 2.0, 3.0]),
                        events=np.array([1, 1, 0]))
    assert workloads.brute_force_cindex(flipped) == c_index(flipped) == 0.5 / 3


def test_stats_check_flags_a_wrong_c_index():
    stats = workloads.StatsWorkload(n=200, pool=2)
    tables = stats.prepare(None, seed=1)
    index, table, scores = stats.run(tables, None)
    assert stats.check((index, table, scores), None).errors == []
    wrong = (scores[0] + 1e-12,) + scores[1:]
    assert stats.check((index, table, wrong), None).errors


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_pool_cycles_its_cohorts_and_keys_outputs_by_cohort(tmp_path):
    train = workloads.TrainWorkload(TINY, pool=3)
    configs = train.prepare(tmp_path, seed=5)
    assert len({train.inputs_digest([c]) for c in configs}) == 3
    results = [train.run(configs, tmp_path / f"op{i}") for i in range(4)]
    assert [index for index, _ in results] == [0, 1, 2, 0]
    outcomes = [train.check(r, tmp_path / f"op{i}") for i, r in enumerate(results)]
    assert all(o.errors == [] for o in outcomes)
    assert [o.key for o in outcomes] == ["0", "1", "2", "0"]
    assert outcomes[0].digest == outcomes[3].digest != outcomes[1].digest


def test_idle_host_time_cancels_a_host_slowdown():
    walls, refs = [0.5, 0.5, 1.0, 1.0, 0.9], [0.01, 0.01, 0.02, 0.02, 0.01]
    assert run.idle_host_time(walls, refs, ref_s=0.01) == pytest.approx(0.5)


def test_calibration_loop_runs_no_program_code():
    import hostspeed

    assert not any(getattr(v, "__name__", "").startswith("hdmoe") for v in vars(hostspeed).values())
    assert 0.0 < hostspeed.calibrate() < 1.0
