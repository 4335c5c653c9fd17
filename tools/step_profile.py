"""Median times of the three units of work, written to BENCH_<label>.json.

- One training step at the desk preset and at the published full scale,
  split into its stages: parameter lift; the forward as ``encode`` (bag
  encoders and level-1 MoEs) and ``fuse`` (fusion, bridge, level-2 MoE,
  head); the survival, decouple and balance loss terms and the total that
  sums them; backward and optimizer; and the tape nodes a step records (the leaves and ops that
  ``backward`` walks from the total loss), medians over the timed steps.
  A second run of as many steps times each backward rule and reports the
  median time per step of each rule kind, keyed by the function that
  defines the rule (``moe.moe_forward``, ``autodiff.matmul``, ...).
  As in ``train_fold``, the parameters are one flat vector lifted once
  before the steps, so the "lift" stage of a step is zeroing the flat
  gradient plus the finiteness check of the flat parameters (BENCH_0 to
  BENCH_7 re-lifted every array per step there).
- The no-grad forward at both scales, with the parameters lifted once, as
  ms per sample: a one-sample batch (the figure BENCH_0 to BENCH_11 report
  per forward) and a batch of 60 samples in one call.
- The no-grad diagnostics at both scales: one lift, the level-1 ``encode``
  of the profile's cohort and ``stability_report`` with R = 5 repeats over
  it, each repeat one batched ``fuse`` (lift and encode included, so the
  figures compare with BENCH_2 to BENCH_5); and level-1
  ``redundancy_score`` (modality a) over that cohort's encoded outputs,
  which is the correlation pass alone.
- The survival metrics ``c_index``, ``km_estimate``, ``log_rank_p`` and
  ``welch_t_test`` on risk tables of n = 30, 200 and 2000 samples with heavy
  ties (keys ``"30"``, ``"200"``, ``"2000"``) and on untied tables of the same
  sizes, with continuous times and risks (keys ``"untied/30"`` ...; the
  c-index counts the first kind on its grid and the second by its levels),
  and the whole metric pass over each table (``metric_pass``): c-index,
  median split, log-rank and Welch t as ``cli._fold_metrics`` runs them, then
  a KM curve per half as ``cmd_eval`` does. ``metrics_ms`` holds the median
  of back-to-back calls; ``metrics_norm_ms`` times each call again right after
  one ``hostspeed.calibrate()`` loop and holds the median of call / loop
  times the loop's idle-host time ``REF_S``, as ``perfbench`` normalises an
  operation, so it follows the host call by call. Each such call starts with
  the caches the loop left, as a ``perfbench`` operation does, so it reads
  higher than the back-to-back median.
- ``save_checkpoint`` and ``load_checkpoint`` of the trained parameters at
  both scales, through a temporary directory.
- ``load_samples`` of a desk cohort of 60 samples (120 feature files of
  6 x 32 values), written once to a temporary directory.
- ``hdmoe train`` end to end (``cli.main``, stdout silenced) with the desk
  preset and one epoch, on generated cohorts of 60 samples in 2 folds (the
  benchmark's ``train_desk`` shape) and of 200 samples in 5 folds (the
  acceptance cohort's), with the fold lanes it ran: one per usable core, at
  most one per fold, where the package has ``trainer.map_folds``, else 1.
- ``hdmoe eval --repeats 5`` plus ``hdmoe analyze`` end to end on the
  checkpoints of the 60-sample train (the benchmark's ``eval_desk`` pair),
  the median of their sum and of each command alone (``eval_ms`` keys
  ``60x2``, ``60x2/eval`` and ``60x2/analyze``; BENCH_22 and earlier hold the
  sum alone), with the lanes each command ran, counted as 1 + the processes it forked:
  ``eval`` one per checkpoint and usable core; ``analyze`` reads the first
  checkpoint (``fold0``) in-process, 1 lane (BENCH_19 to BENCH_21 count 2,
  from when it read that checkpoint in a forked lane beside the cohort).

Right before each section it times, the profile runs ``perfbench/hostspeed.py``'s
``calibrate()`` loop HOST_LOOPS times and records their median under ``host_ms``:
``desk`` and ``full`` before each scale's blocks (step, tape, rules, forward,
stability, redundancy, checkpoint), ``load_samples`` before ``load_samples_ms``,
``metrics`` before ``metrics_ms`` and ``train`` before ``train_ms`` and ``eval_ms``.
The loop runs none of the package's code, so it says how fast the shared host ran
then. Compare two BENCH files by each figure divided by the ``host_ms`` of its
section, not by the raw figures: a slow spell of the host that lands on one run
alone slows that run's figures and its ``host_ms`` alike.

The package is imported from ``--src`` (default: this checkout's src) before
numpy, as the ``hdmoe`` command does, so the BLAS thread environment the
package leaves is the one measured; the file records it. To compare two
commits on the same machine:

    git archive <parent> | tar -x -C /tmp/parent
    python tools/step_profile.py --label 0 --src /tmp/parent/src
    python tools/step_profile.py --label 1

Each run writes BENCH_<label>.json at the root of this checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("lift", "encode", "fuse", "survival", "decouple", "balance", "total", "backward",
          "optimizer")
STEPS = {"desk": (10, 100), "full": (5, 30)}  # (warm-up, timed) steps per scale
FORWARDS = 60  # one-sample forwards timed, and the samples of the batched forward
REPEATS = 5  # stability repeats per stability_report call
REPEATER_CALLS = 10
METRIC_SIZES = (30, 200, 2000)
METRIC_REPEATS = 30
COHORT = 8
CHECKPOINT_CALLS = 5
READER_CALLS = 20
TRAIN_COHORTS = ((60, 2), (200, 5))  # (samples, folds), one epoch each
TRAIN_CALLS = 5
EVAL_COHORT = (60, 2)  # the train cohort whose checkpoints eval reads (analyze: fold0's)
EVAL_CALLS = 20
HOST_LOOPS = 5  # hostspeed.calibrate() loops before each section


def _ms(seconds: list[float]) -> float:
    return round(statistics.median(seconds) * 1e3, 4)


def _median_ms(call, repeats: int) -> float:
    """Median time of call() over repeats calls, after one warm-up call."""
    call()
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        samples.append(time.perf_counter() - t0)
    return _ms(samples)


def _hostspeed():
    """perfbench's hostspeed module, imported from this checkout's perfbench/
    (after the package: hostspeed imports numpy)."""
    if str(ROOT / "perfbench") not in sys.path:
        sys.path.append(str(ROOT / "perfbench"))
    import hostspeed

    return hostspeed


def host_ms() -> float:
    """Median ms of HOST_LOOPS runs of perfbench's host calibration loop."""
    return _ms([_hostspeed().calibrate() for _ in range(HOST_LOOPS)])


def _normalised_ms(call, repeats: int) -> float:
    """Median over repeats calls, after one warm-up call, of call()'s time divided
    by that of the calibration loop run right before it, times the loop's idle-host
    time: call()'s ms on an idle host."""
    hostspeed = _hostspeed()
    call()
    ratios = []
    for _ in range(repeats):
        loop = hostspeed.calibrate()
        t0 = time.perf_counter()
        call()
        ratios.append((time.perf_counter() - t0) / loop)
    return round(statistics.median(ratios) * hostspeed.REF_S * 1e3, 4)


def _records(model_cfg):
    import numpy as np

    import hdmoe as hd

    rng = np.random.default_rng(0)
    synth = dataclasses.replace(hd.SynthConfig(), cohort=COHORT, d_in=model_cfg.d_in)
    records, _ = hd.generate_synthetic(synth, rng)
    edges = hd.compute_bin_edges(records, model_cfg.num_bins)
    return records, [hd.assign_bin(r.time_months, edges) for r in records]


def tape_nodes(root) -> tuple[int, int]:
    """(leaves, ops) among the nodes that backward(root) walks."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    leaves = sum(1 for node in seen.values() if not node.parents)
    return leaves, len(seen) - leaves


def rule_kind(rule) -> str:
    """The function a backward rule is defined in, as module.function."""
    return f"{rule.__module__.rpartition('.')[2]}.{rule.__qualname__.split('.<locals>')[0]}"


def timed_backward(root) -> dict[str, float]:
    """backward(root), and the seconds it spent in each kind of rule."""
    from hdmoe import autodiff as ad

    spent: dict[str, float] = {}

    def timed(rule, kind):
        def run(g):
            t0 = time.perf_counter()
            rule(g)
            spent[kind] = spent.get(kind, 0.0) + time.perf_counter() - t0
        return run

    seen, stack = {id(root)}, [root]
    while stack:
        node = stack.pop()
        if node.backward_rule is not None:
            node.backward_rule = timed(node.backward_rule, rule_kind(node.backward_rule))
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    ad.backward(root)
    return spent


def profile_scale(model_cfg, scale: str) -> tuple[dict, dict, dict, dict, dict, dict]:
    import numpy as np

    from hdmoe import autodiff as ad
    from hdmoe import evaluation, losses, model, trainer
    from hdmoe.errors import NumericsError

    records, labels = _records(model_cfg)
    train_cfg = trainer.TrainConfig()
    # as train_fold does: one lift per fold, leaves viewing the flat parameter
    # vector and accumulating into views of the flat gradient
    flat, params = model.flatten_params(model.init_params(model_cfg, np.random.default_rng(1)))
    state = trainer.OptimizerState(*np.zeros((3, flat.size)))
    lifted = model.lift_params(params, requires_grad=True)
    grads = dict(model.named_params(model.param_views(params, state.grad)))
    for path, node in model.named_params(lifted):
        node.grad = grads[path]
    rng = np.random.default_rng(2)
    warm, timed = STEPS[scale]
    times = {stage: [] for stage in (*STAGES, "step")}
    nodes_per_step = {"leaves": [], "ops": []}
    rules = []  # per step of the second run: seconds per rule kind
    for i in range(warm + 2 * timed):
        sample, label = records[i % len(records)], labels[i % len(records)]
        t = [time.perf_counter()]
        state.grad.fill(0.0)
        t.append(time.perf_counter())
        level1 = model.encode([sample], lifted, model_cfg)
        t.append(time.perf_counter())
        res = model.fuse(level1, lifted, model_cfg, rng)
        t.append(time.perf_counter())
        surv = losses.survival_nll(res.hazards, label, sample.censored)
        t.append(time.perf_counter())
        dm = losses.decouple_loss(res, train_cfg.distance_metric)
        t.append(time.perf_counter())
        bl = losses.balance_loss(res.traces)
        t.append(time.perf_counter())
        total = losses.total_loss(surv, dm, bl, train_cfg.alpha, train_cfg.beta)
        t.append(time.perf_counter())
        if i < warm + timed:
            ad.backward(total)
        else:
            rules.append(timed_backward(total))
        t.append(time.perf_counter())
        trainer.optimizer_step(flat, grads, state, train_cfg)
        t.append(time.perf_counter())
        if not np.isfinite(flat).all():
            raise NumericsError(f"non-finite parameters after step {i}")
        t.append(time.perf_counter())
        if warm <= i < warm + timed:
            spans = [b - a for a, b in zip(t[:-1], t[1:])]
            spans[0] += spans.pop()  # the lift: zero the gradient, check finiteness
            for stage, dt in zip(STAGES, spans):
                times[stage].append(dt)
            times["step"].append(t[-1] - t[0])
            for kind, count in zip(("leaves", "ops"), tape_nodes(total)):
                nodes_per_step[kind].append(count)

    lifted = model.lift_params(params, requires_grad=False)
    batch = [records[i % len(records)] for i in range(FORWARDS)]
    single = []
    for sample in batch:
        t0 = time.perf_counter()
        model.forward([sample], lifted, model_cfg, rng)
        single.append(time.perf_counter() - t0)
    batched = _median_ms(lambda: model.forward(batch, lifted, model_cfg, rng), REPEATER_CALLS)
    nograd = {"1": _ms(single), str(FORWARDS): round(batched / FORWARDS, 4)}

    table = evaluation.RiskTable(  # as eval's scoring pass gives it; stability reads no risk
        risks=np.zeros(len(records)), times=np.array([r.time_months for r in records]),
        events=np.array([1 - r.censored for r in records]))

    def stability():
        lifted = model.lift_params(params, requires_grad=False)
        level1 = model.encode(records, lifted, model_cfg)
        evaluation.stability_report(level1, lifted, model_cfg, table, REPEATS, rng)

    outputs_a = model.encode(records, lifted, model_cfg)[0]
    repeaters = {
        "stability": _median_ms(stability, REPEATER_CALLS),
        "redundancy": _median_ms(lambda: evaluation.redundancy_score(outputs_a), REPEATER_CALLS),
    }
    with tempfile.TemporaryDirectory(prefix="hdmoe-profile-") as tmp:
        path = Path(tmp) / "checkpoint.json"
        checkpoint = {
            "save": _median_ms(lambda: model.save_checkpoint(path, params, {"fold": 0}),
                               CHECKPOINT_CALLS),
            "load": _median_ms(lambda: model.load_checkpoint(path, model_cfg), CHECKPOINT_CALLS),
            "mb": round(path.stat().st_size / 1e6, 3),
        }
    nodes = {kind: statistics.median(v) for kind, v in nodes_per_step.items()}
    kinds = sorted({kind for step in rules for kind in step})
    rule_ms = {kind: _ms([step.get(kind, 0.0) for step in rules]) for kind in kinds}
    return ({stage: _ms(v) for stage, v in times.items()}, nodes, rule_ms, nograd, repeaters,
            checkpoint)


def profile_reader() -> float:
    import numpy as np

    import hdmoe as hd

    synth = dataclasses.replace(hd.apply_desk_preset(hd.RunConfig()).synth_config(),
                                cohort=FORWARDS)
    records, _ = hd.generate_synthetic(synth, np.random.default_rng(4))
    with tempfile.TemporaryDirectory(prefix="hdmoe-profile-") as tmp:
        manifest = hd.write_dataset(tmp, records)
        return _median_ms(lambda: hd.load_samples(manifest), READER_CALLS)


def _lanes(call) -> int:
    """1 + the processes that call() forks."""
    forks, fork = [], os.fork
    os.fork = lambda: forks.append(1) or fork()
    try:
        call()
    finally:
        os.fork = fork
    return 1 + len(forks)


def profile_train() -> tuple[dict, dict, dict, dict]:
    """({"<samples>x<folds>": median ms of one train}, {same keys: lanes}, and for
    EVAL_COHORT {key: median ms of eval plus analyze, "<key>/eval" and "<key>/analyze":
    median ms of each}, {key: {command: lanes}})."""
    import contextlib
    import io

    import numpy as np

    import hdmoe as hd
    from hdmoe import cli, trainer

    times, lanes, eval_times, eval_lanes = {}, {}, {}, {}
    with tempfile.TemporaryDirectory(prefix="hdmoe-profile-") as tmp:
        for cohort, folds in TRAIN_COHORTS:
            cfg = dataclasses.replace(hd.apply_desk_preset(hd.RunConfig()), cohort=cohort,
                                      k_folds=folds, epochs=1, redundancy=0.5, seed=7)
            records, _ = hd.generate_synthetic(cfg.synth_config(),
                                               np.random.default_rng([5, cohort]))
            base = Path(tmp) / f"cohort{cohort}"
            manifest = hd.write_dataset(base / "data", records)
            config = base / "config.json"
            hd.save_config(dataclasses.replace(cfg, manifest=str(manifest)), config)
            run = str(base / "run")

            def hdmoe(*argv):
                with contextlib.redirect_stdout(io.StringIO()):
                    if cli.main(list(argv)) != 0:
                        raise RuntimeError(f"hdmoe {' '.join(argv)} failed")

            key = f"{cohort}x{folds}"
            times[key] = _median_ms(lambda: hdmoe("train", "--config", str(config), "--out", run),
                                    TRAIN_CALLS)
            forks = hasattr(trainer, "map_folds")
            lanes[key] = min(folds, len(os.sched_getaffinity(0))) if forks else 1
            if (cohort, folds) != EVAL_COHORT:
                continue
            commands = {
                "eval": lambda: hdmoe("eval", "--config", str(config), "--checkpoint", run,
                                      "--out", str(base / "eval"), "--repeats", str(REPEATS)),
                "analyze": lambda: hdmoe("analyze", "--config", str(config), "--checkpoint", run,
                                         "--out", str(base / "analyze")),
            }
            walls = {name: [] for name in commands}
            for _ in range(EVAL_CALLS + 1):
                for name, command in commands.items():
                    t0 = time.perf_counter()
                    command()
                    walls[name].append(time.perf_counter() - t0)
            walls = {name: w[1:] for name, w in walls.items()}  # each one's first is a warm-up
            eval_times[key] = _ms([sum(pair) for pair in zip(*walls.values())])
            eval_times.update({f"{key}/{name}": _ms(w) for name, w in walls.items()})
            eval_lanes[key] = {name: _lanes(c) for name, c in commands.items()}
    return times, lanes, eval_times, eval_lanes


def tied_table(rng, n: int, decimals: int | None = 1):
    """Times on a 0.1-month grid, about 40% censored, risks rounded to one
    decimal; the tables of the benchmark's stats workload. With decimals None
    nothing is rounded, so no two times or risks are equal."""
    import numpy as np

    z = rng.normal(size=n)
    event_time = rng.exponential(12.0 * np.exp(-0.8 * z))
    censor_time = rng.uniform(0.0, 27.0, size=n)
    times = np.minimum(event_time, censor_time)
    events = (event_time <= censor_time).astype(np.int64)
    risks = z + rng.normal(scale=0.5, size=n)
    if decimals is None:
        return risks, times, events
    return np.round(risks, decimals), np.round(times, decimals), events


def metric_pass(table) -> None:
    """The survival statistics of one risk table as ``cli._fold_metrics`` (c-index,
    median split, log-rank, Welch t) and then ``cmd_eval`` (a KM curve per half)
    compute them."""
    from hdmoe import cli
    from hdmoe import evaluation as ev

    cli._fold_metrics(table)
    high, low = cli._median_split(table)
    ev.km_estimate(table.times[high], table.events[high])
    ev.km_estimate(table.times[low], table.events[low])


def profile_metrics() -> tuple[dict, dict]:
    """({metric: {table key: median ms}}, the same keys: normalised ms)."""
    import numpy as np

    from hdmoe import evaluation as ev

    names = ("c_index", "km_estimate", "log_rank_p", "welch_t_test", "metric_pass")
    raw, norm = {name: {} for name in names}, {name: {} for name in names}
    # one generator per kind, so the tied tables are those of earlier BENCH files
    kinds = (("", np.random.default_rng(3), 1), ("untied/", np.random.default_rng(6), None))
    for prefix, rng, decimals in kinds:
        for n in METRIC_SIZES:
            risks, times, events = tied_table(rng, n, decimals)
            table = ev.RiskTable(risks=risks, times=times, events=events)
            high = risks > np.median(risks)
            calls = {
                "c_index": lambda: ev.c_index(table),
                "km_estimate": lambda: ev.km_estimate(times, events),
                "log_rank_p": lambda: ev.log_rank_p(
                    times[high], events[high], times[~high], events[~high]),
                "welch_t_test": lambda: ev.welch_t_test(risks[high], risks[~high]),
                "metric_pass": lambda: metric_pass(table),
            }
            for name, call in calls.items():
                raw[name][f"{prefix}{n}"] = _median_ms(call, METRIC_REPEATS)
                norm[name][f"{prefix}{n}"] = _normalised_ms(call, METRIC_REPEATS)
    return raw, norm


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the hdmoe package (default: this checkout's src)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve()))
    # hdmoe before numpy, as the hdmoe command imports them: numpy reads the
    # BLAS thread variables when it loads; every function imports them lazily
    import hdmoe as hd
    import numpy as np

    desk_cfg = hd.apply_desk_preset(hd.RunConfig()).model_config()
    host = {"desk": host_ms()}
    step_desk, nodes_desk, rules_desk, nograd_desk, rep_desk, ckpt_desk = profile_scale(
        desk_cfg, "desk")
    host["full"] = host_ms()
    step_full, nodes_full, rules_full, nograd_full, rep_full, ckpt_full = profile_scale(
        hd.ModelConfig(), "full")
    host["train"] = host_ms()
    train_ms, train_lanes, eval_ms, eval_lanes = profile_train()
    host["load_samples"] = host_ms()
    reader_ms = profile_reader()
    host["metrics"] = host_ms()
    metrics_ms, metrics_norm_ms = profile_metrics()
    report = {
        "label": args.label,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "usable_cores": len(os.sched_getaffinity(0)),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        },
        "unit": "ms, median",
        "samples": {"step": {k: v[1] for k, v in STEPS.items()}, "nograd_forward": FORWARDS,
                    "repeaters": REPEATER_CALLS, "metrics": METRIC_REPEATS,
                    "checkpoint": CHECKPOINT_CALLS, "load_samples": READER_CALLS,
                    "train": TRAIN_CALLS, "eval": EVAL_CALLS, "host": HOST_LOOPS},
        "cohort": COHORT,
        "stability_repeats": REPEATS,
        "step_ms": {"desk": step_desk, "full": step_full},
        "tape_nodes_per_step": {"desk": nodes_desk, "full": nodes_full},
        "backward_rule_ms_per_step": {"desk": rules_desk, "full": rules_full},
        "nograd_forward_ms_per_sample": {"desk": nograd_desk, "full": nograd_full},
        "stability_ms": {"desk": rep_desk["stability"], "full": rep_full["stability"]},
        "redundancy_ms": {"desk": rep_desk["redundancy"], "full": rep_full["redundancy"]},
        "checkpoint_ms": {"desk": {k: ckpt_desk[k] for k in ("save", "load")},
                          "full": {k: ckpt_full[k] for k in ("save", "load")}},
        "checkpoint_mb": {"desk": ckpt_desk["mb"], "full": ckpt_full["mb"]},
        "load_samples_ms": {"desk": reader_ms},
        "metrics_ms": metrics_ms,
        "metrics_norm_ms": metrics_norm_ms,
        "train_ms": train_ms,
        "train_lanes": train_lanes,
        "eval_ms": eval_ms,
        "eval_lanes": eval_lanes,
        "host_ms": host,
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
