"""Median times of the three units of work, written to BENCH_<label>.json.

- One training step at the desk preset and at the published full scale,
  split into its stages: parameter lift; the forward as ``encode`` (bag
  encoders and level-1 MoEs) and ``fuse`` (fusion, bridge, level-2 MoE,
  head); the survival, decouple and balance loss terms and the total that
  sums them; backward and optimizer; and the tape nodes a step records (the
  leaves and ops that ``backward`` walks from the total loss). A second run
  of as many steps times each backward rule, per step and rule kind, keyed by
  the function that defines the rule (``moe.moe_forward``, ...). As in
  ``train_fold``, the parameters are one flat vector lifted once before the
  steps, so the "lift" stage of a step is zeroing the flat gradient plus the
  finiteness check of the flat parameters.
- The no-grad forward at both scales, with the parameters lifted once, as
  ms per sample: a one-sample batch and a batch of 60 samples in one call.
- The no-grad diagnostics at both scales: one lift, the level-1 ``encode``
  of the profile's cohort and ``stability_report`` with R = 5 repeats over
  it, each repeat one batched ``fuse``; and level-1 ``redundancy_score``
  (modality a) over that cohort's encoded outputs.
- The survival metrics ``c_index``, ``km_estimate``, ``log_rank_p`` and
  ``welch_t_test`` on risk tables of n = 30, 200 and 2000 samples with heavy
  ties (keys ``"30"``, ``"200"``, ``"2000"``) and on untied tables of the same
  sizes, with continuous times and risks (keys ``"untied/30"`` ...; the
  c-index counts the first kind on its grid and the second by its levels),
  and the whole metric pass over each table (``metric_pass``).
- ``save_checkpoint`` and ``load_checkpoint`` at both scales, and
  ``load_samples`` of a desk cohort of 60 samples (120 feature files of
  6 x 32 values), each through a temporary directory.
- ``hdmoe train`` end to end (``cli.main``, stdout silenced) with the desk
  preset and one epoch, on generated cohorts of 60 samples in 2 folds (the
  benchmark's ``train_desk`` shape) and of 200 samples in 5 folds (the
  acceptance cohort's); and ``hdmoe eval --repeats 5`` plus ``hdmoe analyze``
  on the checkpoints of the 60-sample train (the benchmark's ``eval_desk``
  pair): their sum (``eval_ms`` key ``60x2``) and each alone (``60x2/eval``,
  ``60x2/analyze``). A command's lanes are 1 + the processes it forked.

With ``--against DIR``, DIR being a parent tree's ``src``, the profile copies
``DIR/hdmoe`` without ``__pycache__`` into a temporary directory as
``hdmoe_parent`` and imports it beside this checkout's ``hdmoe``. Each
figure's state is built once per tree; then the trees are called in turn,
ABBA (change, parent, parent, change), so a slow spell of the host lands on
both. A figure holds each side's median ms and the median and quartiles of
the ratio change / parent per ABBA block, in which each side runs once first
and once second: ``{"change", "parent", "ratio": {"median", "q1", "q3"}}``.
Without ``--against`` the same code runs the change side alone, and a figure
holds ``{"change"}``. ``train_ms`` and ``eval_ms`` time commands that fork
lanes and write files, so read their ratios apart from the in-process ones.
Counts (tape nodes, checkpoint MB, lanes) are given per side.

The run writes BENCH_<label>.json at the root of this checkout, and nothing
else there or in DIR. This checkout's package is imported before numpy, as
the ``hdmoe`` command does, so the BLAS thread environment the package leaves
is the one measured; the file records it. To compare a change with its
parent on one machine:

    git archive <parent> src | tar -x -C /tmp/parent
    python tools/step_profile.py --label 1 --against /tmp/parent/src
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import importlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
STAGES = ("lift", "encode", "fuse", "survival", "decouple", "balance", "total", "backward",
          "optimizer")
# each count below is of timed calls per side, which with --against is the number of pairs
STEPS = {"desk": (10, 300), "full": (5, 120)}  # (warm-up, timed) steps per scale
FORWARDS = 60  # samples of the batched forward
SINGLE_CALLS = 300  # one-sample forwards
REPEATS = 5  # stability repeats per stability_report call
REPEATER_CALLS = 30
METRIC_SIZES = (30, 200, 2000)
METRIC_REPEATS = 200
COHORT = 8
CHECKPOINT_CALLS = 30
READER_CALLS = 40
TRAIN_COHORTS = ((60, 2), (200, 5))  # (samples, folds), one epoch each
TRAIN_CALLS = 20
EVAL_COHORT = (60, 2)  # the train cohort whose checkpoints eval reads (analyze: fold0's)
EVAL_CALLS = 20


def _ms(seconds: list[float]) -> float:
    return round(statistics.median(seconds) * 1e3, 4)


def _seconds(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def _timed(key: str, call, per: int = 1):
    """A run (see compare) of call() alone, its time divided by per."""
    return lambda: {key: _seconds(call) / per}


def compare(runs: dict, calls: int, warm: int = 1) -> dict:
    """{key: figure} of runs = {side: run}, where each run() makes one call on its
    side's state and returns {key: seconds}. The sides take turns, ABBA, for warm
    untimed and then calls timed calls each. A figure holds each side's median ms
    and, with two sides, the median and quartiles of the ratio change / parent of
    the sums of each side's two calls per ABBA block, one made first, one second."""
    import numpy as np

    samples = {side: [] for side in runs}
    for i in range(-warm, calls):
        for side in list(runs)[::1 if i % 2 == 0 else -1]:
            samples[side].append(runs[side]())
    figures = {}
    for key in dict.fromkeys(key for side in samples.values() for call in side for key in call):
        seconds = {side: [call.get(key, 0.0) for call in s[warm:]] for side, s in samples.items()
                   if any(key in call for call in s)}
        figures[key] = {side: _ms(s) for side, s in seconds.items()}
        if len(seconds) == 2:
            change, parent = (np.add.reduceat(seconds[side], np.arange(0, calls, 2))
                              for side in ("change", "parent"))
            quartiles = np.percentile(change / parent, (25, 50, 75))
            q1, median, q3 = (round(float(q), 4) for q in quartiles)
            figures[key]["ratio"] = {"median": median, "q1": q1, "q3": q3}
    return figures


def _modules(hd, *names: str) -> list:
    """The named submodules of hd, this checkout's package or the parent's copy."""
    return [importlib.import_module(f"{hd.__name__}.{name}") for name in names]


@contextlib.contextmanager
def imported_copy(src: Path):
    """src/hdmoe, copied without __pycache__ into a temporary directory as
    hdmoe_parent and imported from there; on exit the copy is removed and its
    modules are dropped, also on an error."""
    with tempfile.TemporaryDirectory(prefix="hdmoe-parent-") as tmp:
        shutil.copytree(src / "hdmoe", Path(tmp) / "hdmoe_parent",
                        ignore=shutil.ignore_patterns("__pycache__"))
        sys.path.insert(0, tmp)
        try:
            yield importlib.import_module("hdmoe_parent")
        finally:
            sys.path.remove(tmp)
            for name in [n for n in sys.modules if n.partition(".")[0] == "hdmoe_parent"]:
                del sys.modules[name]


def _records(hd, model_cfg):
    import numpy as np

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


def timed_backward(backward, root) -> dict[str, float]:
    """backward(root), and the seconds it spent in each kind of rule: the function
    that defines the rule, as module.function."""
    spent: dict[str, float] = {}

    def timed(rule):
        kind = f"{rule.__module__.rpartition('.')[2]}.{rule.__qualname__.split('.<locals>')[0]}"

        def run(g):
            t0 = time.perf_counter()
            rule(g)
            spent[kind] = spent.get(kind, 0.0) + time.perf_counter() - t0
        return run

    seen, stack = {id(root)}, [root]
    while stack:
        node = stack.pop()
        if node.backward_rule is not None:
            node.backward_rule = timed(node.backward_rule)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    backward(root)
    return spent


def _scale_runs(hd, scale: str, tmp: Path) -> tuple[dict, object]:
    """One tree's runs at one scale (see compare), each on state built here once,
    and a function giving the tree's counts: the tape nodes of its last step and
    its checkpoint's MB."""
    import numpy as np

    ad, evaluation, losses, model, trainer, errors = _modules(
        hd, "autodiff", "evaluation", "losses", "model", "trainer", "errors")
    model_cfg = (hd.apply_desk_preset(hd.RunConfig()).model_config() if scale == "desk"
                 else hd.ModelConfig())
    records, labels = _records(hd, model_cfg)
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
    steps, last = itertools.count(), {}

    def step(rules: bool) -> dict[str, float]:
        """One training step: the seconds of each stage, or with rules of each rule kind."""
        i = next(steps)
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
        total = last["total"] = losses.total_loss(surv, dm, bl, train_cfg.alpha, train_cfg.beta)
        t.append(time.perf_counter())
        if rules:
            spent = timed_backward(ad.backward, total)
        else:
            ad.backward(total)
        t.append(time.perf_counter())
        trainer.optimizer_step(flat, grads, state, train_cfg)
        t.append(time.perf_counter())
        if not np.isfinite(flat).all():
            raise errors.NumericsError(f"non-finite parameters after step {i}")
        t.append(time.perf_counter())
        if rules:
            return spent
        spans = [b - a for a, b in zip(t[:-1], t[1:])]
        spans[0] += spans.pop()  # the lift: zero the gradient, check finiteness
        return {**dict(zip(STAGES, spans)), "step": t[-1] - t[0]}

    nograd = model.lift_params(params, requires_grad=False)
    batch = [records[i % len(records)] for i in range(FORWARDS)]
    single = itertools.cycle(batch)
    table = evaluation.RiskTable(  # as eval's scoring pass gives it; stability reads no risk
        risks=np.zeros(len(records)), times=np.array([r.time_months for r in records]),
        events=np.array([1 - r.censored for r in records]))

    def stability():
        lifted = model.lift_params(params, requires_grad=False)
        level1 = model.encode(records, lifted, model_cfg)
        evaluation.stability_report(level1, lifted, model_cfg, table, REPEATS, rng)

    outputs_a = model.encode(records, nograd, model_cfg)[0]
    checkpoint = tmp / f"{hd.__name__}-{scale}.json"
    runs = {
        "step": lambda: step(False),
        "rules": lambda: step(True),
        "1": _timed("1", lambda: model.forward([next(single)], nograd, model_cfg, rng)),
        str(FORWARDS): _timed(str(FORWARDS), lambda: model.forward(batch, nograd, model_cfg, rng),
                              FORWARDS),
        "stability": _timed("stability", stability),
        "redundancy": _timed("redundancy", lambda: evaluation.redundancy_score(outputs_a)),
        "save": _timed("save", lambda: model.save_checkpoint(checkpoint, params, {"fold": 0})),
        "load": _timed("load", lambda: model.load_checkpoint(checkpoint, model_cfg)),
    }
    return runs, lambda: (dict(zip(("leaves", "ops"), tape_nodes(last["total"]))),
                          round(checkpoint.stat().st_size / 1e6, 3))


def profile_scale(sides: dict, scale: str) -> dict:
    """{report key: this scale's entry}, for the step, rule, no-grad forward,
    stability, redundancy and checkpoint figures and the counts of each side."""
    warm_steps, steps = STEPS[scale]
    with tempfile.TemporaryDirectory(prefix="hdmoe-profile-") as tmp:
        built = {side: _scale_runs(hd, scale, Path(tmp)) for side, hd in sides.items()}

        def figures(name: str, calls: int = REPEATER_CALLS, warm: int = 1) -> dict:
            return compare({side: runs[name] for side, (runs, _) in built.items()}, calls, warm)

        report = {
            "step_ms": figures("step", steps, warm_steps),
            "backward_rule_ms_per_step": figures("rules", steps),
            "nograd_forward_ms_per_sample": {**figures("1", SINGLE_CALLS),
                                             **figures(str(FORWARDS))},
            "stability_ms": figures("stability")["stability"],
            "redundancy_ms": figures("redundancy")["redundancy"],
            # save before load: load reads the file save wrote
            "checkpoint_ms": {**figures("save", CHECKPOINT_CALLS),
                              **figures("load", CHECKPOINT_CALLS)},
        }
        counts = {side: count() for side, (_, count) in built.items()}
    report["tape_nodes_per_step"] = {side: nodes for side, (nodes, _) in counts.items()}
    report["checkpoint_mb"] = {side: mb for side, (_, mb) in counts.items()}
    return report


def profile_reader(sides: dict) -> dict:
    """The load_samples figure of a desk cohort of FORWARDS samples."""
    import numpy as np

    with tempfile.TemporaryDirectory(prefix="hdmoe-profile-") as tmp:
        runs = {}
        for side, hd in sides.items():
            synth = dataclasses.replace(hd.apply_desk_preset(hd.RunConfig()).synth_config(),
                                        cohort=FORWARDS)
            records, _ = hd.generate_synthetic(synth, np.random.default_rng(4))
            manifest = hd.write_dataset(Path(tmp) / side, records)
            runs[side] = _timed("desk", functools.partial(hd.load_samples, manifest))
        return compare(runs, READER_CALLS)["desk"]


def _lanes(call) -> int:
    """1 + the processes that call() forks."""
    forks, fork = [], os.fork
    os.fork = lambda: forks.append(1) or fork()
    try:
        call()
    finally:
        os.fork = fork
    return 1 + len(forks)


def _commands(hd, base: Path, cohort: int, folds: int) -> dict:
    """One tree's hdmoe train of a generated cohort and, for EVAL_COHORT, its eval
    and analyze of the checkpoints that train leaves, as calls by command."""
    import numpy as np

    (cli,) = _modules(hd, "cli")
    cfg = dataclasses.replace(hd.apply_desk_preset(hd.RunConfig()), cohort=cohort,
                              k_folds=folds, epochs=1, redundancy=0.5, seed=7)
    records, _ = hd.generate_synthetic(cfg.synth_config(), np.random.default_rng([5, cohort]))
    manifest = hd.write_dataset(base / "data", records)
    config, run = str(base / "config.json"), str(base / "run")
    hd.save_config(dataclasses.replace(cfg, manifest=str(manifest)), config)

    def hdmoe(*argv):
        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(list(argv)) != 0:
                    raise RuntimeError(f"{hd.__name__} {' '.join(argv)} failed")
        return call

    commands = {"train": hdmoe("train", "--config", config, "--out", run)}
    if (cohort, folds) == EVAL_COHORT:
        commands["eval"] = hdmoe("eval", "--config", config, "--checkpoint", run,
                                 "--out", str(base / "eval"), "--repeats", str(REPEATS))
        commands["analyze"] = hdmoe("analyze", "--config", config, "--checkpoint", run,
                                    "--out", str(base / "analyze"))
    return commands


def _eval_run(key: str, commands: dict):
    """A run (see compare) of eval, then analyze: their sum and each alone."""
    def run():
        each = {f"{key}/{name}": _seconds(commands[name]) for name in ("eval", "analyze")}
        return {key: sum(each.values()), **each}
    return run


def profile_train(sides: dict) -> dict:
    """The train_ms and eval_ms figures ("<samples>x<folds>" keys), and the lanes of
    each side's commands (train_lanes, eval_lanes)."""
    report = {"train_ms": {}, "train_lanes": {}, "eval_ms": {}, "eval_lanes": {}}
    with tempfile.TemporaryDirectory(prefix="hdmoe-profile-") as tmp:
        for cohort, folds in TRAIN_COHORTS:
            key = f"{cohort}x{folds}"
            commands = {side: _commands(hd, Path(tmp) / side / key, cohort, folds)
                        for side, hd in sides.items()}
            report["train_ms"].update(compare(
                {side: _timed(key, c["train"]) for side, c in commands.items()}, TRAIN_CALLS))
            # each command once more, eval and analyze after a train, whose checkpoints they read
            lanes = {side: {name: _lanes(call) for name, call in c.items()}
                     for side, c in commands.items()}
            report["train_lanes"][key] = {side: n.pop("train") for side, n in lanes.items()}
            if (cohort, folds) == EVAL_COHORT:
                report["eval_ms"].update(compare(
                    {side: _eval_run(key, c) for side, c in commands.items()}, EVAL_CALLS))
                report["eval_lanes"][key] = lanes
    return report


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


def _metric_runs(hd, risks, times, events):
    """A run (see compare) of each metric over one table and of the whole metric
    pass: c-index, median split, log-rank and Welch t as ``cli._fold_metrics``
    runs them, then a KM curve per half as ``cmd_eval`` does."""
    import numpy as np

    cli, ev = _modules(hd, "cli", "evaluation")
    table = ev.RiskTable(risks=risks, times=times, events=events)
    high = risks > np.median(risks)

    def metric_pass():
        cli._fold_metrics(table)
        high, low = cli._median_split(table)
        ev.km_estimate(table.times[high], table.events[high])
        ev.km_estimate(table.times[low], table.events[low])

    calls = {
        "c_index": lambda: ev.c_index(table),
        "km_estimate": lambda: ev.km_estimate(times, events),
        "log_rank_p": lambda: ev.log_rank_p(times[high], events[high], times[~high],
                                            events[~high]),
        "welch_t_test": lambda: ev.welch_t_test(risks[high], risks[~high]),
        "metric_pass": metric_pass,
    }
    return lambda: {name: _seconds(call) for name, call in calls.items()}


def profile_metrics(sides: dict) -> dict:
    """{metric: {table key: figure}}."""
    import numpy as np

    figures = {}
    # one generator per kind, so the tied tables are those of earlier BENCH files
    kinds = (("", np.random.default_rng(3), 1), ("untied/", np.random.default_rng(6), None))
    for prefix, rng, decimals in kinds:
        for n in METRIC_SIZES:
            columns = tied_table(rng, n, decimals)
            by_table = compare({side: _metric_runs(hd, *columns) for side, hd in sides.items()},
                               METRIC_REPEATS)
            for name, figure in by_table.items():
                figures.setdefault(name, {})[f"{prefix}{n}"] = figure
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--against", type=Path,
                        help="a parent tree's src, whose hdmoe is timed in turn with this one's")
    args = parser.parse_args(argv)
    if args.against is not None and not (args.against / "hdmoe" / "__init__.py").is_file():
        parser.error(f"--against {args.against}: no hdmoe/__init__.py there")
    sys.dont_write_bytecode = True  # nothing written into this checkout or DIR but the report
    sys.path.insert(0, str(ROOT / "src"))
    # hdmoe before numpy, as the hdmoe command imports them: numpy reads the
    # BLAS thread variables when it loads; every function imports them lazily
    import hdmoe
    import numpy as np

    with contextlib.ExitStack() as stack:
        sides = {"change": hdmoe}
        if args.against is not None:
            sides["parent"] = stack.enter_context(imported_copy(args.against))
        scales = {scale: profile_scale(sides, scale) for scale in STEPS}
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
            "sides": list(sides),
            "calls": {"step": {k: v[1] for k, v in STEPS.items()}, "nograd_forward": SINGLE_CALLS,
                      "repeaters": REPEATER_CALLS, "metrics": METRIC_REPEATS,
                      "checkpoint": CHECKPOINT_CALLS, "load_samples": READER_CALLS,
                      "train": TRAIN_CALLS, "eval": EVAL_CALLS},
            "cohort": COHORT,
            "stability_repeats": REPEATS,
            **{key: {scale: entries[key] for scale, entries in scales.items()}
               for key in scales["desk"]},
            "load_samples_ms": {"desk": profile_reader(sides)},
            "metrics_ms": profile_metrics(sides),
            **profile_train(sides),
        }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
