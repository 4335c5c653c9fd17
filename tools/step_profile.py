"""Median times of the three units of work, written to BENCH_<label>.json.

- One training step at the desk preset and at the published full scale,
  split into its stages: parameter lift, forward, losses, backward and
  optimizer; and the tape nodes a step records (the leaves and ops that
  ``backward`` walks from the total loss), medians over the timed steps.
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
- The survival metrics ``c_index``, ``km_estimate`` and ``log_rank_p`` on
  risk tables of n = 30, 200 and 2000 samples with heavy ties.
- ``save_checkpoint`` and ``load_checkpoint`` of the trained parameters at
  both scales, through a temporary directory.
- ``load_samples`` of a desk cohort of 60 samples (120 feature files of
  6 x 32 values), written once to a temporary directory.

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
STAGES = ("lift", "forward", "losses", "backward", "optimizer")
STEPS = {"desk": (10, 100), "full": (5, 30)}  # (warm-up, timed) steps per scale
FORWARDS = 60  # one-sample forwards timed, and the samples of the batched forward
REPEATS = 5  # stability repeats per stability_report call
REPEATER_CALLS = 10
METRIC_SIZES = (30, 200, 2000)
METRIC_REPEATS = 30
COHORT = 8
CHECKPOINT_CALLS = 5
READER_CALLS = 20


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


def _records(model_cfg):
    import numpy as np

    import hdmoe as hd

    rng = np.random.default_rng(0)
    synth = dataclasses.replace(hd.SynthConfig(), cohort=COHORT, d_in=model_cfg.d_in)
    records, _ = hd.generate_synthetic(synth, rng)
    edges = hd.compute_bin_edges(records, model_cfg.num_bins)
    return [dataclasses.replace(r, bin_label=hd.assign_bin(r.time_months, edges)) for r in records]


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


def profile_scale(model_cfg, scale: str) -> tuple[dict, dict, float, dict, dict]:
    import numpy as np

    from hdmoe import autodiff as ad
    from hdmoe import evaluation, losses, model, trainer
    from hdmoe.errors import NumericsError

    records = _records(model_cfg)
    train_cfg = trainer.TrainConfig()
    # as train_fold does: one lift per fold, leaves viewing the flat parameter
    # vector and accumulating into views of the flat gradient
    flat, params = model.flatten_params(model.init_params(model_cfg, np.random.default_rng(1)))
    state = trainer.OptimizerState(*np.zeros((3, flat.size)))
    lifted, nodes = model.lift_params(params, requires_grad=True)
    grads = dict(model.named_params(model.param_views(params, state.grad)))
    for path, node in nodes.items():
        node.grad = grads[path]
    rng = np.random.default_rng(2)
    warm, timed = STEPS[scale]
    times = {stage: [] for stage in (*STAGES, "step")}
    nodes_per_step = {"leaves": [], "ops": []}
    for i in range(warm + timed):
        sample = records[i % len(records)]
        t0 = time.perf_counter()
        state.grad.fill(0.0)
        t1 = time.perf_counter()
        res = model.forward([sample], lifted, model_cfg, rng)
        t2 = time.perf_counter()
        surv = losses.survival_nll(res.hazards, sample.bin_label, sample.censored)
        dm = losses.decouple_loss(res, train_cfg.distance_metric)
        bl = losses.balance_loss(res.traces)
        _, total = losses.total_loss(surv, dm, bl, train_cfg.alpha, train_cfg.beta)
        t3 = time.perf_counter()
        ad.backward(total)
        t4 = time.perf_counter()
        trainer.optimizer_step(flat, grads, state, train_cfg)
        t5 = time.perf_counter()
        if not np.isfinite(flat).all():
            raise NumericsError(f"non-finite parameters after step {i}")
        t6 = time.perf_counter()
        if i >= warm:
            lift = (t1 - t0) + (t6 - t5)  # zero the gradient, check finiteness
            for stage, dt in zip(STAGES, (lift, t2 - t1, t3 - t2, t4 - t3, t5 - t4)):
                times[stage].append(dt)
            times["step"].append(t6 - t0)
            for kind, count in zip(("leaves", "ops"), tape_nodes(total)):
                nodes_per_step[kind].append(count)

    lifted, _ = model.lift_params(params, requires_grad=False)
    batch = [records[i % len(records)] for i in range(FORWARDS)]
    single = []
    for sample in batch:
        t0 = time.perf_counter()
        model.forward([sample], lifted, model_cfg, rng)
        single.append(time.perf_counter() - t0)
    batched = _median_ms(lambda: model.forward(batch, lifted, model_cfg, rng), REPEATER_CALLS)
    nograd = {"1": _ms(single), str(FORWARDS): round(batched / FORWARDS, 4)}

    def stability():
        lifted, _ = model.lift_params(params, requires_grad=False)
        level1 = model.encode(records, lifted, model_cfg)
        evaluation.stability_report(level1, lifted, model_cfg, records, REPEATS, rng)

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
    return ({stage: _ms(v) for stage, v in times.items()}, nodes, nograd, repeaters, checkpoint)


def profile_reader() -> float:
    import numpy as np

    import hdmoe as hd

    synth = dataclasses.replace(hd.apply_desk_preset(hd.RunConfig()).synth_config(),
                                cohort=FORWARDS)
    records, _ = hd.generate_synthetic(synth, np.random.default_rng(4))
    with tempfile.TemporaryDirectory(prefix="hdmoe-profile-") as tmp:
        manifest = hd.write_dataset(tmp, records)
        return _median_ms(lambda: hd.load_samples(manifest), READER_CALLS)


def tied_table(rng, n: int):
    """Times on a 0.1-month grid, about 40% censored, risks rounded to one
    decimal; the tables of the benchmark's stats workload."""
    import numpy as np

    z = rng.normal(size=n)
    event_time = rng.exponential(12.0 * np.exp(-0.8 * z))
    censor_time = rng.uniform(0.0, 27.0, size=n)
    times = np.round(np.minimum(event_time, censor_time), 1)
    events = (event_time <= censor_time).astype(np.int64)
    risks = np.round(z + rng.normal(scale=0.5, size=n), 1)
    return risks, times, events


def profile_metrics() -> dict:
    import numpy as np

    from hdmoe import evaluation as ev

    out = {"c_index": {}, "km_estimate": {}, "log_rank_p": {}}
    rng = np.random.default_rng(3)
    for n in METRIC_SIZES:
        risks, times, events = tied_table(rng, n)
        table = ev.RiskTable(risks=risks, times=times, events=events)
        high = risks > np.median(risks)
        calls = {
            "c_index": lambda: ev.c_index(table),
            "km_estimate": lambda: ev.km_estimate(times, events),
            "log_rank_p": lambda: ev.log_rank_p(
                times[high], events[high], times[~high], events[~high]),
        }
        for name, call in calls.items():
            out[name][str(n)] = _median_ms(call, METRIC_REPEATS)
    return out


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
    step_desk, nodes_desk, nograd_desk, rep_desk, ckpt_desk = profile_scale(desk_cfg, "desk")
    step_full, nodes_full, nograd_full, rep_full, ckpt_full = profile_scale(
        hd.ModelConfig(), "full")
    report = {
        "label": args.label,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        },
        "unit": "ms, median",
        "samples": {"step": {k: v[1] for k, v in STEPS.items()}, "nograd_forward": FORWARDS,
                    "repeaters": REPEATER_CALLS, "metrics": METRIC_REPEATS,
                    "checkpoint": CHECKPOINT_CALLS, "load_samples": READER_CALLS},
        "cohort": COHORT,
        "stability_repeats": REPEATS,
        "step_ms": {"desk": step_desk, "full": step_full},
        "tape_nodes_per_step": {"desk": nodes_desk, "full": nodes_full},
        "nograd_forward_ms_per_sample": {"desk": nograd_desk, "full": nograd_full},
        "stability_ms": {"desk": rep_desk["stability"], "full": rep_full["stability"]},
        "redundancy_ms": {"desk": rep_desk["redundancy"], "full": rep_full["redundancy"]},
        "checkpoint_ms": {"desk": {k: ckpt_desk[k] for k in ("save", "load")},
                          "full": {k: ckpt_full[k] for k in ("save", "load")}},
        "checkpoint_mb": {"desk": ckpt_desk["mb"], "full": ckpt_full["mb"]},
        "load_samples_ms": {"desk": profile_reader()},
        "metrics_ms": profile_metrics(),
    }
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
