"""hdmoe benchmark: end-to-end throughput of train, eval and the survival
statistics, and per-layer attribution from a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports ``hdmoe`` from the ``src`` directory of the checkout that holds this
file; nothing needs to be installed. Set-up (input generation, and for
``eval_desk`` checkpoint training) is repeated. Then short operations run
back to back in one process until ``--seconds`` have passed and every input
of the workload's pool has been used, and each one's outputs are checked.

``--trace 0`` reports the end-to-end metrics:

- ``norm_throughput_per_s``: work units per second of one operation, at the
  speed of an idle host. The unit is a training sample stepped
  (``train_desk``: epochs x training-split size summed over folds, over the
  whole ``hdmoe train`` wall time with its predictions and checkpoint
  writes), a no-grad sample pass (``eval_desk``: n x (1 + R) for eval plus
  3n for analyze), or a risk table scored (``stats_large``, n = 2000).
  Neighbours slow the shared host by up to 1.7x for tens of seconds at a
  time, which moves raw times between runs by more than any bound. So each
  operation is timed right after one ``hostspeed.calibrate`` loop, and the
  operation's time is the median, over the run, of its wall time divided
  by that loop's, times the loop's idle-host time ``REF_S``. stderr shows
  the raw figures and the host's slowdown.
- ``setup_s``: import time plus the median set-up time, divided by the
  host's slowdown (the median calibration time over ``REF_S``).
- ``peak_rss_mb``: peak resident memory of the process.
- ``heldout_cindex``: the mean held-out c-index from ``metrics.json`` over
  the pool's cohorts, or on ``stats_large`` the mean c-index of the scored
  tables. It is fixed for a given seed.

``--trace 1`` alternates untraced and traced operations (at least three,
starting untraced) and reports, per traced operation,
``<module>.<function>.{calls,self_s,share}`` for every function in
``spans.TRACED``, the uncovered remainder ``cli.other``, ratio metrics with
their bases, and the tracing overhead.

The last line of stdout is the result JSON; the line before it records the
environment. BLAS runs single-threaded, below ``nproc``, to steady the timing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import REMAINDER, TRACED, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BLAS_THREADS = "1"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_REPEATS = 3  # set-up repeats at least this often ...
SETUP_MIN_SECONDS = 3.0  # ... and until this much time is spent on it
SETUP_MAX_REPEATS = 15
WORKLOADS = ("train_desk", "eval_desk", "stats_large")

END_TO_END = {
    "norm_throughput_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heldout_cindex": "fraction",
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in (*TRACED, REMAINDER):
        units[f"{name}.calls"] = "count/op"
        units[f"{name}.self_s"] = "s/op"
        units[f"{name}.share"] = "fraction"
    units.update({
        "model.lift_params.per_forward": "ratio",
        "trainer.optimizer_step.null_grad_frac": "fraction",
        "trainer.optimizer_step.grad_arrays": "count/op",
        "kernels.ffn_forward.rows_per_call": "rows",
        "rfr.build_permutation.hit_ratio": "fraction",
        "rfr.build_permutation.lookups": "count/op",
        "model.save_checkpoint.mb_per_s": "MB/s",
        "model.save_checkpoint.mb": "MB/op",
        "model.load_checkpoint.mb_per_s": "MB/s",
        "model.load_checkpoint.mb": "MB/op",
        "tracing.untraced_op_s": "s",
        "tracing.traced_op_s": "s",
        "tracing.overhead_s": "s",
        "tracing.overhead_frac": "fraction",
    })
    return units


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tracer, traced_ops: list[float], untraced_ops: list[float]) -> dict:
    """Per traced operation; a ratio whose base is zero reads 0."""
    ops = len(traced_ops)
    wall = tracer.wall_s
    values = {}
    for name, stat in tracer.stats.items():
        values[f"{name}.calls"] = stat.calls / ops
        values[f"{name}.self_s"] = stat.self_s / ops
        values[f"{name}.share"] = _ratio(stat.self_s, wall)
    values[f"{REMAINDER}.calls"] = 1.0
    values[f"{REMAINDER}.self_s"] = tracer.remainder_s / ops
    values[f"{REMAINDER}.share"] = _ratio(tracer.remainder_s, wall)

    s, c = tracer.stats, tracer.counters
    save, load = s["model.save_checkpoint"], s["model.load_checkpoint"]
    lookups = c.permutation_hits + c.permutation_misses
    traced_op = statistics.median(traced_ops)
    untraced_op = statistics.median(untraced_ops)
    values.update({
        "model.lift_params.per_forward": _ratio(s["model.lift_params"].calls, s["model.forward"].calls),
        "trainer.optimizer_step.null_grad_frac": _ratio(c.null_grads, c.grad_arrays),
        "trainer.optimizer_step.grad_arrays": c.grad_arrays / ops,
        "kernels.ffn_forward.rows_per_call": _ratio(c.ffn_rows, s["kernels.ffn_forward"].calls),
        "rfr.build_permutation.hit_ratio": _ratio(c.permutation_hits, lookups),
        "rfr.build_permutation.lookups": lookups / ops,
        "model.save_checkpoint.mb_per_s": _ratio(c.saved_bytes / 1e6, save.total_s),
        "model.save_checkpoint.mb": c.saved_bytes / 1e6 / ops,
        "model.load_checkpoint.mb_per_s": _ratio(c.loaded_bytes / 1e6, load.total_s),
        "model.load_checkpoint.mb": c.loaded_bytes / 1e6 / ops,
        "tracing.untraced_op_s": untraced_op,
        "tracing.traced_op_s": traced_op,
        "tracing.overhead_s": traced_op - untraced_op,
        "tracing.overhead_frac": _ratio(traced_op - untraced_op, untraced_op),
    })
    return values


def idle_host_time(walls: list[float], refs: list[float], ref_s: float) -> float:
    """Median of each wall time over the calibration time taken just before
    it, in seconds of a host on which the calibration takes ``ref_s``."""
    return statistics.median(w / r for w, r in zip(walls, refs)) * ref_s


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    import numpy as np
    from hdmoe import kernels

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "kernel_backend": kernels.active_backend(),
        "commit": _git_commit(ROOT),
    }


def timed_setup(workload, seed: int, work: Path):
    """Repeat the workload's set-up; return its first inputs, the median set-up
    time, and an error if the repeats did not produce identical inputs."""
    times, digests, first = [], [], None
    for i in range(SETUP_MAX_REPEATS):
        if i >= SETUP_MIN_REPEATS and sum(times) >= SETUP_MIN_SECONDS:
            break
        directory = work / f"setup{i}"
        directory.mkdir()
        start = time.perf_counter()
        inputs = workload.prepare(directory, seed)
        times.append(time.perf_counter() - start)
        digests.append(workload.inputs_digest(inputs))
        if first is None:
            first = inputs
        else:
            shutil.rmtree(directory)
    print(f"set-up seconds: {' '.join(f'{t:.4f}' for t in times)}", file=sys.stderr)
    error = None if len(set(digests)) == 1 else "set-up repeats produced different inputs"
    return first, statistics.median(times), error


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import_start = time.perf_counter()
    import numpy  # noqa: F401
    import hdmoe.cli  # noqa: F401
    import_s = time.perf_counter() - import_start

    # both import numpy, so they load after BLAS_ENV is set
    from hostspeed import REF_S, calibrate
    from workloads import make_workload

    workload = make_workload(workload_name)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    try:
        inputs, setup_s, setup_error = timed_setup(workload, seed, work)
        tracer = Tracer() if trace else None
        walls = {False: [], True: []}
        refs = []  # calibration time before each completed untraced operation
        outcomes = []
        deadline = time.perf_counter() + seconds
        i = 0
        while True:
            traced = trace and i % 2 == 1
            out = work / f"op{i}"
            ref = None if trace else calibrate()
            start = time.perf_counter()
            try:
                if traced:
                    result = tracer.measure(lambda: workload.run(inputs, out))
                else:
                    result = workload.run(inputs, out)
                walls[traced].append(time.perf_counter() - start)
                if ref is not None:
                    refs.append(ref)
                outcomes.append(workload.check(result, out))
            except Exception:  # a crashed operation is counted, not fatal
                outcomes.append(None)
                print(f"op {i} failed:\n{traceback.format_exc()}", file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
            i += 1
            # stop before an operation that would overrun the deadline
            done = walls[False] + walls[True]
            next_end = time.perf_counter() + statistics.median(done or [0.0])
            if next_end > deadline and i >= (3 if trace else workload.pool):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    failed = 0
    first_digest: dict[str, str] = {}
    for i, o in enumerate(outcomes):
        if o is not None and o.digest != first_digest.setdefault(o.key, o.digest):
            o.errors.append(f"outputs differ from the first run of key {o.key!r}")
        if o is None or o.errors:
            failed += 1
            for err in (o.errors if o else []):
                print(f"op {i}: {err}", file=sys.stderr)
    if setup_error:
        print(setup_error, file=sys.stderr)
    for traced, times in walls.items():
        if times:
            label = "traced" if traced else "untraced"
            print(f"{label} op seconds: {' '.join(f'{t:.4f}' for t in times)}", file=sys.stderr)

    good = [o for o in outcomes if o is not None]
    if not good or not walls[False] or (trace and not (walls[True] and walls[False][1:])):
        raise SystemExit("no operation completed; nothing to report")
    if trace:
        # the first operation runs cold (allocator, file cache), so the
        # overhead compares the later untraced ones with the traced ones
        values = per_layer_metrics(tracer, walls[True], walls[False][1:])
        units = per_layer_units()
    else:
        slowdown = statistics.median(refs) / REF_S  # >1 while neighbours slow the host
        items = statistics.median(o.items for o in good)
        raw_op_s = statistics.median(walls[False])
        print(f"host calibration: median {statistics.median(refs):.6f} s, idle {REF_S:.6f} s, "
              f"slowdown {slowdown:.4f}; raw throughput {items / raw_op_s:.4f}/s, "
              f"raw set-up {import_s + setup_s:.4f} s", file=sys.stderr)
        values = {
            "norm_throughput_per_s": items / idle_host_time(walls[False], refs, REF_S),
            "setup_s": (import_s + setup_s) / slowdown,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            # one value per distinct input, so the figure is fixed for a seed
            "heldout_cindex": statistics.fmean({o.key: o.cindex for o in good}.values()),
        }
        units = END_TO_END
    return {
        "correct": failed == 0 and setup_error is None,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hdmoe" / "__init__.py").is_file():
        print(f"error: no hdmoe sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads BLAS
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print("environment " + json.dumps(environment(), sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
