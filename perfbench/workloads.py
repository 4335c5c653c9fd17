"""The benchmark's workloads.

Each workload makes its inputs from the benchmark seed in ``prepare`` (timed
as set-up), runs one operation per ``run`` call (timed), and checks that
operation's outputs in ``check`` (not timed). The program sees only the
generated cohorts or tables: its own config seed is fixed.

Every workload keeps a pool of inputs and runs them in turn, one per
operation. An operation is short (about a second or less), so a run holds
many of them, and the per-input figures (held-out c-index, bitwise-repeated
outputs) are averaged or checked over the whole pool.

- ``train_desk``: ``hdmoe train`` with the desk preset, one epoch over a
  60-sample cohort in 2 folds: a step is Python tape overhead (backward,
  optimizer, forward, losses, parameter lift), and each fold writes a
  checkpoint. Smaller cohorts can lack the 4 distinct event times a
  training split needs.
- ``eval_desk``: ``hdmoe eval --repeats 5`` then ``hdmoe analyze`` on the
  desk checkpoints of such cohorts, trained during set-up: the no-grad read
  path, which reuses the same parameters and samples many times.
- ``stats_large``: the survival statistics of ``cli._fold_metrics`` and
  ``cmd_eval`` on generated risk tables of 2000 samples with heavy ties,
  checked against a brute-force pair count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from hdmoe import cli, evaluation
from hdmoe.config import RunConfig, apply_desk_preset, save_config
from hdmoe.data import generate_synthetic, write_dataset
from hdmoe.evaluation import RiskTable

# Training seed of the program's config: the benchmark seed varies only the data.
PROGRAM_SEED = 7
DESK = apply_desk_preset(
    RunConfig(cohort=60, redundancy=0.5, k_folds=2, epochs=1, seed=PROGRAM_SEED)
)
EVAL_REPEATS = 5
# Pool sizes are odd, so that alternating traced and untraced operations each
# see every input. A one-epoch desk model is near chance on any one cohort;
# the mean over a pool of cohorts is what keeps the held-out c-index steady
# across seeds.
TRAIN_POOL = 15
EVAL_POOL = 5
STATS_N = 2000
STATS_POOL = 7


@dataclass
class Outcome:
    """What one operation did and whether its outputs passed the checks."""

    items: int  # work units: samples stepped, sample passes, or tables scored
    errors: list[str] = field(default_factory=list)
    digest: str = ""  # sha256 of the outputs that must repeat bitwise
    key: str = ""  # operations with the same key must produce the same digest
    cindex: float = float("nan")


def quiet(fn, *args):
    """Call ``fn`` with the program's stdout captured (it prints progress)."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def tree_digest(*roots: Path) -> str:
    """sha256 over every output file under ``roots`` except the echoed
    ``config.json``, which names the per-run output directory."""
    h = hashlib.sha256()
    for root in roots:
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if path.name == "config.json":
                continue
            h.update(str(path.relative_to(root)).encode())
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def _fold_cindex_errors(metrics: dict, label: str) -> list[str]:
    return [
        f"{label} fold {fold}: c-index {m['cindex']} outside [0, 1]"
        for fold, m in metrics["folds"].items()
        if not 0.0 <= m["cindex"] <= 1.0
    ]


def write_cohort(directory: Path, cfg: RunConfig, seed) -> Path:
    """Generate the cohort from ``seed``, write it and a config naming it."""
    records, truths = generate_synthetic(cfg.synth_config(), np.random.default_rng(seed))
    manifest = write_dataset(directory / "data", records, truths)
    config = directory / "config.json"
    save_config(dataclasses.replace(cfg, manifest=str(manifest.resolve())), config)
    return config


class CohortPool:
    """A pool of generated cohorts, one per operation in turn; outputs are
    keyed by cohort, so each must repeat bitwise whenever it comes round."""

    def __init__(self, cfg: RunConfig, pool: int):
        self.cfg = cfg
        self.pool = pool
        self._next = 0

    def prepare(self, directory: Path, seed: int) -> list[Path]:
        configs = []
        for index in range(self.pool):
            cohort_dir = directory / f"cohort{index}"
            cohort_dir.mkdir()
            configs.append(write_cohort(cohort_dir, self.cfg, [seed, index]))
        return configs

    def inputs_digest(self, configs: list[Path]) -> str:
        return tree_digest(*(config.parent for config in configs))

    def _take(self, configs: list[Path]) -> tuple[int, Path]:
        index = self._next % self.pool
        self._next += 1
        return index, configs[index]


class TrainWorkload(CohortPool):
    """One ``hdmoe train`` over every fold of the next cohort."""

    def run(self, configs: list[Path], out: Path) -> tuple[int, int]:
        index, config = self._take(configs)
        return index, quiet(cli.main, ["train", "--config", str(config), "--out", str(out)])

    def check(self, result: tuple[int, int], out: Path) -> Outcome:
        index, rc = result
        fold_sizes: dict[int, int] = {}
        with open(out / "folds.csv", encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                fold = int(line.rsplit(",", 1)[1])
                fold_sizes[fold] = fold_sizes.get(fold, 0) + 1
        n = sum(fold_sizes.values())
        outcome = Outcome(items=self.cfg.epochs * sum(n - k for k in fold_sizes.values()),
                          key=str(index))
        if rc != 0:
            outcome.errors.append(f"train exited {rc}")
        metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
        outcome.errors += _fold_cindex_errors(metrics, "train")
        with open(out / "predictions.csv", encoding="utf-8") as fh:
            rows = sum(1 for _ in fh) - 1
        if rows != self.cfg.cohort:
            outcome.errors.append(f"predictions.csv has {rows} rows, cohort has {self.cfg.cohort}")
        outcome.digest = tree_digest(out)
        outcome.cindex = float(metrics["overall"]["mean"])
        return outcome


class EvalWorkload(CohortPool):
    """``hdmoe eval --repeats R`` then ``hdmoe analyze`` on the next cohort,
    with the checkpoints trained on it during set-up."""

    def prepare(self, directory: Path, seed: int) -> list[Path]:
        configs = super().prepare(directory, seed)
        for config in configs:
            rc = quiet(cli.main, ["train", "--config", str(config),
                                  "--out", str(config.parent / "train")])
            if rc != 0:
                raise RuntimeError(f"set-up training exited {rc}")
        return configs

    def run(self, configs: list[Path], out: Path) -> tuple[int, int, int]:
        index, config = self._take(configs)
        checkpoints = str(config.parent / "train")
        rc_eval = quiet(cli.main, [
            "eval", "--config", str(config), "--checkpoint", checkpoints,
            "--out", str(out / "eval"), "--repeats", str(EVAL_REPEATS),
        ])
        rc_analyze = quiet(cli.main, [
            "analyze", "--config", str(config), "--checkpoint", checkpoints,
            "--out", str(out / "analyze"),
        ])
        return index, rc_eval, rc_analyze

    def check(self, result: tuple[int, int, int], out: Path) -> Outcome:
        index, *rc = result
        n = self.cfg.cohort
        # eval: n held-out passes plus R stability passes; analyze: the
        # histogram pass and one redundancy pass per modality
        outcome = Outcome(items=n * (1 + EVAL_REPEATS) + 3 * n, key=str(index))
        for name, code in zip(("eval", "analyze"), rc):
            if code != 0:
                outcome.errors.append(f"{name} exited {code}")
        metrics = json.loads((out / "eval" / "metrics.json").read_text(encoding="utf-8"))
        outcome.errors += _fold_cindex_errors(metrics, "eval")
        for fold, s in metrics["stability"].items():
            if len(s["scores"]) != EVAL_REPEATS or not all(0.0 <= c <= 1.0 for c in s["scores"]):
                outcome.errors.append(f"eval fold {fold}: bad stability scores {s['scores']}")
        model_cfg = self.cfg.model_config()
        tokens = {
            "level1_a": model_cfg.d1 // model_cfg.token_len_l1,
            "level1_b": model_cfg.d1 // model_cfg.token_len_l1,
            "level2": model_cfg.d2 // model_cfg.token_len_l2,
        }
        for router, per_sample in tokens.items():
            path = out / "analyze" / f"histogram_{router}.csv"
            counts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1]
            if counts.sum() != n * per_sample * model_cfg.top_k:
                outcome.errors.append(f"{path.name}: {counts.sum()} selections")
        outcome.digest = tree_digest(out / "eval", out / "analyze")
        outcome.cindex = float(metrics["overall"]["mean"])
        return outcome


# ---------------------------------------------------------------------------
# survival statistics on generated risk tables


def make_table(rng: np.random.Generator, n: int) -> RiskTable:
    """Risk table with times on a 0.1-month grid, about 40% censored, and
    risks rounded to one decimal (tied) that rise as time falls."""
    z = rng.normal(size=n)
    event_time = rng.exponential(12.0 * np.exp(-0.8 * z))
    censor_time = rng.uniform(0.0, 27.0, size=n)
    times = np.round(np.minimum(event_time, censor_time), 1)
    events = (event_time <= censor_time).astype(np.int64)
    risks = np.round(z + rng.normal(scale=0.5, size=n), 1)
    return RiskTable(risks=risks, times=times, events=events)


def brute_force_cindex(table: RiskTable) -> float:
    """Exact pair count over all ordered pairs with t_i < t_j and an event at
    i; risk ties count half. Integer arithmetic, then one division."""
    t, e, r = table.times, table.events, table.risks
    comparable = (t[:, None] < t[None, :]) & (e[:, None] == 1)
    twice_conc = 2 * int(np.count_nonzero(comparable & (r[:, None] > r[None, :])))
    twice_conc += int(np.count_nonzero(comparable & (r[:, None] == r[None, :])))
    return (twice_conc / 2) / int(np.count_nonzero(comparable))


def score_table(table: RiskTable):
    """The metric pass of ``cli._fold_metrics`` and ``cmd_eval``: c-index,
    median split, log-rank, Welch t, then a Kaplan-Meier curve per group."""
    # module attribute lookups, so that the traced run sees these calls
    cidx = evaluation.c_index(table)
    high = table.risks > float(np.median(table.risks))
    low = ~high
    _, lr_p = evaluation.log_rank_p(
        table.times[high], table.events[high], table.times[low], table.events[low]
    )
    _, tt_p = evaluation.welch_t_test(table.risks[high], table.risks[low])
    km_high = evaluation.km_estimate(table.times[high], table.events[high])
    km_low = evaluation.km_estimate(table.times[low], table.events[low])
    return cidx, lr_p, tt_p, km_high, km_low


class StatsWorkload:
    """Score a pool of generated risk tables in turn, one table per operation."""

    def __init__(self, n: int = STATS_N, pool: int = STATS_POOL):
        self.n = n
        self.pool = pool
        self.oracle: dict[int, float] = {}
        self._next = 0

    def prepare(self, directory: Path, seed: int) -> list[RiskTable]:
        rng = np.random.default_rng(seed)
        return [make_table(rng, self.n) for _ in range(self.pool)]

    def inputs_digest(self, tables: list[RiskTable]) -> str:
        h = hashlib.sha256()
        for t in tables:
            for column in (t.risks, t.times, t.events):
                h.update(column.tobytes())
        return h.hexdigest()

    def run(self, tables: list[RiskTable], _out: Path):
        index = self._next % self.pool
        self._next += 1
        return index, tables[index], score_table(tables[index])

    def check(self, result, _out: Path) -> Outcome:
        index, table, (cidx, lr_p, tt_p, km_high, km_low) = result
        if index not in self.oracle:
            self.oracle[index] = brute_force_cindex(table)
        outcome = Outcome(items=1, key=str(index), cindex=cidx)
        if cidx != self.oracle[index]:
            outcome.errors.append(
                f"table {index}: c_index {cidx!r} != brute force {self.oracle[index]!r}"
            )
        for name, p in (("log-rank", lr_p), ("welch", tt_p)):
            if not 0.0 <= p <= 1.0:
                outcome.errors.append(f"table {index}: {name} p {p} outside [0, 1]")
        for name, km in (("high", km_high), ("low", km_low)):
            s = km.survival
            if not (np.all((s >= 0.0) & (s <= 1.0)) and np.all(np.diff(s) <= 0.0)):
                outcome.errors.append(f"table {index}: KM curve {name} not non-increasing in [0, 1]")
        h = hashlib.sha256(repr((cidx, lr_p, tt_p)).encode())
        for km in (km_high, km_low):
            h.update(km.survival.tobytes())
        outcome.digest = h.hexdigest()
        return outcome


def make_workload(name: str):
    if name == "train_desk":
        return TrainWorkload(DESK, TRAIN_POOL)
    if name == "eval_desk":
        return EvalWorkload(DESK, EVAL_POOL)
    if name == "stats_large":
        return StatsWorkload()
    raise ValueError(f"unknown workload {name!r}")
