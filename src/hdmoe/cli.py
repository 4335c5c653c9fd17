"""Command-line entry point: synth | train | eval | analyze.

Flags override config-file values; every run writes its resolved config next
to its outputs so results can be reproduced from that file alone. Exit codes:
0 success, 2 config/validation error, 3 runtime numerical error, 4 IO error
or a lost fold lane. HDMOE_LOG controls log verbosity (debug/info/warning)."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import logging
import os
import re
import sys
from pathlib import Path

import numpy as np

from .config import RunConfig, apply_desk_preset, load_config, save_config
from .data import (ManifestEntry, csv_rows, csv_text, generate_synthetic, load_manifest,
                   load_samples, make_folds, matrix_text, write_dataset, write_text)
from .errors import ConfigError, DataError, MetricError, NumericsError
from .evaluation import (
    RiskTable,
    c_index,
    expert_histogram,
    km_curves_csv,
    km_estimate,
    log_rank_p,
    redundancy_score,
    stability_report,
    welch_t_test,
)
from .model import forward, lift_params, load_checkpoint, save_checkpoint
from .rfr import valid_segments
from .trainer import fold_edges, map_folds, predict_fold, predictions_to_csv, split_fold, train_fold

log = logging.getLogger("hdmoe.cli")
_FOLD_DIR = re.compile(r"fold[0-9]+")  # as train names a fold's directory


def _setup_logging() -> None:
    raw = os.environ.get("HDMOE_LOG", "warning")
    level = {"debug": logging.DEBUG, "info": logging.INFO, "warning": logging.WARNING}.get(
        raw.strip().lower())
    if level is None:
        print(f"hdmoe: unknown HDMOE_LOG value {raw!r} (expected debug, info, warning); "
              "logging at warning", file=sys.stderr)
    logging.basicConfig(level=level or logging.WARNING, format="%(name)s %(levelname)s %(message)s")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if getattr(args, "desk", False):
        cfg = apply_desk_preset(cfg)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = dataclasses.replace(cfg, out_dir=args.out)
    cfg.validate()
    if getattr(args, "pin_segment", None) is not None:
        # d2 = 2*d1, so a pin that divides d1 divides both fusion widths
        valid_segments([args.pin_segment], cfg.d1)
    if getattr(args, "repeats", None) is not None and args.repeats < 1:
        raise ConfigError(f"--repeats must be >= 1, got {args.repeats}")
    return cfg


def _manifest(cfg: RunConfig) -> str:
    if not cfg.manifest:
        raise ConfigError("config.manifest is required for this command")
    return cfg.manifest


def _load_dataset(cfg: RunConfig, entries: list[ManifestEntry] | None = None):
    """The records of `entries` (default: the whole manifest), each checked against d_in."""
    records = load_samples(_manifest(cfg), entries)
    for r in records:  # a record's two bags already agree in width
        if r.features_a.shape[1] != cfg.d_in:
            raise ConfigError(
                f"sample {r.sample_id}: feature width {r.features_a.shape[1]} != config d_in {cfg.d_in}")
    return records


def cmd_synth(cfg: RunConfig) -> int:
    out_dir = Path(cfg.out_dir)
    rng = np.random.default_rng([cfg.seed, 0x5E])
    records, truths = generate_synthetic(cfg.synth_config(), rng)
    manifest = write_dataset(out_dir, records, truths)
    save_config(dataclasses.replace(cfg, manifest=str(manifest)), out_dir / "config.json")
    print(f"wrote {len(records)} samples to {manifest}")
    return 0


def _median_split(table: RiskTable) -> tuple[np.ndarray, np.ndarray]:
    median = float(np.median(table.risks))
    high = table.risks > median
    if not high.any() or high.all():
        raise MetricError("median split degenerate: all risks on one side")
    return high, ~high


def _fold_metrics(table: RiskTable) -> dict:
    out = {"cindex": c_index(table)}
    try:
        high, low = _median_split(table)
        _, lr_p = log_rank_p(
            table.times[high], table.events[high], table.times[low], table.events[low]
        )
        _, tt_p = welch_t_test(table.risks[high], table.risks[low])
        out["logrank_p"] = lr_p
        out["ttest_p"] = tt_p
    except MetricError as exc:
        log.warning("fold stratification tests skipped: %s", exc)
        out["logrank_p"] = None
        out["ttest_p"] = None
    return out


def _write_metrics(path: Path, per_fold: dict, extra: dict | None = None) -> dict:
    """Writes metrics.json; returns its "overall" block, the mean and std of the fold c-indexes."""
    cindexes = [m["cindex"] for m in per_fold.values()]
    overall = {"mean": float(np.mean(cindexes)), "std": float(np.std(cindexes))}
    report = {"folds": per_fold, "overall": overall, **(extra or {})}
    write_text(path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return overall


def cmd_train(cfg: RunConfig, pin_segment: int | None = None) -> int:
    records = _load_dataset(cfg)
    model_cfg = cfg.model_config()
    train_cfg = cfg.train_config()
    if any(r.fold < 0 for r in records):
        records = make_folds(records, cfg.k_folds, cfg.seed)
    fold_ids = sorted({r.fold for r in records})
    for fid in fold_ids:  # every data check before the first write
        fold_edges(records, fid, model_cfg.num_bins)

    out_dir = Path(cfg.out_dir)
    save_config(cfg, out_dir / "config.json")
    folds = [("sample_id", "fold"), *((r.sample_id, r.fold) for r in records)]
    write_text(out_dir / "folds.csv", csv_text(folds, lineterminator="\n"))

    def run_fold(fid: int) -> tuple[str, RiskTable]:  # the fold's predictions.csv text and table
        result = train_fold(records, fid, model_cfg, train_cfg)
        held_out = split_fold(records, fid)[1]
        res, table = predict_fold(held_out, lift_params(result.params, requires_grad=False),
                                  model_cfg, np.random.default_rng([cfg.seed, fid, 0x9E4]),
                                  pin_segment)
        fold_dir = out_dir / f"fold{fid}"
        save_checkpoint(
            fold_dir / "checkpoint.json",
            result.params,
            meta={
                "fold": fid,
                "bin_edges": list(result.edges.edges),
                "num_bins": result.edges.num_bins,
                "seed": cfg.seed,
            },
        )
        write_text(fold_dir / "run_log.csv", "".join(line + "\n" for line in result.log_rows))
        text = predictions_to_csv(held_out, fid, res.hazards.value, table.risks, result.edges)
        write_text(fold_dir / "predictions.csv", text)
        return text, table

    per_fold = {}
    texts = []  # the pooled predictions.csv: the folds' tables under one header
    for fid, (text, table) in zip(fold_ids, map_folds(run_fold, fold_ids)):
        texts.append(text.partition("\n")[2] if texts else text)
        per_fold[str(fid)] = _fold_metrics(table)
        print(f"fold {fid}: c-index {per_fold[str(fid)]['cindex']:.4f}")

    write_text(out_dir / "predictions.csv", "".join(texts))
    overall = _write_metrics(out_dir / "metrics.json", per_fold)
    print(f"overall c-index {overall['mean']:.4f} +/- {overall['std']:.4f}")
    return 0


def _checkpoint_paths(checkpoint: str) -> list[Path]:
    """The checkpoint file, or each fold<k>/checkpoint.json of a run directory in order of k."""
    path = Path(checkpoint)
    if path.is_dir():
        found = sorted((p for p in path.glob("fold*/checkpoint.json")
                        if _FOLD_DIR.fullmatch(p.parent.name)),
                       key=lambda p: (int(p.parent.name[4:]), p))
        if not found:
            raise FileNotFoundError(f"no fold checkpoints under {path}")
        return found
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    return [path]


def _read_run(checkpoint: str, entries: list[ManifestEntry]):
    """The paths of `checkpoint`, and held_out(meta, path): the fold key of the checkpoint at
    `path` and the entries it scores, by the folds.csv beside a run's fold<k>/ (read here,
    once), else by the manifest's fold column; every entry if neither assigns a fold."""
    paths = _checkpoint_paths(checkpoint)
    folds_file = paths[0].parent.parent / "folds.csv"  # beside a run's fold<k>/ directories
    by_id = None  # sample_id -> fold, as the run's folds.csv assigns them
    if _FOLD_DIR.fullmatch(paths[0].parent.name) and folds_file.exists():
        by_id = {}
        for line, row in csv_rows(folds_file, ConfigError)[1:]:
            try:
                sample_id, fold = row
                by_id[sample_id] = int(fold)
            except ValueError:
                raise ConfigError(
                    f"{folds_file}:{line}: expected 'sample_id,fold', got {row}") from None
        missing = sorted({f"fold{f}" for f in by_id.values()} - {p.parent.name for p in paths})
        if missing and Path(checkpoint).is_dir():  # a checkpoint for every fold it names
            raise ConfigError(f"{folds_file} names folds with no checkpoint: {', '.join(missing)}")

    def held_out(meta: dict, path: Path) -> tuple[int, list[ManifestEntry]]:
        fold = meta.get("fold")
        if "fold" in meta and (type(fold) is not int or fold < 0):  # a bool is an int
            raise ConfigError(f"{path}: meta.fold must be a non-negative integer, got {fold!r}")
        if by_id is None and all(e.fold < 0 for e in entries):  # scored whole, as fold 0
            return (0 if fold is None else fold), entries
        if fold is None:
            raise ConfigError(f"{path}: meta.fold is missing, so its held-out samples are unknown")
        if by_id is not None:
            if fold not in by_id.values():
                raise ConfigError(f"{path}: {folds_file} has no fold {fold}, "
                                  "so the checkpoint is not from this run")
            subset, source = [e for e in entries if by_id.get(e.sample_id) == fold], folds_file
        else:
            subset, source = split_fold(entries, fold)[1], "the manifest"
        if not subset:
            raise ConfigError(f"fold {fold}: {source} assigns no sample of the dataset to it")
        return fold, subset
    return paths, held_out


def cmd_eval(
    cfg: RunConfig,
    checkpoint: str,
    repeats: int | None = None,
    pin_segment: int | None = None,
) -> int:
    model_cfg = cfg.model_config()
    paths, held_out = _read_run(checkpoint, load_manifest(_manifest(cfg)))

    def score(path: Path) -> tuple:  # one checkpoint and the samples it scores, in a lane
        params, meta = load_checkpoint(path, model_cfg)
        lifted = lift_params(params, requires_grad=False)
        fold, entries = held_out(meta, path)
        res, table = predict_fold(_load_dataset(cfg, entries), lifted, model_cfg,
                                  np.random.default_rng([cfg.seed, fold, 0xE7A1]), pin_segment)
        metrics = _fold_metrics(table)
        stability = None
        if repeats:
            srng = np.random.default_rng([cfg.seed, fold, 0x57AB])
            scores, mean, std = stability_report(
                (res.moe_a, res.moe_b), lifted, model_cfg, table, repeats, srng)
            stability = {"scores": scores, "mean": mean, "std": std}
        return fold, metrics, stability, table

    scored = map_folds(score, paths,  # in path order, whatever the lanes
                       describe=lambda held: "checkpoint " + ", ".join(map(str, held)))
    first = {}  # fold -> its checkpoint: per_fold and stability are keyed by fold
    for path, (fold, *_) in zip(paths, scored):
        if first.setdefault(fold, path) != path:
            raise ConfigError(f"checkpoints {first[fold]} and {path} both hold fold {fold}")
    per_fold = {str(fold): metrics for fold, metrics, *_ in scored}
    stability = {str(fold): stab for fold, _, stab, *_ in scored if stab is not None}
    table = RiskTable(**{column: np.concatenate([getattr(t, column) for *_, t in scored])
                         for column in ("risks", "times", "events")})
    high, low = _median_split(table)
    groups = {
        "high_risk": km_estimate(table.times[high], table.events[high]),
        "low_risk": km_estimate(table.times[low], table.events[low]),
    }
    out_dir = Path(cfg.out_dir)
    save_config(cfg, out_dir / "config.json")
    write_text(out_dir / "km_curves.csv", km_curves_csv(groups))
    extra = {"stability": stability} if stability else None
    overall = _write_metrics(out_dir / "metrics.json", per_fold, extra)
    print(f"eval c-index {overall['mean']:.4f} +/- {overall['std']:.4f}")
    for fold, s in stability.items():
        print(f"fold {fold} stability: mean {s['mean']:.4f} std {s['std']:.5f}")
    return 0


def cmd_analyze(cfg: RunConfig, checkpoint: str, pin_segment: int | None = None) -> int:
    records = _load_dataset(cfg)
    model_cfg = cfg.model_config()
    params, _ = load_checkpoint(_checkpoint_paths(checkpoint)[0], model_cfg)
    lifted = lift_params(params, requires_grad=False)
    out_dir = Path(cfg.out_dir)
    save_config(cfg, out_dir / "config.json")

    rng = np.random.default_rng([cfg.seed, 0xA7A])
    res = forward(records, lifted, model_cfg, rng, pin_segments=(pin_segment, pin_segment))
    counts = expert_histogram(res.traces)
    router_names = ["level1_a", "level1_b", "level2"]
    for name, row in zip(router_names, counts):
        lines = "".join(f"{j},{int(c)}\n" for j, c in enumerate(row))
        write_text(out_dir / f"histogram_{name}.csv", "expert,count\n" + lines)

    summary_lines = ["modality,delta"]
    for modality in ("a", "b"):
        pre, post, delta = redundancy_score(getattr(res, f"moe_{modality}"))
        write_text(out_dir / f"redundancy_{modality}_pre.csv", matrix_text(pre))
        write_text(out_dir / f"redundancy_{modality}_post.csv", matrix_text(post))
        summary_lines.append(f"{modality},{delta:.17g}")
    write_text(out_dir / "redundancy_summary.csv", "\n".join(summary_lines) + "\n")
    print(f"analysis written to {out_dir}")
    return 0


@functools.cache  # one parser per process: parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="hdmoe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synth", "train", "eval", "analyze"):
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", type=str, default=None, help="override output directory")
        p.add_argument("--desk", action="store_true", help="desk-scale preset (dims / 8)")
        if name != "synth":
            p.add_argument("--pin-segment", type=int, default=None,
                           help="pin the fusion segment value (a positive divisor of d1)")
        if name in ("eval", "analyze"):
            p.add_argument("--checkpoint", type=str, required=True,
                           help="checkpoint file or training output directory")
        if name == "eval":
            p.add_argument("--repeats", type=int, default=None,
                           help="stability repeats with independent fusion draws")
    return parser


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
        if args.command == "synth":
            return cmd_synth(cfg)
        if args.command == "train":
            return cmd_train(cfg, pin_segment=args.pin_segment)
        if args.command == "eval":
            return cmd_eval(cfg, args.checkpoint, repeats=args.repeats, pin_segment=args.pin_segment)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.checkpoint, pin_segment=args.pin_segment)
        raise ConfigError(f"unknown command {args.command}")
    except (ConfigError, DataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericsError, MetricError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
