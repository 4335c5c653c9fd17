"""Command-line entry point: synth | train | eval | analyze.

Flags override config-file values; every run writes its resolved config next
to its outputs so results can be reproduced from that file alone. Exit codes:
0 success, 2 config/validation error, 3 runtime numerical error, 4 IO error
or a lost fold lane. HDMOE_LOG controls log verbosity (debug/info/warning)."""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
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

    def run_fold(fid: int) -> list:
        result = train_fold(records, fid, model_cfg, train_cfg)
        pred_rng = np.random.default_rng([cfg.seed, fid, 0x9E4])
        rows = predict_fold(
            records, fid, result.params, result.edges, model_cfg, pred_rng,
            pin_segment=pin_segment,
        )
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
        write_text(fold_dir / "predictions.csv", predictions_to_csv(rows, model_cfg.num_bins))
        return rows

    per_fold = {}
    all_rows = []
    for fid, rows in zip(fold_ids, map_folds(run_fold, fold_ids)):
        all_rows.extend(rows)
        per_fold[str(fid)] = _fold_metrics(RiskTable.from_predictions(rows))
        print(f"fold {fid}: c-index {per_fold[str(fid)]['cindex']:.4f}")

    write_text(out_dir / "predictions.csv", predictions_to_csv(all_rows, model_cfg.num_bins))
    overall = _write_metrics(out_dir / "metrics.json", per_fold)
    print(f"overall c-index {overall['mean']:.4f} +/- {overall['std']:.4f}")
    return 0


def _read_folds(folds_file: Path) -> dict[str, int]:
    """sample_id -> fold, as a training run's folds.csv assigns them."""
    by_id = {}
    for line, row in csv_rows(folds_file, ConfigError)[1:]:
        try:
            sample_id, fold = row
            by_id[sample_id] = int(fold)
        except ValueError:
            raise ConfigError(f"{folds_file}:{line}: expected 'sample_id,fold', got {row}") from None
    return by_id


def _checkpoint_paths(checkpoint: str) -> list[Path]:
    path = Path(checkpoint)
    if path.is_dir():
        found = sorted(path.glob("fold*/checkpoint.json"))
        if not found:
            raise FileNotFoundError(f"no fold checkpoints under {path}")
        folds_file = path / "folds.csv"
        named = set(_read_folds(folds_file).values()) if folds_file.exists() else set()
        missing = sorted({f"fold{f}" for f in named} - {p.parent.name for p in found})
        if missing:
            raise ConfigError(f"{folds_file} names folds with no checkpoint: {', '.join(missing)}")
        return found
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    return [path]


def _records_for_checkpoint(entries: list[ManifestEntry], meta, path: Path,
                            folds_file: Path | None) -> list[ManifestEntry]:
    """The held-out split of the checkpoint at `path` when fold assignments are recoverable
    (never empty), else all entries."""
    fold = meta.get("fold")
    if fold is not None and folds_file is not None and folds_file.exists():
        by_id = _read_folds(folds_file)
        if fold not in by_id.values():
            raise ConfigError(f"{path}: {folds_file} has no fold {fold}, "
                              "so the checkpoint is not from this run")
        held_out, source = [e for e in entries if by_id.get(e.sample_id) == fold], folds_file
    elif fold is not None and any(e.fold >= 0 for e in entries):
        held_out, source = split_fold(entries, fold)[1], "the manifest"
    else:
        return entries
    if not held_out:
        raise ConfigError(f"fold {fold}: {source} assigns no sample of the dataset to it")
    return held_out


def cmd_eval(
    cfg: RunConfig,
    checkpoint: str,
    repeats: int | None = None,
    pin_segment: int | None = None,
) -> int:
    entries = load_manifest(_manifest(cfg))
    model_cfg = cfg.model_config()
    paths = _checkpoint_paths(checkpoint)

    def score(path: Path) -> tuple:  # one checkpoint and the samples it scores, in a lane
        params, meta = load_checkpoint(path, model_cfg)
        lifted, _ = lift_params(params, requires_grad=False)
        fold = meta.get("fold", 0)
        if type(fold) is not int or fold < 0:  # a bool is an int; JSON has no other int type
            raise ConfigError(f"{path}: meta.fold must be a non-negative integer, got {fold!r}")
        folds_file = path.parent.parent / "folds.csv" if path.parent.name.startswith("fold") else None
        subset = _load_dataset(cfg, _records_for_checkpoint(entries, meta, path, folds_file))
        rng = np.random.default_rng([cfg.seed, fold, 0xE7A1])
        res = forward(subset, lifted, model_cfg, rng, pin_segments=(pin_segment, pin_segment))
        times = np.array([r.time_months for r in subset])
        events = np.array([1 - r.censored for r in subset])
        metrics = _fold_metrics(RiskTable(risks=res.risk, times=times, events=events))
        stability = None
        if repeats:
            srng = np.random.default_rng([cfg.seed, fold, 0x57AB])
            scores, mean, std = stability_report(
                (res.moe_a, res.moe_b), lifted, model_cfg, subset, repeats, srng)
            stability = {"scores": scores, "mean": mean, "std": std}
        return fold, metrics, stability, res.risk, times, events

    scored = map_folds(score, paths,  # in path order, whatever the lanes
                       describe=lambda held: "checkpoint " + ", ".join(map(str, held)))
    first = {}  # fold -> its checkpoint: per_fold and stability are keyed by fold
    for path, (fold, *_) in zip(paths, scored):
        if first.setdefault(fold, path) != path:
            raise ConfigError(f"checkpoints {first[fold]} and {path} both hold fold {fold}")
    per_fold = {str(fold): metrics for fold, metrics, *_ in scored}
    stability = {str(fold): stab for fold, _, stab, *_ in scored if stab is not None}
    risks, times, events = (np.concatenate(column) for column in list(zip(*scored))[3:])
    table = RiskTable(risks=risks, times=times, events=events)
    high, low = _median_split(table)
    groups = {
        "high_risk": km_estimate(times[high], events[high]),
        "low_risk": km_estimate(times[low], events[low]),
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
    lifted, _ = lift_params(params, requires_grad=False)
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
