"""Dataset manifest/feature ingestion, discrete-time binning, fold splits,
and the synthetic multimodal cohort generator used for all experiments.

Manifest format: UTF-8 CSV with header
``sample_id,time_months,censored,modality_a_file,modality_b_file`` and an
optional ``fold`` column. Feature files are header-less CSV matrices, one
instance per row. Censoring follows c=1 == censored.
"""

from __future__ import annotations

import csv
import io
import math
import os
import signal
import threading
import uuid
import warnings
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

MANIFEST_COLUMNS = ["sample_id", "time_months", "censored", "modality_a_file", "modality_b_file"]


@dataclass(frozen=True)
class SampleRecord:
    sample_id: str
    features_a: np.ndarray  # [n_a, d_in]
    features_b: np.ndarray  # [n_b, d_in]
    time_months: float
    censored: int  # 1 = censored
    bin_label: int = 0  # 1..K once assigned; 0 = unassigned
    fold: int = -1

    def __post_init__(self):
        if self.features_a.ndim != 2 or self.features_b.ndim != 2:
            raise DataError(f"{self.sample_id}: feature bags must be 2-D")
        if self.features_a.shape[0] < 1 or self.features_b.shape[0] < 1:
            raise DataError(f"{self.sample_id}: empty feature bag")
        if self.features_a.shape[1] != self.features_b.shape[1]:
            raise DataError(
                f"{self.sample_id}: modality column counts differ "
                f"({self.features_a.shape[1]} vs {self.features_b.shape[1]})"
            )
        if not 0 <= self.time_months < math.inf:
            raise DataError(f"{self.sample_id}: non-finite or negative time_months {self.time_months}")
        if self.censored not in (0, 1):
            raise DataError(f"{self.sample_id}: censored must be 0 or 1")


@dataclass(frozen=True)
class ManifestEntry:
    """One manifest row; feature matrices not yet loaded."""

    sample_id: str
    time_months: float
    censored: int
    modality_a_file: str
    modality_b_file: str
    fold: int = -1


@dataclass(frozen=True)
class BinEdges:
    edges: tuple[float, ...]  # K-1 strictly increasing interior edges
    num_bins: int

    def __post_init__(self):
        if len(self.edges) != self.num_bins - 1:
            raise ConfigError("need exactly K-1 interior edges")
        if any(b <= a for a, b in zip(self.edges, self.edges[1:])):
            raise ConfigError("bin edges must be strictly increasing")


def load_manifest(path: str | os.PathLike) -> list[ManifestEntry]:
    path = Path(path)
    entries: list[ManifestEntry] = []
    seen: set[str] = set()
    rows = csv_rows(path, DataError)
    if not rows:
        raise DataError(f"{path}: empty manifest (no header)")
    header = [h.strip() for h in rows[0][1]]
    missing = [c for c in MANIFEST_COLUMNS if c not in header]
    if missing:
        raise DataError(f"{path}: manifest missing columns {missing}")
    col = {name: header.index(name) for name in header}
    has_fold = "fold" in col
    for lineno, row in rows[1:]:
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise DataError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        try:
            sample_id = row[col["sample_id"]].strip()
            time_months = float(row[col["time_months"]])
            censored = int(row[col["censored"]])
            fold = int(row[col["fold"]]) if has_fold else -1
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if not sample_id:
            raise DataError(f"{path}:{lineno}: empty sample_id")
        if sample_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate sample_id {sample_id!r}")
        if censored not in (0, 1):
            raise DataError(f"{path}:{lineno}: censored must be 0 or 1, got {censored}")
        if not math.isfinite(time_months):
            raise DataError(f"{path}:{lineno}: non-finite time_months {time_months}")
        if time_months < 0:
            raise DataError(f"{path}:{lineno}: negative time_months")
        seen.add(sample_id)
        entries.append(
            ManifestEntry(
                sample_id=sample_id,
                time_months=time_months,
                censored=censored,
                modality_a_file=row[col["modality_a_file"]].strip(),
                modality_b_file=row[col["modality_b_file"]].strip(),
                fold=fold,
            )
        )
    return entries


def _load_feature_file(path: Path, sample_id: str) -> np.ndarray:
    try:  # from a handle: given a path, loadtxt resolves it as a possible URL on every call
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            # a file with no data is reported below, as the DataError alone
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(fh, delimiter=",", ndmin=2, dtype=np.float64)
    except ValueError as exc:  # a UnicodeDecodeError too
        raise DataError(f"{path}: bad feature file for {sample_id}: {exc}") from None
    if arr.size == 0:
        raise DataError(f"{path}: empty feature file for {sample_id}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: non-finite features for {sample_id}")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


def _read_bags(paths: list[Path]) -> list[np.ndarray] | None:
    """Each file's matrix as a read-only row view of one array, from one np.loadtxt over
    the data lines of all files; None on any failure, which _load_feature_file then names.
    A line is data unless it is empty or starts with '#': the lines np.loadtxt skips."""
    try:
        kept, ends = [], []
        for path in paths:
            with open(path, encoding="utf-8") as fh:  # universal newlines, as loadtxt reads
                lines = [line for line in fh.read().split("\n") if line[:1] not in ("", "#")]
            if not lines:
                return None
            kept += lines
            ends.append(len(kept))
        arr = np.loadtxt(kept, delimiter=",", ndmin=2, dtype=np.float64)
    except (OSError, ValueError):  # a UnicodeDecodeError too
        return None
    # a kept line that loadtxt skipped would shift every later bag
    if arr.shape[0] != len(kept) or not np.isfinite(arr).all():
        return None
    arr.flags.writeable = False
    return np.split(arr, ends[:-1])


def load_samples(manifest_path: str | os.PathLike,
                 entries: list[ManifestEntry] | None = None) -> list[SampleRecord]:
    """Load the feature files of `entries` (default: every manifest entry) as records, in
    their order. Errors are those of reading file by file, in manifest order."""
    base = Path(manifest_path).parent
    if entries is None:
        entries = load_manifest(manifest_path)
    paths = [base / name for e in entries for name in (e.modality_a_file, e.modality_b_file)]
    bags = _read_bags(paths) if paths else []
    if bags is None:  # again file by file, each record after its two files: first error raises
        bags = (_load_feature_file(path, entries[i // 2].sample_id) for i, path in enumerate(paths))
    bags = iter(bags)
    return [
        SampleRecord(
            sample_id=e.sample_id, features_a=next(bags), features_b=next(bags),
            time_months=e.time_months, censored=e.censored, fold=e.fold,
        )
        for e in entries
    ]


class _SignalHold:
    """SIGINT and SIGTERM recorded, not handled, from start() to release(), which
    restores the handlers and raises each one again. Main thread only: handlers run there."""

    def __init__(self):
        self.held, self.swapped = [], {}

    def start(self) -> None:
        if self.held:  # recorded between two writes of a cohort: raised before the next
            self.release()
        if not self.swapped and threading.current_thread() is threading.main_thread():
            for sig in (signal.SIGINT, signal.SIGTERM):
                if signal.getsignal(sig) not in (signal.SIG_IGN, None):
                    self.swapped[sig] = signal.signal(sig, lambda taken, _: self.held.append(taken))

    def release(self) -> None:
        self._restore()
        while self.held:
            signal.raise_signal(self.held.pop(0))

    def _restore(self) -> None:
        """Each swapped handler back, SIGTERM's first. A restored handler that raises, run by
        a signal between two restorations, leaves the rest to the finally."""
        try:
            while self.swapped:
                sig = next(reversed(self.swapped))
                signal.signal(sig, self.swapped[sig])
                del self.swapped[sig]  # only once its handler is back
        finally:
            if self.swapped:
                self._restore()


_cohort = threading.local()  # .hold: the hold write_dataset keeps over all of a cohort's files


def write_text(path: str | os.PathLike, text: str) -> None:
    """The package's one way to write a file: `text` (UTF-8, line ends as
    given) goes to a temp file beside `path`, which then replaces `path`, so a
    crash or kill mid-write leaves the old file or none, never a truncated
    one. In the main thread, a SIGINT or SIGTERM that arrives meanwhile is recorded,
    whichever thread takes it, and raised again once the temp file is renamed or
    removed; inside write_dataset, one recorded between two files is raised before
    the next. Creates missing parent directories. Not fsynced: no power-loss guard."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    cohort = getattr(_cohort, "hold", None)
    hold = cohort or _SignalHold()
    try:
        hold.start()
        # mode "x" applies the umask as "w" does; mkstemp would give 0o600
        with open(tmp, "x", newline="", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    finally:  # the old handlers back, then each recorded signal again, after the clean-up
        if hold is not cohort or hold.held:
            hold.release()


def csv_rows(path: str | os.PathLike, error: type[Exception]) -> list[tuple[int, list[str]]]:
    """(line number, fields) of each row of a UTF-8 CSV file. A byte that is
    not UTF-8, or a field over csv's size limit, raises `error` naming the
    file and line."""
    raw = Path(path).read_bytes()
    try:
        reader = csv.reader(io.StringIO(raw.decode("utf-8"), newline=""))
        return [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise error(f"{path}:{line}: not UTF-8 text: {exc.reason}") from None
    except csv.Error as exc:
        raise error(f"{path}:{reader.line_num}: {exc}") from None


def csv_text(rows, lineterminator: str = "\r\n") -> str:
    """`rows` as CSV with the usual quoting; csv's own line end by default."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator=lineterminator).writerows(rows)
    return buf.getvalue()


def matrix_text(arr: np.ndarray) -> str:
    """A header-less CSV matrix, every value at full float64 precision."""
    rows = np.atleast_2d(np.asarray(arr).T).T  # a 1-D array is a column, as in np.savetxt
    template = ",".join(["%.17g"] * rows.shape[1]) + "\n"
    return "".join(template % tuple(row) for row in rows.tolist())


def compute_bin_edges(records: list[SampleRecord], num_bins: int) -> BinEdges:
    """Interior edges at the j/K quantiles (linear interpolation) of
    uncensored event times."""
    if num_bins < 1:
        raise ConfigError("num_bins must be >= 1")
    if num_bins == 1:
        return BinEdges(edges=(), num_bins=1)
    times = np.array([r.time_months for r in records if r.censored == 0])
    if len(np.unique(times)) < num_bins:
        raise DataError(
            f"need at least {num_bins} distinct uncensored event times, "
            f"got {len(np.unique(times))}"
        )
    qs = np.arange(1, num_bins) / num_bins
    edges = np.quantile(times, qs, method="linear")
    if np.any(np.diff(edges) <= 0):
        raise DataError("tied event times collapse the quantile edges")
    return BinEdges(edges=tuple(float(e) for e in edges), num_bins=num_bins)


def assign_bin(time_months: float, edges: BinEdges) -> int:
    """Bin j iff time in [t_{j-1}, t_j); last bin closed at +inf. 1-based."""
    return int(np.searchsorted(edges.edges, time_months, side="right")) + 1


def make_folds(records: list[SampleRecord], k_folds: int, seed: int) -> list[SampleRecord]:
    """Seeded random partition into k near-equal folds (not stratified)."""
    if k_folds < 2:
        raise ConfigError("k_folds must be >= 2")
    if len(records) < k_folds:
        raise ConfigError(f"{len(records)} records cannot fill {k_folds} folds")
    rng = np.random.default_rng([seed, 0xF01D])
    order = rng.permutation(len(records))
    out = list(records)
    for fold_id, chunk in enumerate(np.array_split(order, k_folds)):
        for idx in chunk:
            out[idx] = replace(records[idx], fold=fold_id)
    return out


# ---------------------------------------------------------------------------
# synthetic cohort


@dataclass(frozen=True)
class SynthConfig:
    cohort: int = 200
    d_in: int = 32
    bag_a: int = 6
    bag_b: int = 6
    latent_shared: int = 4
    latent_spec: int = 4
    noise: float = 0.25
    redundancy: float = 0.0  # fraction of duplicated feature columns
    w_shared: float = 0.3
    w_spec_a: float = 0.7
    w_spec_b: float = 1.2
    hazard_base: float = -2.5
    hazard_slope: float = 1.0
    censor_max: float = 36.0


@dataclass(frozen=True)
class SynthTruth:
    sample_id: str
    z_shared: np.ndarray
    z_spec_a: np.ndarray
    z_spec_b: np.ndarray
    true_score: float


def _mixing(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(0.0, 1.0 / np.sqrt(rows), size=(rows, cols))


def _plant_duplicates(
    mixes: list[np.ndarray], redundancy: float, rng: np.random.Generator
) -> None:
    """Make the last round(redundancy*d) feature columns copies of earlier
    ones. One source map is applied to every mixing matrix of the modality so
    the duplication survives the latent mix."""
    d = mixes[0].shape[1]
    n_dup = int(round(redundancy * d))
    if n_dup <= 0:
        return
    if n_dup >= d:
        raise ConfigError("redundancy must leave at least one source column")
    sources = rng.integers(0, d - n_dup, size=n_dup)
    for mix in mixes:
        for i, src in enumerate(sources):
            mix[:, d - n_dup + i] = mix[:, src]


def generate_synthetic(
    cfg: SynthConfig, rng: np.random.Generator
) -> tuple[list[SampleRecord], list[SynthTruth]]:
    """Draw a cohort with shared/specific latent structure.

    Each modality's instances are linear mixes of (z_shared, its own
    z_spec) plus instance noise; a configurable fraction of feature
    columns are planted duplicates; the hazard score is linear in the
    latents; event times follow a per-month Bernoulli hazard on that
    score with independent uniform censoring.
    """
    for name in ("cohort", "d_in", "bag_a", "bag_b", "latent_shared", "latent_spec"):
        if getattr(cfg, name) < (0 if name == "cohort" else 1):
            raise ConfigError(f"{name} must be >= 1")

    mix_shared_a = _mixing(rng, cfg.latent_shared, cfg.d_in)
    mix_spec_a = _mixing(rng, cfg.latent_spec, cfg.d_in)
    mix_shared_b = _mixing(rng, cfg.latent_shared, cfg.d_in)
    mix_spec_b = _mixing(rng, cfg.latent_spec, cfg.d_in)
    _plant_duplicates([mix_shared_a, mix_spec_a], cfg.redundancy, rng)
    _plant_duplicates([mix_shared_b, mix_spec_b], cfg.redundancy, rng)

    # unit directions turning latent vectors into scalar risk components
    u_shared = rng.normal(size=cfg.latent_shared)
    u_shared /= np.linalg.norm(u_shared)
    u_a = rng.normal(size=cfg.latent_spec)
    u_a /= np.linalg.norm(u_a)
    u_b = rng.normal(size=cfg.latent_spec)
    u_b /= np.linalg.norm(u_b)

    records: list[SampleRecord] = []
    truths: list[SynthTruth] = []
    for i in range(cfg.cohort):
        z_shared = rng.normal(size=cfg.latent_shared)
        z_a = rng.normal(size=cfg.latent_spec)
        z_b = rng.normal(size=cfg.latent_spec)

        base_a = z_shared @ mix_shared_a + z_a @ mix_spec_a
        base_b = z_shared @ mix_shared_b + z_b @ mix_spec_b
        bag_a = base_a + cfg.noise * rng.normal(size=(cfg.bag_a, cfg.d_in))
        bag_b = base_b + cfg.noise * rng.normal(size=(cfg.bag_b, cfg.d_in))

        score = (
            cfg.w_shared * float(u_shared @ z_shared)
            + cfg.w_spec_a * float(u_a @ z_a)
            + cfg.w_spec_b * float(u_b @ z_b)
        )
        p_month = 1.0 / (1.0 + np.exp(-(cfg.hazard_base + cfg.hazard_slope * score)))
        p_month = min(max(p_month, 1e-6), 1.0 - 1e-6)
        event_month = int(rng.geometric(p_month))
        event_time = event_month - float(rng.uniform(0.0, 1.0))
        censor_time = float(rng.uniform(0.0, cfg.censor_max))
        if censor_time < event_time:
            observed, censored = censor_time, 1
        else:
            observed, censored = event_time, 0

        bag_a = np.ascontiguousarray(bag_a)
        bag_b = np.ascontiguousarray(bag_b)
        bag_a.flags.writeable = False
        bag_b.flags.writeable = False
        sample_id = f"synth{i:04d}"
        records.append(
            SampleRecord(
                sample_id=sample_id,
                features_a=bag_a,
                features_b=bag_b,
                time_months=observed,
                censored=censored,
            )
        )
        truths.append(
            SynthTruth(
                sample_id=sample_id,
                z_shared=z_shared,
                z_spec_a=z_a,
                z_spec_b=z_b,
                true_score=score,
            )
        )
    return records, truths


def write_dataset(
    out_dir: str | os.PathLike,
    records: list[SampleRecord],
    truths: list[SynthTruth] | None = None,
) -> Path:
    """Write per-sample feature CSVs (+ ground-truth sidecar), then the
    manifest: it goes last, so an interrupted write leaves none to load.

    Returns the manifest path.
    """
    out_dir = Path(out_dir)
    with_folds = any(r.fold >= 0 for r in records)
    rows = [MANIFEST_COLUMNS + ["fold"] * with_folds]
    _cohort.hold = hold = _SignalHold()  # one handler swap for all files, not one per file
    try:
        hold.start()
        for r in records:
            fa = f"features/{r.sample_id}_a.csv"
            fb = f"features/{r.sample_id}_b.csv"
            write_text(out_dir / fa, matrix_text(r.features_a))
            write_text(out_dir / fb, matrix_text(r.features_b))
            row = [r.sample_id, repr(float(r.time_months)), str(r.censored), fa, fb]
            rows.append(row + [str(r.fold)] * with_folds)
        if truths is not None:
            write_text(out_dir / "ground_truth.csv", _truth_csv(truths))
        manifest = out_dir / "manifest.csv"
        write_text(manifest, csv_text(rows))
    finally:
        del _cohort.hold
        hold.release()
    return manifest


def _truth_csv(truths: list[SynthTruth]) -> str:
    latents = ("z_shared", "z_spec_a", "z_spec_b")
    widths = [len(getattr(truths[0], name)) if truths else 0 for name in latents]
    header = ["sample_id", *(f"{name}_{i}" for name, n in zip(latents, widths) for i in range(n)),
              "true_score"]
    rows = [
        [t.sample_id]
        + [repr(float(v)) for v in (*t.z_shared, *t.z_spec_a, *t.z_spec_b, t.true_score)]
        for t in truths
    ]
    return csv_text([header] + rows)
