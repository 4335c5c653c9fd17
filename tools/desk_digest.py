"""Digest of every artifact of one fixed desk pipeline, for byte-identity checks.

Runs synth (60 samples, redundancy 0.5, seed 3) -> train (2 folds x 2 epochs)
-> eval --repeats 3 -> analyze in a fresh temporary directory, with
PYTHONPATH set to the given source directory, and prints one line
``sha256  relative/path`` per file written, sorted by path. All paths inside
the run are relative, so the digest depends only on the code under test.

Each ``checkpoint.json`` gets one more line, ``sha256  relative/path#params``:
the digest of what it holds, decoded by this script whatever its format
version (v1 decimal lists or v2 base64), so a change of encoding alone leaves
that line as it was. It hashes each parameter's name, shape and little-endian
float64 bytes in file order, then the canonical JSON of ``meta``.

After the artifact lines come the refusal probes: each copies ``train/`` to
``probe-<name>/``, breaks the copy one way and runs ``eval`` of it, then
prints one line ``probe <name>: exit <code>: <stderr>``. A probe writes no
artifact, and its paths are relative, so its line depends only on the code.

The first line, ``# numpy <version>, BLAS <library> <version>``, names the
numpy and BLAS of this interpreter, which also runs the pipeline: another
numpy or BLAS may round the same code's values differently.

``tests/data/desk_digest.txt`` holds this output for the committed tree, and
``tests/test_tools.py`` compares the checkout's output with it line by line. A
change that moves bits on purpose rewrites that file in the same commit
(``python tools/desk_digest.py > tests/data/desk_digest.txt``). To compare two
trees directly, run it on each tree's source and diff the two outputs:

    git archive <parent> | tar -x -C /tmp/parent
    python tools/desk_digest.py --src /tmp/parent/src > parent.txt
    python tools/desk_digest.py > change.txt
    diff parent.txt change.txt
"""

from __future__ import annotations

import argparse
import base64
import hashlib
import json
import os
import shutil
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

DEFAULT_SRC = Path(__file__).resolve().parent.parent / "src"
BASE_CONFIG = {"cohort": 60, "redundancy": 0.5, "k_folds": 2, "epochs": 2}
PIPELINE = [
    ["synth", "--desk", "--seed", "3", "--config", "base.json", "--out", "data"],
    ["train", "--config", "data/config.json", "--out", "train"],
    ["eval", "--config", "data/config.json", "--checkpoint", "train", "--out", "eval",
     "--repeats", "3"],
    ["analyze", "--config", "data/config.json", "--checkpoint", "train/fold0/checkpoint.json",
     "--out", "analysis"],
]


def _env(src: Path) -> dict:
    return {
        **os.environ,
        "PYTHONPATH": str(src),
        # one BLAS thread: the digest should not depend on thread scheduling
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def _hdmoe(src: Path, work: Path, args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "hdmoe", *args], cwd=work, env=_env(src),
                          capture_output=True, text=True)


def run_pipeline(src: Path, work: Path) -> None:
    (work / "base.json").write_text(json.dumps(BASE_CONFIG) + "\n")
    for args in PIPELINE:
        proc = _hdmoe(src, work, args)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"hdmoe {args[0]} exited {proc.returncode}")


def _edit_folds(run: Path, edit) -> None:
    """Rewrites the rows of the run's folds.csv below its header as edit(rows)."""
    header, *rows = (run / "folds.csv").read_text().splitlines()
    (run / "folds.csv").write_text("\n".join([header, *edit(rows)]) + "\n")


def _drop_meta_fold(run: Path) -> None:
    ckpt = run / "fold1" / "checkpoint.json"
    blob = json.loads(ckpt.read_text())
    del blob["meta"]["fold"]
    ckpt.write_text(json.dumps(blob))


PROBES = {  # name -> the fault made in a copy of the run
    "fold1_checkpoint_removed": lambda run: (run / "fold1" / "checkpoint.json").unlink(),
    "fold0_copied_into_fold1": lambda run: shutil.copyfile(run / "fold0" / "checkpoint.json",
                                                           run / "fold1" / "checkpoint.json"),
    "malformed_folds_row": lambda run: _edit_folds(run, lambda rows: [*rows, "synth0000,one"]),
    "meta_fold_dropped": _drop_meta_fold,
    "folds_renamed_samples": lambda run: _edit_folds(run, lambda rows: ["renamed-" + r for r in rows]),
    "folds_without_fold1": lambda run: _edit_folds(
        run, lambda rows: [r for r in rows if not r.endswith(",1")]),
}


def run_probes(src: Path, work: Path) -> list[str]:
    """eval of a broken copy of work/train per probe: one line each, its exit code and stderr."""
    lines = []
    for name, fault in PROBES.items():
        run = f"probe-{name}"
        shutil.copytree(work / "train", work / run)
        fault(work / run)
        proc = _hdmoe(src, work, ["eval", "--config", "data/config.json", "--checkpoint", run,
                                  "--out", f"{run}/eval"])
        lines.append(f"probe {name}: exit {proc.returncode}: " + " | ".join(proc.stderr.splitlines()))
    return lines


def params_digest(path: Path) -> str:
    """sha256 of a checkpoint's decoded parameters and meta (see above)."""
    blob = json.loads(path.read_text(encoding="utf-8"))
    h = hashlib.sha256()
    for name, entry in blob["params"].items():
        data = entry["data"]
        raw = (base64.b64decode(data, validate=True) if isinstance(data, str)
               else struct.pack(f"<{len(data)}d", *data))
        h.update(json.dumps([name, entry["shape"]]).encode() + raw)
    h.update(json.dumps(blob["meta"], sort_keys=True, separators=(",", ":")).encode())
    return h.hexdigest()


def digest(work: Path) -> list[str]:
    lines = []
    for p in sorted(p for p in work.rglob("*") if p.is_file()):
        rel = p.relative_to(work).as_posix()
        lines.append(f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {rel}")
        if p.name == "checkpoint.json":
            lines.append(f"{params_digest(p)}  {rel}#params")
    return lines


def environment() -> str:
    """The header line: this interpreter's numpy version and the BLAS it was built with."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"# numpy {np.__version__}, BLAS {blas['name']} {blas['version']}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="directory holding the hdmoe package (default: this checkout's src)")
    args = parser.parse_args(argv)
    src = args.src.resolve()
    with tempfile.TemporaryDirectory(prefix="hdmoe-digest-") as tmp:
        work = Path(tmp)
        run_pipeline(src, work)
        lines = digest(work)  # before the probes add their copies of the run
        print("\n".join([environment(), *lines, *run_probes(src, work)]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
