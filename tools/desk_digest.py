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

To check that a change leaves every artifact byte-identical, run it on the
parent commit's source and on the change's, and diff the two outputs:

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
import struct
import subprocess
import sys
import tempfile
from pathlib import Path

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


def run_pipeline(src: Path, work: Path) -> None:
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        # one BLAS thread: the digest should not depend on thread scheduling
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    (work / "base.json").write_text(json.dumps(BASE_CONFIG) + "\n")
    for args in PIPELINE:
        proc = subprocess.run(
            [sys.executable, "-m", "hdmoe", *args], cwd=work, env=env,
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(f"hdmoe {args[0]} exited {proc.returncode}")


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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=DEFAULT_SRC,
                        help="directory holding the hdmoe package (default: this checkout's src)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="hdmoe-digest-") as tmp:
        work = Path(tmp)
        run_pipeline(args.src.resolve(), work)
        print("\n".join(digest(work)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
