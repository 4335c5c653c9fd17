"""The loaders of files a user or an earlier run hands in, fuzzed: one value of
a valid file is set to an arbitrary JSON or CSV value. Each loader must return
or raise ConfigError/DataError (exit 2); an OSError is allowed only where the
value names a feature file that cannot be opened (exit 4). Only loaders run
here: nothing trains, and nothing is allocated by a fuzzed size."""

import copy
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hdmoe import cli
from hdmoe.config import RunConfig, apply_desk_preset, load_config
from hdmoe.data import SampleRecord, load_samples, write_dataset
from hdmoe.errors import ConfigError, DataError
from hdmoe.model import ModelConfig, init_params, load_checkpoint, named_params, save_checkpoint

from helpers import checkpoint_as_v1

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=20),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=4),
    max_leaves=8,
)
CSV_VALUES = st.binary(max_size=40) | st.text(max_size=40).map(str.encode)
NON_UTF8 = b"synth\xff0001"
OVERSIZED = b"0" * 131073  # one over csv's default field size limit
FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

TINY = ModelConfig(d_in=2, d1=2, d2=4, token_len_l1=1, token_len_l2=1, num_experts=2,
                   expansion=1, num_bins=2, segment_values=(1, 2))
TINY_PARAMS = init_params(TINY, np.random.default_rng(0))
CHECKPOINT_ENTRIES = [("format_version",), ("meta",), ("params",)] + [
    ("params", name, *key) for name, _ in named_params(TINY_PARAMS)
    for key in ((), ("shape",), ("data",))]
SAMPLES = 3


def _returns_or_rejects(load):
    try:
        load()
    except (ConfigError, DataError):
        pass


def _with_value(lines: list[bytes], row: int, col: int | None, value: bytes) -> bytes:
    """The CSV lines with one row's cell col (the whole row if col is None)
    replaced by the raw bytes of value."""
    cells = lines[row].split(b",")
    cells[slice(None) if col is None else slice(col, col + 1)] = [value]
    return b"\r\n".join([*lines[:row], b",".join(cells), *lines[row + 1:]])


@given(st.sampled_from(sorted(RunConfig.__annotations__)), JSON_VALUES)
@FUZZ
def test_load_config_with_one_fuzzed_key(tmp_path, key, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**asdict(apply_desk_preset(RunConfig())), key: value}))
    _returns_or_rejects(lambda: load_config(path).validate())


@pytest.fixture(scope="module")
def checkpoint_blobs(tmp_path_factory):
    """The parsed checkpoint of TINY_PARAMS by format version: v2 as written
    today, v1 as earlier runs left it."""
    path = tmp_path_factory.mktemp("checkpoint") / "checkpoint.json"
    save_checkpoint(path, TINY_PARAMS, {"fold": 0})
    v2 = json.loads(path.read_text())
    return {1: checkpoint_as_v1(v2), 2: v2}


@given(st.sampled_from([1, 2]), st.sampled_from(CHECKPOINT_ENTRIES), JSON_VALUES)
@FUZZ
def test_load_checkpoint_with_one_fuzzed_entry(tmp_path, checkpoint_blobs, version, entry, value):
    blob = copy.deepcopy(checkpoint_blobs[version])
    *parents, last = entry
    node = blob
    for key in parents:
        node = node[key]
    node[last] = value
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(blob))
    _returns_or_rejects(lambda: load_checkpoint(path, TINY))


@given(st.sampled_from([1, 2]), st.sampled_from([name for name, _ in named_params(TINY_PARAMS)]),
       st.data())
@FUZZ
def test_load_checkpoint_rejects_a_shape_entry_equal_to_its_int_but_not_one(
        tmp_path, checkpoint_blobs, version, name, data):
    blob = copy.deepcopy(checkpoint_blobs[version])
    shape = blob["params"][name]["shape"]
    i = data.draw(st.integers(0, len(shape) - 1))
    n = shape[i]
    shape[i] = data.draw(st.sampled_from([float(n), *([bool(n)] if n in (0, 1) else [])]))
    path = tmp_path / "checkpoint.json"
    path.write_text(json.dumps(blob))
    with pytest.raises(ConfigError, match=f"{name} has shape"):
        load_checkpoint(path, TINY)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """A manifest's lines and the feature files it names, three samples."""
    rng = np.random.default_rng(0)
    records = [SampleRecord(f"synth{i:04d}", rng.normal(size=(2, 3)), rng.normal(size=(1, 3)),
                            float(i + 1), i % 2, -1) for i in range(SAMPLES)]
    manifest = write_dataset(tmp_path_factory.mktemp("dataset"), records)
    features = {p.resolve() for p in (manifest.parent / "features").iterdir()}
    assert len(features) == 2 * SAMPLES
    return manifest, manifest.read_bytes().split(b"\r\n"), features


@given(st.integers(0, SAMPLES), st.integers(0, 4), CSV_VALUES)
@example(row=2, col=0, value=NON_UTF8)
@example(row=2, col=0, value=OVERSIZED)
@FUZZ
def test_load_samples_with_one_fuzzed_manifest_cell(dataset, row, col, value):
    manifest, lines, features = dataset
    fuzzed = manifest.with_name("fuzzed.csv")
    fuzzed.write_bytes(_with_value(lines, row, col, value))
    try:
        _returns_or_rejects(lambda: load_samples(fuzzed))
    except OSError as exc:  # the fuzzed value names a file no one wrote
        assert exc.filename is not None and Path(exc.filename).resolve() not in features


@given(st.integers(0, SAMPLES), CSV_VALUES)
@example(row=2, value=NON_UTF8)
@example(row=2, value=b"synth0001," + OVERSIZED)
@FUZZ
def test_read_folds_with_one_fuzzed_row(tmp_path, row, value):
    lines = [b"sample_id,fold", *(f"synth{i:04d},{i % 2}".encode() for i in range(SAMPLES))]
    (tmp_path / "folds.csv").write_bytes(_with_value(lines, row, None, value))
    checkpoint = tmp_path / "fold0" / "checkpoint.json"  # read as a run's, so folds.csv is read
    checkpoint.parent.mkdir(exist_ok=True)
    checkpoint.touch()
    _returns_or_rejects(lambda: cli._read_run(str(checkpoint), []))
