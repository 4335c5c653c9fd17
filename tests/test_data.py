import io
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmoe import data as hd
from hdmoe.errors import ConfigError, DataError

from helpers import load_samples_per_file


def _write_dataset(tmp_path, rows, header="sample_id,time_months,censored,modality_a_file,modality_b_file"):
    for name in {r.split(",")[3] for r in rows} | {r.split(",")[4] for r in rows if len(r.split(",")) > 4}:
        (tmp_path / name).write_text("1.0,2.0\n3.0,4.0\n")
    manifest = tmp_path / "manifest.csv"
    manifest.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))
    return manifest


def test_load_manifest_three_rows(tmp_path):
    rows = [
        "p1,12.5,0,a1.csv,b1.csv",
        "p2,3.0,1,a2.csv,b2.csv",
        "p3,40.25,0,a3.csv,b3.csv",
    ]
    manifest = _write_dataset(tmp_path, rows)
    entries = hd.load_manifest(manifest)
    assert [e.sample_id for e in entries] == ["p1", "p2", "p3"]
    assert entries[0].time_months == 12.5
    assert entries[1].censored == 1
    assert entries[2].modality_b_file == "b3.csv"
    assert all(e.fold == -1 for e in entries)


def test_load_manifest_bad_censor_flag(tmp_path):
    manifest = _write_dataset(tmp_path, ["p1,1.0,2,a1.csv,b1.csv"])
    with pytest.raises(DataError, match="manifest.csv:2"):
        hd.load_manifest(manifest)


def test_load_manifest_header_only(tmp_path):
    manifest = _write_dataset(tmp_path, [])
    assert hd.load_manifest(manifest) == []


def test_load_manifest_duplicate_id(tmp_path):
    manifest = _write_dataset(tmp_path, ["p1,1.0,0,a1.csv,b1.csv", "p1,2.0,0,a2.csv,b2.csv"])
    with pytest.raises(DataError, match="duplicate"):
        hd.load_manifest(manifest)


def test_load_manifest_missing_column(tmp_path):
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("sample_id,time_months\np1,1.0\n")
    with pytest.raises(DataError, match="missing columns"):
        hd.load_manifest(manifest)


def test_load_manifest_malformed_row_has_line_number(tmp_path):
    manifest = _write_dataset(tmp_path, ["p1,1.0,0,a1.csv,b1.csv", "p2,oops,0,a1.csv,b1.csv"])
    with pytest.raises(DataError, match=":3"):
        hd.load_manifest(manifest)


@pytest.mark.parametrize("time", ["nan", "inf", "-inf"])
def test_load_manifest_rejects_non_finite_time(tmp_path, time):
    manifest = _write_dataset(tmp_path, ["p1,1.0,0,a1.csv,b1.csv", f"p2,{time},0,a1.csv,b1.csv"])
    with pytest.raises(DataError, match="manifest.csv:3: non-finite time_months"):
        hd.load_manifest(manifest)


def test_load_samples_reads_features(tmp_path):
    manifest = _write_dataset(tmp_path, ["p1,5.0,0,a1.csv,b1.csv"])
    records = hd.load_samples(manifest)
    assert len(records) == 1
    assert records[0].features_a.shape == (2, 2)
    assert np.array_equal(records[0].features_b, [[1.0, 2.0], [3.0, 4.0]])


def _records_with_times(times, censored=None):
    censored = censored or [0] * len(times)
    feat = np.ones((1, 2))
    return [
        hd.SampleRecord(f"s{i}", feat, feat, t, c)
        for i, (t, c) in enumerate(zip(times, censored))
    ]


def test_bin_edges_quartiles_of_one_to_eight():
    records = _records_with_times(list(range(1, 9)))
    edges = hd.compute_bin_edges(records, 4)
    # oracle: sort the uncensored times and apply the linear-interpolation
    # quantile convention directly
    times = np.array(sorted(float(t) for t in range(1, 9)))
    expected = [np.quantile(times, q) for q in (0.25, 0.5, 0.75)]
    assert np.allclose(edges.edges, expected)
    assert edges.num_bins == 4


def test_bin_edges_ignores_censored():
    records = _records_with_times([1, 2, 3, 4, 100], censored=[0, 0, 0, 0, 1])
    edges = hd.compute_bin_edges(records, 2)
    assert edges.edges[0] == np.quantile([1.0, 2.0, 3.0, 4.0], 0.5)


def test_bin_edges_all_times_equal():
    records = _records_with_times([5, 5, 5, 5])
    with pytest.raises(DataError, match="distinct uncensored"):
        hd.compute_bin_edges(records, 4)


def test_bin_edges_k1_degenerate():
    edges = hd.compute_bin_edges(_records_with_times([3.0]), 1)
    assert edges.edges == ()
    assert hd.assign_bin(0.0, edges) == 1
    assert hd.assign_bin(1e9, edges) == 1


def test_assign_bin_boundaries():
    edges = hd.BinEdges(edges=(2.0, 4.0, 6.0), num_bins=4)
    assert hd.assign_bin(1.0, edges) == 1
    assert hd.assign_bin(2.0, edges) == 2  # half-open: edge belongs to the next bin
    assert hd.assign_bin(5.99, edges) == 3
    assert hd.assign_bin(6.0, edges) == 4
    assert hd.assign_bin(100.0, edges) == 4


@given(st.floats(0, 100), st.integers(2, 6))
@settings(max_examples=100, deadline=None)
def test_assign_bin_partition(time, k):
    edges = hd.BinEdges(edges=tuple(float(10 * j) for j in range(1, k)), num_bins=k)
    bins = [hd.assign_bin(time, edges)]
    assert len(bins) == 1 and 1 <= bins[0] <= k
    # indicator over bins sums to one
    assert sum(1 for j in range(1, k + 1) if j == bins[0]) == 1


def test_make_folds_even_split():
    records = _records_with_times(list(range(10)))
    folded = hd.make_folds(records, 5, seed=1)
    sizes = np.bincount([r.fold for r in folded], minlength=5)
    assert list(sizes) == [2, 2, 2, 2, 2]


def test_make_folds_uneven_split():
    records = _records_with_times(list(range(11)))
    folded = hd.make_folds(records, 5, seed=1)
    sizes = sorted(np.bincount([r.fold for r in folded], minlength=5))
    assert sizes == [2, 2, 2, 2, 3]


def test_make_folds_deterministic_and_partition():
    records = _records_with_times(list(range(23)))
    a = hd.make_folds(records, 5, seed=9)
    b = hd.make_folds(records, 5, seed=9)
    assert [r.fold for r in a] == [r.fold for r in b]
    assert all(r.fold >= 0 for r in a)
    c = hd.make_folds(records, 5, seed=10)
    assert [r.fold for r in a] != [r.fold for r in c]


def test_make_folds_too_few_records():
    with pytest.raises(ConfigError):
        hd.make_folds(_records_with_times([1, 2]), 5, seed=0)


def test_synthetic_no_signal_cindex_near_chance():
    cfg = hd.SynthConfig(cohort=300, noise=0.0, redundancy=0.0,
                         w_shared=0.0, w_spec_a=0.0, w_spec_b=0.0)
    records, truths = hd.generate_synthetic(cfg, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    risks = rng.normal(size=len(records))
    conc, comp = 0.0, 0
    for i in range(len(records)):
        if records[i].censored:
            continue
        for j in range(len(records)):
            if records[i].time_months < records[j].time_months:
                comp += 1
                if risks[i] > risks[j]:
                    conc += 1
                elif risks[i] == risks[j]:
                    conc += 0.5
    assert abs(conc / comp - 0.5) < 0.05


def test_synthetic_planted_redundancy():
    cfg = hd.SynthConfig(cohort=5, d_in=32, noise=0.0, redundancy=0.5)
    records, _ = hd.generate_synthetic(cfg, np.random.default_rng(3))
    for r in records:
        for bag in (r.features_a, r.features_b):
            dup = bag[:, 16:]
            # every duplicated column matches some source column exactly
            for col in range(16):
                diffs = np.abs(bag[:, :16] - dup[:, col : col + 1]).max(axis=0)
                assert diffs.min() < 1e-6


def test_synthetic_deterministic():
    cfg = hd.SynthConfig(cohort=20)
    r1, t1 = hd.generate_synthetic(cfg, np.random.default_rng(99))
    r2, t2 = hd.generate_synthetic(cfg, np.random.default_rng(99))
    for a, b in zip(r1, r2):
        assert a.time_months == b.time_months
        assert a.censored == b.censored
        assert np.array_equal(a.features_a, b.features_a)
        assert np.array_equal(a.features_b, b.features_b)
    for a, b in zip(t1, t2):
        assert a.true_score == b.true_score


def test_synthetic_shared_oracle_beats_chance():
    cfg = hd.SynthConfig(cohort=250, w_shared=3.0, w_spec_a=0.0, w_spec_b=0.0,
                         hazard_slope=1.5, noise=0.1)
    records, truths = hd.generate_synthetic(cfg, np.random.default_rng(5))
    # oracle predictor: the true score, a function of z_shared only here
    risks = [t.true_score for t in truths]
    conc, comp = 0.0, 0
    for i in range(len(records)):
        if records[i].censored:
            continue
        for j in range(len(records)):
            if records[i].time_months < records[j].time_months:
                comp += 1
                if risks[i] > risks[j]:
                    conc += 1
                elif risks[i] == risks[j]:
                    conc += 0.5
    assert conc / comp > 0.8


def test_write_dataset_round_trip(tmp_path):
    cfg = hd.SynthConfig(cohort=4, d_in=6, bag_a=2, bag_b=3)
    records, truths = hd.generate_synthetic(cfg, np.random.default_rng(12))
    manifest = hd.write_dataset(tmp_path / "ds", records, truths)
    loaded = hd.load_samples(manifest)
    assert len(loaded) == 4
    for orig, back in zip(records, loaded):
        assert back.sample_id == orig.sample_id
        assert np.allclose(back.features_a, orig.features_a, rtol=0, atol=0)
        assert back.time_months == orig.time_months
    sidecar = (tmp_path / "ds" / "ground_truth.csv").read_text().splitlines()
    assert sidecar[0].startswith("sample_id,z_shared_0")
    assert len(sidecar) == 5


def test_record_invariant_violations():
    feat = np.ones((1, 2))
    with pytest.raises(DataError):
        hd.SampleRecord("x", feat, np.ones((1, 3)), 1.0, 0)
    with pytest.raises(DataError):
        hd.SampleRecord("x", feat, feat, -1.0, 0)
    with pytest.raises(DataError):
        hd.SampleRecord("x", feat, feat, 1.0, 2)


@pytest.mark.parametrize("time", [float("nan"), float("inf"), float("-inf")])
def test_record_rejects_non_finite_time(time):
    feat = np.ones((1, 2))
    with pytest.raises(DataError, match="non-finite or negative time_months"):
        hd.SampleRecord("x", feat, feat, time, 0)


def test_write_dataset_interrupted_leaves_no_manifest(tmp_path, monkeypatch):
    records, truths = hd.generate_synthetic(hd.SynthConfig(cohort=4, d_in=3),
                                            np.random.default_rng(5))
    real = hd.write_text

    def failing(path, text):
        if path.name == "synth0002_a.csv":
            raise OSError("injected write failure")
        real(path, text)

    monkeypatch.setattr(hd, "write_text", failing)
    with pytest.raises(OSError, match="injected"):
        hd.write_dataset(tmp_path / "ds", records, truths)
    assert (tmp_path / "ds" / "features" / "synth0001_b.csv").exists()
    assert not (tmp_path / "ds" / "manifest.csv").exists()
    assert not (tmp_path / "ds" / "ground_truth.csv").exists()


# ---------------------------------------------------------------------------
# write_text


@pytest.mark.parametrize("arr", [
    np.random.default_rng(0).normal(size=(6, 8)),
    np.random.default_rng(1).normal(size=5) * 1e-300,  # 1-D: one value per line
    np.array([[np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308]]),
    np.arange(12).reshape(3, 4),
    np.zeros((0, 3)),
])
def test_matrix_text_matches_savetxt(arr):
    buf = io.StringIO()
    np.savetxt(buf, arr, delimiter=",", fmt="%.17g")  # the reference writer
    assert hd.matrix_text(arr) == buf.getvalue()


def test_write_text_keeps_bytes_and_creates_parents(tmp_path):
    path = tmp_path / "a" / "b" / "out.csv"
    hd.write_text(path, "x,\u00e9\r\ny\n")
    assert path.read_bytes() == b"x,\xc3\xa9\r\ny\n"
    hd.write_text(path, "z\n")
    assert path.read_bytes() == b"z\n"
    assert os.listdir(path.parent) == ["out.csv"]


def test_write_text_new_file_mode_matches_plain_open(tmp_path):
    old_umask = os.umask(0o027)
    try:
        hd.write_text(tmp_path / "new.txt", "x")
        with open(tmp_path / "plain.txt", "w", encoding="utf-8") as fh:
            fh.write("x")
    finally:
        os.umask(old_umask)
    modes = {stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("new.txt", "plain.txt")}
    assert modes == {0o640}


def test_write_text_failure_removes_temp_and_keeps_old_bytes(tmp_path):
    path = tmp_path / "out.txt"
    hd.write_text(path, "old\n")
    with pytest.raises(UnicodeEncodeError):  # writing the temp file fails
        hd.write_text(path, "new\n" * 1000 + "\ud800")
    assert path.read_bytes() == b"old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


# ---------------------------------------------------------------------------
# the cohort read: one parse against the file-by-file oracle

VALUES = ("0", "1.5", "-2.25e-3", "7", "0.1")
LINE_KINDS = {  # a line of a feature file of width w, by kind; the first four are well formed
    "row": lambda w, i: ",".join(VALUES[(i + j) % 5] for j in range(w)),
    "noted_row": lambda w, i: ",".join(VALUES[(i + j) % 5] for j in range(w)) + " # note",
    "blank": lambda w, i: "",
    "comment": lambda w, i: "# comment",
    "indented_comment": lambda w, i: "  # comment",
    "spaces": lambda w, i: "   ",
    "form_feed": lambda w, i: "\x0c",  # a line end to str.splitlines, not to loadtxt
    "ragged": lambda w, i: ",".join(VALUES[:w + 1]),
    "abc": lambda w, i: ",".join(["abc", *VALUES[1:w]]),
    "nan": lambda w, i: ",".join(["nan", *VALUES[1:w]]),
    "inf": lambda w, i: ",".join([*VALUES[1:w], "inf"]),
}
WELL_FORMED = list(LINE_KINDS)[:4]


@st.composite
def feature_file(draw, width):
    """The bytes of one feature file: mostly well formed, sometimes one flaw."""
    kinds = draw(st.lists(st.sampled_from(WELL_FORMED), min_size=1, max_size=5))
    flaw = draw(st.sampled_from([*LINE_KINDS][4:] + ["empty", "non_utf8"])) if draw(
        st.integers(0, 15)) == 0 else None
    if flaw == "empty":
        return b""
    if flaw in LINE_KINDS:
        kinds.insert(draw(st.integers(0, len(kinds))), flaw)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(
        LINE_KINDS[kind](width, i) for i, kind in enumerate(kinds))
    raw = (text + draw(st.sampled_from(["", "\n"]))).encode()
    return raw.replace(b"1.5", b"1.\xff5") if flaw == "non_utf8" else raw


@st.composite
def cohorts(draw):
    """Each sample's two feature files; a file's width sometimes differs from the rest."""
    width = draw(st.integers(1, 3))
    widths = [width if draw(st.integers(0, 7)) else draw(st.integers(1, 3))
              for _ in range(2 * draw(st.integers(1, 4)))]
    files = [draw(feature_file(w)) for w in widths]
    return list(zip(files[0::2], files[1::2]))


def _outcome(load, manifest):
    try:
        return [(r.sample_id, r.features_a, r.features_b, r.fold) for r in load(manifest)]
    except DataError as exc:
        return type(exc), str(exc)


@given(cohorts())
@settings(max_examples=300, deadline=None)
def test_load_samples_matches_the_file_by_file_oracle(files):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        rows = []
        for i, (bytes_a, bytes_b) in enumerate(files):
            (tmp / f"a{i}.csv").write_bytes(bytes_a)
            (tmp / f"b{i}.csv").write_bytes(bytes_b)
            rows.append(f"p{i},{i + 1}.0,{i % 2},a{i}.csv,b{i}.csv,{i % 2}")
        manifest = tmp / "manifest.csv"
        manifest.write_text("sample_id,time_months,censored,modality_a_file,modality_b_file,fold\n"
                            + "\n".join(rows) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither reader lets a numpy warning through
            got, want = _outcome(hd.load_samples, manifest), _outcome(load_samples_per_file, manifest)
    if isinstance(want, tuple):
        assert got == want
        return
    assert [(sid, fold) for sid, *_, fold in got] == [(sid, fold) for sid, *_, fold in want]
    for (_, *bags, _), (_, *oracle, _) in zip(got, want):
        for bag, expected in zip(bags, oracle):
            assert bag.dtype == np.float64 and bag.shape == expected.shape
            assert bag.tobytes() == expected.tobytes()
            assert bag.flags.c_contiguous and not bag.flags.writeable


def test_load_samples_reads_a_cohort_with_one_parse(tmp_path, monkeypatch):
    manifest = _write_dataset(tmp_path, ["p1,5.0,0,a1.csv,b1.csv", "p2,3.0,1,a2.csv,b2.csv"])
    (tmp_path / "b2.csv").write_text("# notes\n5.0,6.0 # one row\n\n")
    parses = []
    loadtxt = np.loadtxt
    monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: parses.append(1) or loadtxt(*a, **kw))
    records = hd.load_samples(manifest)
    assert len(parses) == 1
    assert [r.features_b.tolist() for r in records] == [[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0]]]


def test_load_samples_of_the_chosen_entries_only(tmp_path):
    manifest = _write_dataset(tmp_path, ["p1,5.0,0,a1.csv,b1.csv", "p2,3.0,1,a2.csv,b2.csv"])
    (tmp_path / "a1.csv").write_text("not a number\n")  # p1 is not read
    entries = hd.load_manifest(manifest)
    assert [r.sample_id for r in hd.load_samples(manifest, entries[1:])] == ["p2"]
    with pytest.raises(DataError, match="a1.csv: bad feature file for p1"):
        hd.load_samples(manifest)


@pytest.mark.filterwarnings("error")  # no "input contained no data" warning either
def test_load_samples_header_only_manifest_is_empty(tmp_path):
    assert hd.load_samples(_write_dataset(tmp_path, [])) == []
