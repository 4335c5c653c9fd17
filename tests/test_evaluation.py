import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdmoe import autodiff as ad
from hdmoe import evaluation as ev
from hdmoe import kernels
from hdmoe import model as hm
from hdmoe.data import SampleRecord
from hdmoe.errors import MetricError
from hdmoe.moe import RouterTrace

from helpers import (
    average_abs_correlation_loop,
    km_loop,
    log_rank_loop,
    max_rel_err,
    oracle_cindex,
    outcome_table,
    redundancy_score_loop,
    route,
    scan_concordance_counts,
    stability_report_loop,
)


def _table(risks, times, events):
    return ev.RiskTable(
        risks=np.asarray(risks, float),
        times=np.asarray(times, float),
        events=np.asarray(events, int),
    )


# ---------------------------------------------------------------------------
# c-index


def test_cindex_perfect_ordering():
    t = _table(risks=[3.0, 2.0, 1.0], times=[1.0, 2.0, 3.0], events=[1, 1, 1])
    assert ev.c_index(t) == 1.0


def test_cindex_reversed_ordering():
    t = _table(risks=[1.0, 2.0, 3.0], times=[1.0, 2.0, 3.0], events=[1, 1, 1])
    assert ev.c_index(t) == 0.0


def test_cindex_hand_case_two_thirds():
    t = _table(risks=[0.5, 0.9, 0.4], times=[2.0, 4.0, 6.0], events=[1, 1, 0])
    assert ev.c_index(t) == pytest.approx(2.0 / 3.0)


def test_cindex_no_comparable_pairs():
    t = _table(risks=[1.0, 2.0], times=[5.0, 7.0], events=[0, 0])
    with pytest.raises(MetricError):
        ev.c_index(t)


def test_cindex_matches_exhaustive_oracle_exactly():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(50):
        n = int(rng.integers(2, 31))
        times = np.round(rng.uniform(0, 20, n), 1)
        events = rng.integers(0, 2, n)
        risks = np.round(rng.normal(size=n), 2)
        conc, comp = oracle_cindex(times, events, risks)
        if comp == 0:
            continue
        checked += 1
        assert ev.c_index(_table(risks, times, events)) == conc / comp
    assert checked > 30


def test_cindex_flip_and_monotone_invariance():
    rng = np.random.default_rng(1)
    times = rng.uniform(0, 10, 20)
    events = rng.integers(0, 2, 20)
    events[0] = 1
    risks = rng.normal(size=20)  # continuous: no ties
    c = ev.c_index(_table(risks, times, events))
    assert ev.c_index(_table(-risks, times, events)) == pytest.approx(1.0 - c)
    assert ev.c_index(_table(np.exp(2.0 * risks), times, events)) == pytest.approx(c)


@pytest.mark.parametrize("risks, times", [
    ([np.nan, 1.0, np.nan, 0.5], [1.0, 2.0, 3.0, 4.0]),
    ([0.1, 1.0, 0.3, 0.5], [1.0, np.inf, 3.0, 4.0]),
])
def test_cindex_rejects_non_finite(risks, times):
    with pytest.raises(MetricError, match="finite"):
        ev.c_index(_table(risks, times, [1, 1, 0, 1]))


# each metric with its columns as keywords, so that a case can replace one
METRICS = {
    "c_index": lambda times, events, risks: ev.c_index(
        ev.RiskTable(risks=risks, times=times, events=events)),
    "km_estimate": lambda times, events, risks: ev.km_estimate(times, events),
    "log_rank_p": lambda times, events, risks: ev.log_rank_p(
        [0.5, 7.0], [1, 0], times, events),
}
GOOD_COLUMNS = {"times": [1, 2, 3, 4], "events": [1, 1, 0, 1], "risks": [4, 3, 2, 1]}


def _column_error(metric, **columns):
    """The message of the MetricError that metric raises on GOOD_COLUMNS with
    the given columns replaced; names in it are the metric's own."""
    with pytest.raises(MetricError) as error:
        METRICS[metric](**{**GOOD_COLUMNS, **columns})
    return str(error.value)


def test_cindex_rejects_a_longer_risk_column():
    # the fifth risk has no time or event: it was dropped without a word
    with pytest.raises(MetricError, match="^c_index: risks has length 5, times has length 4$"):
        ev.c_index(ev.RiskTable(risks=[4, 3, 2, 1, 9], times=[1, 2, 3, 4], events=[1, 1, 0, 1]))


@pytest.mark.parametrize("metric", ["c_index", "km_estimate", "log_rank_p"])
def test_metrics_reject_an_event_other_than_0_or_1(metric):
    # a 2 read as censored: c_index gave 1.0 and km_estimate survival [0.667, 0.0]
    events = "events_b" if metric == "log_rank_p" else "events"
    assert _column_error(metric, events=[2, 1, 0, 1]) == (
        f"{metric}: {events} must be 1 (event) or 0 (censored)")
    assert _column_error(metric, events=[1.0, 0.5, 0.0, 1.0]).endswith("or 0 (censored)")


@pytest.mark.parametrize("metric", ["c_index", "km_estimate", "log_rank_p"])
def test_metrics_reject_survival_status_coded_1_and_2(metric):
    # R's Surv status: 1 censored, 2 event; read as 0/1 it inverts every metric
    assert "must be 1 (event) or 0 (censored)" in _column_error(metric, events=[2, 2, 1, 2])


@pytest.mark.parametrize("metric, column", [
    ("c_index", "risks"), ("c_index", "events"), ("km_estimate", "events"),
    ("log_rank_p", "events"),
])
def test_metrics_reject_a_shorter_column(metric, column):
    # an IndexError at the parent
    name = f"{column}_b" if metric == "log_rank_p" else column
    times = "times_b" if metric == "log_rank_p" else "times"
    assert _column_error(metric, **{column: [1, 0, 1]}) == (
        f"{metric}: {name} has length 3, {times} has length 4")


@pytest.mark.parametrize("metric, column", [
    ("c_index", "risks"), ("c_index", "times"), ("c_index", "events"),
    ("km_estimate", "times"), ("km_estimate", "events"), ("log_rank_p", "times"),
    ("log_rank_p", "events"),
])
def test_metrics_reject_a_2d_column(metric, column):
    name = f"{column}_b" if metric == "log_rank_p" else column
    assert _column_error(metric, **{column: [[1, 0], [1, 0]]}) == (
        f"{metric}: {name} must be 1-D, got shape (2, 2)")


# ---------------------------------------------------------------------------
# Kaplan-Meier


def test_km_no_events_stays_at_one():
    curve = ev.km_estimate([1.0, 2.0, 3.0], [0, 0, 0])
    assert curve.times.size == 0  # no drops: estimator identically 1


def test_km_hand_product_limit():
    curve = ev.km_estimate([1.0, 2.0, 3.0], [1, 1, 1])
    assert np.allclose(curve.survival, [2.0 / 3.0, 1.0 / 3.0, 0.0])
    assert list(curve.at_risk) == [3, 2, 1]
    assert list(curve.events) == [1, 1, 1]


def test_km_single_event_drops_to_zero():
    curve = ev.km_estimate([5.0], [1])
    assert list(curve.times) == [5.0]
    assert list(curve.survival) == [0.0]


def test_km_with_censoring_hand_case():
    # events at 1 and 3; censored at 2 leaves 2 at risk for the second event
    curve = ev.km_estimate([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
    assert np.allclose(curve.survival, [0.75, 0.75 * 0.5])


def test_km_no_censoring_equals_empirical_survival():
    rng = np.random.default_rng(2)
    times = np.round(rng.uniform(0, 10, 40), 1)
    curve = ev.km_estimate(times, np.ones(40, dtype=int))
    for t, s in zip(curve.times, curve.survival):
        assert s == pytest.approx(np.mean(times > t))


def test_km_rejects_non_finite_time():
    with pytest.raises(MetricError, match="finite"):
        ev.km_estimate([1.0, np.nan, 3.0], [1, 1, 0])


# ---------------------------------------------------------------------------
# log-rank


def test_log_rank_identical_groups():
    times = [1.0, 2.0, 3.0, 4.0]
    events = [1, 1, 0, 1]
    chi2, p = ev.log_rank_p(times, events, times, events)
    assert chi2 == pytest.approx(0.0, abs=1e-12)
    assert p == pytest.approx(1.0)


def test_log_rank_separated_groups():
    ta = np.arange(1.0, 11.0)
    tb = np.arange(101.0, 111.0)
    chi2, p = ev.log_rank_p(ta, np.ones(10, int), tb, np.ones(10, int))
    assert p < 0.001


def test_log_rank_symmetric():
    rng = np.random.default_rng(3)
    ta, tb = rng.uniform(0, 10, 12), rng.uniform(0, 12, 15)
    ea, eb = rng.integers(0, 2, 12), rng.integers(0, 2, 15)
    ea[0] = eb[0] = 1
    r1 = ev.log_rank_p(ta, ea, tb, eb)
    r2 = ev.log_rank_p(tb, eb, ta, ea)
    assert r1 == pytest.approx(r2)


def test_log_rank_hand_value_with_one_group_left_at_risk():
    # t=1: O-E = 1 - 2/3, V = 2/9; t=2: O-E = 1 - 1/2, V = 1/4; t=3: only
    # group b is at risk, so the stratum adds nothing: chi2 = (5/6)^2 / (17/36)
    chi2, p = ev.log_rank_p([1, 2], [1, 1], [3], [1])
    assert chi2 == pytest.approx(25 / 17)
    assert p == pytest.approx(ev.chi2_sf(25 / 17))


def test_log_rank_zero_variance_degenerate():
    with pytest.raises(MetricError):
        ev.log_rank_p([1.0], [1], [1.0], [1])


@pytest.mark.parametrize("ta, tb", [([1.0, np.nan], [2.0, 3.0]), ([1.0, 2.0], [np.inf, 3.0])])
def test_log_rank_rejects_non_finite_time(ta, tb):
    with pytest.raises(MetricError, match="finite"):
        ev.log_rank_p(ta, [1, 1], tb, [1, 0])


def test_chi2_tail_textbook_value():
    assert ev.chi2_sf(3.841) == pytest.approx(0.05, abs=1e-3)
    assert ev.chi2_sf(6.635) == pytest.approx(0.01, abs=1e-3)
    assert ev.chi2_sf(0.0) == 1.0


@pytest.mark.parametrize("z, tail", [
    (1.0, 0.31731050786291410283),
    (2.0, 0.045500263896358414401),
    (3.0, 0.0026997960632601890533),
])
def test_chi2_tail_is_two_sided_normal_tail(z, tail):
    # chi-square(1) is Z^2, so its upper tail at z^2 is P(|Z| > z)
    assert ev.chi2_sf(z * z) == pytest.approx(tail, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# the metric pass against its loop oracles, on tables with heavy ties


@st.composite
def tied_tables(draw, min_n=1, max_n=300):
    """Times and risks on coarse grids, so both are heavily tied. The columns
    come from a drawn seed, so a failure shrinks over a few integers only."""
    n = draw(st.integers(min_n, max_n))
    t_grid = draw(st.integers(1, 41))
    r_grid = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    times = rng.integers(0, t_grid, n) * 0.5
    risks = rng.integers(0, r_grid, n) * 0.25 - 1.0
    return _table(risks, times, rng.integers(0, 2, n))


@st.composite
def untied_tables(draw, min_n=1, max_n=600):
    """Continuous times and risks, all distinct, so the ranks reach every
    level of the concordance count's blocks."""
    n = draw(st.integers(min_n, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _table(rng.normal(size=n), rng.exponential(10.0, n), rng.integers(0, 2, n))


def _bits(x):
    return float(x).hex()


def _km_bits(curve):
    return [(a.dtype.str, a.shape, a.tobytes())
            for a in (curve.times, curve.survival, curve.at_risk, curve.events)]


def _log_rank_bits(*groups):
    try:
        chi2, p = ev.log_rank_p(*groups)
    except MetricError:
        return None
    return _bits(chi2), _bits(p)


def _c_index_or_none(table):
    try:
        return _bits(ev.c_index(table))
    except MetricError:
        return None


# the count's path bounds: levels only, the default choice, and grid only
# (above the (K + 1) * (R + 1) cells of any table with n >= 1)
GRID_SETTINGS = (0, kernels.GRID_CELLS, 10**9)


def _check_cindex(table):
    """Both count paths, and the default choice between them, against the scan
    and the pairwise oracle."""
    conc, comp = oracle_cindex(table.times, table.events, table.risks)
    assert scan_concordance_counts(table.times, table.events, table.risks) == (conc, comp)
    for grid_cells in GRID_SETTINGS:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "GRID_CELLS", grid_cells)
            counts = kernels.concordance_counts(table.times, table.events, table.risks)
            assert counts == (conc, comp), grid_cells
            assert (type(counts[0]), type(counts[1])) == (float, int)
            assert _c_index_or_none(table) == (_bits(conc / comp) if comp else None)


@settings(max_examples=60, deadline=None)
@given(tied_tables())
def test_cindex_equals_scan_and_pairwise_oracle(table):
    _check_cindex(table)


@settings(max_examples=40, deadline=None)
@given(untied_tables())
def test_cindex_on_untied_tables_equals_scan_and_pairwise_oracle(table):
    _check_cindex(table)


@pytest.mark.parametrize("n", [*range(1, 41), 63, 64, 65, 127, 128, 129, 255, 256, 257])
def test_cindex_counts_across_window_and_level_boundaries(n):
    # the last s mod 8 later samples are compared directly, the rest by blocks
    # of 2^k for k >= 3: sizes around each power of two, tied and untied
    rng = np.random.default_rng(n)
    for decimals in (1, 3, None):  # heavy ties, a few, none
        for _ in range(4):
            risks, times = rng.normal(size=n), rng.exponential(5.0, n)
            if decimals is not None:
                risks, times = np.round(risks, decimals), np.round(times, decimals)
            _check_cindex(_table(risks, times, rng.integers(0, 2, n)))


def _bound_table(event_times, risks, n=64):
    """n samples on event_times + 1 distinct times, the latest all censored,
    and risks distinct risks: (event_times + 1) * (risks + 1) grid cells."""
    times = np.arange(n) % (event_times + 1)
    return _table(np.arange(n) % risks * 0.1, times, (times < event_times).astype(int))


EDGE_TABLES = {
    "equal_risks": _table([0.3] * 9, [5, 1, 2, 2, 8, 3, 1, 9, 4], [1, 0, 1, 1, 0, 1, 1, 0, 1]),
    "one_event_time": _table([0.2, 0.9, 0.4, 0.4, 0.1, 0.7, 0.3],
                             [3, 1, 3, 6, 9, 3, 2], [1, 0, 1, 0, 0, 1, 0]),
    "no_event": _table([0.2, 0.9, 0.4, 0.1], [3, 1, 4, 2], [0, 0, 0, 0]),
    "all_events": _table([0.2, 0.9, 0.4, 0.4, 0.1, 0.5], [3, 1, 4, 2, 4, 6], [1] * 6),
    "empty": _table([], [], []),
    "at_bound": _bound_table(31, 31),  # 32 * 32 = 16 * 64 cells: the grid
    "over_bound": _bound_table(24, 40),  # 25 * 41 = 16 * 64 + 1 cells: the levels
}


@pytest.mark.parametrize("name", EDGE_TABLES)
def test_cindex_counts_on_edge_tables(name):
    table = EDGE_TABLES[name]
    n = table.times.size
    event_times = np.unique(table.times[table.events == 1]).size  # K: distinct s_i
    cells = (event_times + 1) * (np.unique(table.risks).size + 1)
    assert {"equal_risks": np.unique(table.risks).size == 1, "one_event_time": event_times == 1,
            "no_event": event_times == 0, "all_events": table.events.all(), "empty": n == 0,
            "at_bound": cells == kernels.GRID_CELLS * n,
            "over_bound": cells == kernels.GRID_CELLS * n + 1}[name]
    _check_cindex(table)


def _check_km_and_log_rank(table, rnd):
    t, e = table.times, table.events
    assert _km_bits(ev.km_estimate(t, e)) == _km_bits(km_loop(t, e))
    in_a = np.array([rnd.random() < 0.5 for _ in range(t.size)], dtype=bool)
    if in_a.all() or not in_a.any():
        return
    groups = (t[in_a], e[in_a], t[~in_a], e[~in_a])
    ref = log_rank_loop(*groups)
    assert _log_rank_bits(*groups) == (None if ref is None else tuple(map(_bits, ref)))


@settings(max_examples=60, deadline=None)
@given(tied_tables(), st.randoms(use_true_random=False))
def test_km_and_log_rank_equal_loops_bitwise(table, rnd):
    _check_km_and_log_rank(table, rnd)


@settings(max_examples=40, deadline=None)
@given(untied_tables(), st.randoms(use_true_random=False))
def test_km_and_log_rank_on_untied_tables_equal_loops_bitwise(table, rnd):
    _check_km_and_log_rank(table, rnd)


@settings(max_examples=60, deadline=None)
@given(tied_tables(min_n=2), st.randoms(use_true_random=False))
def test_metric_pass_is_permutation_invariant(table, rnd):
    perm = list(range(table.times.size))
    rnd.shuffle(perm)
    shuffled = _table(table.risks[perm], table.times[perm], table.events[perm])
    assert _c_index_or_none(shuffled) == _c_index_or_none(table)
    assert _km_bits(ev.km_estimate(shuffled.times, shuffled.events)) == _km_bits(
        ev.km_estimate(table.times, table.events))
    half = table.times.size // 2  # groups: the first half and the rest, each shuffled
    before = [table.times[:half], table.events[:half], table.times[half:], table.events[half:]]
    after = []
    for times, events in (before[:2], before[2:]):
        order = list(range(times.size))
        rnd.shuffle(order)
        after += [times[order], events[order]]
    assert _log_rank_bits(*after) == _log_rank_bits(*before)


def test_metric_pass_edge_cases():
    # no events: no comparable pair, a flat KM curve, no log-rank
    with pytest.raises(MetricError, match="no comparable pairs"):
        ev.c_index(_table([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0, 0, 0]))
    assert ev.km_estimate([1.0, 2.0], [0, 0]).survival.size == 0
    with pytest.raises(MetricError, match="at least one event"):
        ev.log_rank_p([1.0], [0], [2.0], [0])
    # all times tied: no pair is comparable
    with pytest.raises(MetricError, match="no comparable pairs"):
        ev.c_index(_table([3.0, 1.0, 2.0], [4.0, 4.0, 4.0], [1, 1, 0]))
    # all risks equal: every comparable pair is a tie
    assert ev.c_index(_table([0.7] * 5, [1.0, 2.0, 2.0, 3.0, 5.0], [1, 0, 1, 1, 0])) == 0.5
    # one sample
    with pytest.raises(MetricError, match="no comparable pairs"):
        ev.c_index(_table([1.0], [2.0], [1]))
    assert kernels.concordance_counts(np.array([2.0]), np.array([1]), np.array([1.0])) == (0.0, 0)
    curve = ev.km_estimate([2.0], [1])
    assert _km_bits(curve) == _km_bits(km_loop([2.0], [1]))


# ---------------------------------------------------------------------------
# Welch t


def test_welch_identical_groups():
    t, p = ev.welch_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert t == 0.0
    assert p == pytest.approx(1.0)


def test_welch_maximal_separation():
    rng = np.random.default_rng(4)
    a = 1e-6 * rng.normal(size=4)
    b = 1.0 + 1e-6 * rng.normal(size=4)
    _, p = ev.welch_t_test(a, b)
    assert p < 1e-6


def test_welch_hand_case():
    t, p = ev.welch_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert t == pytest.approx(-1.2247, abs=1e-3)
    assert p == pytest.approx(0.288, abs=2e-3)


def test_welch_sign_flip_under_swap():
    rng = np.random.default_rng(5)
    a, b = rng.normal(size=8), rng.normal(loc=0.4, size=11)
    t1, p1 = ev.welch_t_test(a, b)
    t2, p2 = ev.welch_t_test(b, a)
    assert t1 == pytest.approx(-t2)
    assert p1 == pytest.approx(p2)


def test_welch_degenerate_variance():
    with pytest.raises(MetricError):
        ev.welch_t_test([1.0, 1.0], [1.0, 1.0])


def test_incomplete_beta_boundaries():
    assert ev.reg_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert ev.reg_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    # I_x(1,1) is the uniform cdf
    assert ev.reg_incomplete_beta(1.0, 1.0, 0.37) == pytest.approx(0.37, abs=1e-12)


# exact values of the continued fraction, on both of its branches; each p is
# within 5e-13 of the Student-t tail
PINNED_T_P = [((2.0, 10.0), 0.07338803477074045), ((0.5, 3.7), 0.6453356333199318),
              ((-3.2, 25.5), 0.0036580194155119285), ((10.0, 1.0), 0.0634510348611071),
              ((1e-3, 200.0), 0.9992031123015681)]
PINNED_I = [((0.5, 0.5, 0.3), 0.36901011956554497), ((2.0, 3.0, 0.4), 0.5247999999999998),
            ((50.0, 1.5, 0.97), 0.38230812964061767), ((7.5, 120.0, 0.05), 0.3699530353598164),
            ((0.1, 8.0, 0.3), 0.9977179285099109), ((3.0, 0.5, 0.9999), 0.981251249962501)]


def test_student_t_p_and_incomplete_beta_pinned_bits():
    for (t, df), p in PINNED_T_P:
        assert ev.student_t_two_sided_p(t, df) == p, (t, df)
    for (a, b, x), value in PINNED_I:
        assert ev.reg_incomplete_beta(a, b, x) == value, (a, b, x)


@given(a=st.floats(0.05, 100.0), b=st.floats(0.05, 100.0), k=st.integers(0, 2**20))
@settings(max_examples=300, deadline=None)
def test_incomplete_beta_reflection(a, b, k):
    x = k / 2**20  # so that 1 - x is exact
    assert abs(ev.reg_incomplete_beta(a, b, x) + ev.reg_incomplete_beta(b, a, 1.0 - x) - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# expert histogram


def _trace_with_selected(selected, n_experts):
    selected = np.asarray(selected, dtype=np.intp)
    t = selected.shape[0]
    probs = np.full((t, n_experts), 1.0 / n_experts)
    return RouterTrace(probs=ad.leaf(probs), selected=selected)


def test_histogram_alternating_routing_equal_counts():
    # 5 samples of 4 tokens each, one router
    counts = ev.expert_histogram((_trace_with_selected([[0], [1], [0], [1]] * 5, 2),))
    assert counts.shape == (1, 2)
    assert counts[0, 0] == counts[0, 1] == 10


def test_histogram_conservation():
    rng = np.random.default_rng(6)
    m, t, k, n = 7, 5, 2, 4
    traces = tuple(_trace_with_selected(rng.integers(0, n, size=(m * t, k)), n) for _ in range(3))
    counts = ev.expert_histogram(traces)
    assert counts.shape == (3, n)
    assert (counts.sum(axis=1) == t * k * m).all()
    with pytest.raises(MetricError):
        ev.expert_histogram(())


def test_histogram_random_router_covers_all_experts():
    rng = np.random.default_rng(7)
    router = rng.normal(size=(6, 4))
    selected = []
    for _ in range(1000):
        token = rng.normal(size=6)
        selected.append(route(token, router, 1).selected[0])
    counts = ev.expert_histogram((_trace_with_selected(np.array(selected), 4),))
    assert (counts > 0).all()


# ---------------------------------------------------------------------------
# redundancy


def test_identical_tokens_full_offdiagonal():
    row = np.linspace(-1, 1, 6)
    tokens = np.tile(row, (4, 1))
    corr = ev.average_abs_correlation([tokens])
    off = ~np.eye(4, dtype=bool)
    assert corr[off].sum() == pytest.approx(4 * 3)


def test_identity_map_gives_zero_delta():
    rng = np.random.default_rng(8)
    mats = [rng.normal(size=(4, 6)) for _ in range(3)]
    pre = ev.average_abs_correlation(mats)
    post = ev.average_abs_correlation([m.copy() for m in mats])
    off = ~np.eye(4, dtype=bool)
    assert pre[off].sum() - post[off].sum() == 0.0


def test_constant_tokens_zero_variance_error():
    with pytest.raises(MetricError):
        ev.average_abs_correlation([np.ones((3, 5))])


def test_redundancy_score_shapes_and_finite_delta():
    cfg = hm.ModelConfig(d_in=4, d1=8, d2=16, token_len_l1=4, token_len_l2=4,
                         num_experts=2, top_k=1, expansion=2)
    rng = np.random.default_rng(9)
    params = hm.init_params(cfg, rng)
    records = [
        SampleRecord(f"r{i}", rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), 5.0, 0)
        for i in range(4)
    ]
    lifted = hm.lift_params(params, requires_grad=False)
    res = hm.forward(records, lifted, cfg, np.random.default_rng(0))
    for output in (res.moe_a, res.moe_b):
        pre, post, delta = ev.redundancy_score(output)
        assert pre.shape == (2, 2) and post.shape == (2, 2)
        assert np.isfinite(delta)
    pre, post, delta = ev.redundancy_score(res.moe_inter)
    assert pre.shape == (4, 4)
    with pytest.raises(MetricError, match="at least two samples"):
        ev.redundancy_score(hm.forward(records[:1], lifted, cfg, np.random.default_rng(0)).moe_a)


def _redundancy_setup():
    cfg = hm.ModelConfig(d_in=4, d1=16, d2=32, token_len_l1=4, token_len_l2=8,
                         num_experts=3, top_k=1, expansion=2)
    rng = np.random.default_rng(31)
    params = hm.init_params(cfg, rng)
    records = [
        SampleRecord(f"r{i}", rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), 5.0, 0)
        for i in range(6)
    ]
    return cfg, params, records


def _bits(*arrays):
    return [np.asarray(a).tobytes() for a in arrays]


def _assert_heatmaps_close(got, want):
    """(pre, post, delta) within 1e-13 relative of the np.corrcoef loop."""
    for g, w in zip(got[:2], want[:2]):
        assert max_rel_err(g, w) < 1e-13
    assert abs(got[2] - want[2]) <= 1e-13 * max(abs(want[2]), 1.0)


@pytest.mark.parametrize("modality", ["a", "b"])
def test_level1_redundancy_equals_full_forward_oracle_and_draws_nothing(modality):
    cfg, params, records = _redundancy_setup()
    expected = redundancy_score_loop(params, cfg, records, 1, modality, np.random.default_rng(0))
    lifted = hm.lift_params(params, requires_grad=False)
    side = "ab".index(modality)
    scored = [ev.redundancy_score(hm.encode(records, lifted, cfg)[side])]
    # the level-1 outputs of forwards with any draws score the same bits
    for seed in (1, 12345):
        res = hm.forward(records, lifted, cfg, np.random.default_rng(seed))
        scored.append(ev.redundancy_score(getattr(res, f"moe_{modality}")))
    for pre, post, delta in scored:
        assert _bits(pre, post, delta) == _bits(*scored[0])
        _assert_heatmaps_close((pre, post, delta), expected)


def test_level2_redundancy_equals_full_forward_oracle():
    cfg, params, records = _redundancy_setup()
    lifted = hm.lift_params(params, requires_grad=False)
    got = ev.redundancy_score(hm.forward(records, lifted, cfg, np.random.default_rng(7)).moe_inter)
    expected = redundancy_score_loop(params, cfg, records, 2, None, np.random.default_rng(7))
    _assert_heatmaps_close(got, expected)


@given(batch=st.integers(1, 12), tokens=st.integers(2, 6), width=st.integers(2, 9),
       seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_batched_correlation_matches_corrcoef_loop(batch, tokens, width, seed):
    stack = np.random.default_rng(seed).normal(size=(batch, tokens, width))
    got = ev.average_abs_correlation(stack)
    assert got.shape == (tokens, tokens)
    assert max_rel_err(got, average_abs_correlation_loop(list(stack))) < 1e-13
    assert (got <= 1.0).all()


# ---------------------------------------------------------------------------
# stability


def _tiny_setup(segment_values=(1, 2, 4, 8)):
    cfg = hm.ModelConfig(d_in=4, d1=8, d2=16, token_len_l1=4, token_len_l2=4,
                         num_experts=2, top_k=1, expansion=2,
                         segment_values=segment_values)
    rng = np.random.default_rng(10)
    params = hm.init_params(cfg, rng)
    records = [
        SampleRecord(f"r{i}", rng.normal(size=(3, 4)), rng.normal(size=(3, 4)),
                     float(i + 1), int(i % 3 == 0))
        for i in range(10)
    ]
    lifted = hm.lift_params(params, requires_grad=False)
    level1 = hm.encode(records, lifted, cfg)
    return cfg, params, records, lifted, level1


def test_stability_degenerate_segment_set_is_exactly_zero_std():
    cfg, _, records, lifted, level1 = _tiny_setup(segment_values=(1,))
    scores, mean, std = ev.stability_report(
        level1, lifted, cfg, outcome_table(records), 5, np.random.default_rng(0)
    )
    assert std == 0.0
    assert len(set(scores)) == 1


def test_stability_single_repeat_zero_std():
    cfg, _, records, lifted, level1 = _tiny_setup()
    scores, mean, std = ev.stability_report(
        level1, lifted, cfg, outcome_table(records), 1, np.random.default_rng(0)
    )
    assert std == 0.0 and len(scores) == 1


@pytest.mark.parametrize("segment_values,repeats", [((1, 2, 4, 8), 6), ((1,), 3), ((1, 2, 4, 8), 1)])
def test_stability_report_equals_full_forward_oracle(segment_values, repeats):
    cfg, params, records, lifted, level1 = _tiny_setup(segment_values)
    oracle_rng = np.random.default_rng(41)
    o_scores, o_mean, o_std = stability_report_loop(params, cfg, records, repeats, oracle_rng)
    # replayed over `encode` outputs and over the level-1 outputs of forwards,
    # with the forward's own table: its risks are not read
    res = hm.forward(records, lifted, cfg, np.random.default_rng(3))
    for pairs, table in ((level1, outcome_table(records)),
                         ((res.moe_a, res.moe_b), outcome_table(records, res.risk))):
        rng = np.random.default_rng(41)
        scores, mean, std = ev.stability_report(pairs, lifted, cfg, table, repeats, rng)
        assert scores == o_scores
        assert (mean, std) == (o_mean, o_std)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


def test_km_curves_csv_format():
    curve = ev.km_estimate([1.0, 2.0], [1, 1])
    text = ev.km_curves_csv({"high": curve})
    lines = text.strip().split("\n")
    assert lines[0] == "group,time,survival,at_risk,events"
    assert lines[1].startswith("high,1,0.5,2,1")

