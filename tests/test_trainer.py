import os
import signal
import time

import numpy as np
import pytest

from hdmoe import model as hm
from hdmoe import trainer as ht
from hdmoe.config import RunConfig, apply_desk_preset
from hdmoe.data import SampleRecord, compute_bin_edges, generate_synthetic, make_folds, SynthConfig
from hdmoe.errors import ConfigError, NumericsError
from hdmoe.losses import balance_loss, decouple_loss, survival_nll, total_loss

from helpers import LoopOptimizerState, optimizer_step_loop, train_fold_loop

TINY = hm.ModelConfig(
    d_in=4, d1=8, d2=16, token_len_l1=4, token_len_l2=4, num_experts=2, top_k=1,
    expansion=2, num_bins=2, segment_values=(1, 2, 4, 8),
)
FAST = ht.TrainConfig(lr=5e-3, weight_decay=1e-3, epochs=3, seed=3, k_folds=2)


def _scalar_params():
    cfg = hm.ModelConfig(
        d_in=1, d1=1, d2=2, token_len_l1=1, token_len_l2=1, num_experts=1, top_k=1,
        expansion=1, num_bins=1, segment_values=(1,),
    )
    return hm.init_params(cfg, np.random.default_rng(0))


def _tiny_dataset(n=20, seed=0):
    cfg = SynthConfig(cohort=n, d_in=4, bag_a=3, bag_b=3, latent_shared=2,
                      latent_spec=2, noise=0.1, w_shared=1.0, w_spec_a=1.0,
                      w_spec_b=1.0, censor_max=30.0)
    records, _ = generate_synthetic(cfg, np.random.default_rng(seed))
    return make_folds(records, 2, seed=seed)


def test_train_config_checks():
    with pytest.raises(ConfigError, match="k_folds must be >= 2"):
        ht.TrainConfig(k_folds=1)
    with pytest.raises(ConfigError, match="unknown distance_metric 'foo'"):
        ht.TrainConfig(distance_metric="foo")
    assert ht.TrainConfig(distance_metric="KL").distance_metric == "KL"


def _flat_optimizer(params):
    """(flat params, their view tree, zeroed state, {path: view of state.grad})."""
    flat, views = hm.flatten_params(params)
    state = ht.OptimizerState(*np.zeros((3, flat.size)))
    grads = dict(hm.named_params(hm.param_views(views, state.grad)))
    return flat, views, state, grads


def test_zero_gradient_zero_wd_leaves_params():
    flat, params, state, grads = _flat_optimizer(_scalar_params())
    before = {p: a.copy() for p, a in hm.named_params(params)}
    cfg = ht.TrainConfig(lr=0.1, weight_decay=0.0, epochs=1)
    state.grad[:] = 0.0
    ht.optimizer_step(flat, grads, state, cfg)
    for p, a in hm.named_params(params):
        assert np.array_equal(a, before[p])


def test_constant_gradient_update_magnitude_approaches_lr():
    flat, params, state, grads = _flat_optimizer(_scalar_params())
    cfg = ht.TrainConfig(lr=0.05, weight_decay=0.0, epochs=1)
    path, arr = next(iter(hm.named_params(params)))
    state.grad[:] = 0.37
    prev = arr.copy()
    for _ in range(300):
        ht.optimizer_step(flat, grads, state, cfg)
        step = prev - arr
        prev = arr.copy()
    assert np.allclose(np.abs(step), cfg.lr, rtol=1e-3)


def test_two_steps_match_hand_oracle():
    # frozen by hand-evaluating the moment recurrences for theta0=1, g=0.5,
    # lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8
    for wd, expected in ((0.0, (0.900000002, 0.8000000040000006)),
                         (0.01, (0.899000002, 0.7981010039980005))):
        flat, params, state, grads = _flat_optimizer(_scalar_params())
        for _, a in hm.named_params(params):
            a[:] = 1.0
        cfg = ht.TrainConfig(lr=0.1, weight_decay=wd, epochs=1)
        state.grad[:] = 0.5
        ht.optimizer_step(flat, grads, state, cfg)
        assert params.bridge[0, 0] == pytest.approx(expected[0], abs=1e-12)
        ht.optimizer_step(flat, grads, state, cfg)
        assert params.bridge[0, 0] == pytest.approx(expected[1], abs=1e-12)


def test_weight_decay_shrinks_norms_under_zero_gradient():
    flat, params, state, grads = _flat_optimizer(_scalar_params())
    cfg = ht.TrainConfig(lr=0.1, weight_decay=0.5, epochs=1)
    state.grad[:] = 0.0
    for _, a in hm.named_params(params):
        a += 1.0  # keep every entry nonzero so norms can strictly shrink
    norms = [sum(float(np.linalg.norm(a)) for _, a in hm.named_params(params))]
    for _ in range(3):
        ht.optimizer_step(flat, grads, state, cfg)
        norms.append(sum(float(np.linalg.norm(a)) for _, a in hm.named_params(params)))
    assert all(b < a for a, b in zip(norms, norms[1:]))


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a).tobytes()  # tells -0.0 from 0.0, unlike ==


@pytest.mark.parametrize("block", [None, 7])  # 7: many blocks, the last one partial
@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_flat_optimizer_matches_per_array_loop_bitwise(weight_decay, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(ht, "_BLOCK", block)
    rng = np.random.default_rng(7)
    flat, params, state, grads = _flat_optimizer(hm.init_params(TINY, rng))
    oracle = hm.param_views(params, flat.copy())
    oracle_state = LoopOptimizerState()
    cfg = ht.TrainConfig(lr=1e-2, weight_decay=weight_decay)
    for step in range(6):
        state.grad.fill(0.0)
        oracle_grads = {}
        for path, view in grads.items():
            if "expert1." in path and step % 2 == 0:
                oracle_grads[path] = None  # an expert no token was routed to
                continue
            g = rng.normal(size=view.shape)
            g[rng.random(view.shape) < 0.25] = -0.0
            view[...] = oracle_grads[path] = g
        ht.optimizer_step(flat, grads, state, cfg)
        optimizer_step_loop(oracle, oracle_grads, oracle_state, cfg)
        first = dict(hm.named_params(hm.param_views(params, state.first)))
        second = dict(hm.named_params(hm.param_views(params, state.second)))
        for (path, got), (_, want) in zip(hm.named_params(params), hm.named_params(oracle)):
            assert _bits(got) == _bits(want), (step, path)
            assert _bits(first[path]) == _bits(oracle_state.first[path]), (step, path)
            assert _bits(second[path]) == _bits(oracle_state.second[path]), (step, path)


def test_train_fold_matches_per_step_lift_oracle_bitwise():
    records = _tiny_dataset()
    result = ht.train_fold(records, 0, TINY, FAST)
    oracle = train_fold_loop(records, 0, TINY, FAST)
    for (path, got), (_, want) in zip(hm.named_params(result.params), hm.named_params(oracle)):
        assert _bits(got) == _bits(want), path


def test_nan_parameter_mid_fold_raises_before_the_next_step(monkeypatch):
    records = _tiny_dataset()
    step, forward = ht.optimizer_step, ht.forward
    forwards = []

    def poisoned(params, grads, state, cfg):
        step(params, grads, state, cfg)
        if state.step == 3:
            params[5] = np.nan

    monkeypatch.setattr(ht, "optimizer_step", poisoned)
    monkeypatch.setattr(ht, "forward", lambda *a, **kw: forwards.append(1) or forward(*a, **kw))
    with pytest.raises(NumericsError, match="non-finite parameters after fold 0 epoch 0 step 3"):
        ht.train_fold(records, 0, TINY, FAST)
    assert len(forwards) == 3


def test_nan_loss_names_fold_epoch_step_sample_and_the_four_terms(monkeypatch):
    records = _tiny_dataset()
    train = ht.split_fold(records, 0)[0]
    bad_step = len(train) + 2  # the second step of epoch 1
    terms, dm_calls = {}, []

    def recorded(name, fn):  # keeps each term's latest node; dm reads nan at bad_step
        def run(*args):
            node = terms[name] = fn(*args)
            if name == "dm":
                dm_calls.append(1)
                if len(dm_calls) == bad_step:
                    node.value = np.array([[np.nan]])
            return node
        return run

    for name, fn in (("surv", survival_nll), ("dm", decouple_loss), ("bl", balance_loss)):
        monkeypatch.setattr(ht, fn.__name__, recorded(name, fn))
    with pytest.raises(NumericsError) as exc:
        ht.train_fold(records, 0, TINY, FAST)
    sample = train[np.random.default_rng([FAST.seed, 0, 1]).permutation(len(train))[1]]
    surv, bl = terms["surv"].value.item(), terms["bl"].value.item()
    assert np.isfinite(surv) and np.isfinite(bl)
    assert str(exc.value) == (
        f"non-finite loss at fold 0 epoch 1 step {bad_step} (sample {sample.sample_id}): "
        f"surv={surv} dm=nan bl={bl} total=nan")


def test_epochs_zero_returns_init_and_empty_curve():
    records = _tiny_dataset()
    cfg = ht.TrainConfig(epochs=0, seed=5)
    result = ht.train_fold(records, 0, TINY, cfg)
    fresh = hm.init_params(TINY, np.random.default_rng([5, 0]))
    for (p1, a1), (p2, a2) in zip(hm.named_params(result.params), hm.named_params(fresh)):
        assert np.array_equal(a1, a2)
    assert result.loss_curve == []


def test_training_reduces_loss_on_tiny_cohort():
    records = _tiny_dataset()
    result = ht.train_fold(records, 0, TINY, FAST)
    assert result.loss_curve[-1] < result.loss_curve[0]


def test_run_log_terms_sum_to_the_total_and_each_epoch_mean_is_the_curve():
    records = _tiny_dataset()
    result = ht.train_fold(records, 0, TINY, FAST)
    rows = [list(map(float, r.split(","))) for r in result.log_rows if not r.startswith("rfr,")]
    steps = len(ht.split_fold(records, 0)[0])
    assert [r[0] for r in rows] == list(range(1, FAST.epochs * steps + 1))
    for _, surv, dm, bl, total in rows:  # each term printed to 10 significant digits
        assert dm != 0.0
        assert total == pytest.approx(surv + FAST.alpha * dm + FAST.beta * bl,
                                      abs=1e-9 * (abs(surv) + abs(dm) + abs(bl) + abs(total)))
    for epoch, mean in enumerate(result.loss_curve):
        totals = [r[4] for r in rows[epoch * steps:(epoch + 1) * steps]]
        assert mean == pytest.approx(np.mean(totals), rel=1e-9)
    assert len(result.loss_curve) == FAST.epochs


def test_training_deterministic():
    records = _tiny_dataset()
    r1 = ht.train_fold(records, 0, TINY, FAST)
    r2 = ht.train_fold(records, 0, TINY, FAST)
    assert r1.loss_curve == r2.loss_curve
    for (_, a1), (_, a2) in zip(hm.named_params(r1.params), hm.named_params(r2.params)):
        assert np.array_equal(a1, a2)
    assert r1.log_rows == r2.log_rows


def test_missing_fold_rejected():
    records = _tiny_dataset()
    with pytest.raises(ConfigError):
        ht.train_fold(records, 9, TINY, FAST)


def test_bin_edges_use_training_fold_only():
    # plant one extreme uncensored time in the held-out fold; edges must not move
    records = _tiny_dataset()
    extreme = SampleRecord("extreme", records[0].features_a, records[0].features_b,
                           9000.0, 0, fold=0)
    records = records + [extreme]
    result = ht.train_fold(records, 0, TINY, ht.TrainConfig(epochs=1, seed=3))
    train_only = [r for r in records if r.fold != 0]
    assert result.edges == compute_bin_edges(train_only, TINY.num_bins)


def test_predict_fold_rows_and_determinism():
    records = _tiny_dataset()
    result = ht.train_fold(records, 0, TINY, FAST)
    rows1 = ht.predict_fold(records, 0, result.params, result.edges, TINY,
                            np.random.default_rng(0), pin_segment=1)
    rows2 = ht.predict_fold(records, 0, result.params, result.edges, TINY,
                            np.random.default_rng(99), pin_segment=1)
    assert len(rows1) == sum(1 for r in records if r.fold == 0)
    for a, b in zip(rows1, rows2):
        assert a.sample_id == b.sample_id
        assert np.array_equal(a.hazards, b.hazards)  # pinned => rng-independent
        assert a.risk == b.risk
        assert a.bin_label >= 1


def test_predict_fold_empty_when_fold_absent():
    records = _tiny_dataset()
    params = hm.init_params(TINY, np.random.default_rng(0))
    edges = compute_bin_edges(records, TINY.num_bins)
    rows = ht.predict_fold(records, 9, params, edges, TINY, np.random.default_rng(0))
    assert rows == []


def test_predictions_csv_format():
    rows = [
        ht.PredictionRow("p1", 0, np.array([0.1, 0.2]), -1.5, 1, 0, 12.0),
        ht.PredictionRow("p2", 0, np.array([0.3, 0.4]), -0.5, 2, 1, 3.5),
    ]
    csv_text = ht.predictions_to_csv(rows, num_bins=2)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "sample_id,fold,h1,h2,risk,bin,censored,time_months"
    assert lines[1].startswith("p1,0,0.1,0.2,-1.5,1,0,12")
    assert len(lines) == 3


def _tape_ops(root) -> int:
    """Ops (nodes with parents) among the nodes backward(root) walks."""
    seen = {id(root): root}
    stack = [root]
    while stack:
        for parent in stack.pop().parents:
            if parent.requires_grad and id(parent) not in seen:
                seen[id(parent)] = parent
                stack.append(parent)
    return sum(1 for node in seen.values() if node.parents)


def test_desk_training_step_tape_stays_at_64_ops():
    # a desk step's tape: 68 ops before the attention pooling of each encoder
    # became one node, 187 before the composites did; a change that adds ops
    # to the one-sample training step must move this bound on purpose
    run = apply_desk_preset(RunConfig())
    cfg = run.model_config()
    sample = generate_synthetic(run.synth_config(), np.random.default_rng(0))[0][0]
    lifted = hm.lift_params(hm.init_params(cfg, np.random.default_rng(1)), requires_grad=True)
    res = ht.forward([sample], lifted, cfg, np.random.default_rng(2))
    total = total_loss(survival_nll(res.hazards, 2, sample.censored),
                       decouple_loss(res, "cos"), balance_loss(res.traces), 1.0, 0.01)
    assert _tape_ops(total) <= 64


# ---------------------------------------------------------------------------
# fold lanes


def _cores(monkeypatch, count: int) -> None:
    monkeypatch.setattr(ht.os, "sched_getaffinity", lambda pid: set(range(count)))


def _no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("cores, forks", [(64, 1), (1, 0)])
def test_map_folds_forks_one_lane_per_core_capped_by_the_folds(monkeypatch, cores, forks):
    attempts = []

    def fork():
        attempts.append(1)
        raise OSError("no fork in this test")

    monkeypatch.setattr(ht.os, "fork", fork)
    _cores(monkeypatch, cores)
    if forks:
        with pytest.raises(OSError, match="no fork in this test"):
            ht.map_folds(str, [0, 1])
    else:
        assert ht.map_folds(str, [0, 1]) == ["0", "1"]
    assert len(attempts) == forks


def test_map_folds_trains_bitwise_as_the_loop(monkeypatch):
    records = make_folds(_tiny_dataset(n=30), 3, seed=0)
    _cores(monkeypatch, 2)  # fold 1 trains in a forked lane, folds 0 and 2 here

    def fold(fid):
        return ht.train_fold(records, fid, TINY, FAST)

    lanes = ht.map_folds(fold, [0, 1, 2])
    assert len(lanes) == 3  # in fold order: each equals its own fold's run below
    for got, want in zip(lanes, map(fold, [0, 1, 2])):
        assert got.loss_curve == want.loss_curve and got.log_rows == want.log_rows
        assert got.edges == want.edges
        for (path, a), (_, b) in zip(hm.named_params(got.params), hm.named_params(want.params)):
            assert _bits(a) == _bits(b), path
    assert _no_child_left()


@pytest.mark.parametrize("error", [NumericsError("non-finite loss at fold 1"),
                                   ConfigError("fold 1: bad"), OSError(28, "No space left")])
def test_map_folds_raises_a_lanes_error_as_it_was(monkeypatch, error):
    _cores(monkeypatch, 2)

    def fn(fid):
        if fid == 1:  # the forked lane
            raise error
        return fid

    with pytest.raises(type(error)) as info:
        ht.map_folds(fn, [0, 1])
    assert str(info.value) == str(error)
    assert _no_child_left()


# The loop stops at fold 1; two lanes meet the fault of fold 2 in this process
# first and must still raise fold 1's, so the exit code does not hang on the cores.
@pytest.mark.parametrize("cores", [2, 1])
def test_map_folds_raises_the_lowest_failing_folds_error_whatever_the_lanes(monkeypatch, cores):
    _cores(monkeypatch, cores)

    def fn(fid):
        if fid == 1:
            raise NumericsError("non-finite loss at fold 1")
        if fid == 2:
            raise OSError(28, "No space left")
        return fid

    with pytest.raises(NumericsError, match="fold 1"):
        ht.map_folds(fn, [0, 1, 2, 3])
    assert _no_child_left()


def test_map_folds_lane_killed_is_an_os_error_naming_its_folds(monkeypatch):
    _cores(monkeypatch, 2)

    def fn(fid):
        if fid % 2:
            os.kill(os.getpid(), signal.SIGKILL)
        return fid

    with pytest.raises(OSError, match=r"folds \[1, 3\] ended without a result \(signal SIGKILL\)"):
        ht.map_folds(fn, [0, 1, 2, 3])
    assert _no_child_left()


def test_map_folds_error_in_this_process_stops_and_reaps_the_lanes(monkeypatch):
    _cores(monkeypatch, 3)

    def fn(fid):
        if fid == 0:
            raise ValueError("lane 0 fails")
        time.sleep(60)  # the forked lanes would outlive the call without a stop

    start = time.monotonic()
    with pytest.raises(ValueError, match="lane 0 fails"):
        ht.map_folds(fn, [0, 1, 2])
    assert time.monotonic() - start < 30
    assert _no_child_left()


def test_map_folds_kills_a_stopped_lane_that_ignores_sigterm(monkeypatch, tmp_path):
    _cores(monkeypatch, 2)
    monkeypatch.setattr(ht, "REAP_GRACE_S", 0.3)
    ready, raised = tmp_path / "lane1.pid", []

    def fn(fid):
        if fid == 1:  # the forked lane: deaf to SIGTERM, then says so with its pid
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            (tmp_path / "pid.tmp").write_text(str(os.getpid()))
            (tmp_path / "pid.tmp").rename(ready)
            time.sleep(60)
        for _ in range(2000):  # this process fails once the lane ignores SIGTERM
            if ready.exists():
                raised.append(time.monotonic())
                raise ValueError("lane 0 fails")
            time.sleep(0.005)
        raise AssertionError("the forked lane never started")

    with pytest.raises(ValueError, match="lane 0 fails"):
        ht.map_folds(fn, [0, 1])
    assert time.monotonic() - raised[0] < ht.REAP_GRACE_S + 5
    with pytest.raises(ProcessLookupError):
        os.kill(int(ready.read_text()), 0)
    assert _no_child_left()
