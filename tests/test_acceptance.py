"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The end-to-end criteria
(5-8) share one desk-scale training run: 200-sample synthetic cohort with
planted redundancy and complementary cross-modality signal, d_in=32, d1=32,
d2=64, N=4, top-k 1, K=4 bins, 5 folds, 30 epochs, seed 7.
"""

import time
from dataclasses import replace

import numpy as np
import pytest

from hdmoe import autodiff as ad
from hdmoe import cli
from hdmoe import data as hd
from hdmoe import evaluation as ev
from hdmoe import losses
from hdmoe import model as hm
from hdmoe import moe
from hdmoe import trainer as ht

from helpers import decoupled_stub, finite_diff_gradient, max_rel_err, oracle_cindex


def _report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# shared desk run (criteria 5-8)

DESK_MODEL = hm.ModelConfig(
    d_in=32, d1=32, d2=64, token_len_l1=8, token_len_l2=4,
    num_experts=4, top_k=1, expansion=4, num_bins=4,
)
DESK_TRAIN = ht.TrainConfig(seed=7, epochs=30, k_folds=5)
DESK_SYNTH = hd.SynthConfig(cohort=200, d_in=32, redundancy=0.5)


@pytest.fixture(scope="session")
def desk_run():
    records, _ = hd.generate_synthetic(DESK_SYNTH, np.random.default_rng([7, 0x5E]))
    records = hd.make_folds(records, 5, seed=7)
    ablated = [replace(r, features_b=r.features_a) for r in records]

    def run(recs):
        fold_results, rows = {}, []
        for fold in range(5):
            result = ht.train_fold(recs, fold, DESK_MODEL, DESK_TRAIN)
            preds = ht.predict_fold(
                recs, fold, result.params, result.edges, DESK_MODEL,
                np.random.default_rng([7, fold, 0x9E4]),
            )
            rows.extend(preds)
            fold_results[fold] = (result, ev.c_index(ev.RiskTable.from_predictions(preds)))
        return fold_results, rows

    start = time.monotonic()
    main_folds, main_rows = run(records)
    ablation_folds, _ = run(ablated)
    elapsed = time.monotonic() - start
    return {
        "records": records,
        "main_folds": main_folds,
        "main_rows": main_rows,
        "ablation_folds": ablation_folds,
        "elapsed": elapsed,
    }


# ---------------------------------------------------------------------------
# criterion 1: gradient suite


def _fd_check(build, arrays, rtol, eps=1e-5):
    leaves = [ad.leaf(a, requires_grad=True) for a in arrays]
    ad.backward(build(*leaves))
    worst = 0.0
    for i, arr in enumerate(arrays):

        def value(x, i=i):
            probe = [ad.leaf(a) for a in arrays]
            probe[i] = ad.leaf(x)
            return float(build(*probe).value[0, 0])

        fd = finite_diff_gradient(value, arr, eps)
        grad = leaves[i].grad
        if grad is None:
            grad = np.zeros_like(arr)
        worst = max(worst, max_rel_err(grad, fd))
    return worst


def _routing_margin(probs: np.ndarray, top_k: int) -> float:
    ordered = -np.sort(-probs, axis=1)
    return float((ordered[:, top_k - 1] - ordered[:, top_k]).min())


def test_criterion_1_gradient_suite():
    start = time.monotonic()
    worst = {"surv": 0.0, "dm": 0.0, "bl": 0.0, "e2e": 0.0}

    # survival NLL, 50 random trials
    for trial in range(50):
        rng = np.random.default_rng([1, trial])
        h = rng.uniform(0.05, 0.95, (1, 4))
        n = int(rng.integers(1, 5))
        c = int(rng.integers(0, 2))
        err = _fd_check(lambda x: losses.survival_nll(x, n, c), [h], rtol=1e-4)
        worst["surv"] = max(worst["surv"], err)

    # decoupling loss, all four metrics, 50 trials each
    for metric_idx, kind in enumerate(losses.DISTANCE_METRICS):
        done = 0
        salt = 0
        while done < 50:
            rng = np.random.default_rng([2, metric_idx, salt])
            salt += 1
            arrays = [rng.uniform(-2, 2, (1, 4)) for _ in range(4)]
            arrays += [rng.uniform(-2, 2, (1, 8)) for _ in range(2)]
            if kind == "l1" and any(
                float(np.abs(np.asarray(a) - np.asarray(b)).min()) < 1e-4
                for a, b in [(arrays[0], arrays[1]), (arrays[2], arrays[3]),
                             (np.concatenate([arrays[0], arrays[2]], axis=1), arrays[4]),
                             (np.concatenate([arrays[1], arrays[3]], axis=1), arrays[5])]
            ):
                continue  # keep FD probes away from |x-y| kinks

            def build(*nodes):
                return losses.decouple_loss(decoupled_stub(*nodes), kind)

            err = _fd_check(build, arrays, rtol=1e-4)
            worst["dm"] = max(worst["dm"], err)
            done += 1

    # balance loss through the mean-probability path (router weights vary)
    t_tokens, token_len, n_exp = 5, 3, 4
    done = 0
    salt = 0
    while done < 50:
        rng = np.random.default_rng([3, salt])
        salt += 1
        tokens = rng.uniform(-2, 2, (t_tokens, token_len))
        router = rng.uniform(-1, 1, (token_len, n_exp))
        probs = np.apply_along_axis(
            lambda row: np.exp(row - row.max()) / np.exp(row - row.max()).sum(), 1,
            tokens @ router,
        )
        if _routing_margin(probs, 1) < 1e-3:
            continue  # selection would flip under the FD probe
        selected = moe.select_top_k(probs, 1)

        def build(w):
            p = ad.row_softmax(ad.matmul(ad.leaf(tokens), w))
            return losses.balance_loss([moe.RouterTrace(probs=p, selected=selected)])

        err = _fd_check(build, [router], rtol=1e-4)
        worst["bl"] = max(worst["bl"], err)
        done += 1

    # full end-to-end desk model: d1=8, d2=16, N=2, K=4
    cfg = hm.ModelConfig(
        d_in=5, d1=8, d2=16, token_len_l1=4, token_len_l2=4,
        num_experts=2, top_k=1, expansion=2, num_bins=4,
    )
    done = 0
    salt = 0
    while done < 50:
        rng = np.random.default_rng([4, salt])
        salt += 1
        params = hm.init_params(cfg, rng)
        sample = hd.SampleRecord(
            "g", rng.uniform(-2, 2, (3, 5)), rng.uniform(-2, 2, (3, 5)), 10.0, 0
        )
        pins = (int(rng.choice([1, 2, 4, 8])), int(rng.choice([1, 2, 4, 8, 16])))
        n_bin = int(rng.integers(1, 5))
        c = int(rng.integers(0, 2))

        def loss_of(p):
            lifted = hm.lift_params(p, requires_grad=False)[0]
            res = hm.forward([sample], lifted, cfg, np.random.default_rng(0), pin_segments=pins)
            surv = losses.survival_nll(res.hazards, n_bin, c)
            dm = losses.decouple_loss(res, "cos")
            bl = losses.balance_loss(res.traces)
            return losses.total_loss(surv, dm, bl, 1.0, 0.01)

        lifted, nodes = hm.lift_params(params, requires_grad=True)
        res = hm.forward([sample], lifted, cfg, np.random.default_rng(0), pin_segments=pins)
        if min(_routing_margin(t.probs.value, 1) for t in res.traces) < 1e-3:
            continue
        surv = losses.survival_nll(res.hazards, n_bin, c)
        _, total = losses.total_loss(
            surv, losses.decouple_loss(res, "cos"),
            losses.balance_loss(res.traces), 1.0, 0.01,
        )
        ad.backward(total)
        coord_rng = np.random.default_rng([5, salt])
        for path, arr in hm.named_params(params):
            node = nodes[path]
            grad = node.grad if node.grad is not None else np.zeros_like(arr)
            flat = arr.reshape(-1)
            for idx in coord_rng.choice(flat.size, size=min(2, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + 1e-5
                hi = loss_of(params)[0].total
                flat[idx] = orig - 1e-5
                lo = loss_of(params)[0].total
                flat[idx] = orig
                fd = (hi - lo) / 2e-5
                g = float(grad.reshape(-1)[idx])
                scale = max(abs(fd), abs(g), 1e-6)
                err = abs(fd - g) / scale
                worst["e2e"] = max(worst["e2e"], err)
                assert err < 1e-3, f"e2e trial {done} {path}[{idx}]: {fd} vs {g}"
        done += 1

    elapsed = time.monotonic() - start
    ok = (
        worst["surv"] < 1e-4 and worst["dm"] < 1e-4 and worst["bl"] < 1e-4
        and worst["e2e"] < 1e-3 and elapsed < 60.0
    )
    _report(
        "criterion-1 gradient-suite", ok,
        f"worst rel err surv={worst['surv']:.1e} dm={worst['dm']:.1e} "
        f"bl={worst['bl']:.1e} e2e={worst['e2e']:.1e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# criterion 2: fusion permutation oracle suite


def test_criterion_2_rfr_oracle_suite():
    start = time.monotonic()
    segment_values = (1, 2, 4, 8, 16, 32, 64, 128)
    from hdmoe.rfr import build_permutation

    rng = np.random.default_rng(2024)
    checked = 0
    for m in (2, 4):
        for d in (4, 8, 16, 256, 512):
            for s in (s for s in segment_values if d % s == 0):
                perm = build_permutation(m, d, s)
                assert np.array_equal(np.sort(perm), np.arange(m * d))
                x = rng.standard_normal(m * d)
                out = x[perm]
                assert sorted(out.tolist()) == sorted(x.tolist())
                inv = np.argsort(perm)
                assert np.array_equal(out[inv], x)
                if s == 1:
                    assert np.array_equal(out, x)
                checked += 1
    elapsed = time.monotonic() - start
    ok = checked == 56 and elapsed < 10.0  # 28 valid (d, s) pairs per m
    _report("criterion-2 rfr-oracle-suite", ok, f"{checked} (m,d,s) cases, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criterion 3: MoE oracle suite


def test_criterion_3_moe_oracle_suite():
    rng = np.random.default_rng(3)
    # top-k selection vs brute-force sort on 1e4 random tokens
    for _ in range(10_000):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        probs = rng.uniform(0, 1, (1, n))
        if rng.uniform() < 0.2:
            probs[0, int(rng.integers(0, n))] = probs[0, int(rng.integers(0, n))]
        got = list(moe.select_top_k(probs, k)[0])
        want = sorted(range(n), key=lambda j: (-probs[0, j], j))[:k]
        assert got == want

    # top_k = N equals the dense mixture within 1e-12 on tiny configs
    def lift(params):
        le = lambda e: moe.ExpertParams(
            w1=ad.leaf(e.w1), b1=ad.leaf(e.b1), w2=ad.leaf(e.w2), b2=ad.leaf(e.b2)
        )
        return moe.MoEParams(
            router=ad.leaf(params.router),
            experts=[le(e) for e in params.experts],
            shared=le(params.shared),
        )

    worst = 0.0
    for n_exp, token_len, n_tokens in ((2, 2, 3), (3, 2, 2), (4, 3, 2)):
        cfg = moe.MoEConfig(num_experts=n_exp, top_k=n_exp, token_len=token_len, expansion=2)
        params = moe.init_moe_params(cfg, rng)
        d = token_len * n_tokens
        v = rng.normal(size=(1, d))
        out = moe.moe_forward(ad.leaf(v), cfg, lift(params))
        dense = np.zeros((n_tokens, token_len))
        for t, token in enumerate(v.reshape(n_tokens, token_len)):
            logits = token @ params.router
            p = np.exp(logits - logits.max())
            p /= p.sum()
            for j, e in enumerate(params.experts):
                pre = token @ e.w1 + e.b1
                act = pre / (1 + np.exp(-pre))
                dense[t] += p[j] * (act @ e.w2 + e.b2)[0]
        worst = max(worst, float(np.abs(out.routed.value.reshape(n_tokens, token_len) - dense).max()))
    assert worst < 1e-12

    # uniform routing balance loss equals 1/N per router exactly
    from hdmoe.moe import RouterTrace

    for n in (2, 4, 8):
        probs = np.full((n, n), 1.0 / n)
        selected = np.arange(n, dtype=np.intp).reshape(n, 1)
        trace = RouterTrace(probs=ad.leaf(probs), selected=selected)
        val = losses.balance_loss([trace]).value[0, 0]
        assert val == pytest.approx(1.0 / n, abs=0.0)
    _report("criterion-3 moe-oracle-suite", True, f"dense-mixture max dev {worst:.1e}")


# ---------------------------------------------------------------------------
# criterion 4: survival / metrics oracles


def test_criterion_4_survival_and_metrics_oracles():
    # hand-computed NLL values to 1e-9
    h = ad.leaf([[0.1, 0.5, 0.3, 0.9]])
    assert losses.survival_nll(h, 2, 0).value[0, 0] == pytest.approx(
        -np.log(0.5) - np.log(0.9), abs=1e-9
    )
    h = ad.leaf([[0.5, 0.2, 0.2, 0.2]])
    assert losses.survival_nll(h, 1, 0).value[0, 0] == pytest.approx(
        -np.log(0.5), abs=1e-9
    )
    h = ad.leaf([[0.25, 0.5, 0.1, 0.1]])
    assert losses.survival_nll(h, 2, 1).value[0, 0] == pytest.approx(
        -np.log(0.75) - np.log(0.5), abs=1e-9
    )

    # c-index vs exhaustive pair enumeration: 200 random instances, exact
    rng = np.random.default_rng(4)
    checked = 0
    while checked < 200:
        n = int(rng.integers(2, 31))
        times = np.round(rng.uniform(0, 15, n), 1)
        events = rng.integers(0, 2, n)
        risks = np.round(rng.normal(size=n), 2)
        conc, comp = oracle_cindex(times, events, risks)
        if comp == 0:
            continue
        table = ev.RiskTable(risks=risks, times=times, events=events)
        assert ev.c_index(table) == conc / comp
        checked += 1

    # Kaplan-Meier hand product-limit values
    curve = ev.km_estimate([1.0, 2.0, 3.0], [1, 1, 1])
    assert np.allclose(curve.survival, [2 / 3, 1 / 3, 0.0], atol=1e-15)
    curve = ev.km_estimate([1.0, 2.0, 3.0, 4.0], [1, 0, 1, 0])
    assert np.allclose(curve.survival, [0.75, 0.375], atol=1e-15)

    # chi-square(1) upper tail at the textbook quantile
    p_chi = ev.chi2_sf(3.841)
    assert p_chi == pytest.approx(0.05, abs=1e-3)

    # Welch example
    t_stat, p_w = ev.welch_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0])
    assert t_stat == pytest.approx(-1.2247, abs=1e-3)
    assert p_w == pytest.approx(0.288, abs=2e-3)
    _report(
        "criterion-4 survival-metrics-oracles", True,
        f"chi2 p={p_chi:.4f}, welch t={t_stat:.4f}",
    )


# ---------------------------------------------------------------------------
# criteria 5-8: desk-scale end-to-end checks


def test_criterion_5_end_to_end_learning(desk_run):
    cs_main = [c for _, c in desk_run["main_folds"].values()]
    cs_abl = [c for _, c in desk_run["ablation_folds"].values()]
    mean_main = float(np.mean(cs_main))
    mean_abl = float(np.mean(cs_abl))
    ok = mean_main > 0.60 and mean_main > mean_abl and desk_run["elapsed"] < 600.0
    _report(
        "criterion-5 end-to-end-learning", ok,
        f"held-out mean c-index {mean_main:.4f} vs chance 0.5, "
        f"single-modality ablation {mean_abl:.4f}, runtime {desk_run['elapsed']:.0f}s",
    )


def test_criterion_6_rfr_stability(desk_run):
    result, _ = desk_run["main_folds"][0]
    lifted, _ = hm.lift_params(result.params, requires_grad=False)
    level1 = hm.encode(desk_run["records"], lifted, DESK_MODEL)
    scores, mean, std = ev.stability_report(
        level1, lifted, DESK_MODEL, desk_run["records"], 5,
        np.random.default_rng([7, 0, 0x57AB]),
    )
    ok = std < 0.01
    _report(
        "criterion-6 rfr-stability", ok,
        f"5 repeats mean {mean:.4f} std {std:.5f} (threshold 0.01)",
    )


def test_criterion_7_deredundancy_direction(desk_run):
    result, _ = desk_run["main_folds"][0]
    lifted, _ = hm.lift_params(result.params, requires_grad=False)
    level1 = hm.encode(desk_run["records"], lifted, DESK_MODEL)
    deltas = {}
    for side, modality in enumerate(("a", "b")):
        _, _, delta = ev.redundancy_score(level1[side])
        deltas[modality] = delta
    ok = all(d > 0 for d in deltas.values())
    # Known-red criterion at this scale: raw tokens are blocks of a dense
    # projection of a low-dimensional latent (near-uncorrelated by
    # construction), a random feed-forward map contracts toward its top
    # singular directions (raising correlation before training), and the
    # cosine decoupling term then anti-aligns the shared output into a
    # near-constant direction; measured delta stayed negative for every
    # cohort, metric, and loss weight tried (see README).
    _report(
        "criterion-7 deredundancy-direction", ok,
        f"delta_a={deltas['a']:+.3f} delta_b={deltas['b']:+.3f} (require > 0)",
    )


def test_criterion_8_statistical_separation(desk_run):
    rows = desk_run["main_rows"]
    risks = np.array([r.risk for r in rows])
    times = np.array([r.time_months for r in rows])
    events = np.array([1 - r.censored for r in rows])
    high = risks > np.median(risks)
    chi2, p = ev.log_rank_p(times[high], events[high], times[~high], events[~high])
    ok = p < 0.05
    _report(
        "criterion-8 statistical-separation", ok,
        f"median-risk log-rank chi2={chi2:.1f} p={p:.2e} (require < 0.05)",
    )


# ---------------------------------------------------------------------------
# criterion 9: bitwise determinism


def test_criterion_9_determinism(tmp_path):
    import dataclasses as dc

    from hdmoe.config import RunConfig, save_config

    cfg = dc.replace(
        RunConfig(),
        d_in=8, d1=16, d2=32, token_len_l1=8, token_len_l2=4, num_experts=2,
        cohort=24, bag_a=2, bag_b=2, epochs=2, k_folds=2, num_bins=2, seed=13,
    )
    cfg_path = tmp_path / "config.json"
    save_config(cfg, cfg_path)
    data_dir = tmp_path / "data"
    assert cli.main(["synth", "--config", str(cfg_path), "--out", str(data_dir)]) == 0
    resolved = data_dir / "config.json"

    runs = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert cli.main(["train", "--config", str(resolved), "--out", str(out)]) == 0
        runs.append(out)

    compared = []
    for rel in ("fold0/checkpoint.json", "fold1/checkpoint.json",
                "fold0/predictions.csv", "fold1/predictions.csv",
                "predictions.csv", "metrics.json"):
        identical = (runs[0] / rel).read_bytes() == (runs[1] / rel).read_bytes()
        compared.append(identical)
    ok = all(compared)
    _report(
        "criterion-9 determinism", ok,
        f"{len(compared)} artifacts byte-identical across reruns",
    )
