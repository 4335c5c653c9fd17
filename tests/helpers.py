"""Shared test utilities: the finite-difference oracle and tape-vs-FD gradient
checks, the fine-op composites the one-node tape ops replaced, the
single-token routing oracle, the per-array optimizer oracle, the loop oracles
of the survival metrics, the one-sample forward and its per-sample loop, and
the full-forward oracles of the no-grad repeaters."""

from dataclasses import dataclass, field, replace
from types import SimpleNamespace

import numpy as np

from hdmoe import autodiff as ad
from hdmoe import evaluation as ev
from hdmoe import losses
from hdmoe import model as hm
from hdmoe.data import assign_bin, compute_bin_edges
from hdmoe.errors import MetricError
from hdmoe.moe import MoEOutput, moe_forward, select_top_k
from hdmoe.rfr import rfr_forward, valid_segments
from hdmoe.trainer import split_fold


def finite_diff_gradient(f, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference d f / d x, one entry at a time.

    f maps a matrix to a float and must be deterministic for fixed x.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = np.array(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        ij = it.multi_index
        orig = x[ij]
        x[ij] = orig + eps
        hi = f(x)
        x[ij] = orig - eps
        lo = f(x)
        x[ij] = orig
        grad[ij] = (hi - lo) / (2.0 * eps)
        it.iternext()
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray) -> float:
    # floor the scale so FD roundoff against an exactly-zero gradient does
    # not register as a huge relative error
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-6)
    return float(np.abs(a - b).max(initial=0.0)) / scale


def rel_close(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    return max_rel_err(a, b) < rtol


def check_grads(f_tape, arrays, rtol=1e-4, eps=1e-5):
    """f_tape(*nodes) must return a 1x1 node. Checks every input's gradient
    against the central-difference oracle; returns the worst relative error."""
    leaves = [ad.leaf(a, requires_grad=True) for a in arrays]
    out = f_tape(*leaves)
    ad.backward(out)
    worst = 0.0
    for i, arr in enumerate(arrays):

        def value_at(x, i=i):
            probe = [ad.leaf(a) for a in arrays]
            probe[i] = ad.leaf(x)
            return float(f_tape(*probe).value[0, 0])

        fd = finite_diff_gradient(value_at, arr, eps)
        g = leaves[i].grad
        if g is None:
            g = np.zeros_like(arr)
        err = max_rel_err(g, fd)
        assert err < rtol, f"input {i}: tape/fd mismatch {err:.3e} (rtol {rtol})"
        worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# fine ops and the composites built from them: the tape as it was before
# routed experts, cosine, survival NLL and balance loss became one node each.
# Each composite records many nodes and must give the one node's values.


def transpose(a):
    return ad.Node(np.ascontiguousarray(a.value.T), (a,), lambda g: ad.accumulate(a, g.T))


def div(a, b):
    def rule(g):
        ad.accumulate(a, g / b.value)
        ad.accumulate(b, -g * a.value / (b.value * b.value))

    return ad.Node(a.value / b.value, (a, b), rule)


def sqrt(a):
    v = np.sqrt(a.value)
    return ad.Node(v, (a,), lambda g: ad.accumulate(a, g / (2.0 * v)))


def gather_rows(a, rows):
    idx = np.asarray(rows, dtype=np.intp)

    def rule(g):
        full = np.zeros_like(a.value)
        np.add.at(full, idx, g)
        ad.accumulate(a, full)

    return ad.Node(a.value[idx], (a,), rule)


def scatter_rows(a, rows, num_rows):
    """Place (and sum) rows of a into a zero matrix with num_rows rows."""
    idx = np.asarray(rows, dtype=np.intp)
    v = np.zeros((num_rows, a.value.shape[1]))
    np.add.at(v, idx, a.value)
    return ad.Node(v, (a,), lambda g: ad.accumulate(a, g[idx]))


def gather_entries(a, rows, cols):
    """Pick scalar entries (rows[i], cols[i]) into a kx1 column."""
    ri = np.asarray(rows, dtype=np.intp)
    ci = np.asarray(cols, dtype=np.intp)

    def rule(g):
        full = np.zeros_like(a.value)
        np.add.at(full, (ri, ci), g[:, 0])
        ad.accumulate(a, full)

    return ad.Node(a.value[ri, ci].reshape(-1, 1), (a,), rule)


def scale_rows(x, s):
    """Multiply row i of x by scalar s[i, 0]."""
    def rule(g):
        ad.accumulate(x, g * s.value)
        ad.accumulate(s, (g * x.value).sum(axis=1, keepdims=True))

    return ad.Node(x.value * s.value, (x, s), rule)


def mean_rows(a):
    """Column means: [m,n] -> [1,n]."""
    m = a.value.shape[0]
    return ad.Node(
        a.value.mean(axis=0, keepdims=True),
        (a,),
        lambda g: ad.accumulate(a, np.repeat(g / m, m, axis=0)),
    )


def routed_experts_composite(tokens, probs, selected, experts):
    """gather -> expert_ffn -> scale by gate -> scatter -> add, per expert."""
    num_tokens = tokens.value.shape[0]
    flat_rows = np.repeat(np.arange(num_tokens, dtype=np.intp), selected.shape[1])
    flat_cols = selected.ravel()
    gates = gather_entries(probs, flat_rows, flat_cols)  # [T*k, 1]
    routed_sum = None
    for expert_idx in np.unique(flat_cols):
        pair_idx = np.flatnonzero(flat_cols == expert_idx)
        token_rows = flat_rows[pair_idx]
        ex = experts[expert_idx]
        out = ad.expert_ffn(gather_rows(tokens, token_rows), ex.w1, ex.b1, ex.w2, ex.b2)
        scaled = scale_rows(out, gather_rows(gates, pair_idx))
        part = scatter_rows(scaled, token_rows, num_tokens)
        routed_sum = part if routed_sum is None else ad.add(routed_sum, part)
    return routed_sum


def cosine_composite(x, y, eps):
    """x.y / (sqrt(x.x) * sqrt(y.y) + eps) from matmul, transpose, sqrt, div."""
    dot = lambda a, b: ad.matmul(a, transpose(b))
    denom = ad.affine(ad.mul(sqrt(dot(x, x)), sqrt(dot(y, y))), 1.0, eps)
    return div(dot(x, y), denom)


def survival_nll_composite(hazards, bin_label, censored):
    """Clip, logs and three masked matmuls of the censored discrete-time NLL."""
    num_bins = hazards.value.shape[1]
    h = ad.clip(hazards, losses.HAZARD_EPS, 1.0 - losses.HAZARD_EPS)
    log_h = ad.log(h)
    log_1mh = ad.log(ad.affine(h, -1.0, 1.0))

    def mask_through(col_mask, source):
        return ad.matmul(source, ad.leaf(col_mask.reshape(-1, 1)))

    surv_n = np.zeros(num_bins)
    surv_n[:bin_label] = 1.0
    surv_prev = np.zeros(num_bins)
    surv_prev[: bin_label - 1] = 1.0
    event_n = np.zeros(num_bins)
    event_n[bin_label - 1] = 1.0

    c = float(censored)
    loss = ad.affine(mask_through(surv_n, log_1mh), -c, 0.0)
    loss = ad.add(loss, ad.affine(mask_through(event_n, log_h), -(1.0 - c), 0.0))
    loss = ad.add(loss, ad.affine(mask_through(surv_prev, log_1mh), -(1.0 - c), 0.0))
    return loss


def balance_loss_composite(traces):
    """Per router mean_rows(probs) @ frac, summed in router order."""
    total = None
    for trace in traces:
        counts = trace.selection_counts()
        frac = counts / counts.sum()
        term = ad.matmul(mean_rows(trace.probs), ad.leaf(frac.reshape(-1, 1)))
        total = term if total is None else ad.add(total, term)
    return total


# ---------------------------------------------------------------------------
# routing oracle: one token at a time, against which the batched routing of
# `moe.moe_forward` is checked


@dataclass
class RouteDecision:
    logits: np.ndarray
    probs: np.ndarray
    selected: np.ndarray
    gates: np.ndarray


def route(token: np.ndarray, router: np.ndarray, top_k: int) -> RouteDecision:
    """Reference single-token routing: softmax logits, top-k, raw-prob gates."""
    token = np.asarray(token, dtype=np.float64).reshape(1, -1)
    logits = token @ router
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    selected = select_top_k(probs, top_k)
    gates = probs[np.zeros(top_k, dtype=np.intp), selected[0]].reshape(1, top_k)
    return RouteDecision(logits=logits, probs=probs, selected=selected, gates=gates)


# ---------------------------------------------------------------------------
# optimizer oracle: one array at a time, against which the flat in-place
# update of `trainer.optimizer_step` is checked, and the training loop that
# re-lifts every array per step, against which `trainer.train_fold` is checked


@dataclass
class LoopOptimizerState:
    first: dict = field(default_factory=dict)
    second: dict = field(default_factory=dict)
    step: int = 0


def optimizer_step_loop(params, grads, state, cfg):
    """Per-array adaptive-moment update of a params tree in place; a None
    gradient (a parameter no gradient reached) counts as zeros."""
    state.step += 1
    t = state.step
    bc1 = 1.0 - cfg.beta1**t
    bc2 = 1.0 - cfg.beta2**t
    for path, arr in hm.named_params(params):
        g = grads.get(path)
        if g is None:
            g = np.zeros_like(arr)
        if cfg.weight_decay:
            arr -= cfg.lr * cfg.weight_decay * arr
        m = state.first.setdefault(path, np.zeros_like(arr))
        v = state.second.setdefault(path, np.zeros_like(arr))
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * g
        v *= cfg.beta2
        v += (1.0 - cfg.beta2) * (g * g)
        arr -= cfg.lr * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps_opt)


def train_fold_loop(records, fold_id, model_cfg, train_cfg):
    """The parameters after train_fold's steps, taken with every array lifted
    afresh per step, gradients read off the leaves and the per-array update."""
    train, _ = split_fold(records, fold_id)
    edges = compute_bin_edges(train, model_cfg.num_bins)
    train = [replace(r, bin_label=assign_bin(r.time_months, edges)) for r in train]
    fold_rng = np.random.default_rng([train_cfg.seed, fold_id])
    params = hm.init_params(model_cfg, fold_rng)
    state = LoopOptimizerState()
    for epoch in range(train_cfg.epochs):
        order = np.random.default_rng([train_cfg.seed, fold_id, epoch]).permutation(len(train))
        for idx in order:
            sample = train[idx]
            lifted, nodes = hm.lift_params(params, requires_grad=True)
            res = hm.forward([sample], lifted, model_cfg, fold_rng)
            surv = losses.survival_nll(res.hazards, sample.bin_label, sample.censored)
            dm = losses.decouple_loss(res, train_cfg.distance_metric)
            bl = losses.balance_loss(res.traces)
            _, total = losses.total_loss(surv, dm, bl, train_cfg.alpha, train_cfg.beta)
            ad.backward(total)
            optimizer_step_loop(params, {p: n.grad for p, n in nodes.items()}, state, train_cfg)
    return params


# ---------------------------------------------------------------------------
# metric oracles: the per-pair and per-time loops the vectorized metrics in
# `hdmoe.kernels` and `hdmoe.evaluation` replaced, kept as references


def scan_concordance_counts(times, events, risks):
    """O(n^2) scan: for each event, count the later samples' risks below and
    equal to its own. Returns (concordant_weight, comparable_count)."""
    conc = 0.0
    comp = 0
    for i in np.flatnonzero(events == 1):
        later = times > times[i]
        comp += int(np.count_nonzero(later))
        r = risks[later]
        conc += float(np.count_nonzero(risks[i] > r))
        conc += 0.5 * float(np.count_nonzero(risks[i] == r))
    return conc, comp


def oracle_cindex(times, events, risks):
    """Independent exhaustive enumeration over unordered pairs."""
    conc, comp = 0.0, 0
    n = len(times)
    for i in range(n):
        for j in range(i + 1, n):
            if times[i] == times[j]:
                continue  # non-comparable by convention
            a, b = (i, j) if times[i] < times[j] else (j, i)
            if events[a] != 1:
                continue
            comp += 1
            if risks[a] > risks[b]:
                conc += 1.0
            elif risks[a] == risks[b]:
                conc += 0.5
    return conc, comp


def km_loop(times, events):
    """Product-limit estimate with one pass per distinct event time."""
    times = np.asarray(times, dtype=np.float64)
    events = np.asarray(events, dtype=np.int64)
    event_times = np.unique(times[events == 1])
    surv = 1.0
    out_s, out_n, out_d = [], [], []
    for t in event_times:
        n_at_risk = int(np.count_nonzero(times >= t))
        d = int(np.count_nonzero((times == t) & (events == 1)))
        surv *= 1.0 - d / n_at_risk
        out_s.append(surv)
        out_n.append(n_at_risk)
        out_d.append(d)
    return ev.KmCurve(
        times=event_times,
        survival=np.array(out_s),
        at_risk=np.array(out_n, dtype=np.int64),
        events=np.array(out_d, dtype=np.int64),
    )


def log_rank_loop(times_a, events_a, times_b, events_b):
    """Two-group log-rank (chi2, p) with one pass per distinct event time;
    None where the test is undefined (no event or zero variance)."""
    ta = np.asarray(times_a, dtype=np.float64)
    ea = np.asarray(events_a, dtype=np.int64)
    tb = np.asarray(times_b, dtype=np.float64)
    eb = np.asarray(events_b, dtype=np.int64)
    all_times = np.concatenate([ta, tb])
    all_events = np.concatenate([ea, eb])
    observed_a = 0.0
    expected_a = 0.0
    variance = 0.0
    for t in np.unique(all_times[all_events == 1]):
        n1 = int(np.count_nonzero(ta >= t))
        n2 = int(np.count_nonzero(tb >= t))
        n = n1 + n2
        d1 = int(np.count_nonzero((ta == t) & (ea == 1)))
        d2 = int(np.count_nonzero((tb == t) & (eb == 1)))
        d = d1 + d2
        observed_a += d1
        expected_a += d * n1 / n
        if n1 and n2:  # with one group left at risk the stratum has no variance
            variance += d * (n1 / n) * (n2 / n) * (n - d) / (n - 1)
    if variance <= 0.0:
        return None
    chi2 = (observed_a - expected_a) ** 2 / variance
    return float(chi2), float(ev.chi2_sf(chi2))


# ---------------------------------------------------------------------------
# one-sample forward: the pass every caller ran once per sample before the
# model took batches. Its encoder pools one bag with reshape -> row_softmax ->
# matmul, and each fusion draws its own segment as it is reached, one
# rng.integers call per draw. The batched pass at B = 1 must equal it
# bitwise, gradients included.


def draw_segments_loop(segment_values, lengths, pins, rng, count):
    """rfr.draw_segments as one rng.integers call per sample and unpinned
    length, sample by sample; a pinned length draws nothing."""
    choices = [valid_segments(segment_values if pin is None else [pin], d)
               for d, pin in zip(lengths, pins)]
    return [
        tuple(int(c[rng.integers(0, len(c))]) if pin is None else c[0] for c, pin in zip(choices, pins))
        for _ in range(count)
    ]


def encode_bag_single(bag, params):
    """One bag [n, d_in] -> its 1 x d1 class token, pooled by fine ops."""
    h = ad.matmul(ad.leaf(bag, name="bag"), params.w_proj)
    gate = ad.mul(ad.tanh(ad.matmul(h, params.v_att)), ad.sigmoid(ad.matmul(h, params.u_att)))
    scores = ad.matmul(gate, params.w_att)
    weights = ad.row_softmax(ad.reshape(scores, (1, scores.value.shape[0])))
    return ad.matmul(weights, h)


def forward_single(sample, lifted, cfg, rng, pin_segments=(None, None)):
    """The ForwardResult of one sample, each fusion drawing its segment as it
    is reached."""
    out_a = moe_forward(encode_bag_single(sample.features_a, lifted.encoder_a), cfg.level1_moe,
                        lifted.level1_moe_a)
    out_b = moe_forward(encode_bag_single(sample.features_b, lifted.encoder_b), cfg.level1_moe,
                        lifted.level1_moe_b)

    def segment(d, pin):
        return draw_segments_loop(cfg.segment_values, (d,), (pin,), rng, 1)[0][0]

    s1 = segment(cfg.d1, pin_segments[0])
    v_f1 = rfr_forward([out_a.routed, out_a.shared, out_b.routed, out_b.shared], [s1])
    v_f1_proj = ad.matmul(v_f1, lifted.bridge)
    out_inter = moe_forward(v_f1_proj, cfg.level2_moe, lifted.level2_moe)
    s2 = segment(cfg.d2, pin_segments[1])
    v_f2 = rfr_forward([out_inter.routed, out_inter.shared], [s2])
    hazards = ad.sigmoid(ad.add_bias(ad.matmul(v_f2, lifted.head_w), lifted.head_b))
    return hm.ForwardResult(out_a, out_b, out_inter, v_f1, v_f1_proj, v_f2, hazards, [(s1, s2)])


def decoupled_stub(intra_a, share_a, intra_b, share_b, inter, share_3):
    """A stand-in ForwardResult holding only what decouple_loss reads: the
    routed (V_intra, V_inter) and shared (V_share, V_share_3) nodes of the
    three MoE outputs."""
    return SimpleNamespace(moe_a=SimpleNamespace(routed=intra_a, shared=share_a),
                           moe_b=SimpleNamespace(routed=intra_b, shared=share_b),
                           moe_inter=SimpleNamespace(routed=inter, shared=share_3))


def result_arrays(res):
    """The value of every node a ForwardResult holds, by name, each MoE
    output's tokens and routing included."""
    out = {}
    for name, value in vars(res).items():
        if isinstance(value, MoEOutput):
            for part in ("routed", "shared", "tokens", "shared_tokens"):
                out[f"{name}.{part}"] = getattr(value, part).value
            out[f"{name}.probs"] = value.trace.probs.value
            out[f"{name}.selected"] = value.trace.selected
        elif isinstance(value, ad.Node):
            out[name] = value.value
    return out


def forward_loop(records, lifted, cfg, rng, pin_segments=(None, None)):
    """One forward_single per record, in order, from one rng: (hazards [B, K],
    risks [B], per-sample (segment 1, segment 2) pairs, per-sample results)."""
    passes = [forward_single(r, lifted, cfg, rng, pin_segments) for r in records]
    hazards = np.concatenate([res.hazards.value for res in passes])
    risks = np.array([float(-np.cumprod(1.0 - h).sum()) for h in hazards])
    return hazards, risks, [res.segments[0] for res in passes], passes


# ---------------------------------------------------------------------------
# repeater oracles: every pass a one-sample forward of every record, and the
# correlation heatmap one np.corrcoef per token matrix, as stability_report
# and redundancy_score ran before they replayed only the parts they need and
# took whole batches


def stability_report_loop(params, model_cfg, records, repeats, rng):
    """(scores, mean, std) with every repeat a one-sample forward of every record."""
    times = np.array([r.time_months for r in records])
    events = np.array([1 - r.censored for r in records])
    lifted, _ = hm.lift_params(params, requires_grad=False)
    scores = []
    for _ in range(repeats):
        risks = forward_loop(records, lifted, model_cfg, rng)[1]
        scores.append(ev.c_index(ev.RiskTable(risks=risks, times=times, events=events)))
    std = 0.0 if min(scores) == max(scores) else float(np.std(scores))
    return scores, float(np.mean(scores)), std


def average_abs_correlation_loop(token_mats):
    """Mean |np.corrcoef| of each [T, l] token matrix, one matrix at a time."""
    acc = None
    for mat in token_mats:
        if np.any(mat.std(axis=1) == 0.0):
            raise MetricError("zero-variance token: correlation undefined")
        corr = np.abs(np.corrcoef(mat))
        acc = corr if acc is None else acc + corr
    return acc / len(token_mats)


def redundancy_score_loop(params, model_cfg, records, level, modality, rng):
    """(pre, post, delta) read off a one-sample forward of every record."""
    lifted, _ = hm.lift_params(params, requires_grad=False)
    outs = forward_loop(records, lifted, model_cfg, rng)[3]
    side = "moe_inter" if level == 2 else f"moe_{modality}"
    pre = average_abs_correlation_loop([getattr(o, side).tokens.value for o in outs])
    post = average_abs_correlation_loop([getattr(o, side).shared_tokens.value for o in outs])
    off = ~np.eye(pre.shape[0], dtype=bool)
    return pre, post, float(pre[off].sum() - post[off].sum())
