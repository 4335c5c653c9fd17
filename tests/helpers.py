"""Shared test utilities: the finite-difference oracle and tape-vs-FD gradient
checks, the fine ops that left the tape and the composites the one-node tape
ops replaced, the
single-token routing oracle, the per-array optimizer oracle, the loop oracles
of the survival metrics, the one-sample forward and its per-sample loop, and
the full-forward oracles of the no-grad repeaters, the format-v1
checkpoint writer and the file-by-file cohort reader."""

import base64
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from hdmoe import autodiff as ad
from hdmoe import evaluation as ev
from hdmoe import kernels
from hdmoe import losses
from hdmoe import model as hm
from hdmoe.data import SampleRecord, assign_bin, compute_bin_edges, load_manifest
from hdmoe.errors import ConfigError, DataError, MetricError, NumericsError, ShapeError
from hdmoe.moe import MoEOutput, RouterTrace, moe_forward, select_top_k
from hdmoe.rfr import build_permutation, rfr_forward, valid_segments
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
# the bag encoder, routed experts, MoE block, cosine, survival NLL, balance
# loss, decouple loss, total loss and each fusion stage became one node each
# (the encoder's composite is encode_bag_single below). Each composite
# records many nodes and must give the one node's values.


def _require_same_shape(a, b, op):
    if a.value.shape != b.value.shape:
        raise ShapeError(f"{op} shapes disagree: {a.value.shape} vs {b.value.shape}")


def add(a, b):
    _require_same_shape(a, b, "add")

    def rule(g):
        ad.accumulate(a, g)
        ad.accumulate(b, g)

    return ad.Node(a.value + b.value, (a, b), rule)


def sub(a, b):
    _require_same_shape(a, b, "sub")

    def rule(g):
        ad.accumulate(a, g)
        ad.accumulate(b, -g)

    return ad.Node(a.value - b.value, (a, b), rule)


def mul(a, b):
    _require_same_shape(a, b, "mul")

    def rule(g):
        ad.accumulate(a, g * b.value)
        ad.accumulate(b, g * a.value)

    return ad.Node(a.value * b.value, (a, b), rule)


def affine(a, scale, shift):
    """Elementwise scale * a + shift with constant coefficients."""
    return ad.Node(scale * a.value + shift, (a,), lambda g: ad.accumulate(a, scale * g))


def log(a):
    if (a.value <= 0).any():
        raise NumericsError("log requires strictly positive entries")
    return ad.Node(np.log(a.value), (a,), lambda g: ad.accumulate(a, g / a.value))


def absolute(a):
    return ad.Node(np.abs(a.value), (a,), lambda g: ad.accumulate(a, g * np.sign(a.value)))


def clip(a, lo, hi):
    def rule(g):
        ad.accumulate(a, g * ((a.value > lo) & (a.value < hi)))

    return ad.Node(np.clip(a.value, lo, hi), (a,), rule)


def sum_all(a):
    return ad.Node(
        np.array([[a.value.sum()]]),
        (a,),
        lambda g: ad.accumulate(a, np.full_like(a.value, g[0, 0])),
    )


def permute_entries(a, perm):
    """Reorder the entries of each row by its own index row:
    out[b, i] = a[b, perm[b, i]]. A 1-D perm serves a 1xn row."""
    idx = np.atleast_2d(np.asarray(perm, dtype=np.intp))
    n = a.value.shape[1]
    if idx.shape != a.value.shape or not (np.sort(idx, axis=1) == np.arange(n)).all():
        raise ValueError(f"perm is not a bijection on 0..{n - 1} in every row")
    rows = np.arange(idx.shape[0])[:, None]

    def rule(g):
        full = np.empty_like(g)
        full[rows, idx] = g
        ad.accumulate(a, full)

    return ad.Node(a.value[rows, idx], (a,), rule)


def concat_cols(parts):
    """Join matrices with equal row counts side by side."""
    nodes = tuple(parts)
    if not nodes:
        raise ShapeError("concat_cols needs at least one input")
    if any(p.value.shape[0] != nodes[0].value.shape[0] for p in nodes):
        raise ShapeError("concat_cols expects inputs with equal row counts")

    def rule(g):
        offsets = np.cumsum([0] + [p.value.shape[1] for p in nodes])
        for p, lo, hi in zip(nodes, offsets[:-1], offsets[1:]):
            ad.accumulate(p, g[:, lo:hi])

    return ad.Node(np.concatenate([p.value for p in nodes], axis=1), nodes, rule)


def sigmoid_masked(x):
    """The logistic function by boolean-mask gathers and scatters, as
    ad.sigmoid computed it before ad.logistic: 1 / (1 + exp(-x)) where
    x >= 0 and exp(x) / (1 + exp(x)) below."""
    v = np.empty_like(x)
    pos = x >= 0
    v[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    v[~pos] = ex / (1.0 + ex)
    return v


def tanh(a):
    v = np.tanh(a.value)
    return ad.Node(v, (a,), lambda g: ad.accumulate(a, g * (1.0 - v * v)))


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


def reshape(a, shape):
    return ad.Node(
        a.value.reshape(shape), (a,), lambda g: ad.accumulate(a, g.reshape(a.value.shape))
    )


def row_softmax(a):
    p = ad.softmax(a.value)
    return ad.Node(p, (a,), lambda g: ad.accumulate(a, ad.softmax_vjp(p, g)))


def expert_ffn(x, w1, b1, w2, b2):
    """Fused 2-layer SiLU feed-forward unit (kernels.py)."""
    if x.value.shape[1] != w1.value.shape[0]:
        raise ShapeError(f"expert_ffn: {x.value.shape} @ {w1.value.shape}")
    if w1.value.shape[1] != w2.value.shape[0]:
        raise ShapeError(f"expert_ffn: hidden {w1.value.shape} @ {w2.value.shape}")
    v, *cache = kernels.ffn_forward(x.value, w1.value, b1.value, w2.value, b2.value)

    def rule(g):
        grads = kernels.ffn_backward(g, x.value, w1.value, w2.value, *cache)
        for node, grad in zip((x, w1, b1, w2, b2), grads):
            ad.accumulate(node, grad)

    return ad.Node(v, (x, w1, b1, w2, b2), rule)


def routed_experts(tokens, probs, selected, experts):
    """Row t: the sum over e in selected[t] of probs[t, e] * ffn_e(tokens[t]),
    as one node: one stable sort groups the (token, expert) pairs by expert,
    each reached expert runs the fused kernel once over its run of pairs, and
    the rule scatters the gates' gradients into probs at (row, expert)."""
    x, p = tokens.value, probs.value
    order = np.argsort(selected.ravel(), kind="stable")
    rows, cols = order // selected.shape[1], selected.ravel()[order]
    xs, gates = x[rows], p[rows, cols][:, None]
    edges = np.searchsorted(cols, np.arange(len(experts) + 1))
    runs = [((ex.w1, ex.b1, ex.w2, ex.b2), lo, hi)
            for ex, lo, hi in zip(experts, edges[:-1], edges[1:]) if lo < hi]
    ys, saved = np.empty_like(xs), []
    for (w1, b1, w2, b2), lo, hi in runs:
        ys[lo:hi], *cache = kernels.ffn_forward(xs[lo:hi], w1.value, b1.value, w2.value, b2.value)
        saved.append(cache)
    out = np.zeros_like(x)
    np.add.at(out, rows, ys * gates)

    def rule(g):
        gs, g_tokens, g_probs = g[rows], np.zeros_like(x), np.zeros_like(p)
        g_probs[rows, cols] = (gs * ys).sum(axis=1)
        g_xs, g_ys = np.empty_like(xs), gs * gates
        for (params, lo, hi), cache in zip(runs, saved):
            g_xs[lo:hi], *g_params = kernels.ffn_backward(
                g_ys[lo:hi], xs[lo:hi], params[0].value, params[2].value, *cache)
            for node, grad in zip(params, g_params):
                ad.accumulate(node, grad)
        np.add.at(g_tokens, rows, g_xs)
        ad.accumulate(tokens, g_tokens)
        ad.accumulate(probs, g_probs)

    return ad.Node(out, (tokens, probs, *(n for params, *_ in runs for n in params)), rule)


def tokenize(v, token_len):
    """Reshape B x d into B*T x token_len: row b's tokens are rows b*T .. b*T+T-1."""
    rows, d = v.value.shape
    if d % token_len != 0:
        raise ConfigError(f"token_len {token_len} does not divide feature dim {d}")
    return reshape(v, (rows * d // token_len, token_len))


def moe_forward_composite(v, cfg, params):
    """The MoE block as seven nodes: tokenize, router matmul, row softmax,
    routed experts, shared expert and the two reshapes back to B x d. Its
    tokens' gradient sums the three terms in whatever order backward reaches
    the routed experts, the router and the shared expert."""
    tokens = tokenize(v, cfg.token_len)
    probs = row_softmax(ad.matmul(tokens, params.router))
    selected = select_top_k(probs.value, cfg.top_k)
    routed_tokens = routed_experts(tokens, probs, selected, params.experts)
    sh = params.shared
    shared_tokens = expert_ffn(tokens, sh.w1, sh.b1, sh.w2, sh.b2)
    return MoEOutput(
        routed=reshape(routed_tokens, v.value.shape),
        shared=reshape(shared_tokens, v.value.shape),
        trace=RouterTrace(probs, selected),
        tokens=tokens.value,
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
        out = expert_ffn(gather_rows(tokens, token_rows), ex.w1, ex.b1, ex.w2, ex.b2)
        scaled = scale_rows(out, gather_rows(gates, pair_idx))
        part = scatter_rows(scaled, token_rows, num_tokens)
        routed_sum = part if routed_sum is None else add(routed_sum, part)
    return routed_sum


def cosine_composite(x, y, eps):
    """x.y / (sqrt(x.x) * sqrt(y.y) + eps) from matmul, transpose, sqrt, div."""
    dot = lambda a, b: ad.matmul(a, transpose(b))
    denom = affine(mul(sqrt(dot(x, x)), sqrt(dot(y, y))), 1.0, eps)
    return div(dot(x, y), denom)


def survival_nll_composite(hazards, bin_label, censored):
    """Clip, logs and three masked matmuls of the censored discrete-time NLL."""
    num_bins = hazards.value.shape[1]
    h = clip(hazards, losses.HAZARD_EPS, 1.0 - losses.HAZARD_EPS)
    log_h = log(h)
    log_1mh = log(affine(h, -1.0, 1.0))

    def mask_through(col_mask, source):
        return ad.matmul(source, ad.leaf(col_mask.reshape(-1, 1)))

    surv_n = np.zeros(num_bins)
    surv_n[:bin_label] = 1.0
    surv_prev = np.zeros(num_bins)
    surv_prev[: bin_label - 1] = 1.0
    event_n = np.zeros(num_bins)
    event_n[bin_label - 1] = 1.0

    c = float(censored)
    loss = affine(mask_through(surv_n, log_1mh), -c, 0.0)
    loss = add(loss, affine(mask_through(event_n, log_h), -(1.0 - c), 0.0))
    loss = add(loss, affine(mask_through(surv_prev, log_1mh), -(1.0 - c), 0.0))
    return loss


def balance_loss_composite(traces):
    """Per router mean_rows(probs) @ frac, summed in router order."""
    total = None
    for trace in traces:
        counts = trace.selection_counts()
        frac = counts / counts.sum()
        term = ad.matmul(mean_rows(trace.probs), ad.leaf(frac.reshape(-1, 1)))
        total = term if total is None else add(total, term)
    return total


def cosine_1x1(x, y):
    """losses.cosine with its scalars held as 1x1 arrays, as it was before
    they became floats: the 1x1 value and the rule, which takes a float."""
    xt, yt = np.ascontiguousarray(x.T), np.ascontiguousarray(y.T)
    dot = x @ yt
    nx, ny = np.sqrt(x @ xt), np.sqrt(y @ yt)
    denom = nx * ny + losses.COSINE_NORM_EPS

    def vjp(g):
        g_dot = g / denom
        g_prod = -g * dot / (denom * denom)
        g_xx = g_prod * ny / (2.0 * nx) if nx.item() else np.zeros_like(g_prod)
        g_yy = g_prod * nx / (2.0 * ny) if ny.item() else np.zeros_like(g_prod)
        return g_dot * y + g_xx * x + x * g_xx, x * g_dot + g_yy * y + y * g_yy

    return dot / denom, vjp


def pair_node(fn, x, y):
    """One node from fn(x.value, y.value) -> (value, rule mapping a float
    gradient to (g_x, g_y)): the way losses.cosine and losses.distance are
    recorded on their own."""
    value, vjp = fn(x.value, y.value)

    def rule(g):
        g_x, g_y = vjp(g.item())
        ad.accumulate(x, g_x)
        ad.accumulate(y, g_y)

    return ad.Node(np.reshape(value, (1, 1)), (x, y), rule)


def distance_composite(kind, x, y):
    """(DM, DM') of two 1xd rows by fine ops around the one-node cosine of
    1x1 arrays."""
    d = x.value.shape[1]
    if kind == "cos":
        cos = pair_node(cosine_1x1, x, y)
        return affine(cos, -1.0, 1.0), cos
    if kind == "l1":
        dm = affine(sum_all(absolute(sub(x, y))), 1.0 / d, 0.0)
    elif kind == "mse":
        diff = sub(x, y)
        dm = affine(sum_all(mul(diff, diff)), 1.0 / d, 0.0)
    else:  # kl
        p = clip(row_softmax(x), 1e-9, 1.0)
        q = clip(row_softmax(y), 1e-9, 1.0)
        dm = sum_all(mul(sub(p, q), sub(log(p), log(q))))
    return dm, affine(dm, -1.0, 0.0)


def decouple_loss_composite(res, kind):
    """Three within-level DM' terms and two cross-level DM terms over
    concatenated level-1 outputs, summed by add in that order."""
    a, b, inter = res.moe_a, res.moe_b, res.moe_inter
    terms = [distance_composite(kind, out.routed, out.shared)[1] for out in (a, b, inter)]
    terms.append(distance_composite(kind, concat_cols([a.routed, b.routed]), inter.routed)[0])
    terms.append(distance_composite(kind, concat_cols([a.shared, b.shared]), inter.shared)[0])
    total = terms[0]
    for t in terms[1:]:
        total = add(total, t)
    return total


def total_loss_composite(surv, dm, bl, alpha, beta):
    return add(surv, add(affine(dm, alpha, 0.0), affine(bl, beta, 0.0)))


def rfr_composite(vectors, segments):
    """concat_cols -> permute_entries, row b by its segment's index list."""
    d = vectors[0].value.shape[1]
    perms = np.stack([build_permutation(len(vectors), d, s) for s in segments])
    return permute_entries(concat_cols(vectors), perms)


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
    labels = [assign_bin(r.time_months, edges) for r in train]
    fold_rng = np.random.default_rng([train_cfg.seed, fold_id])
    params = hm.init_params(model_cfg, fold_rng)
    state = LoopOptimizerState()
    for epoch in range(train_cfg.epochs):
        order = np.random.default_rng([train_cfg.seed, fold_id, epoch]).permutation(len(train))
        for idx in order:
            sample = train[idx]
            lifted = hm.lift_params(params, requires_grad=True)
            res = hm.forward([sample], lifted, model_cfg, fold_rng)
            surv = losses.survival_nll(res.hazards, labels[idx], sample.censored)
            dm = losses.decouple_loss(res, train_cfg.distance_metric)
            bl = losses.balance_loss(res.traces)
            total = losses.total_loss(surv, dm, bl, train_cfg.alpha, train_cfg.beta)
            ad.backward(total)
            optimizer_step_loop(params, {p: n.grad for p, n in hm.named_params(lifted)}, state,
                                train_cfg)
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
    """One bag [n, d_in] -> its 1 x d1 class token by fine ops: projection,
    tanh/sigmoid gate, scores, reshape -> row_softmax -> matmul pooling."""
    h = ad.matmul(ad.leaf(bag, name="bag"), params.w_proj)
    gate = mul(tanh(ad.matmul(h, params.v_att)), ad.sigmoid(ad.matmul(h, params.u_att)))
    scores = ad.matmul(gate, params.w_att)
    weights = row_softmax(reshape(scores, (1, scores.value.shape[0])))
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
    out_inter = moe_forward(v_f1_proj, cfg.level2_moe, lifted.level2_moe, router_last=True)
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
            for part in ("routed", "shared"):
                out[f"{name}.{part}"] = getattr(value, part).value
            out[f"{name}.tokens"] = value.tokens
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


def outcome_table(records, risks=None):
    """The RiskTable of records' times and events, with zero risks unless
    given: a stand-in for the scoring pass's table, of which stability_report
    reads only the times and events."""
    return ev.RiskTable(risks=np.zeros(len(records)) if risks is None else risks,
                        times=np.array([r.time_months for r in records]),
                        events=np.array([1 - r.censored for r in records]))


def stability_report_loop(params, model_cfg, records, repeats, rng):
    """(scores, mean, std) with every repeat a one-sample forward of every record."""
    times = np.array([r.time_months for r in records])
    events = np.array([1 - r.censored for r in records])
    lifted = hm.lift_params(params, requires_grad=False)
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
    lifted = hm.lift_params(params, requires_grad=False)
    outs = [getattr(o, "moe_inter" if level == 2 else f"moe_{modality}")
            for o in forward_loop(records, lifted, model_cfg, rng)[3]]
    pre = average_abs_correlation_loop([o.tokens for o in outs])
    post = average_abs_correlation_loop([o.shared.value.reshape(o.tokens.shape) for o in outs])
    off = ~np.eye(pre.shape[0], dtype=bool)
    return pre, post, float(pre[off].sum() - post[off].sum())


# ---------------------------------------------------------------------------
# checkpoint format v1: each parameter's values as a JSON list of numbers, the
# repr of each float64. save_checkpoint wrote it before format v2, and
# load_checkpoint still reads it.


def checkpoint_as_v1(blob: dict) -> dict:
    """A parsed format-v2 checkpoint as the v1 writer gave it for the same
    parameters and meta: same key order, each `data` the list of its values."""
    params = {p: {"shape": e["shape"], "data": np.frombuffer(
        base64.b64decode(e["data"]), "<f8").tolist()} for p, e in blob["params"].items()}
    return {**blob, "format_version": 1, "params": params}


# ---------------------------------------------------------------------------
# the cohort read file by file: one np.loadtxt per feature file, each checked
# as it is read, and each record once its two files are read


def feature_file_per_file(path, sample_id: str) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            arr = np.loadtxt(path, delimiter=",", ndmin=2, encoding="utf-8")
    except ValueError as exc:
        raise DataError(f"{path}: bad feature file for {sample_id}: {exc}") from None
    if arr.size == 0:
        raise DataError(f"{path}: empty feature file for {sample_id}")
    if not np.isfinite(arr).all():
        raise DataError(f"{path}: non-finite features for {sample_id}")
    return arr


def load_samples_per_file(manifest_path) -> list[SampleRecord]:
    base = manifest_path.parent
    return [
        SampleRecord(e.sample_id, feature_file_per_file(base / e.modality_a_file, e.sample_id),
                     feature_file_per_file(base / e.modality_b_file, e.sample_id),
                     e.time_months, e.censored, fold=e.fold)
        for e in load_manifest(manifest_path)
    ]
