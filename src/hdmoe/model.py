"""Full model: two bag encoders, two expert levels with shared experts, two
random-reorganization fusion stages, a bridge projection, and the per-bin
hazard head.

Every pass takes a batch of B samples; row b of each matrix below belongs to
sample b. The first fusion stage emits B x 4*d1; a learned bridge maps it to
d2 so the second-level tokens, outputs, and the final fused vector all live
at the widths the architecture prescribes (V_inter and the level-2 shared
output are each B x d2, the head sees B x 2*d2). Training passes B = 1.

A forward pass is a draw-free prefix and a draw-dependent suffix:
`encode` runs the bag encoders and the level-1 MoEs and consumes no RNG;
`fuse` runs fusion 1 -> bridge -> level-2 MoE -> fusion 2 -> head, and
draws a segment size for each sample's two fusion stages, sample by sample
(sample b's level-1 segment, then its level-2 one) as B one-sample passes
would. `forward` is `fuse(encode(...))`; a caller that repeats draws over
fixed samples can encode them once and replay only `fuse`.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .data import SampleRecord, write_text
from .encoder import EncoderParams, encode_bag, init_encoder_params, uniform_init
from .errors import ConfigError
from .moe import (
    MoEConfig,
    MoEOutput,
    MoEParams,
    RouterTrace,
    init_moe_params,
    moe_forward,
)
from .rfr import draw_segments, rfr_forward, valid_segments

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    d_in: int = 64
    d1: int = 256
    d2: int = 512
    token_len_l1: int = 64
    token_len_l2: int = 32
    num_experts: int = 8
    top_k: int = 1
    expansion: int = 4
    num_bins: int = 4
    segment_values: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

    def __post_init__(self):
        # a list (as a JSON config gives) becomes a tuple: the config stays hashable
        object.__setattr__(self, "segment_values", tuple(self.segment_values))
        if min(self.d_in, self.d1, self.d2, self.num_bins) < 1:
            raise ConfigError("dimensions must be >= 1")
        if 2 * self.d1 != self.d2:
            raise ConfigError(f"2*d1 must equal d2 (decouple-loss consistency), got {self.d1}/{self.d2}")
        self.level1_moe, self.level2_moe  # MoEConfig checks top_k, token_len and expansion
        if self.d1 % self.token_len_l1 != 0:
            raise ConfigError(f"token_len_l1 {self.token_len_l1} does not divide d1 {self.d1}")
        if self.d2 % self.token_len_l2 != 0:
            raise ConfigError(f"token_len_l2 {self.token_len_l2} does not divide d2 {self.d2}")
        valid_segments(self.segment_values, self.d1)
        valid_segments(self.segment_values, self.d2)

    @property
    def d_att(self) -> int:
        return max(self.d1 // 2, 1)

    @property
    def level1_moe(self) -> MoEConfig:
        return MoEConfig(self.num_experts, self.top_k, self.token_len_l1, self.expansion)

    @property
    def level2_moe(self) -> MoEConfig:
        return MoEConfig(self.num_experts, self.top_k, self.token_len_l2, self.expansion)


@dataclass
class HDMoEParams:
    encoder_a: EncoderParams
    encoder_b: EncoderParams
    level1_moe_a: MoEParams
    level1_moe_b: MoEParams
    bridge: np.ndarray  # [4*d1, d2]
    level2_moe: MoEParams
    head_w: np.ndarray  # [2*d2, K]
    head_b: np.ndarray  # [1, K]


@dataclass
class ForwardResult:
    """One pass over a batch, each value held once: tape nodes with row b for
    sample b. V_intra and V_share of modality a are moe_a.routed and
    moe_a.shared (B x d1), likewise for b; V_inter and V_share_3 are
    moe_inter.routed and moe_inter.shared (B x d2)."""

    moe_a: MoEOutput
    moe_b: MoEOutput
    moe_inter: MoEOutput
    v_f1: ad.Node  # B x 4*d1
    v_f1_proj: ad.Node  # B x d2
    v_f2: ad.Node  # B x 2*d2
    hazards: ad.Node  # B x K, in [0, 1]
    segments: list[tuple[int, int]]  # per sample: (fusion 1, fusion 2)

    @property
    def traces(self) -> tuple[RouterTrace, RouterTrace, RouterTrace]:
        """The three routers' records, each over all B*T tokens."""
        return self.moe_a.trace, self.moe_b.trace, self.moe_inter.trace

    @property
    def risk(self) -> np.ndarray:
        return risk_score(self.hazards.value)


def init_params(cfg: ModelConfig, rng: np.random.Generator) -> HDMoEParams:
    return HDMoEParams(
        encoder_a=init_encoder_params(cfg.d_in, cfg.d1, cfg.d_att, rng),
        encoder_b=init_encoder_params(cfg.d_in, cfg.d1, cfg.d_att, rng),
        level1_moe_a=init_moe_params(cfg.level1_moe, rng),
        level1_moe_b=init_moe_params(cfg.level1_moe, rng),
        bridge=uniform_init(rng, 4 * cfg.d1, cfg.d2),
        level2_moe=init_moe_params(cfg.level2_moe, rng),
        head_w=uniform_init(rng, 2 * cfg.d2, cfg.num_bins),
        head_b=np.zeros((1, cfg.num_bins)),
    )


# Checkpoint key of each params-dataclass field whose key differs from its
# name; element j of a list field is keyed by formatting its entry with j.
# This is the only place that knows the checkpoint names.
_KEYS = {
    "w_proj": "W_proj",
    "v_att": "V_att",
    "u_att": "U_att",
    "w1": "W1",
    "w2": "W2",
    "experts": "expert{}",
    "head_w": "head.W",
    "head_b": "head.b",
}


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, str], ...]:
    return tuple((f.name, _KEYS.get(f.name, f.name)) for f in fields(cls))


def _map(fn, tree, prefix: str = ""):
    """The one walk of a params tree: a tree of the same shape whose leaves are
    fn(path, leaf), called in checkpoint key order."""
    kwargs = {}
    for name, key in _fields(type(tree)):
        value = getattr(tree, name)
        if isinstance(value, list):
            kwargs[name] = [
                _map(fn, item, f"{prefix}{key.format(j)}.") for j, item in enumerate(value)
            ]
        elif hasattr(value, "__dataclass_fields__"):
            kwargs[name] = _map(fn, value, f"{prefix}{key}.")
        else:
            kwargs[name] = fn(prefix + key, value)
    return type(tree)(**kwargs)


def named_params(params: HDMoEParams) -> list[tuple[str, np.ndarray]]:
    """Deterministic (path, array) walk over every trainable matrix."""
    out: list[tuple[str, np.ndarray]] = []
    _map(lambda path, arr: out.append((path, arr)), params)
    return out


def param_views(template: HDMoEParams, flat: np.ndarray) -> HDMoEParams:
    """A tree shaped like template of views into flat, in named_params order."""
    pieces = iter(np.split(flat, np.cumsum([arr.size for _, arr in named_params(template)])))
    return _map(lambda _, arr: next(pieces).reshape(arr.shape), template)


def flatten_params(params: HDMoEParams) -> tuple[np.ndarray, HDMoEParams]:
    """Every parameter copied into one float64 vector, and the tree of its views."""
    flat = np.concatenate([arr.ravel() for _, arr in named_params(params)])
    return flat, param_views(params, flat)


def parameter_count(params: HDMoEParams) -> tuple[int, dict[str, int]]:
    """Exact trainable scalar count, itemized by top-level submodule."""
    per_module: dict[str, int] = {}
    for path, arr in named_params(params):
        top = path.split(".")[0]
        per_module[top] = per_module.get(top, 0) + arr.size
    return sum(per_module.values()), per_module


def lift_params(
    params: HDMoEParams, requires_grad: bool = True
) -> tuple[HDMoEParams, dict[str, ad.Node]]:
    """Wrap every parameter array in a tape leaf; returns the node tree and a
    flat path->Node map for gradient readout."""
    nodes: dict[str, ad.Node] = {}

    def lift(path: str, arr: np.ndarray) -> ad.Node:
        node = ad.leaf(arr, requires_grad=requires_grad, name=path)
        nodes[path] = node
        return node

    return _map(lift, params), nodes


def risk_score(hazards: np.ndarray) -> np.ndarray:
    """Negative expected number of bins survived, along the last axis; higher =
    earlier event."""
    return -np.cumprod(1.0 - hazards, axis=-1).sum(axis=-1)


def encode(
    samples: list[SampleRecord], lifted: HDMoEParams, cfg: ModelConfig
) -> tuple[MoEOutput, MoEOutput]:
    """The draw-free prefix: both modalities' level-1 outputs (out_a, out_b)
    over the batch."""
    return (
        moe_forward(encode_bag([s.features_a for s in samples], lifted.encoder_a),
                    cfg.level1_moe, lifted.level1_moe_a),
        moe_forward(encode_bag([s.features_b for s in samples], lifted.encoder_b),
                    cfg.level1_moe, lifted.level1_moe_b),
    )


def fuse(
    level1: tuple[MoEOutput, MoEOutput],
    lifted: HDMoEParams,
    cfg: ModelConfig,
    rng: np.random.Generator,
    pin_segments: tuple[int | None, int | None] = (None, None),
) -> ForwardResult:
    """The draw-dependent suffix: fusion 1 -> bridge -> level-2 MoE ->
    fusion 2 -> head over the level-1 outputs of `encode`. All 2B segments
    are drawn before fusion 1, in the order B one-sample passes draw them."""
    out_a, out_b = level1
    segments = draw_segments(cfg.segment_values, (cfg.d1, cfg.d2), pin_segments, rng,
                             out_a.routed.value.shape[0])
    v_f1 = rfr_forward(
        [out_a.routed, out_a.shared, out_b.routed, out_b.shared], [s for s, _ in segments]
    )
    v_f1_proj = ad.matmul(v_f1, lifted.bridge)

    out_inter = moe_forward(v_f1_proj, cfg.level2_moe, lifted.level2_moe)

    v_f2 = rfr_forward([out_inter.routed, out_inter.shared], [s for _, s in segments])

    hazards = ad.sigmoid(ad.add_bias(ad.matmul(v_f2, lifted.head_w), lifted.head_b))
    return ForwardResult(out_a, out_b, out_inter, v_f1, v_f1_proj, v_f2, hazards, segments)


def forward(
    samples: list[SampleRecord],
    lifted: HDMoEParams,
    cfg: ModelConfig,
    rng: np.random.Generator,
    pin_segments: tuple[int | None, int | None] = (None, None),
) -> ForwardResult:
    """A batch of samples through the whole pipeline; returns its tape nodes,
    row b for samples[b].

    `lifted` is the node tree of lift_params; its leaves' requires_grad alone
    decides whether the pass records a backward graph.
    """
    return fuse(encode(samples, lifted, cfg), lifted, cfg, rng, pin_segments)


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(path: str | Path, params: HDMoEParams, meta: dict) -> None:
    blob = {
        "format_version": CHECKPOINT_VERSION,
        "meta": meta,
        "params": {
            p: {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            for p, arr in named_params(params)
        },
    }
    write_text(path, json.dumps(blob))


def load_checkpoint(path: str | Path, cfg: ModelConfig) -> tuple[HDMoEParams, dict]:
    try:
        blob = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    version = blob.get("format_version") if isinstance(blob, dict) else None
    if version != CHECKPOINT_VERSION:
        raise ConfigError(f"{path}: unsupported checkpoint version {version}")
    stored = blob.get("params")
    if not isinstance(stored, dict):
        raise ConfigError(f"{path}: no 'params' object")
    template = init_params(cfg, np.random.default_rng(0))
    expected = {p: arr.shape for p, arr in named_params(template)}
    if set(stored) != set(expected):
        missing = sorted(set(expected) - set(stored))
        extra = sorted(set(stored) - set(expected))
        raise ConfigError(f"{path}: parameter set mismatch (missing {missing}, extra {extra})")
    arrays: dict[str, np.ndarray] = {}
    for p, entry in stored.items():
        if not isinstance(entry, dict) or not {"shape", "data"} <= entry.keys():
            raise ConfigError(f"{path}: {p} needs a 'shape' and a 'data' entry")
        if not isinstance(entry["shape"], list) or tuple(entry["shape"]) != expected[p]:
            raise ConfigError(f"{path}: {p} has shape {entry['shape']!r}, config expects "
                              f"{list(expected[p])}")
        data = entry["data"]
        try:  # exact types: np.array would coerce a bool (an int), a string or a nested list
            if not isinstance(data, list) or not set(map(type, data)) <= {int, float}:
                raise ValueError("data must be a flat list of finite numbers")
            data = np.fromiter(data, dtype=np.float64, count=len(data))
            if not np.isfinite(data).all():
                raise ValueError("data must be a flat list of finite numbers")
            arrays[p] = data.reshape(expected[p])
        except (OverflowError, ValueError) as exc:
            raise ConfigError(f"{path}: {p}: {exc}") from None
    meta = blob.get("meta", {})
    if not isinstance(meta, dict):
        raise ConfigError(f"{path}: 'meta' must be an object, got {type(meta).__name__}")
    return _map(lambda p, _: arrays[p], template), meta
