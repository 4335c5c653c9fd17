"""Flat run configuration: one JSON document, CLI flags override file values.

The keys are the fields of TrainConfig (trainer.py), ModelConfig (model.py)
and SynthConfig (data.py), in that order, plus `manifest` and `out_dir`. Those
three classes hold the defaults (the full-scale published settings) and the
checks; a name in more than one takes its first owner's default, so `d_in` is
ModelConfig's. The desk preset scales the dims down 8x for fast runs.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

from .data import SynthConfig, write_text
from .errors import ConfigError
from .model import ModelConfig
from .trainer import TrainConfig

DESK_OVERRIDES = {
    "d1": 32,
    "d2": 64,
    "d_in": 32,
    "token_len_l1": 8,
    "token_len_l2": 4,
    "num_experts": 4,
}


def _with_sub_config_fields(cls):
    """Make `cls` a dataclass with every TrainConfig, ModelConfig and
    SynthConfig field ahead of its own; a repeated name keeps its first
    owner's default. A tuple default becomes a list, the type a JSON round
    trip gives back."""
    derived = {}
    for sub in (TrainConfig, ModelConfig, SynthConfig):
        for f in fields(sub):
            if f.name in derived:
                continue
            if isinstance(f.default, tuple):
                derived[f.name] = list
                setattr(cls, f.name, field(default_factory=partial(list, f.default)))
            else:
                derived[f.name] = f.type
                setattr(cls, f.name, f.default)
    cls.__annotations__ = {**derived, **cls.__annotations__}
    return dataclass(cls)


def _project(cfg, cls):
    return cls(**{f.name: getattr(cfg, f.name) for f in fields(cls)})


@_with_sub_config_fields
class RunConfig:
    manifest: str | None = None
    out_dir: str = "runs/default"

    def model_config(self) -> ModelConfig:
        return _project(self, ModelConfig)

    def train_config(self) -> TrainConfig:
        return _project(self, TrainConfig)

    def synth_config(self) -> SynthConfig:
        return _project(self, SynthConfig)

    def validate(self) -> "RunConfig":
        # building the typed sub-configs runs every check
        self.model_config()
        self.train_config()
        return self


_FIELD_NAMES = {f.name for f in fields(RunConfig)}
_VALUE_CHECKS = {  # a field's derived annotation -> (check of its JSON value, what it takes)
    "int": (lambda v: type(v) is int, "an integer"),  # a bool is an int
    "float": (lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max, "a finite number"),
    "str": (lambda v: type(v) is str, "a string"),
    "str | None": (lambda v: v is None or type(v) is str, "a string or null"),
    list: (lambda v: type(v) is list and all(type(x) is int for x in v), "a list of integers"),
}


def load_config(path: str | Path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    unknown = sorted(set(raw) - _FIELD_NAMES)
    if unknown:
        raise ConfigError(f"{path}: unknown config keys {unknown}")
    for key, value in raw.items():
        check, kind = _VALUE_CHECKS[RunConfig.__annotations__[key]]
        if not check(value):
            raise ConfigError(f"{path}: config key {key!r} must be {kind}, got {value!r}")
    return RunConfig(**raw)


def save_config(cfg: RunConfig, path: str | Path) -> None:
    write_text(path, json.dumps(asdict(cfg), indent=2, sort_keys=True) + "\n")


def apply_desk_preset(cfg: RunConfig) -> RunConfig:
    return replace(cfg, **DESK_OVERRIDES)
