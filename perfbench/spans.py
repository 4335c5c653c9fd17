"""Span tracing of hdmoe's public functions, installed from outside the package.

The package binds many functions with ``from .x import y``, so a function can
be looked up under several module namespaces (``trainer.forward`` and
``model.forward`` are one object). ``Tracer.installed`` replaces every binding
of each traced function, in every loaded ``hdmoe`` module, with a wrapper that
records one span per call, and puts the original objects back on exit.

A span's self time is its duration minus the durations of the spans it called.
The self times of all spans plus the uncovered remainder (``cli.other``) add
up to the traced wall time by construction.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from dataclasses import dataclass

TRACED = (
    "trainer.train_fold",
    "trainer.predict_fold",
    "trainer.optimizer_step",
    "model.forward",
    "model.lift_params",
    "model.save_checkpoint",
    "model.load_checkpoint",
    "data.load_samples",
    "encoder.encode_bag",
    "moe.moe_forward",
    "rfr.rfr_forward",
    "kernels.ffn_forward",
    "kernels.ffn_backward",
    "kernels.concordance_counts",
    "autodiff.backward",
    "losses.survival_nll",
    "losses.decouple_loss",
    "losses.balance_loss",
    "losses.total_loss",
    "evaluation.c_index",
    "evaluation.log_rank_p",
    "evaluation.km_estimate",
    "evaluation.welch_t_test",
    "evaluation.stability_report",
    "evaluation.redundancy_score",
    "evaluation.expert_histogram",
)
REMAINDER = "cli.other"
PACKAGE = "hdmoe"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


@dataclass
class Counters:
    """Work counted at the traced boundaries, the bases of the ratio metrics."""

    ffn_rows: int = 0
    grad_arrays: int = 0
    null_grads: int = 0
    saved_bytes: int = 0
    loaded_bytes: int = 0
    permutation_hits: int = 0
    permutation_misses: int = 0


def _count_ffn_rows(c: Counters, args, kwargs) -> None:
    c.ffn_rows += int(args[0].shape[0])


def _count_null_grads(c: Counters, args, kwargs) -> None:
    grads = args[1] if len(args) > 1 else kwargs["grads"]
    c.grad_arrays += len(grads)
    c.null_grads += sum(1 for g in grads.values() if g is None)


def _count_saved(c: Counters, args, kwargs) -> None:
    c.saved_bytes += os.path.getsize(args[0] if args else kwargs["path"])


def _count_loaded(c: Counters, args, kwargs) -> None:
    c.loaded_bytes += os.path.getsize(args[0] if args else kwargs["path"])


_OBSERVERS = {
    "kernels.ffn_forward": _count_ffn_rows,
    "trainer.optimizer_step": _count_null_grads,
    "model.save_checkpoint": _count_saved,
    "model.load_checkpoint": _count_loaded,
}


def _package_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def bindings(orig) -> list[tuple[object, str]]:
    """Every (module, attribute) of the loaded package bound to ``orig``."""
    return [
        (mod, attr)
        for mod in _package_modules()
        for attr, value in list(vars(mod).items())
        if value is orig
    ]


class Tracer:
    """Aggregated spans of the traced functions; one thread, one call stack."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in TRACED}
        self.counters = Counters()
        self.covered_s = 0.0  # summed duration of the outermost spans
        self.wall_s = 0.0  # summed duration of the traced operations
        self._stack: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object, object]] | None = None

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - child
                stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
                else:
                    self.covered_s += elapsed
                if observe is not None:
                    observe(self.counters, args, kwargs)

        return wrapper

    def _patch_list(self):
        """(module, attribute, original, wrapper) for every binding, found once
        so that installing per operation costs only the attribute writes."""
        if self._patches is None:
            self._patches = []
            for name in TRACED:
                module_name, attr = name.split(".")
                orig = getattr(sys.modules[f"{PACKAGE}.{module_name}"], attr)
                wrapper = self._wrap(name, orig)
                self._patches += [(mod, bound, orig, wrapper) for mod, bound in bindings(orig)]
        return self._patches

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        patches = self._patch_list()
        try:
            for mod, bound, _, wrapper in patches:
                setattr(mod, bound, wrapper)
            yield self
        finally:
            for mod, bound, orig, _ in patches:
                setattr(mod, bound, orig)

    def measure(self, op):
        """Run ``op()`` as one traced operation and add its wall time."""
        permutation_cache = sys.modules[f"{PACKAGE}.rfr"].build_permutation.cache_info
        before = permutation_cache()
        with self.installed():
            start = time.perf_counter()
            try:
                return op()
            finally:
                self.wall_s += time.perf_counter() - start
                after = permutation_cache()
                self.counters.permutation_hits += after.hits - before.hits
                self.counters.permutation_misses += after.misses - before.misses

    @property
    def remainder_s(self) -> float:
        """Traced wall time that no span covers."""
        return self.wall_s - self.covered_s
