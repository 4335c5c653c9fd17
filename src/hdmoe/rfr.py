"""Random feature reorganization: interleave m same-length vectors by a
randomly drawn segment size, realized as one precomputed index permutation.

Stacking the vectors, reshaping each into s segments, transposing the
(vector, segment) axes and flattening is equivalent to a fixed permutation of
the plain concatenation, so the whole operator is a cached index list fed to
``permute_entries``; with s=1 it degenerates to concatenation. Over a batch,
each sample's row has its own segment and index list. The segment size is
drawn uniformly from the configured values that divide the vector length,
for every sample on every forward step (evaluation included).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError


def valid_segments(segment_values: tuple[int, ...] | list[int], d: int) -> list[int]:
    values = sorted(set(int(s) for s in segment_values))
    if any(s < 1 for s in values):
        raise ConfigError(f"segment values must be >= 1, got {values}")
    divisors = [s for s in values if d % s == 0]
    if not divisors:
        raise ConfigError(f"no segment value in {values} divides vector length {d}")
    return divisors


def sample_segment(segment_values, d: int, rng: np.random.Generator) -> int:
    """Uniform draw from the segment values dividing d."""
    return draw_segments(segment_values, (d,), (None,), rng, 1)[0][0]


def draw_segments(
    segment_values,
    lengths: tuple[int, ...],
    pins: tuple[int | None, ...],
    rng: np.random.Generator,
    count: int,
) -> list[tuple[int, ...]]:
    """One segment per vector length for each of count samples, drawn sample
    by sample: sample i's draw for every length in turn, then sample i+1's.
    One integers call makes every draw, in that order. A length with one
    choice draws nothing, a pinned one (checked to divide it) included."""
    choices = [valid_segments(segment_values if pin is None else [pin], d)
               for d, pin in zip(lengths, pins)]
    picks = rng.integers(0, [len(c) for c in choices], size=(count, len(choices)))
    columns = [[c[k] for k in col] for c, col in zip(choices, picks.T.tolist())]
    return list(zip(*columns))


@lru_cache(maxsize=None)
def build_permutation(m: int, d: int, s: int) -> np.ndarray:
    """Index list realizing stack -> reshape to s segments -> transpose -> flatten.

    out[(k*m + r)*(d//s) + j] = concat-input[r*d + k*(d//s) + j].
    """
    if d % s != 0:
        raise ConfigError(f"segment {s} does not divide vector length {d}")
    perm = np.arange(m * d, dtype=np.intp).reshape(m, s, d // s)
    perm = np.ascontiguousarray(perm.transpose(1, 0, 2).reshape(-1))
    perm.flags.writeable = False
    return perm


def rfr_forward(vectors: list[ad.Node], segments: list[int]) -> ad.Node:
    """Concatenate m B x d blocks side by side and interleave row b by
    segments[b]: one gather, with each row's own cached index list."""
    if not vectors:
        raise ShapeError("rfr_forward needs at least one vector")
    shape = vectors[0].value.shape
    for v in vectors:
        if v.value.shape != shape:
            raise ShapeError(f"rfr_forward inputs must all be {shape[0]}x{shape[1]}, got {v.value.shape}")
    if len(segments) != shape[0]:
        raise ShapeError(f"rfr_forward needs one segment per row: {len(segments)} for {shape[0]} rows")
    perms = np.stack([build_permutation(len(vectors), shape[1], s) for s in segments])
    return ad.permute_entries(ad.concat_cols(vectors), perms)
