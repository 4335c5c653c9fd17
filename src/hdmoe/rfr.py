"""Random feature reorganization: interleave m same-length rows by a randomly
drawn segment size, realized as one precomputed index permutation.

Stacking the rows, reshaping each into s segments, transposing the
(row, segment) axes and flattening is equivalent to a fixed permutation of
the plain concatenation, so the whole operator is a cached index list fed to
``permute_entries``; with s=1 it degenerates to concatenation. The segment
size is drawn uniformly from the configured values that divide the vector
length, on every forward step (evaluation included).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import autodiff as ad
from .errors import ConfigError, ShapeError


@dataclass(frozen=True)
class RfrDraw:
    segment: int
    num_vectors: int
    vector_len: int

    @property
    def permutation(self) -> np.ndarray:
        return build_permutation(self.num_vectors, self.vector_len, self.segment)


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
    divisors = valid_segments(segment_values, d)
    return int(divisors[rng.integers(0, len(divisors))])


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


def rfr_forward(
    vectors: list[ad.Node],
    segment_values,
    rng: np.random.Generator,
    pin_segment: int | None = None,
) -> tuple[ad.Node, RfrDraw]:
    """Concatenate m rows of equal length d and apply the drawn interleave."""
    if not vectors:
        raise ShapeError("rfr_forward needs at least one vector")
    d = vectors[0].value.shape[1]
    for v in vectors:
        if v.value.shape != (1, d):
            raise ShapeError(
                f"rfr_forward inputs must all be 1x{d}, got {v.value.shape}"
            )
    if pin_segment is not None:
        segment = valid_segments([pin_segment], d)[0]
    else:
        segment = sample_segment(segment_values, d, rng)
    draw = RfrDraw(segment=segment, num_vectors=len(vectors), vector_len=d)
    fused = ad.permute_entries(ad.concat_cols(vectors), draw.permutation)
    return fused, draw
