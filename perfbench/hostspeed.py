"""A fixed calibration loop that measures how fast the shared host runs.

On the 2-core VM the benchmark was written on, neighbours slow every
instruction of the program for tens of seconds at a time, by up to 1.7x, so
a 30-second run can fall wholly inside a slow spell. The loop below does the
kinds of work the program does (small numpy kernels driven from Python,
short-lived closures, scattered reads of a working set larger than a core's
caches, JSON encoding, a keyed sort, a broadcast comparison) and runs none
of its code, so no change to the program changes it. Timed right before
every operation, it says how fast the host ran at that moment; dividing the
operation's time by it takes most of the host's swing out of the figures.
"""

from __future__ import annotations

import json
import time

import numpy as np

# median time of one ``calibrate()`` while the host ran at its fastest
# (2-core Intel Xeon VM, 2.0 GHz, Python 3.11, numpy 2.4); it only sets the
# scale of the figures
REF_S = 0.0090

_RNG = np.random.default_rng(20260518)
_X = _RNG.normal(size=(8, 32))
_W = _RNG.normal(size=(32, 32)) / 8.0
_V = _RNG.normal(size=1200)
_BIG = _RNG.normal(size=500_000)  # 4 MB: more than a core's own caches hold
_GATHER = _RNG.permutation(_BIG.size)[:40_000]
_FLOATS = _BIG[:60_000].tolist()
_ORDER = _RNG.permutation(len(_FLOATS))[:15_000].tolist()


def calibrate() -> float:
    """Run the loop once; return its wall time in seconds."""
    start = time.perf_counter()
    # small numpy kernels driven from Python, as on the autodiff tape
    acc: dict[int, float] = {}
    x = _X
    for i in range(120):
        y = np.tanh(x @ _W)
        x = 0.5 * y + _X
        acc[i % 13] = acc.get(i % 13, 0.0) + float(y[0, 0])
    # short-lived closures and containers, as the tape's nodes are
    nodes = [(lambda v=i: v + 1, [i, 2 * i], {"k": i}) for i in range(3000)]
    sum(node[0]() for node in nodes)
    # scattered reads of memory that does not fit a core's own caches; the
    # program's working set does not either, and neighbours contend for it
    float(_BIG[_GATHER].sum())
    total = 0.0
    for k in _ORDER:
        total += _FLOATS[k]
    # checkpoint and table work: JSON encoding, a keyed sort, a broadcast
    json.dumps([float(v) for v in _V])
    sorted(range(3000), key=lambda k: (k * 7919) % 10007)
    int(np.count_nonzero(_V[:, None] < _V[None, :]))
    return time.perf_counter() - start
