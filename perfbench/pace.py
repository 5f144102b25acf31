"""The machine's pace, measured between operations by a fixed kernel.

On a shared host the same operation runs up to 1.8 times slower for
stretches of seconds to minutes, and such a stretch moves every timing of
a run alike.  The benchmark therefore times a fixed kernel after every
operation and around every cold start, and reports each timing scaled to
the pace at which the kernel takes REFERENCE_S:

    scaled = measured * REFERENCE_S / kernel time at that moment

The kernel is exact arithmetic of the oracle on fixed points with
200-bit Fraction coordinates, the kind of work cevian does, and it runs no
cevian code, so a change to cevian cannot move it.  Of the kernels tried,
this one followed the host's slow stretches most closely on both rational
and quadratic-field construct() calls.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction

import oracle

# the kernel's median time on the reference machine of README.md
REFERENCE_S = 0.0045
# kernel timings on each side of an operation that set its pace
WINDOW = 2

_rng = random.Random("pace")
_POINTS = [
    tuple(Fraction(_rng.randrange(1, 1 << 200), _rng.randrange(1, 1 << 200)) for _ in range(3))
    for _ in range(5)
]


def kernel() -> float:
    """Seconds the kernel takes now.  The cyclic garbage collector is held
    off meanwhile, so a collection the operations made due is not timed
    here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for p in _POINTS:
            oracle.orthocenter(p)
            oracle.degeneracy_loci(p)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def scaled(times: list[float], paces: list[float]) -> list[float]:
    """Each times[i] at the reference pace.  paces[i] is the kernel time
    taken right after operation i; operation i is scaled by the median of
    the kernel times within WINDOW places of it."""
    assert len(times) == len(paces)
    out = []
    for i, t in enumerate(times):
        near = paces[max(0, i - WINDOW) : i + WINDOW + 1]
        out.append(t * REFERENCE_S / statistics.median(near))
    return out
