"""Host-speed normalisation of measured times.

The machine this benchmark was tuned on, a 2-vCPU VM, runs at one of two
speeds about 1.6x apart and flips between them every second or so, as
its neighbours load the physical cores.  A slow spell can last a whole
run.  To keep commits comparable, every op's wall time is scaled by the
host's speed at the moment it ran, measured with a fixed pure-Python
kernel (bitmask branching with sorts, like the solver's inner loop) timed
just before and just after the op:

    reported = measured * REFERENCE_S / mean(kernel before, kernel after)

REFERENCE_S is the kernel's time at the fast speed of that machine, so a
quiet host reports wall time.  The kernel does not touch pardom, so a
change to pardom moves only the measured side.  Raw wall times print
beside the normalised metrics.
"""

from __future__ import annotations

import gc
import random
import time

REFERENCE_S = 0.0007  # kernel seconds at the reference machine's fast speed

_RNG = random.Random(5)
_N = 32
_CLOSED = [(1 << v) | sum(1 << _RNG.randrange(_N) for _ in range(4)) for v in range(_N)]


def _branch(covered: int, candidates: list[int], depth: int) -> None:
    if depth == 0 or not candidates:
        return
    order = sorted(candidates, key=lambda v: ((_CLOSED[v] & ~covered).bit_count(), -v),
                   reverse=True)
    for i, v in enumerate(order[:4]):
        _branch(covered | _CLOSED[v], order[i + 1:], depth - 1)


def kernel_seconds() -> float:
    """Fastest of three timings of the fixed kernel, with the garbage
    collector held off; the minimum drops an interrupt landing in one."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            _branch(0, list(range(_N)), 4)
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Scales consecutive op times by the kernel times around each op."""

    def __init__(self):
        self.before = kernel_seconds()

    def scale(self, seconds: float) -> float:
        after = kernel_seconds()
        factor = REFERENCE_S / ((self.before + after) / 2)
        self.before = after
        return seconds * factor
