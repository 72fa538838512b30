"""Interleaved machine-speed probe.

On a shared host the same work can take 25% longer for tens of seconds
at a time, which would swamp any change worth measuring.  The benchmark
therefore times a short fixed kernel (about 1.5 ms) right after each
measured interval and rescales the interval to *reference seconds*: the
time it would have taken had the kernel run in ``REFERENCE_S``.  Over
ten runs on such a host this cut the quartile spread of replay
throughput from ~0.29 to ~0.04 of the median.  The
kernel mixes what the simulator spends its time on (object attribute
access, dict updates, keyed sorts, small numpy reductions) and calls no
``repro`` code, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

#: kernel time that defines one reference second (a quiet 2-core Xeon host)
REFERENCE_S = 0.0015


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        self.a = a
        self.b = b


_ITEMS = [_Item(i, (i * 7) % 13) for i in range(600)]
_COUNTS = {k: 0 for k in range(97)}
_ARRAYS = [np.arange(24, dtype=float) + k for k in range(8)] * 6


def kernel_s() -> float:
    """Host seconds one run of the fixed kernel takes right now.

    The kernel allocates almost nothing and runs with the cyclic garbage
    collector paused, so a collection of the program's objects cannot
    land inside it.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        begin = perf_counter()
        counts = _COUNTS
        for item in _ITEMS:
            counts[item.a % 97] += item.b
        sorted(_ITEMS, key=lambda item: (item.b, -item.a))
        total = 0.0
        for arr in _ARRAYS:
            total += float(arr.std()) + float(arr.mean())
        elapsed = perf_counter() - begin
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed


class SpeedProbe:
    """Kernel timings taken between measured intervals, and the rescaling.

    Each interval is rescaled by the median kernel time over a window of
    ``WINDOW`` samples on each side of it: single kernel timings jitter
    by +-30%, while the host's slow and fast phases last seconds.
    """

    WINDOW = 10

    def __init__(self) -> None:
        for _ in range(3):  # warm caches and the allocator
            kernel_s()
        self.samples = [kernel_s()]

    def mark(self) -> int:
        """Time the kernel now (after an interval); returns the sample index."""
        self.samples.append(kernel_s())
        return len(self.samples) - 1

    def reference_s(self, host_s: float, index: int) -> float:
        """``host_s`` of the interval just before sample ``index``, in reference seconds."""
        window = sorted(self.samples[max(0, index - self.WINDOW): index + self.WINDOW + 1])
        return host_s * REFERENCE_S / window[len(window) // 2]
