"""Timing on a shared host whose CPU speed drifts.

On the 2-core virtual machine the benchmark was made on, the same pure-Python
work runs up to 50 % slower or faster from one half minute to the next,
because of what the host's other tenants do.  A run of 30 s cannot average
that out, so two runs of identical code minutes apart differ by as much.

`HostClock` measures the host's speed alongside the program: while it
samples, a timer signal every `INTERVAL_S` runs a fixed reference chunk of
pure-Python work (`reference_chunk`) in the same process, between the
program's bytecodes.  The chunk's time is subtracted from the request it
interrupted, and the mean chunk time of the run says how fast the host was.
Program times are reported in nominal seconds: wall seconds scaled to a host
on which one chunk takes `NOMINAL_CHUNK_S`.  Speed changes of the host then
cancel, while changes of the program do not, because the reference chunk is
benchmark code that never calls the library.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
from time import perf_counter

import samplers

INTERVAL_S = 0.1
# A fixed 40-cell straight shape, walked REF_WALKS times per chunk.
REF_SHAPE = (8, 5, 5, 4, 4, 4, 4, 2, 2, 2)
REF_WALKS = 50
# About the chunk's median time on the 2-core x86-64 machine the baseline was
# made on, so that nominal seconds are close to wall seconds there.
NOMINAL_CHUNK_S = 0.014


def reference_chunk() -> float:
    """Run the reference work once with the garbage collector off, so that
    the program's heap does not add collection time to it; its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    start = perf_counter()
    rng = random.Random(0)
    for _ in range(REF_WALKS):
        samplers.hook_walk_syt(rng, REF_SHAPE)
    elapsed = perf_counter() - start
    if enabled:
        gc.enable()
    return elapsed


class HostClock:
    def __init__(self) -> None:
        self.spent = 0.0  # seconds of reference chunks so far
        self.chunks = 0
        self._running = False
        self._busy = False

    def _tick(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        try:
            self.spent += reference_chunk()
            self.chunks += 1
        finally:
            self._busy = False

    def _arm(self, on: bool) -> None:
        if on:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def sampling(self):
        """Run reference chunks while the block runs."""
        self._running = True
        self._arm(True)
        try:
            yield
        finally:
            self._arm(False)
            self._running = False

    @contextlib.contextmanager
    def paused(self):
        """No reference chunks while the block runs, e.g. while worker
        processes use every core."""
        was = self._running
        if was:
            self._arm(False)
        try:
            yield
        finally:
            if was:
                self._arm(True)

    @property
    def speed(self) -> float:
        """How fast the host ran relative to nominal: nominal seconds per
        wall second.  1.0 if no chunk ran."""
        return NOMINAL_CHUNK_S * self.chunks / self.spent if self.chunks else 1.0
