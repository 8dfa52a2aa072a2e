"""Checks of the host clock: reference chunks run only while sampling and
are left out of the request times.

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from hostspeed import HostClock  # noqa: E402
from workloads import Record  # noqa: E402


def busy(seconds: float) -> list[str]:
    end = perf_counter() + seconds
    while perf_counter() < end:
        pass
    return []


def test_request_times_leave_out_reference_chunks():
    rec = Record()
    with rec.clock.sampling():
        rec.attempt("busy", lambda: busy(0.5))
        spent = rec.clock.spent
        rec.attempt("paused", lambda: busy(0.3), sampled=False)
        assert rec.clock.spent == spent
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert rec.clock.chunks >= 2
    assert abs(rec.seconds["busy"][0] + spent - 0.5) < 0.05
    assert rec.seconds["paused"][0] >= 0.3
    assert rec.failures == []


def test_speed_is_one_without_chunks():
    assert HostClock().speed == 1.0
