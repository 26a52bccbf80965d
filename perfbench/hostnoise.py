"""Host-speed control: a fixed pure-Python loop that imports nothing from
the program under test.

Its time is recorded before and after every run, beside the metrics but
not as one, so a slow host can be told apart from a slow program: when
the loop is slower too, the host was.
"""

from __future__ import annotations

import statistics
import time

__all__ = ["loop_ms"]


def _spin(rounds: int) -> int:
    acc = 0
    for i in range(rounds):
        acc += i * i % 7
    return acc


def loop_ms(calls: int = 7, rounds: int = 100_000) -> float:
    """Median milliseconds of ``calls`` calls of the fixed loop."""
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        _spin(rounds)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)
