"""Racing on the transport: what the ``portfolio:`` race relies on.

A race is a supervised :class:`~repro.batch.transport.LocalPoolTransport`
stream read until the first decisive result and then closed.  These
tests drive that pattern with plain workers, so each fault case is
pinned below the portfolio: a member that dies without reporting (even
with no wall budget) resolves instead of hanging, the watchdog grace
covers an overshooting member and cuts off a laggard, and closing the
stream after the winner terminates the losers.
"""

import os
import signal
import time
from contextlib import closing

from repro.batch.supervise import FAULT_OOM, FAULT_TIMEOUT
from repro.batch.transport import LocalPoolTransport, WorkItem


def _identity(payload, attempt):
    return payload


def _die_by_sigkill(_payload, attempt):
    os.kill(os.getpid(), signal.SIGKILL)


def _sleep_then_return(seconds, attempt):
    time.sleep(seconds)
    return seconds


def _sleep_or_die(payload, attempt):
    if payload is None:
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(payload)
    return payload


def race(payloads, fn, decisive, wall_limit=None, grace=10.0):
    """Every payload at once; read until ``decisive``, then close.

    Returns ``(winner key or None, {key: result})``.
    """
    items = [
        WorkItem(str(i), fn, payload, wall_limit)
        for i, payload in enumerate(payloads)
    ]
    results = {}
    with LocalPoolTransport(
        jobs=len(items), supervised=True, retries=0, grace=grace
    ) as transport:
        with closing(transport.execute(items)) as stream:
            for res in stream:
                results[int(res.key)] = res
                if decisive(res):
                    return int(res.key), results
    return None, results


def _answered(res):
    return res.ok


def _never(res):
    return False


class TestDeadWorkers:
    def test_dead_worker_without_time_limit_does_not_hang(self):
        """No deadline + a SIGKILLed worker resolves to a classified
        fault promptly instead of blocking forever."""
        t0 = time.monotonic()
        winner, results = race([None], _die_by_sigkill, _never)
        assert time.monotonic() - t0 < 30.0
        assert winner is None
        assert results[0].fault.kind == FAULT_OOM
        assert "exitcode -9" in results[0].fault.detail

    def test_race_survives_a_dead_member(self):
        """One member dies, the other still wins."""
        winner, results = race([0.2, None], _sleep_or_die, _answered)
        assert winner == 0
        assert results[0].value == 0.2
        # the dead member (if it reported before the winner) is a fault
        assert 1 not in results or results[1].fault.kind == FAULT_OOM

    def test_all_dead_members_all_reported(self):
        winner, results = race([None, None, None], _die_by_sigkill, _never)
        assert winner is None
        assert len(results) == 3
        assert all(not r.ok for r in results.values())


class TestGraceKnob:
    def test_grace_extends_the_deadline(self):
        """A worker needing ~0.5s reports in time under a 0.1 s budget
        only because the watchdog grace covers the overshoot."""
        winner, results = race(
            [0.5], _sleep_then_return, _answered, wall_limit=0.1, grace=30.0,
        )
        assert winner == 0 and results[0].value == 0.5

    def test_tight_grace_cancels_the_laggard(self):
        t0 = time.monotonic()
        winner, results = race(
            [30.0], _sleep_then_return, _answered, wall_limit=0.1, grace=0.2,
        )
        assert time.monotonic() - t0 < 10.0
        assert winner is None
        assert results[0].fault.kind == FAULT_TIMEOUT


class TestBasics:
    def test_first_decisive_wins_and_losers_cancelled(self):
        """The 60 s loser is terminated when the stream closes: the
        whole race ends in well under its sleep."""
        t0 = time.monotonic()
        winner, results = race([0.05, 60.0], _sleep_then_return, _answered)
        assert winner == 0
        assert 1 not in results
        assert time.monotonic() - t0 < 10.0

    def test_results_recorded_for_indecisive_entries(self):
        winner, results = race([1, 2], _identity, _never, wall_limit=5.0)
        assert winner is None
        assert {k: r.value for k, r in results.items()} == {0: 1, 1: 2}
