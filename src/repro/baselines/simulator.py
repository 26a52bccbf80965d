"""Exact discrete-time simulation of global priority-driven scheduling.

Model (matching the paper's Section II): at every slot the ``m`` highest
priority *active* jobs run, one processor each; jobs always execute their
full WCET (the paper's anomaly-avoidance convention); a deadline miss is a
job with remaining work at its absolute deadline.

Because a constrained-deadline system with a deterministic memoryless
policy has finitely many states per hyperperiod phase — each task carries
at most one incomplete job, so the state is the vector of remaining work —
the simulation either (a) misses a deadline, or (b) reaches two
hyperperiod-aligned instants ``kT`` and ``(k+1)T`` with equal state, from
which point the schedule repeats forever (the periodicity argument of the
paper's references [8]/[9]).  Both outcomes are decisive: the verdict
``schedulable`` is exact, never "looked fine for a while".

Identical processors only (priority-driven policies on heterogeneous
platforms need a task-to-processor matching rule, out of the paper's
scope).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.kernels.simulate import STATIC_EDF, STATIC_RANK, simulate_static
from repro.model.system import TaskSystem
from repro.model.platform import Platform
from repro.schedule.schedule import IDLE, Schedule

__all__ = ["SimulationResult", "simulate_priority_policy"]

#: priority key: (task_index, release_time, abs_deadline, remaining) -> sortable
PriorityKey = Callable[[int, int, int, int], tuple]

#: static-key declarations accepted by ``simulate_priority_policy``:
#: ``("edf", None)`` or ``("rank", Sequence[int])``
StaticKey = "tuple[str, Sequence[int] | None]"


@dataclass
class SimulationResult:
    """Outcome of one policy simulation.

    ``schedulable`` is True only when periodicity was established with no
    miss; False on a deadline miss; None if the cycle cap was hit first
    (did not converge — raise ``max_cycles``).
    """

    schedulable: bool | None
    missed: tuple[int, int, int] | None  # (task, release, deadline) of first miss
    cycles_simulated: int
    schedule: Schedule | None  # one cyclic period, when schedulable

    @property
    def verdict(self) -> str:
        if self.schedulable is None:
            return "inconclusive"
        return "schedulable" if self.schedulable else "miss"


def simulate_priority_policy(
    system: TaskSystem,
    m: int,
    priority: PriorityKey,
    max_cycles: int = 64,
    static_key: tuple | None = None,
    keep_schedule: bool = True,
) -> SimulationResult:
    """Simulate a global preemptive priority policy until decisive.

    Parameters
    ----------
    system:
        Constrained-deadline task system.
    m:
        Number of identical processors.
    priority:
        Key function over ``(task, release, deadline, remaining)``; *lower*
        sorts first (runs earlier).  Must be deterministic.
    max_cycles:
        Hyperperiods to simulate past the largest offset before giving up
        on convergence.
    static_key:
        Declares ``priority`` *static* (release-data-only), unlocking the
        block-stepping kernel (:mod:`repro.kernels.simulate`):
        ``("edf", None)`` for ``(abs_deadline, task)`` keys or
        ``("rank", ranks)`` for fixed task ranks.  The declaration must
        describe the same order ``priority`` computes — the results are
        byte-identical, only faster (pinned by the kernel parity suite).
        None (default) runs the slot-by-slot loop below.
    keep_schedule:
        False when only the verdict matters: ``schedule`` is then always
        None, and the block-stepping kernel writes no history.
    """
    if not system.is_constrained:
        raise ValueError("simulation requires constrained deadlines (clone first)")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if static_key is not None:
        kind, rank = static_key
        if kind not in (STATIC_EDF, STATIC_RANK):
            raise ValueError(f"unknown static_key kind {kind!r}")
        schedulable, missed, cycles, history = simulate_static(
            [t.offset for t in system],
            [t.period for t in system],
            [t.wcet for t in system],
            [t.deadline for t in system],
            system.hyperperiod,
            m,
            key=kind,
            rank=rank,
            max_cycles=max_cycles,
            idle=IDLE,
            keep_history=keep_schedule,
        )
        return SimulationResult(
            schedulable=schedulable,
            missed=missed,
            cycles_simulated=cycles,
            schedule=(
                Schedule(system, Platform.identical(m), history)
                if schedulable and keep_schedule
                else None
            ),
        )
    T = system.hyperperiod
    n = system.n
    offsets = [t.offset for t in system]
    periods = [t.period for t in system]
    wcets = [t.wcet for t in system]
    deadlines = [t.deadline for t in system]
    o_max = max(offsets)

    # per task: the current job's (release, deadline, remaining); None = idle
    current: list[tuple[int, int, int] | None] = [None] * n
    # number of releases that already happened
    released_count = [0] * n

    # record one hyperperiod of schedule history so a cycle can be extracted
    history = np.full((m, T), IDLE, dtype=np.int32)
    prev_state: tuple | None = None
    start_cycle = (o_max + T - 1) // T  # first hyperperiod-aligned t >= o_max

    t = 0
    horizon = (start_cycle + max_cycles) * T
    while t <= horizon:
        # hyperperiod-aligned state check
        if t >= start_cycle * T and t % T == 0:
            state = tuple(
                (c[2], c[0] - t) if c is not None else None for c in current
            )
            if state == prev_state:
                return SimulationResult(
                    schedulable=True,
                    missed=None,
                    cycles_simulated=t // T,
                    schedule=(
                        Schedule(system, Platform.identical(m), history)
                        if keep_schedule
                        else None
                    ),
                )
            prev_state = state
        if t == horizon:
            break

        # releases at time t
        for i in range(n):
            k = released_count[i]
            rel = offsets[i] + k * periods[i]
            if rel == t:
                released_count[i] += 1
                if wcets[i] > 0:
                    # constrained deadlines: the previous job must be done
                    current[i] = (rel, rel + deadlines[i], wcets[i])

        # pick the m highest-priority active jobs
        active = [
            (priority(i, c[0], c[1], c[2]), i)
            for i, c in enumerate(current)
            if c is not None
        ]
        active.sort()
        running = [i for _, i in active[:m]]

        # record into the cyclic history buffer
        col = t % T
        history[:, col] = IDLE
        for slot_idx, i in enumerate(running):
            history[slot_idx, col] = i

        # execute one slot
        for i in running:
            rel, dl, rem = current[i]
            rem -= 1
            current[i] = None if rem == 0 else (rel, dl, rem)

        t += 1

        # deadline checks at time t (job must be complete by its deadline)
        for i in range(n):
            c = current[i]
            if c is not None and t >= c[1]:
                return SimulationResult(
                    schedulable=False,
                    missed=(i, c[0], c[1]),
                    cycles_simulated=t // T,
                    schedule=None,
                )

    return SimulationResult(
        schedulable=None, missed=None, cycles_simulated=max_cycles, schedule=None
    )
