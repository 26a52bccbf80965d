"""Cyclic availability windows over one hyperperiod.

The paper restricts the search to *periodic* schedules of length
``T = lcm(T_i)`` (Section III): the pattern of availability intervals
repeats every ``T`` slots, so a cyclic schedule that satisfies C1-C4 within
one hyperperiod unrolls to a feasible infinite schedule.

We index slots ``0 .. T-1`` (paper uses ``1 .. T``).  Job ``j`` of task
``i`` within the cycle (``j = 0 .. T/T_i - 1``) is released at slot
``r_j = phase_i + j*T_i`` where ``phase_i = O_i mod T_i``, and its
availability window is the *cyclic* slot set
``{(r_j + u) mod T : u = 0 .. D_i - 1}``.

When ``O_i + D_i > T_i`` the last window of the cycle wraps past slot
``T-1``; the wrapped slots at the start of cycle ``c`` serve the final job
of cycle ``c-1`` (see docs/ARCHITECTURE.md, "Design notes", for why this is exactly
feasibility-preserving).  All functions here handle the wrapped case.

With ``D_i <= T_i`` (constrained, which every solver-facing system
satisfies) a task's windows are pairwise disjoint, so each slot belongs to
at most one window per task — :func:`active_job` exploits this to run in
O(1) without materializing interval objects (Table IV instances would need
~10M of them otherwise).

:class:`JobWindows` is the batch view for analyses that need every
window at once: one set of numpy arrays per task system, built with one
``np.arange`` per task.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.model.task import Task

__all__ = [
    "active_job", "job_release", "window_slots", "slots_after", "n_jobs",
    "JobWindows",
]


def n_jobs(task: Task, hyperperiod: int) -> int:
    """Number of jobs of ``task`` per hyperperiod (``T / T_i``)."""
    if hyperperiod % task.period != 0:
        raise ValueError(
            f"hyperperiod {hyperperiod} is not a multiple of period {task.period}"
        )
    return hyperperiod // task.period


def job_release(task: Task, job: int) -> int:
    """Release slot (within the cycle) of 0-based job ``job``.

    Always in ``0 .. T_hyper - 1`` because ``phase < T_i`` and
    ``job * T_i < T_hyper``.
    """
    if job < 0:
        raise ValueError(f"job index must be >= 0, got {job}")
    return task.phase + job * task.period


def active_job(task: Task, hyperperiod: int, slot: int) -> int | None:
    """The 0-based job of ``task`` whose window contains ``slot``, else None.

    O(1).  Requires ``D_i <= T_i`` (disjoint windows); raises otherwise.
    """
    if not task.is_constrained:
        raise ValueError(
            f"active_job requires a constrained-deadline task, got D={task.deadline} "
            f"> T={task.period}; clone the system first"
        )
    if not 0 <= slot < hyperperiod:
        raise ValueError(f"slot {slot} outside 0..{hyperperiod - 1}")
    delta = (slot - task.phase) % hyperperiod
    job, within = divmod(delta, task.period)
    if within < task.deadline:
        return job
    return None


def window_slots(task: Task, hyperperiod: int, job: int) -> list[int]:
    """The cyclic slot set of ``job``'s availability window, in scan order
    within the cycle is NOT guaranteed — slots are listed release-first,
    i.e. ``r_j, r_j+1, ..`` wrapping modulo the hyperperiod."""
    r = job_release(task, job)
    return [(r + u) % hyperperiod for u in range(task.deadline)]


def slots_after(task: Task, hyperperiod: int, job: int, slot: int) -> int:
    """Number of window slots of ``job`` *strictly after* ``slot`` in scan
    order (the linear order ``0 < 1 < .. < T-1``, not cyclic order).

    This is the chronological solver's remaining-capacity bound: after
    finishing slot ``t``, a window with ``d`` units of demand left is dead
    unless ``d <= slots_after(.., t)``.
    """
    T = hyperperiod
    r = job_release(task, job)
    end = r + task.deadline - 1  # last slot, possibly >= T (wrapped)
    count = 0
    if end < T:
        # plain window [r, end]
        if slot < end:
            count = end - max(slot, r - 1)
    else:
        # wrapped: head [r, T-1] and tail [0, end - T]
        tail_end = end - T
        if slot < T - 1:
            count += (T - 1) - max(slot, r - 1)
        if slot < tail_end:
            count += tail_end - slot
    return count


@dataclass(frozen=True, eq=False)
class JobWindows:
    """Every window with work to place (``C_i > 0``) in one hyperperiod,
    as parallel read-only int64 arrays in task-then-job order.

    ``end`` is the last slot ``release + D_i - 1`` and may reach past
    ``T - 1``: such a window wraps, its head ``[release, T - 1]`` and its
    tail ``[0, end - T]`` lying at opposite ends of the scan.
    """

    hyperperiod: int
    release: np.ndarray
    end: np.ndarray
    wcet: np.ndarray
    deadline: np.ndarray

    @classmethod
    def of(cls, tasks: Sequence[Task], hyperperiod: int) -> "JobWindows":
        """The windows of ``tasks`` over ``hyperperiod`` slots."""
        busy = [t for t in tasks if t.wcet > 0]
        releases = [
            np.arange(t.phase, hyperperiod, t.period, dtype=np.int64)
            for t in busy
        ]
        counts = [len(r) for r in releases]

        def per_job(values) -> np.ndarray:
            return np.repeat(np.asarray(values, dtype=np.int64), counts)

        release = np.concatenate(releases) if releases else np.zeros(0, np.int64)
        deadline = per_job([t.deadline for t in busy])
        arrays = {
            "release": release,
            "end": release + deadline - 1,
            "wcet": per_job([t.wcet for t in busy]),
            "deadline": deadline,
        }
        for a in arrays.values():
            a.flags.writeable = False
        return cls(hyperperiod, **arrays)

    def spans(self) -> np.ndarray:
        """``(k, 3)`` rows ``(start, end, wcet)`` of the windows that do
        not wrap — the only ones a linear scan interval can enclose."""
        inside = self.end < self.hyperperiod
        return np.column_stack(
            (self.release[inside], self.end[inside], self.wcet[inside])
        )

    def fragments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(start, end, job)`` of every linear window piece: one per
        window, plus the tail ``[0, end - T]`` of each wrapped one."""
        T = self.hyperperiod
        jobs = np.arange(len(self.release), dtype=np.int64)
        wrapped = np.flatnonzero(self.end >= T)
        return (
            np.concatenate((self.release, np.zeros(len(wrapped), np.int64))),
            np.concatenate((np.minimum(self.end, T - 1), self.end[wrapped] - T)),
            np.concatenate((jobs, wrapped)),
        )
