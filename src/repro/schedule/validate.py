"""Semantic validation of cyclic schedules: the paper's conditions C1-C4.

Section III-C defines feasibility of an MGRTS schedule by four conditions:

* **C1** every unit of task ``i`` is placed inside one of its availability
  windows;
* **C2** each processor runs at most one task per slot — structurally
  guaranteed by the table representation (one entry per ``(j, t)``);
* **C3** a task runs on at most one processor per slot (no intra-task
  parallelism);
* **C4** each job receives *exactly* ``C_i`` units of execution within its
  window — on heterogeneous platforms, ``sum s_{i,j}`` over its slots
  (paper constraints (5)/(9)/(11)/(12)).

The validator reports *all* violations with precise coordinates rather than
failing fast, which is what you want when debugging a solver.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from repro.schedule.schedule import IDLE, Schedule

__all__ = ["Violation", "ValidationResult", "validate"]


@dataclass(frozen=True)
class Violation:
    """One broken constraint occurrence.

    ``kind`` is one of ``"C1"``, ``"C3"``, ``"C4"``.  ``task``/``job``/
    ``slot``/``processor`` locate it (fields not applicable are None).
    """

    kind: str
    message: str
    task: int | None = None
    job: int | None = None
    slot: int | None = None
    processor: int | None = None

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of :func:`validate`."""

    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        """True iff the schedule is feasible (C1-C4 all hold)."""
        return not self.violations

    def by_kind(self, kind: str) -> list[Violation]:
        """Violations of one kind."""
        return [v for v in self.violations if v.kind == kind]

    def raise_if_invalid(self) -> None:
        """Raise ``ValueError`` listing every violation (if any)."""
        if self.violations:
            lines = "\n".join(str(v) for v in self.violations)
            raise ValueError(f"infeasible schedule ({len(self.violations)} violations):\n{lines}")


def validate(schedule: Schedule) -> ValidationResult:
    """Check C1, C3 and C4 on a cyclic schedule (C2 holds by construction).

    Requires a constrained-deadline system (``D_i <= T_i`` for all ``i``) —
    arbitrary-deadline systems must be validated through their cloned form,
    exactly as they must be solved through it (paper Section VI-B).

    The checks run as whole-table array operations; only a schedule that
    breaks something is walked cell by cell, to report each violation
    slot-major (processor-minor, C3 before C1 within a cell), followed by
    the C4 execution counts task by task, job by job.
    """
    system = schedule.system
    platform = schedule.platform
    if not system.is_constrained:
        raise ValueError(
            "validate() needs a constrained system; apply "
            "clone_for_arbitrary_deadlines() and validate the cloned schedule"
        )
    # the table horizon is a multiple of the hyperperiod; validate over the
    # full horizon so period-kT schedules are checked job by job
    table = schedule.table
    m, T = table.shape
    # per task: phase, period, deadline and the index of its first job in
    # the task-major list of J jobs; bucket J collects the busy cells
    # outside every window (C1).  The extra last row, which idle cells
    # (-1) index, sends every idle cell to bucket J + 1.
    rows = []
    wcets = []
    J = 0
    for task in system:
        rows.append((task.phase, task.period, task.deadline, J))
        jobs = T // task.period
        wcets += [task.wcet] * jobs
        J += jobs
    rows.append((0, T + 1, T + 1, J + 1))
    cell = np.array(rows, dtype=np.int64)[table]
    job, within = np.divmod((np.arange(T) - cell[..., 0]) % T, cell[..., 1])
    cell_job = np.where(within < cell[..., 2], job + cell[..., 3], J)
    if platform.is_identical:
        received = np.bincount(cell_job.ravel(), minlength=J + 2)
        n_outside = received[J]
        rate0 = None
    else:
        cell_rate = platform.rate_matrix(system.n)[table, np.arange(m)[:, None]]
        # float weights: exact while a job's units stay below 2**53
        received = np.bincount(
            cell_job.ravel(), weights=cell_rate.ravel(), minlength=J + 2
        ).astype(np.int64)
        n_outside = np.count_nonzero(cell_job == J)
        rate0 = (cell_rate == 0) & (cell_job < J)
    short = np.flatnonzero(received[:J] != wcets)  # C4 counts
    column = np.sort(table, axis=0)  # C3: a task twice in one slot
    doubled = m > 1 and bool(((column[1:] == column[:-1]) & (column[1:] != IDLE)).any())
    if not (
        doubled or n_outside or short.size
        or (rate0 is not None and rate0.any())
    ):
        return ValidationResult(())

    violations: list[Violation] = []
    busy = table != IDLE
    # first[j, t]: the lowest processor running table[j, t] at slot t
    # when that is below j (a C3 duplicate), else -1
    first = np.full((m, T), -1, dtype=np.int64)
    for j in range(1, m):
        same = (table[:j] == table[j]) & busy[j]
        first[j] = np.where(same.any(axis=0), same.argmax(axis=0), -1)
    outside = cell_job == J  # C1
    if rate0 is None:
        rate0 = np.zeros_like(outside)
    bad = (first >= 0) | outside | rate0
    for t, j in np.argwhere(bad.T).tolist():
        i = int(table[j, t])
        if first[j, t] >= 0:
            violations.append(
                Violation(
                    "C3",
                    f"task {i} runs on processors {int(first[j, t])} and {j} at slot {t}",
                    task=i,
                    slot=t,
                    processor=j,
                )
            )
        if outside[j, t]:
            violations.append(
                Violation(
                    "C1",
                    f"task {i} scheduled at slot {t} outside any availability window",
                    task=i,
                    slot=t,
                    processor=j,
                )
            )
        elif rate0[j, t]:
            # heterogeneous s_ij = 0: P_j cannot serve tau_i.  This is a
            # domain violation of the encodings; report it under C4
            # since it corrupts the execution count.
            violations.append(
                Violation(
                    "C4",
                    f"task {i} scheduled on processor {j} with rate 0 at slot {t}",
                    task=i,
                    job=int(cell_job[j, t] - cell[j, t, 3]),
                    slot=t,
                    processor=j,
                )
            )

    # C4: exactly C_i units per job window
    first_job = [row[3] for row in rows[:-1]]
    for k in short.tolist():
        i = bisect.bisect_right(first_job, k) - 1
        job_k = k - first_job[i]
        violations.append(
            Violation(
                "C4",
                f"job {job_k} of task {i} received {int(received[k])} units, "
                f"needs exactly {wcets[k]}",
                task=i,
                job=job_k,
            )
        )

    return ValidationResult(tuple(violations))
