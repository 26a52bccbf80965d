"""Partitioned scheduling baseline (the paper's other paradigm, Section I).

The paper contrasts *global* scheduling (tasks and jobs migrate) with
*partitioned* scheduling (every job of a task runs on one fixed
processor); its related work [5] solves the partitioned case with
constraint programming.  This module provides the partitioned side so the
two paradigms can be compared on identical instances:

* per-processor feasibility is decided *exactly*: by the density and
  utilization bounds where they decide, else by uniprocessor EDF
  simulation (EDF is optimal on one processor, and the simulator's
  periodicity detection makes the verdict a proof);
* :func:`first_fit_partition` is the classic utilization-ordered
  first-fit-decreasing heuristic;
* :func:`exact_partition` searches all task-to-processor assignments
  (set-partition enumeration with symmetry pruning), so "no partition
  exists" is also a proof.

Global scheduling dominates partitioned scheduling: some systems are
globally feasible but admit no partition (see
``examples/partitioned_vs_global.py``), while every partitioned schedule
is trivially a global one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.baselines.priorities import global_edf
from repro.model.system import TaskSystem
from repro.model.task import Task
from repro.util.timer import Deadline

__all__ = [
    "PartitionResult",
    "uniprocessor_edf_feasible",
    "first_fit_partition",
    "exact_partition",
]


@dataclass
class PartitionResult:
    """Outcome of a partitioning attempt.

    ``assignment[i]`` is the processor of task ``i``; None when no
    partition was found.  ``exact`` tells whether a negative answer is a
    proof (exhaustive search completed) or just the heuristic giving up.
    """

    assignment: list[int] | None
    exact: bool
    partitions_tried: int = 0

    @property
    def found(self) -> bool:
        return self.assignment is not None


def uniprocessor_edf_feasible(tasks: list[Task], max_cycles: int = 64) -> bool:
    """Exact uniprocessor feasibility (EDF is optimal on one processor, so
    EDF-schedulable <=> feasible).

    Two bounds, in exact integer arithmetic, answer most bins without
    simulating: a total density ``sum C_i / min(D_i, T_i) <= 1`` is
    sufficient for EDF on one processor, offsets included, and a total
    utilization ``sum C_i / T_i > 1`` overloads the hyperperiod.  Only a
    bin neither bound decides runs the EDF simulation."""
    if not tasks:
        return True
    windows = [min(t.deadline, t.period) for t in tasks]
    scale = math.lcm(*windows)
    if sum(t.wcet * (scale // d) for t, d in zip(tasks, windows)) <= scale:
        return True
    scale = math.lcm(*(t.period for t in tasks))
    if sum(t.wcet * (scale // t.period) for t in tasks) > scale:
        return False
    sim = global_edf(TaskSystem(tasks), 1, max_cycles=max_cycles)
    if sim.schedulable is None:
        raise RuntimeError(
            "uniprocessor simulation did not converge; raise max_cycles"
        )
    return bool(sim.schedulable)


def first_fit_partition(
    system: TaskSystem, m: int, max_cycles: int = 64
) -> PartitionResult:
    """First-fit decreasing (by density) with the exact EDF bin test."""
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    order = sorted(
        range(system.n), key=lambda i: (system[i].density, i), reverse=True
    )
    bins: list[list[Task]] = [[] for _ in range(m)]
    assignment = [-1] * system.n
    tried = 0
    for i in order:
        placed = False
        for j in range(m):
            tried += 1
            if uniprocessor_edf_feasible(bins[j] + [system[i]], max_cycles):
                bins[j].append(system[i])
                assignment[i] = j
                placed = True
                break
        if not placed:
            return PartitionResult(None, exact=False, partitions_tried=tried)
    return PartitionResult(assignment, exact=True, partitions_tried=tried)


def exact_partition(
    system: TaskSystem,
    m: int,
    time_limit: float | None = None,
    max_cycles: int = 64,
) -> PartitionResult:
    """Exhaustive search over task partitions into ``<= m`` processors.

    Processors are identical, so assignments are enumerated in canonical
    form (task 0 on processor 0; each later task on a used processor or
    the next fresh one), cutting the ``m^n`` space by the symmetry factor.
    Infeasible bins prune their whole subtree.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    deadline = Deadline(time_limit)
    assignment = [-1] * system.n
    bins: list[list[Task]] = [[] for _ in range(m)]
    tried = 0
    timed_out = False

    def descend(i: int, used: int) -> list[int] | None:
        nonlocal tried, timed_out
        if timed_out or deadline.expired():
            timed_out = True
            return None
        if i == system.n:
            return assignment.copy()
        limit = min(used + 1, m)  # canonical: at most one fresh processor
        for j in range(limit):
            tried += 1
            bins[j].append(system[i])
            if uniprocessor_edf_feasible(bins[j], max_cycles):
                assignment[i] = j
                found = descend(i + 1, max(used, j + 1))
                if found is not None:
                    return found
            bins[j].pop()
            assignment[i] = -1
        return None

    found = descend(0, 0)
    return PartitionResult(
        found, exact=not timed_out, partitions_tried=tried
    )
