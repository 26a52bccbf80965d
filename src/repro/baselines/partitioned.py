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
* :func:`first_fit_partition` is the classic first-fit-decreasing
  heuristic, with running per-bin bound sums and an optional budget on
  the work its bin simulations spend;
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
from collections.abc import Sequence
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
    ``sim_work`` counts the slot-tasks simulated (``lcm(bin periods) x
    |bin|`` per simulated bin), ``bins_simulated`` the bins the bounds
    left open, and ``bins_refused`` those open bins turned away because
    their simulation did not fit in what was left of the budget.
    """

    assignment: list[int] | None
    exact: bool
    partitions_tried: int = 0
    sim_work: int = 0
    bins_simulated: int = 0
    bins_refused: int = 0

    @property
    def found(self) -> bool:
        return self.assignment is not None


def _numerators(tasks: Sequence[Task]) -> tuple[int, list[int], int, list[int]]:
    """``(dscale, dnum, uscale, unum)``: each task's density
    ``C / min(D, T)`` as ``dnum[i] / dscale`` over ``dscale =
    lcm(min(D, T))``, and its utilization ``C / T`` as ``unum[i] /
    uscale`` over ``uscale = lcm(T)`` — exact, and additive per bin."""
    windows = [min(t.deadline, t.period) for t in tasks]
    dscale = math.lcm(*windows)
    uscale = math.lcm(*(t.period for t in tasks))
    return (
        dscale,
        [t.wcet * (dscale // w) for t, w in zip(tasks, windows)],
        uscale,
        [t.wcet * (uscale // t.period) for t in tasks],
    )


def _bound_verdict(
    density: int, dscale: int, utilization: int, uscale: int
) -> bool | None:
    """The bin bounds on exact numerators: a total density of at most 1
    is sufficient for EDF on one processor, offsets included; a total
    utilization above 1 overloads the hyperperiod; None when neither
    decides and only the simulation can."""
    if density <= dscale:
        return True
    if utilization > uscale:
        return False
    return None


def _simulate_bin(tasks: list[Task], max_cycles: int) -> bool:
    """The uniprocessor EDF simulation of one bin (a proof both ways),
    run for its verdict alone."""
    sim = global_edf(
        TaskSystem(tasks), 1, max_cycles=max_cycles, keep_schedule=False
    )
    if sim.schedulable is None:
        raise RuntimeError(
            "uniprocessor simulation did not converge; raise max_cycles"
        )
    return bool(sim.schedulable)


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
    dscale, dnum, uscale, unum = _numerators(tasks)
    verdict = _bound_verdict(sum(dnum), dscale, sum(unum), uscale)
    return _simulate_bin(tasks, max_cycles) if verdict is None else verdict


def first_fit_partition(
    system: TaskSystem,
    m: int,
    max_cycles: int = 64,
    budget: int | None = None,
) -> PartitionResult:
    """First-fit decreasing (by density) with the exact EDF bin test.

    Each bin keeps running sums of its tasks' exact density and
    utilization numerators, so the bounds of
    :func:`uniprocessor_edf_feasible` cost two integer comparisons per
    trial.  A bin they leave open is simulated only if its ``lcm(bin
    periods) x |bin|`` slot-tasks fit in what is left of ``budget``
    (None: no limit), which then pays that amount; a bin past the budget
    counts as "does not fit", so the packing stays sound and first-fit
    moves on to the next bin.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    order = sorted(
        range(system.n), key=lambda i: (system[i].density, i), reverse=True
    )
    dscale, dnum, uscale, unum = _numerators(system.tasks)
    bins: list[list[Task]] = [[] for _ in range(m)]
    density = [0] * m
    utilization = [0] * m
    hyper = [1] * m
    assignment = [-1] * system.n
    result = PartitionResult(None, exact=False)
    for i in order:
        task = system[i]
        for j in range(m):
            result.partitions_tried += 1
            fits = _bound_verdict(
                density[j] + dnum[i], dscale, utilization[j] + unum[i], uscale
            )
            if fits is None:
                work = math.lcm(hyper[j], task.period) * (len(bins[j]) + 1)
                if budget is not None and result.sim_work + work > budget:
                    result.bins_refused += 1
                    continue
                result.sim_work += work
                result.bins_simulated += 1
                fits = _simulate_bin(bins[j] + [task], max_cycles)
            if fits:
                bins[j].append(task)
                density[j] += dnum[i]
                utilization[j] += unum[i]
                hyper[j] = math.lcm(hyper[j], task.period)
                assignment[i] = j
                break
        else:
            return result
    result.assignment = assignment
    result.exact = True
    return result


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
