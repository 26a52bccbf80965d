"""Concrete priority policies: global EDF and global fixed-priority."""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.simulator import SimulationResult, simulate_priority_policy
from repro.model.system import TaskSystem
from repro.solvers.ordering import task_order

__all__ = [
    "global_edf",
    "global_fixed_priority",
    "priority_order_from_heuristic",
]


def global_edf(
    system: TaskSystem, m: int, max_cycles: int = 64, keep_schedule: bool = True
) -> SimulationResult:
    """Global preemptive EDF: earliest absolute deadline first.

    Job-level fixed priority; ties break by task index (deterministic).
    The key is static (release data only), so the simulation runs on the
    block-stepping kernel.  ``keep_schedule=False`` returns the verdict
    without a schedule (see :func:`simulate_priority_policy`).
    """
    return simulate_priority_policy(
        system,
        m,
        priority=lambda i, rel, dl, rem: (dl, i),
        max_cycles=max_cycles,
        static_key=("edf", None),
        keep_schedule=keep_schedule,
    )


def global_fixed_priority(
    system: TaskSystem,
    m: int,
    priority_order: Sequence[int],
    max_cycles: int = 64,
) -> SimulationResult:
    """Global preemptive fixed-priority with an explicit task order.

    ``priority_order`` lists task indices from highest to lowest priority
    (a permutation of ``0..n-1``).
    """
    order = list(priority_order)
    if sorted(order) != list(range(system.n)):
        raise ValueError(
            f"priority_order must be a permutation of 0..{system.n - 1}, got {order}"
        )
    rank = [0] * system.n
    for pos, i in enumerate(order):
        rank[i] = pos
    # ranks are a permutation (unique), so (rank,) and (rank, i) sort
    # identically — the static declaration matches the callable's order
    return simulate_priority_policy(
        system,
        m,
        priority=lambda i, rel, dl, rem: (rank[i],),
        max_cycles=max_cycles,
        static_key=("rank", rank),
    )


def priority_order_from_heuristic(system: TaskSystem, heuristic: str | None) -> list[int]:
    """Task priority order induced by the paper's value heuristics.

    The discussion section suggests that the winning (D-C) value ordering
    "implies that an optimal priority assignment algorithm could be built
    starting from a first ordering based on a (D-C) criterion" — this is
    that ordering as a fixed-priority assignment.
    """
    return task_order(system, heuristic)
