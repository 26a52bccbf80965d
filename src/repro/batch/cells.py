"""Picklable work units for the parallel batch layer.

A :class:`Cell` is one (instance, solver) run reduced to plain data:
task tuples, a processor count, a solver name and the per-cell budgets.
Cells cross process boundaries (``multiprocessing`` pickles them into the
workers) and double as cache keys — :func:`cell_key` is the cell's
:meth:`Cell.problem` keyed by :func:`~repro.solvers.problem.solve_key`,
the one memo key of the repo, so two campaigns that happen to generate
the same system (and the solver service asked the same question) hit
the same cache entry.

:func:`solve_cell` is the single worker function both the serial runner
and the watched children execute; keeping it here (module level,
importable by qualified name) is what makes it picklable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.solvers.problem import (
    DEFAULT_VARIABLE_LIMIT,
    Problem,
    solve_key,
    solve_problem,
)

__all__ = ["Cell", "cell_key", "cells_for_matrix", "solve_cell"]


@dataclass(frozen=True)
class Cell:
    """One (instance, solver) run as plain, picklable, hashable data.

    Attributes
    ----------
    tasks:
        The system as ``(O, C, D, T)`` rows (the canonical JSON order).
    m:
        Number of identical processors.
    solver:
        A :func:`repro.solvers.registry.create_solver` name.
    time_limit:
        Per-cell wall budget in seconds (model construction included).
    csp1_variable_limit:
        Per-cell memory budget: generic-engine encodings whose predicted
        variable count exceeds this are recorded as ``skipped-memory``
        without being built.
    seed:
        Solver seed (randomized strategies, e.g. ``csp1``); part of the
        cache key because it changes the search.
    instance_seed:
        Generator seed, recorded in the output for aggregation but *not*
        part of the cache key — the system content already is.
    node_limit:
        Optional per-cell search-node budget (service requests carry
        one); ``None`` (the campaign default) keeps the key payload
        byte-identical to historical keys, so existing caches stay warm.
    """

    tasks: tuple[tuple[int, int, int, int], ...]
    m: int
    solver: str
    time_limit: float
    csp1_variable_limit: int = DEFAULT_VARIABLE_LIMIT
    seed: int | None = None
    instance_seed: int | None = None
    node_limit: int | None = None

    @classmethod
    def from_instance(
        cls,
        instance,
        solver: str,
        time_limit: float,
        csp1_variable_limit: int = DEFAULT_VARIABLE_LIMIT,
        seed: int | None = None,
    ) -> "Cell":
        """Build a cell from a :class:`repro.generator.random_systems.Instance`."""
        return cls(
            tasks=tuple(t.as_tuple() for t in instance.system),
            m=instance.m,
            solver=solver,
            time_limit=time_limit,
            csp1_variable_limit=csp1_variable_limit,
            seed=seed,
            instance_seed=instance.seed,
        )

    def system(self) -> TaskSystem:
        """Reconstruct the task system."""
        return TaskSystem.from_tuples(self.tasks)

    def problem(self) -> Problem:
        """The question this cell asks (``instance_seed`` stays out)."""
        return Problem(
            system=self.system(),
            platform=Platform.identical(self.m),
            time_limit=self.time_limit,
            node_limit=self.node_limit,
            seed=self.seed,
            variable_limit=self.csp1_variable_limit,
        )


def cell_key(cell: Cell) -> str:
    """Content-addressed cache key: :func:`~repro.solvers.problem.solve_key`
    of the cell's problem and solver name.

    ``instance_seed`` (bookkeeping only) is not keyed, so identical
    systems generated under different campaign seeds share cache entries.
    """
    return solve_key(cell.problem(), cell.solver)


def cells_for_matrix(
    instances: Sequence,
    solvers: Sequence[str],
    time_limit: float,
    csp1_variable_limit: int = DEFAULT_VARIABLE_LIMIT,
    seed: int | None = None,
) -> list[Cell]:
    """The instance x solver matrix in canonical (instance-major) order.

    This is the order ``run_instances`` has always emitted records in;
    the executor restores it regardless of worker completion order.
    """
    return [
        Cell.from_instance(
            inst, name, time_limit,
            csp1_variable_limit=csp1_variable_limit, seed=seed,
        )
        for inst in instances
        for name in solvers
    ]


def solve_cell(cell: Cell, chaos=None, chaos_key: str | None = None):
    """Run one cell and return its :class:`~repro.experiments.runner.RunRecord`.

    A thin client of :func:`repro.solvers.problem.solve_problem` (the one
    engine every execution path shares), preserving the serial runner's
    exact semantics: the memory guard records ``skipped-memory`` before
    any model is built, model/encoding construction counts against the
    wall budget, and an ``unknown`` outcome (the paper's *overrun*) is
    charged the full budget.

    ``chaos`` opts this run into deterministic fault injection
    (:mod:`repro.batch.chaos`) keyed by ``chaos_key`` (default: the
    cell's content key) — only ever pass it in a supervised child, since
    an injected ``crash`` SIGKILLs the calling process.
    """
    from repro.experiments.runner import RunRecord
    from repro.generator.random_systems import Instance

    if chaos is not None:
        from repro.batch.chaos import inject_worker_fault

        inject_worker_fault(chaos, chaos_key or cell_key(cell))
    problem = cell.problem()
    system = problem.system
    instance = Instance(system=system, m=cell.m, seed=cell.instance_seed)
    report = solve_problem(problem, cell.solver, check=False)
    return RunRecord(
        instance_seed=cell.instance_seed,
        n=system.n,
        m=cell.m,
        hyperperiod=system.hyperperiod,
        utilization_ratio=float(instance.utilization_ratio),
        solver=cell.solver,
        status=report.status_label,
        elapsed=report.elapsed,
        nodes=report.stats.nodes,
        decided_by=report.decided_by,
    )


def rekey_record(record, cell: Cell):
    """Patch a cached record's ``instance_seed`` to this campaign's seed.

    The cache key ignores ``instance_seed`` (same system content, same
    outcome), but aggregations group records by it, so a hit served to a
    different campaign must carry *that* campaign's seed.
    """
    if record.instance_seed == cell.instance_seed:
        return record
    return replace(record, instance_seed=cell.instance_seed)
