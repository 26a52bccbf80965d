"""Picklable work units for the parallel batch layer.

A :class:`Cell` is one (instance, solver) run: the
:class:`~repro.solvers.problem.Problem` it asks, the solver that answers
it, and the generator seed the campaign records it under.  Cells cross
process boundaries (the watched children receive them pickled) and
double as cache keys — :func:`cell_key` is
:func:`~repro.solvers.problem.solve_key` of the cell's problem, the one
memo key of the repo, so two campaigns that happen to generate the same
system (and the solver service asked the same question) hit the same
cache entry.

:func:`solve_cell` is the single worker function both the serial runner
and the watched children execute; keeping it here (module level,
importable by qualified name) is what makes it picklable.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

from repro.model.platform import Platform
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
    problem:
        The question: system, platform, wall budget (model construction
        included), the memory guard (``variable_limit``: generic-engine
        encodings predicted larger are recorded as ``skipped-memory``
        without being built), solver seed and optional node budget.
    solver:
        A :func:`repro.solvers.registry.create_solver` name.
    instance_seed:
        Generator seed, recorded in the output for aggregation but *not*
        part of the cache key — the system content already is.
    """

    problem: Problem
    solver: str
    instance_seed: int | None = None

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
        problem = Problem(
            system=instance.system,
            platform=Platform.identical(instance.m),
            time_limit=time_limit,
            seed=seed,
            variable_limit=csp1_variable_limit,
        )
        return cls(problem=problem, solver=solver, instance_seed=instance.seed)


def cell_key(cell: Cell) -> str:
    """Content-addressed cache key: :func:`~repro.solvers.problem.solve_key`
    of the cell's problem and solver name.

    ``instance_seed`` (bookkeeping only) is not keyed, so identical
    systems generated under different campaign seeds share cache entries.
    """
    return solve_key(cell.problem, cell.solver)


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

    if chaos is not None:
        from repro.batch.chaos import inject_worker_fault

        inject_worker_fault(chaos, chaos_key or cell_key(cell))
    report = solve_problem(cell.problem, cell.solver, check=False)
    return RunRecord.of(report, cell.instance_seed)


def rekey_record(record, cell: Cell):
    """Patch a cached record's ``instance_seed`` to this campaign's seed.

    The cache key ignores ``instance_seed`` (same system content, same
    outcome), but aggregations group records by it, so a hit served to a
    different campaign must carry *that* campaign's seed.
    """
    if record.instance_seed == cell.instance_seed:
        return record
    return replace(record, instance_seed=cell.instance_seed)
