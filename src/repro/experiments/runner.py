"""Instance x solver matrix runner with budgets and JSON-able records.

The record types (:class:`RunRecord`, :class:`ExperimentRun`) and the
historical entry point :func:`run_instances` live here; since the batch
layer landed, ``run_instances`` is a thin compatibility shim over
:func:`repro.batch.run_batch` — pass ``jobs``/``cache_dir`` to fan a
campaign out over worker processes and skip already-solved cells.
A record is only ever projected from its run's report
(:meth:`RunRecord.of`) or decoded by the one codec journals, the
campaign memo and :class:`ExperimentRun` files share
(:meth:`RunRecord.to_dict` / :meth:`RunRecord.from_dict`).
"""

from __future__ import annotations

import json
from collections.abc import Callable, Sequence
from dataclasses import asdict, dataclass, field

from repro.generator.random_systems import Instance

__all__ = ["RunRecord", "ExperimentRun", "run_instances", "estimate_csp1_variables"]


@dataclass(frozen=True)
class RunRecord:
    """One (instance, solver) outcome — the unit all tables aggregate.

    ``decided_by`` carries the verdict's provenance (which screening test
    or engine actually answered — e.g. ``"necessary:utilization"`` for a
    cell pruned by the cascade, a member name for a portfolio win); it is
    ``None`` for cells that never ran and for journals written before the
    field existed.

    ``status`` is normally one of ``feasible`` / ``infeasible`` /
    ``unknown`` / ``skipped-memory``; a cell whose execution died and
    exhausted its retries carries a ``fault:*`` status instead (crash,
    oom, timeout, error) with the classified
    :class:`~repro.batch.supervise.FaultRecord` dict in ``fault``.
    """

    instance_seed: int | None
    n: int
    m: int
    hyperperiod: int
    utilization_ratio: float
    solver: str
    status: str  # feasible | infeasible | unknown | skipped-memory | fault:*
    elapsed: float
    nodes: int
    decided_by: str | None = None
    fault: dict | None = None

    @classmethod
    def of(cls, report, instance_seed: int | None) -> "RunRecord":
        """Project a :class:`~repro.solvers.problem.SolveReport` (faults
        included) onto the flat record the tables aggregate."""
        system = report.problem.system
        m = report.problem.platform.m
        return cls(
            instance_seed=instance_seed,
            n=system.n,
            m=m,
            hyperperiod=system.hyperperiod,
            utilization_ratio=float(system.utilization_ratio(m)),
            solver=report.solver,
            status=report.status_label,
            elapsed=report.elapsed,
            nodes=report.stats.nodes,
            decided_by=report.decided_by,
            fault=report.fault,
        )

    def to_dict(self) -> dict:
        """JSON-able form (inverse: :meth:`from_dict`)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, doc) -> "RunRecord":
        """Inverse of :meth:`to_dict`; raises ``TypeError`` on another
        shape (fields added later default, so older journals load)."""
        return cls(**doc)

    @property
    def overrun(self) -> bool:
        """The paper's overrun: budget exhausted without an answer.

        ``skipped-memory`` counts as an overrun too — the paper reports
        CSP1 "runs out of memory on large instances" in the same breath —
        and so does any ``fault:*`` outcome: a crashed cell consumed its
        budget without producing an answer.
        """
        return (
            self.status in ("unknown", "skipped-memory")
            or self.status.startswith("fault:")
        )

    @property
    def solved(self) -> bool:
        """A feasible schedule was produced within the budget."""
        return self.status == "feasible"


@dataclass
class ExperimentRun:
    """All records of one experiment, plus its configuration snapshot."""

    description: str
    time_limit: float
    records: list[RunRecord] = field(default_factory=list)

    # -- aggregation helpers used by the table modules ----------------------
    def by_instance(self) -> dict[int, list[RunRecord]]:
        """Group records by generator seed, preserving solver order."""
        out: dict[int, list[RunRecord]] = {}
        for r in self.records:
            out.setdefault(r.instance_seed, []).append(r)
        return out

    def solvers(self) -> list[str]:
        """Solver names in first-appearance order."""
        seen: list[str] = []
        for r in self.records:
            if r.solver not in seen:
                seen.append(r.solver)
        return seen

    # -- persistence ----------------------------------------------------------
    def to_json(self) -> str:
        """Serialize the run (config snapshot + records) as pretty JSON."""
        return json.dumps(
            {
                "description": self.description,
                "time_limit": self.time_limit,
                "records": [r.to_dict() for r in self.records],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "ExperimentRun":
        """Inverse of :meth:`to_json`."""
        data = json.loads(text)
        return cls(
            description=data["description"],
            time_limit=data["time_limit"],
            records=[RunRecord.from_dict(r) for r in data["records"]],
        )


def estimate_csp1_variables(instance: Instance) -> int:
    """Predicted CSP1 model size ``sum_i m * (T/T_i) * D_i`` — used to skip
    builds that would exhaust memory (the paper: CSP1 "runs out of memory
    on 'large' instances", Table IV).

    Thin wrapper over
    :func:`repro.solvers.problem.estimate_generic_variables`, which the
    shared solving engine applies whenever a
    :class:`~repro.solvers.problem.Problem` carries a ``variable_limit``.
    """
    from repro.model.platform import Platform
    from repro.solvers.problem import estimate_generic_variables

    return estimate_generic_variables(
        instance.system, Platform.identical(instance.m)
    )


def run_instances(
    instances: Sequence[Instance],
    solvers: Sequence[str],
    time_limit: float,
    description: str = "",
    seed: int | None = None,
    csp1_variable_limit: int = 2_000_000,
    progress: Callable[[int, int], None] | None = None,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> ExperimentRun:
    """Run every solver on every instance under a per-run wall budget.

    Model/encoding construction counts against the budget (the paper's
    "resolution time" starts when the solver is handed the problem).
    ``csp1_variable_limit`` guards generic-engine encodings against
    instances whose model would not fit in memory; those runs are recorded
    as ``skipped-memory``.

    This is a compatibility shim over :func:`repro.batch.run_batch`:
    ``jobs`` fans the (instance, solver) matrix out over that many worker
    processes, and ``cache_dir`` points at a content-addressed result
    cache so previously solved cells are served without recomputation.
    Records always come back in instance-major, solver-minor order, the
    order the serial runner has always produced.
    """
    from repro.batch import cells_for_matrix, run_batch

    cells = cells_for_matrix(
        instances, solvers, time_limit,
        csp1_variable_limit=csp1_variable_limit, seed=seed,
    )
    report = run_batch(cells, jobs=jobs, cache=cache_dir, progress=progress)
    return ExperimentRun(
        description=description, time_limit=time_limit, records=report.records
    )
