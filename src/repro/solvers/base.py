"""Common result types for every MGRTS solver."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from repro.schedule.schedule import Schedule

__all__ = ["Feasibility", "SolverStats", "SolveResult"]


class Feasibility(Enum):
    """Answer of a solve run.

    ``UNKNOWN`` is the paper's *overrun*: the budget expired before the
    systematic search could either find a schedule or exhaust the space
    (Section VII-C counts these against each solver).
    """

    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    UNKNOWN = "unknown"


@dataclass
class SolverStats:
    """Search-effort counters, normalized across solver families."""

    nodes: int = 0
    fails: int = 0
    propagations: int = 0
    max_depth: int = 0
    elapsed: float = 0.0
    #: family-specific extras (e.g. SAT conflicts/restarts)
    extra: dict = field(default_factory=dict)


@dataclass
class SolveResult:
    """Outcome of one solver on one instance.

    ``decided_by`` is the answer's provenance: which analysis test or
    engine actually produced the verdict.  Plain solvers leave it
    ``None`` (the consumer falls back to ``solver_name``); the meta
    solvers fill it in — a screening cascade records the deciding
    polynomial test (``"necessary:utilization"``, ...), a portfolio the
    winning member — so screened/raced answers stay attributable after
    JSONL round-trips.
    """

    status: Feasibility
    schedule: Schedule | None
    stats: SolverStats
    solver_name: str
    decided_by: str | None = None

    @property
    def is_feasible(self) -> bool:
        """True iff the solver produced a schedule."""
        return self.status is Feasibility.FEASIBLE

    @property
    def timed_out(self) -> bool:
        """True iff the budget expired without an answer (an overrun)."""
        return self.status is Feasibility.UNKNOWN

    def __repr__(self) -> str:
        return (
            f"SolveResult({self.solver_name}: {self.status.value}, "
            f"{self.stats.elapsed:.3f}s, nodes={self.stats.nodes})"
        )
