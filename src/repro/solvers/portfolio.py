"""Racing portfolio: run several solvers on one instance, keep the first
definitive answer, cancel the rest.

The paper's shoot-out (Tables I-IV) shows there is no universally best
configuration: the dedicated ``csp2+dc`` wins most races, SAT's clause
learning wins some, and local search can be fastest on big feasible
instances while never proving infeasibility.  ``portfolio:...`` turns
that observation into a solver: on a mixed workload each instance
finishes at (about) the speed of its best member.

Semantics:

* a member's FEASIBLE answer is always definitive (the schedule is
  re-validated in the parent before being trusted);
* a member's INFEASIBLE answer is definitive only when its registry
  metadata carries the ``proves_infeasibility`` capability — an
  incomplete member (``csp2-local``, ``edf``, ``fp``) can win a FEASIBLE
  race but can never decide INFEASIBLE;
* when no member is definitive within the budget the portfolio answers
  UNKNOWN (or INFEASIBLE if some capable member proved it just before
  the budget ran out — that is decisive and wins immediately).

``jobs`` controls concurrency: the default races all members at once,
each in a supervised child of the batch layer's
:class:`~repro.batch.transport.LocalPoolTransport`; ``jobs=k`` keeps at
most ``k`` members running and starts the next in declaration order as
one finishes.  The race reads the transport's result stream until the
first decisive answer, then closes it, which terminates the losers
still running and never starts the queued ones.  A member whose child
dies, raises or overruns its budget plus the watchdog grace is reported
with an ``error: <fault kind>: ...`` status and the race goes on.  Once
the wall budget is spent, the first member to report ends the race.
``jobs=1`` degrades to running members sequentially in declaration
order, in process, which is fully deterministic and useful for tests
and single-core boxes.  A portfolio solved inside a daemonic process —
a supervised child of a campaign or of the solver service — runs the
same way, because such a process may not start children.  That covers
every ``portfolio:`` cell of ``run_batch``/``solve_iter`` with
``jobs > 1``: those cells run in supervised children, so their members
run sequentially (``stats.extra["portfolio"]["mode"] ==
"sequential"``) and the campaign's own ``jobs`` is the parallelism.
With a fixed seed the *verdict* is deterministic either way; under true
racing the reported winner can depend on machine load whenever two
members would both answer — the first to finish wins.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import closing

import numpy as np

from repro.batch.transport import LocalPoolTransport, WorkItem
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.schedule.schedule import Schedule
from repro.schedule.validate import validate
from repro.solvers.base import Feasibility, SolveResult, SolverStats
from repro.solvers.registry import (
    EXACT,
    PROVES_INFEASIBILITY,
    register_solver,
    solver_info,
)
from repro.solvers.spec import SolverSpec

__all__ = ["PortfolioSolver"]


def _run_member(payload, attempt: int = 0) -> dict:
    """Worker: solve one member and return a picklable result dict.

    The schedule travels as a plain int table (not a ``Schedule``) so the
    payload stays small and version-independent across the process
    boundary; the parent rebuilds and re-validates it.  ``attempt`` is
    the transport's retry number; a race never retries.
    """
    from repro.solvers.registry import create_solver

    name, system, platform, seed, time_limit, node_limit = payload
    engine = create_solver(name, system, platform, seed=seed)
    result = engine.solve(time_limit=time_limit, node_limit=node_limit)
    return {
        "status": result.status.value,
        "solver_name": result.solver_name,
        "decided_by": result.decided_by,
        "table": None if result.schedule is None else result.schedule.table.tolist(),
        "stats": {
            "nodes": result.stats.nodes,
            "fails": result.stats.fails,
            "propagations": result.stats.propagations,
            "max_depth": result.stats.max_depth,
            "elapsed": result.stats.elapsed,
            "extra": result.stats.extra,
        },
    }


class PortfolioSolver:
    """Race member solvers; first definitive answer wins.

    Parameters
    ----------
    members:
        Member names or specs (at least one), raced in declaration order.
    seed:
        Forwarded to every member (fixed seed = fixed member behavior).
    jobs:
        Concurrent member processes; ``None`` races all members at once,
        ``1`` runs them sequentially in order (deterministic winner).
    """

    def __init__(
        self,
        system: TaskSystem,
        platform: Platform,
        members,
        seed: int | None = None,
        jobs: int | None = None,
    ) -> None:
        specs = tuple(SolverSpec.parse(m) for m in members)
        if not specs:
            raise ValueError("portfolio needs at least one member")
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.system = system
        self.platform = platform
        self.seed = seed
        self.jobs = jobs
        self.members = specs
        #: resolved up front: unknown member names fail at construction
        self._infos = [solver_info(s) for s in specs]
        for spec, info in zip(specs, self._infos):
            # capability coherence: a family claiming a complete search
            # (`exact`) must be able to prove infeasibility — otherwise its
            # INFEASIBLE answers would be silently downgraded while the
            # metadata promises they are proofs.  (The converse is fine:
            # `edf-exact` proves infeasibility on uniprocessors without
            # being complete for the feasibility question.)
            if info.is_exact and not info.proves_infeasibility:
                raise ValueError(
                    f"portfolio member {spec.canonical!r} claims the 'exact' "
                    "capability without 'proves_infeasibility'; an incomplete "
                    "solver must not claim completeness — fix its "
                    "@register_solver capabilities"
                )
        self.name = "portfolio:" + ",".join(s.canonical for s in specs)

    # -- answer classification -------------------------------------------------
    def _definitive(self, member_index: int, value: dict) -> bool:
        """Whether a member's result ends the race."""
        status = value["status"]
        if status == Feasibility.FEASIBLE.value:
            return True
        if status == Feasibility.INFEASIBLE.value:
            return self._infos[member_index].proves_infeasibility
        return False

    def _to_result(self, value: dict, elapsed: float, meta: dict) -> SolveResult:
        """Rebuild a member's result dict into a validated SolveResult."""
        status = Feasibility(value["status"])
        if (
            status is Feasibility.INFEASIBLE
            and not meta["winner_proves_infeasibility"]
        ):
            # an incomplete member may never decide INFEASIBLE
            status = Feasibility.UNKNOWN
        schedule = None
        if value["table"] is not None and status is Feasibility.FEASIBLE:
            schedule = Schedule(
                self.system,
                self.platform,
                np.array(value["table"], dtype=np.int32),
            )
            validate(schedule).raise_if_invalid()
        s = value["stats"]
        stats = SolverStats(
            nodes=s["nodes"],
            fails=s["fails"],
            propagations=s["propagations"],
            max_depth=s["max_depth"],
            elapsed=elapsed,
            extra=dict(s["extra"], portfolio=meta),
        )
        return SolveResult(
            status=status,
            schedule=schedule,
            stats=stats,
            solver_name=value["solver_name"],
            decided_by=value.get("decided_by") or value["solver_name"],
        )

    # -- public API ------------------------------------------------------------
    def solve(
        self, time_limit: float | None = None, node_limit: int | None = None
    ) -> SolveResult:
        """Race the members under a shared budget; losers are cancelled."""
        if self.jobs == 1 or multiprocessing.current_process().daemon:
            # a daemonic process (a supervised child) may not start
            # processes of its own: run the members here, in order
            return self._solve_sequential(time_limit, node_limit)
        t0 = time.monotonic()
        items = [
            WorkItem(
                str(index), _run_member,
                self._payload(spec, time_limit, node_limit), time_limit,
            )
            for index, spec in enumerate(self.members)
        ]
        jobs = min(self.jobs or len(items), len(items))
        statuses: dict[str, str] = {}
        winner, value = None, None
        with LocalPoolTransport(jobs=jobs, supervised=True, retries=0) as pool:
            # closed before the pool: losers are terminated, not awaited
            with closing(pool.execute(items)) as stream:
                for res in stream:
                    index = int(res.key)
                    name = self.members[index].canonical
                    if res.fault is not None:
                        cause = res.fault.detail.strip().splitlines()[-1]
                        statuses[name] = f"error: {res.fault.kind}: {cause}"
                    else:
                        statuses[name] = res.value["status"]
                        if self._definitive(index, res.value):
                            winner, value = index, res.value
                            break
                    if time_limit is not None and (
                        time.monotonic() - t0 >= time_limit
                    ):
                        break  # budget spent: cancel the rest
        # members start in declaration order, one per freed slot
        meta = self._meta("race", statuses, started=jobs + len(statuses))
        return self._finish(meta, t0, winner, value)

    def _solve_sequential(
        self, time_limit: float | None, node_limit: int | None
    ) -> SolveResult:
        """jobs=1 fallback: members in order, remaining budget each."""
        t0 = time.monotonic()
        statuses: dict[str, str] = {}
        winner, value = None, None
        for index, spec in enumerate(self.members):
            remaining = None
            if time_limit is not None:
                remaining = time_limit - (time.monotonic() - t0)
                if remaining <= 0:
                    break
            value = _run_member(self._payload(spec, remaining, node_limit))
            statuses[spec.canonical] = value["status"]
            if self._definitive(index, value):
                winner = index
                break
        meta = self._meta("sequential", statuses, started=len(statuses))
        return self._finish(meta, t0, winner, value)

    def _payload(
        self, spec: SolverSpec, time_limit: float | None,
        node_limit: int | None,
    ) -> tuple:
        """The picklable :func:`_run_member` payload for one member."""
        return (spec.canonical, self.system, self.platform, self.seed,
                time_limit, node_limit)

    def _meta(self, mode: str, statuses: dict, started: int) -> dict:
        """Race bookkeeping: every member without a status is
        ``cancelled`` if it was among the first ``started``, else
        ``not_started``."""
        names = [s.canonical for s in self.members]
        unfinished = [i for i, n in enumerate(names) if n not in statuses]
        return {
            "members": names,
            "statuses": statuses,
            "cancelled": [names[i] for i in unfinished if i < started],
            "not_started": [names[i] for i in unfinished if i >= started],
            "mode": mode,
        }

    def _finish(
        self, meta: dict, t0: float, winner: int | None, value: dict | None
    ) -> SolveResult:
        """The winner's validated result, or the aggregate UNKNOWN."""
        elapsed = time.monotonic() - t0
        if winner is None or value is None:
            return self._no_winner(elapsed, meta)
        meta["winner"] = self.members[winner].canonical
        meta["winner_proves_infeasibility"] = self._infos[
            winner
        ].proves_infeasibility
        return self._to_result(value, elapsed, meta)

    def _no_winner(self, elapsed: float, meta: dict) -> SolveResult:
        """Aggregate UNKNOWN when no member was definitive in budget."""
        stats = SolverStats(elapsed=elapsed, extra={"portfolio": meta})
        return SolveResult(
            status=Feasibility.UNKNOWN,
            schedule=None,
            stats=stats,
            solver_name=self.name,
        )


@register_solver(
    "portfolio",
    description=(
        "Racing meta-solver: runs member solvers concurrently in supervised "
        "worker processes, keeps the first definitive answer, cancels the rest "
        "(incomplete members may win FEASIBLE races but never decide "
        "INFEASIBLE)"
    ),
    paper_section="VII (the shoot-out, turned into a solver)",
    pick_when=(
        "Mixed workloads where no single configuration dominates: each "
        "instance finishes at about the speed of its best member"
    ),
    capabilities=(PROVES_INFEASIBILITY, EXACT),
    suffixes={},
    options=("jobs",),
    platforms=("identical", "uniform", "heterogeneous"),
    advertise=False,
)
def _build_portfolio(system, platform, spec, seed, **options):
    """Registry factory: ``portfolio:NAME,NAME,...``."""
    return PortfolioSolver(system, platform, spec.members, seed=seed, **options)
