"""The unified solving front door: ``Problem`` in, ``SolveReport`` out.

Every way this library answers an instance — the one-call
:func:`repro.solve`, the streaming :func:`repro.solve_iter`, the batch
layer's cells, the table drivers, the CLI — now funnels through one
engine, :func:`solve_problem`:

* a :class:`Problem` is the *question*: a task system, a platform, the
  search budget, the seed, and an optional memory guard — a plain value
  object that pickles across process boundaries and round-trips JSON;
* a :class:`SolveReport` is the *answer*: the underlying
  :class:`~repro.solvers.base.SolveResult` plus everything the old
  ``MgrtsResult`` carried (clone bookkeeping, merged display schedule)
  and a ``to_dict``/``from_dict`` pair for JSONL streaming;
* :func:`solve_problem` does the plumbing once: the up-front refusals
  (:func:`check_solvable`), arbitrary-deadline cloning (Section VI-B),
  the registry lookup, the memory guard for generic-engine encodings,
  budget accounting (model construction counts against the wall budget;
  an overrun is charged the full budget), and C1-C4 validation of any
  returned schedule;
* :func:`solve_key` is the one memo key: both memos in the repo (the
  campaign's and the solver service's) are addressed by it;
* :func:`fault_report` is the one builder of a faulted run's outcome.

:func:`solve_iter` fans a ``problems x solvers`` matrix out over watched
worker processes (the batch layer's
:class:`~repro.batch.transport.LocalPoolTransport`) and *yields* reports
as cells complete, so campaign drivers can stream results instead of
blocking on the whole matrix.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.model.transform import CloneMap, clone_for_arbitrary_deadlines
from repro.schedule.io import (
    platform_from_dict,
    platform_to_dict,
    system_from_dict,
    system_to_dict,
)
from repro.schedule.schedule import Schedule
from repro.schedule.validate import validate
from repro.solvers.base import Feasibility, SolveResult, SolverStats
from repro.solvers.registry import create_solver, solver_info
from repro.solvers.spec import SolverSpec

if TYPE_CHECKING:
    from repro.batch.supervise import FaultRecord

__all__ = [
    "DEFAULT_VARIABLE_LIMIT",
    "Problem",
    "SolveReport",
    "REPORT_KEYS",
    "check_solvable",
    "solve_key",
    "solve_problem",
    "solve_iter",
    "estimate_generic_variables",
    "FAULT_PREFIX",
    "fault_label",
    "fault_report",
    "is_fault_label",
]

#: report status string for a cell skipped by the memory guard
SKIPPED_MEMORY = "skipped-memory"

#: prefix of every fault status label (``fault:crash``, ``fault:oom``,
#: ``fault:timeout``, ``fault:error``): the cell's *execution* failed —
#: worker death, watchdog timeout, unhandled error — as opposed to the
#: solver answering ``unknown`` within a healthy run.  Fault statuses are
#: journaled like any other outcome so campaigns always complete, and
#: they are never verdicts: difftest and the tables treat them as
#: UNKNOWN-with-provenance.
FAULT_PREFIX = "fault:"


def fault_label(kind: str) -> str:
    """The status label for a fault of ``kind`` (e.g. ``"fault:crash"``)."""
    return FAULT_PREFIX + kind


def is_fault_label(status: str) -> bool:
    """True iff ``status`` records an execution fault, not a verdict."""
    return status.startswith(FAULT_PREFIX)


#: default guard against generic-engine encodings that would not fit in
#: memory (the paper: CSP1 "runs out of memory on 'large' instances",
#: Table IV); campaign cells and the solver service's caps default to it
DEFAULT_VARIABLE_LIMIT = 2_000_000


def estimate_generic_variables(system: TaskSystem, platform: Platform) -> int:
    """Predicted model size ``sum_i m * (T/T_i) * D_i`` of the generic-
    engine encodings (the paper: CSP1 "runs out of memory on 'large'
    instances", Table IV); drives the :attr:`Problem.variable_limit` guard."""
    return sum(
        platform.m * system.n_jobs(i) * system[i].deadline
        for i in range(system.n)
    )


@dataclass(frozen=True)
class Problem:
    """One MGRTS question as a plain, picklable value object.

    Attributes
    ----------
    system:
        Any task system; arbitrary deadlines are cloned by the engine.
    platform:
        The processors (:meth:`of` also accepts a bare ``m``).
    time_limit, node_limit:
        Search budget (the paper used 30 s); model construction counts
        against the wall budget.
    seed:
        Randomized-strategy seed, forwarded to the solver.
    label:
        Free-form tag carried into the report (campaign bookkeeping).
    variable_limit:
        When set, generic-engine encodings whose predicted variable count
        exceeds it are reported as skipped instead of being built.
    """

    system: TaskSystem
    platform: Platform
    time_limit: float | None = None
    node_limit: int | None = None
    seed: int | None = None
    label: str | None = None
    variable_limit: int | None = None

    @classmethod
    def of(
        cls,
        system: TaskSystem,
        platform: Platform | None = None,
        m: int | None = None,
        **kwargs,
    ) -> "Problem":
        """Build a problem from either a platform or a processor count."""
        if platform is None:
            if m is None:
                raise ValueError("pass either platform= or m=")
            platform = Platform.identical(m)
        elif m is not None and m != platform.m:
            raise ValueError(
                f"conflicting processor counts: m={m}, platform.m={platform.m}"
            )
        return cls(system=system, platform=platform, **kwargs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (inverse: :meth:`from_dict`)."""
        return {
            "system": system_to_dict(self.system),
            "platform": platform_to_dict(self.platform),
            "time_limit": self.time_limit,
            "node_limit": self.node_limit,
            "seed": self.seed,
            "label": self.label,
            "variable_limit": self.variable_limit,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Problem":
        """Inverse of :meth:`to_dict`."""
        return cls(
            system=system_from_dict(data["system"]),
            platform=platform_from_dict(data["platform"]),
            time_limit=data.get("time_limit"),
            node_limit=data.get("node_limit"),
            seed=data.get("seed"),
            label=data.get("label"),
            variable_limit=data.get("variable_limit"),
        )


def solve_key(
    problem: Problem,
    solver: "str | SolverSpec",
    options: dict[str, Any] | None = None,
) -> str:
    """The memo key of one question: sha256 over its canonical JSON.

    Everything that can change the answer is keyed — tasks, platform,
    budgets, seed, solver name and solver options; ``label``
    (bookkeeping) is not, so two askers of the same question share one
    cache entry.  An identical platform is keyed by its processor count
    ``m``, the memory guard as ``csp1_variable_limit``, and
    ``node_limit`` / ``options`` only when set: for an identical
    platform and no options the document is exactly the one campaign
    cells have always been keyed by, so existing caches stay warm.
    """
    platform = problem.platform
    doc: dict[str, Any] = {
        "tasks": [list(t.as_tuple()) for t in problem.system],
        "solver": solver if isinstance(solver, str) else solver.canonical,
        "time_limit": problem.time_limit,
        "csp1_variable_limit": problem.variable_limit,
        "seed": problem.seed,
    }
    if platform.is_identical:
        doc["m"] = platform.m
    else:
        doc["platform"] = platform_to_dict(platform)
    if problem.node_limit is not None:
        doc["node_limit"] = problem.node_limit
    if options:
        doc["options"] = options
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def check_solvable(problem: Problem, solver: "str | SolverSpec") -> None:
    """Raise ``ValueError`` for a question :func:`solve_problem` refuses.

    Both refusals happen before any model is built: a solver — or a
    screen's fall-through engine — whose registry ``platforms`` lack the
    problem's platform kind, and a heterogeneous platform under
    arbitrary deadlines (its rate matrix is indexed by task, and cloning
    renumbers the tasks).  Portfolio members are not checked: a member
    that cannot run faults inside the race while the others race on.
    Unknown solver names raise too.
    """
    kind = problem.platform.kind
    part: SolverSpec | None = SolverSpec.parse(solver)
    while part is not None and not part.is_portfolio:
        supported = solver_info(part).platforms
        if kind not in supported:
            raise ValueError(
                f"solver {part.canonical!r} does not run on {kind} "
                f"platforms (supported: {', '.join(supported)})"
            )
        part = part.screened
    if kind == "heterogeneous" and any(
        t.deadline > t.period for t in problem.system
    ):
        raise ValueError(
            "heterogeneous rate matrices are indexed by task; expand the "
            "matrix for the cloned system and pass the cloned system directly"
        )


def _merge_clone_schedule(schedule: Schedule, clone_map: CloneMap) -> Schedule:
    from repro.solvers.api import merge_clone_schedule

    return merge_clone_schedule(schedule, clone_map)


def _memory_guarded_spec(spec: SolverSpec) -> SolverSpec | None:
    """``spec`` with memory-bound parts stripped; None if nothing remains.

    Applied when the predicted model size exceeds the problem's
    ``variable_limit``: a memory-bound simple solver is dropped entirely,
    a portfolio keeps racing with its memory-safe members, and a screen
    keeps screening (the cascade itself is memory-light) but loses a
    memory-bound fall-through engine — an abstaining cascade then
    reports UNKNOWN instead of building a model that cannot fit.
    """
    if spec.is_portfolio:
        kept = tuple(
            g for m in spec.members
            if (g := _memory_guarded_spec(m)) is not None
        )
        if kept == spec.members:
            return spec
        return SolverSpec(base=spec.base, members=kept) if kept else None
    if spec.is_screen:
        inner = spec.screened
        if inner is None:
            return spec
        guarded = _memory_guarded_spec(inner)
        if guarded is inner:
            return spec
        return SolverSpec(
            base=spec.base, members=(guarded,) if guarded is not None else ()
        )
    return None if solver_info(spec).memory_bound else spec


#: the keys of a :meth:`SolveReport.to_dict` document, in order
REPORT_KEYS = (
    "problem", "solver", "status", "winner", "decided_by", "elapsed",
    "index", "stats", "schedule", "fault",
)


@dataclass
class SolveReport:
    """One (problem, solver) outcome, rich enough to need nothing else.

    Covers everything the deprecated ``MgrtsResult`` exposed (status,
    stats, validated schedule over the cloned system, merged display
    schedule, clone bookkeeping) plus the requested solver name, the
    budget-accounted wall clock, and a JSONL-ready dict form.
    """

    problem: Problem
    solver: str
    result: SolveResult | None
    cloned_system: TaskSystem
    clone_map: CloneMap
    elapsed: float
    #: non-None when the cell never produced a solver result: ``"memory"``
    #: (the variable-limit guard) or a ``fault:*`` label (the cell's
    #: execution crashed / hung / OOMed — see :data:`FAULT_PREFIX`)
    skipped: str | None = None
    #: position in the solve_iter matrix (problem-major, solver-minor)
    index: int = 0
    #: fault provenance (kind / detail / attempts) when ``skipped`` is a
    #: ``fault:*`` label; rides the JSONL round-trip
    fault: dict | None = None

    # -- MgrtsResult-compatible surface ---------------------------------------
    @property
    def system(self) -> TaskSystem:
        """The original (possibly arbitrary-deadline) system."""
        return self.problem.system

    @property
    def status(self) -> Feasibility:
        """The solver verdict (UNKNOWN for skipped cells)."""
        if self.result is None:
            return Feasibility.UNKNOWN
        return self.result.status

    @property
    def status_label(self) -> str:
        """The verdict as a record string (``skipped-memory`` and
        ``fault:*`` included)."""
        if self.skipped is None:
            return self.status.value
        if is_fault_label(self.skipped):
            return self.skipped
        return SKIPPED_MEMORY

    @property
    def is_feasible(self) -> bool:
        """True iff a valid schedule was found within the budget."""
        return self.status is Feasibility.FEASIBLE

    @property
    def timed_out(self) -> bool:
        """True iff the budget expired without an answer (an overrun)."""
        return self.status is Feasibility.UNKNOWN

    @property
    def schedule(self) -> Schedule | None:
        """The validated schedule over the (cloned) constrained system."""
        return None if self.result is None else self.result.schedule

    @property
    def original_schedule(self) -> Schedule | None:
        """Schedule relabeled with the original task indices (for display)."""
        if self.schedule is None:
            return None
        if self.clone_map.is_identity:
            return self.schedule
        return _merge_clone_schedule(self.schedule, self.clone_map)

    @property
    def stats(self) -> SolverStats:
        """Search-effort counters of the underlying run."""
        if self.result is None:
            return SolverStats(elapsed=self.elapsed)
        return self.result.stats

    @property
    def winner(self) -> str:
        """The engine that produced the answer (a portfolio's winning
        member; otherwise the configured solver's own name)."""
        if self.result is None:
            return self.solver
        return self.result.solver_name

    @property
    def decided_by(self) -> str | None:
        """Provenance of the verdict: the analysis test (``screen``'s
        cascade), winning member (portfolio) or engine that decided this
        cell; ``supervisor:<kind>`` for faulted cells; ``None`` for
        cells that never ran."""
        if self.skipped is not None and is_fault_label(self.skipped):
            return "supervisor:" + self.skipped[len(FAULT_PREFIX):]
        if self.result is None:
            return None
        return self.result.decided_by or self.winner

    # -- persistence ----------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSONL-ready form; :meth:`from_dict` round-trips it."""
        stats = self.stats
        return {
            "problem": self.problem.to_dict(),
            "solver": self.solver,
            "status": self.status_label,
            "winner": self.winner,
            "decided_by": self.decided_by,
            "elapsed": self.elapsed,
            "index": self.index,
            "stats": {
                "nodes": stats.nodes,
                "fails": stats.fails,
                "propagations": stats.propagations,
                "max_depth": stats.max_depth,
                "elapsed": stats.elapsed,
                "extra": stats.extra,
            },
            "schedule": (
                None if self.schedule is None else self.schedule.table.tolist()
            ),
            "fault": self.fault,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "SolveReport":
        """Rebuild a report from :meth:`to_dict` output.

        The clone bookkeeping is recomputed from the problem (it is a
        pure function of the system), and the schedule — when present —
        is rebuilt over the cloned system and platform.
        """
        problem = Problem.from_dict(data["problem"])
        cloned, cmap = clone_for_arbitrary_deadlines(problem.system)
        status_label = data["status"]
        skipped = None
        if status_label == SKIPPED_MEMORY:
            skipped = "memory"
        elif is_fault_label(status_label):
            skipped = status_label
        s = data["stats"]
        stats = SolverStats(
            nodes=s["nodes"],
            fails=s["fails"],
            propagations=s["propagations"],
            max_depth=s["max_depth"],
            elapsed=s["elapsed"],
            extra=s["extra"],
        )
        result = None
        if skipped is None:
            schedule = None
            if data["schedule"] is not None:
                schedule = Schedule(cloned, problem.platform, data["schedule"])
            result = SolveResult(
                status=Feasibility(status_label),
                schedule=schedule,
                stats=stats,
                solver_name=data["winner"],
                decided_by=data.get("decided_by"),
            )
        return cls(
            problem=problem,
            solver=data["solver"],
            result=result,
            cloned_system=cloned,
            clone_map=cmap,
            elapsed=data["elapsed"],
            skipped=skipped,
            index=data.get("index", 0),
            fault=data.get("fault"),
        )


def solve_problem(
    problem: Problem,
    solver: "str | SolverSpec" = "csp2+dc",
    check: bool = True,
    **options,
) -> SolveReport:
    """Answer one problem with one solver — the single shared engine.

    Refuses what :func:`check_solvable` refuses, clones arbitrary-deadline
    systems, applies the
    :attr:`Problem.variable_limit` memory guard to memory-bound solver
    families, counts model construction against the wall budget, charges
    a full budget to overruns, and (with ``check``) validates any
    returned schedule against C1-C4.  Extra ``options`` are forwarded to
    the solver after registry validation.
    """
    spec = SolverSpec.parse(solver)
    check_solvable(problem, spec)
    cloned, cmap = clone_for_arbitrary_deadlines(problem.system)
    requested = spec.canonical
    if problem.variable_limit is not None:
        over_limit = (
            estimate_generic_variables(cloned, problem.platform)
            > problem.variable_limit
        )
        if over_limit:
            # strip whatever would not fit: a memory-bound solver skips,
            # a portfolio races on with its memory-safe members, a screen
            # still screens but loses a memory-bound fall-through
            guarded = _memory_guarded_spec(spec)
            if guarded is None:
                return SolveReport(
                    problem=problem,
                    solver=requested,
                    result=None,
                    cloned_system=cloned,
                    clone_map=cmap,
                    elapsed=problem.time_limit or 0.0,
                    skipped="memory",
                )
            spec = guarded
    t0 = time.monotonic()
    engine = create_solver(
        spec, cloned, problem.platform, seed=problem.seed, **options
    )
    build = time.monotonic() - t0
    remaining = problem.time_limit
    if remaining is not None:
        remaining = max(0.0, remaining - build)
    result = engine.solve(time_limit=remaining, node_limit=problem.node_limit)
    elapsed = build + result.stats.elapsed
    if problem.time_limit is not None:
        elapsed = min(elapsed, problem.time_limit)
        if result.status is Feasibility.UNKNOWN and problem.node_limit is None:
            # a wall-clock overrun consumed the full budget; with a node
            # budget in play the stop may have been node-caused, so keep
            # the true wall time
            elapsed = problem.time_limit
    if check and result.schedule is not None:
        validate(result.schedule).raise_if_invalid()
    return SolveReport(
        problem=problem,
        solver=requested,
        result=result,
        cloned_system=cloned,
        clone_map=cmap,
        elapsed=elapsed,
    )


def _solve_entry(entry, attempt: int = 0) -> SolveReport:
    """Pool and transport worker: one (index, problem, solver, ...) cell.

    ``attempt`` is the transport's retry number; a cell ignores it.
    """
    index, problem, solver, check, options = entry
    report = solve_problem(problem, solver, check=check, **options)
    return replace(report, index=index)


def fault_report(
    problem: Problem,
    solver: "str | SolverSpec",
    fault: "FaultRecord",
    index: int = 0,
) -> SolveReport:
    """The ``fault:*`` report of a cell whose execution died.

    The cell is charged its full wall budget (like an overrun) and
    ``fault.to_dict()`` rides the report, so downstream consumers — the
    campaign journal, the solve_iter stream, the solver service's
    response lines — see an UNKNOWN-with-a-reason instead of a missing
    cell or a dead campaign.
    """
    cloned, cmap = clone_for_arbitrary_deadlines(problem.system)
    return SolveReport(
        problem=problem,
        solver=SolverSpec.parse(solver).canonical,
        result=None,
        cloned_system=cloned,
        clone_map=cmap,
        elapsed=problem.time_limit or 0.0,
        skipped=fault_label(fault.kind),
        index=index,
        fault=fault.to_dict(),
    )


def _guarded_entry(entry) -> SolveReport:
    """In-process cell execution that records failures as fault reports."""
    try:
        return _solve_entry(entry)
    except Exception:
        from repro.batch.supervise import FAULT_ERROR, FaultRecord, fault_traceback

        index, problem, solver, _check, _options = entry
        fault = FaultRecord(FAULT_ERROR, fault_traceback())
        return fault_report(problem, solver, fault, index=index)


def solve_iter(
    problems: "Iterable[Problem] | Problem",
    solvers: "Sequence[str | SolverSpec] | str" = ("csp2+dc",),
    jobs: int = 1,
    check: bool = True,
    options: dict | None = None,
    progress=None,
    on_fault: str = "raise",
) -> Iterator[SolveReport]:
    """Stream :class:`SolveReport` records for a problems x solvers matrix.

    Parameters
    ----------
    problems:
        One problem or an iterable of them.
    solvers:
        One name/spec or a sequence; every solver runs on every problem.
    jobs:
        ``1`` solves serially in matrix order (problem-major,
        solver-minor); ``N > 1`` fans cells out over ``N`` warm
        supervised children and yields reports *as they complete* — use
        each report's :attr:`~SolveReport.index` to restore matrix
        order.  Each such cell runs under the transport's watchdog (its
        ``time_limit`` plus the default grace).  A ``portfolio:`` cell
        runs its members sequentially there, because a supervised child
        may not start processes of its own.
    check:
        Validate returned schedules against C1-C4.
    options:
        Extra solver options applied to every cell (registry-validated).
    progress:
        Optional ``progress(done, total)`` callback.
    on_fault:
        ``"raise"`` (default) makes a failing cell end the stream: with
        ``jobs=1`` its own exception propagates; with ``jobs > 1`` the
        cell is re-run once in a fresh child and, if it fails there
        too, a ``RuntimeError`` naming the fault's kind and carrying the
        child's traceback is raised.  ``"record"`` makes the matrix
        fault-tolerant: a cell whose execution raises, whose child dies
        or whose child overruns the watchdog yields a ``fault:*`` report
        instead of aborting the stream; with ``jobs > 1`` it is re-run
        once in a fresh child first, so it reports ``attempts == 2``.

    Yields
    ------
    SolveReport
        One per (problem, solver) cell, always — under
        ``on_fault="record"`` a faulted cell yields a report whose
        :attr:`~SolveReport.status_label` is ``fault:<kind>``.
    """
    if isinstance(problems, Problem):
        problems = [problems]
    if isinstance(solvers, (str, SolverSpec)):
        solvers = [solvers]
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if on_fault not in ("raise", "record"):
        raise ValueError(f"on_fault must be 'raise' or 'record', got {on_fault!r}")
    options = options or {}
    entries = [
        (index, problem, SolverSpec.parse(s), check, options)
        for index, (problem, s) in enumerate(
            (p, s) for p in problems for s in solvers
        )
    ]
    total = len(entries)
    done = 0

    def tick():
        if progress is not None:
            progress(done, total)

    if jobs == 1:
        runner = _guarded_entry if on_fault == "record" else _solve_entry
        for entry in entries:
            report = runner(entry)
            done += 1
            tick()
            yield report
        return
    from repro.batch.transport import LocalPoolTransport, WorkItem

    # warm supervised children: a failed cell (a raising solver, a dead
    # or hung child) re-runs once in a fresh child; repeat offenders
    # come back classified
    items = [
        WorkItem(str(entry[0]), _solve_entry, entry, entry[1].time_limit)
        for entry in entries
    ]
    with LocalPoolTransport(jobs=jobs, retries=1) as transport:
        for res in transport.execute(items):
            entry = entries[int(res.key)]
            if res.fault is None:
                report = res.value
            elif on_fault == "raise":
                raise RuntimeError(
                    f"cell {res.key} ({entry[2].canonical}) ended "
                    f"{fault_label(res.fault.kind)}:\n{res.fault.detail}"
                )
            else:
                report = fault_report(entry[1], entry[2], res.fault, index=entry[0])
            done += 1
            tick()
            yield report
