"""Necessary conditions: polynomial-time *infeasibility* certificates.

The paper uses exactly one such filter — the utilization ratio ``r = U/m``
(Table II counts the unsolved instances with ``r > 1`` that the filter
would have pruned without any search).  This module turns that filter and
four strictly stronger necessary conditions into
:class:`~repro.analysis.certificates.Certificate`-producing tests, each a
proof of infeasibility when it fires and an abstention otherwise:

* ``necessary:utilization`` — ``U > m`` (the paper's ``r > 1``);
* ``necessary:wcet-slack`` — some task has ``C_i > D_i`` (a job receives
  at most one execution unit per slot on identical processors);
* ``necessary:all-jobs`` — the cut of every job at once: slot ``t`` runs
  at most ``min(m, active(t))`` units, ``active(t)`` counting the windows
  (wrapped ones included) that cover it, so a cycle whose total demand
  exceeds the sum of those caps is infeasible;
* ``necessary:interval-load`` — some scan interval ``[a, b]`` wholly
  contains job windows demanding more than ``m (b - a + 1)`` units
  (computed for *all* slot pairs by one rolling sweep over the
  system's window arrays, :attr:`TaskSystem.windows`);
* ``necessary:forced-demand`` — the partial-overlap strengthening: a job
  whose window merely *overlaps* ``[a, b]`` is still forced to execute at
  least ``C - |window \\ [a, b]|`` units inside it, so summing those
  forced loads can exceed capacity even when no window is enclosed.

All tests assume ``m`` *identical* processors (the cascade only applies
them there) and operate on constrained-deadline systems —
arbitrary-deadline systems are cloned first, which is exactly
feasibility-preserving (paper Section VI-B).

The same sweep yields :func:`processor_lower_bound`: the
smallest ``m`` not excluded by any interval-load argument, which is at
least ``ceil(U)`` and often strictly better — ``find_min_processors``
starts there instead of searching counts that are provably too small.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from repro.analysis.certificates import Certificate
from repro.kernels import demand as demand_kernel
from repro.model.system import TaskSystem
from repro.model.transform import clone_for_arbitrary_deadlines

__all__ = [
    "utilization_exceeds",
    "utilization_certificate",
    "wcet_slack_certificate",
    "all_jobs_cut_certificate",
    "interval_load_certificate",
    "forced_demand_certificate",
    "necessary_certificates",
    "prove_infeasible",
    "processor_lower_bound",
    "demand_over_capacity_witness",
]

#: default cap on the slot pairs the all-pairs sweep covers (slots
#: squared); hyperperiods past ``sqrt(4M) = 2000`` slots fall back to the
#: candidate-pair enumeration or abstain rather than churn
MAX_TABLE_CELLS = 4_000_000

#: default cap on candidate (start, end) pairs for the forced-demand scan
MAX_FORCED_PAIRS = 4_096


def _constrained(system: TaskSystem) -> TaskSystem:
    """The system itself, or its constrained-deadline clone (VI-B)."""
    if system.is_constrained:
        return system
    cloned, _ = clone_for_arbitrary_deadlines(system)
    return cloned


def _check_m(m: int) -> None:
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")


# ---------------------------------------------------------------------------
# utilization (the paper's r > 1 filter)
# ---------------------------------------------------------------------------

def utilization_exceeds(ratio: "Fraction | float") -> bool:
    """The paper's Table II filter predicate: True iff ``r = U/m > 1``.

    The *single* implementation of that comparison — the utilization
    certificate and Table II's filtered/unfiltered split both call this,
    so they can never disagree.
    """
    return ratio > 1


def utilization_certificate(system: TaskSystem, m: int) -> Certificate:
    """``U > m`` proves infeasibility on ``m`` identical processors."""
    _check_m(m)
    u = system.utilization
    r = system.utilization_ratio(m)
    if utilization_exceeds(r):
        return Certificate.infeasible(
            "necessary:utilization",
            witness={"utilization": str(u), "m": m, "ratio": float(r)},
            detail=f"U = {float(u):.3f} > m = {m} (r = {float(r):.3f})",
        )
    return Certificate.abstain(
        "necessary:utilization", detail=f"r = U/m = {float(r):.3f} <= 1"
    )


# ---------------------------------------------------------------------------
# per-task slack (C <= D)
# ---------------------------------------------------------------------------

def wcet_slack_certificate(system: TaskSystem, m: int) -> Certificate:
    """``C_i > D_i`` proves infeasibility: one unit per slot per job."""
    _check_m(m)
    bad = [
        (i, t.wcet, t.deadline)
        for i, t in enumerate(system)
        if t.wcet > t.deadline
    ]
    if bad:
        i, c, d = bad[0]
        return Certificate.infeasible(
            "necessary:wcet-slack",
            witness={"tasks": [list(b) for b in bad]},
            detail=f"task {i} has C = {c} > D = {d} "
            f"({len(bad)} such task(s); no m helps)",
        )
    return Certificate.abstain(
        "necessary:wcet-slack", detail="every task has C <= D"
    )


# ---------------------------------------------------------------------------
# the all-jobs cut (per-slot caps over one cycle)
# ---------------------------------------------------------------------------

def all_jobs_cut_certificate(system: TaskSystem, m: int) -> Certificate:
    """``sum_j C_j > sum_t min(m, active(t))`` proves infeasibility.

    A job runs at most one unit per slot and a slot at most ``m`` units,
    so slot ``t`` serves at most ``min(m, active(t))`` of the cycle's
    demand, ``active(t)`` being the number of windows covering it (the
    wrapped tails included).  A task's windows cover the same slots of
    each of its periods, so the tasks of one period add one coverage
    pattern to every ``T_i``-slot row of the cycle: one pass over ``T``
    slots per distinct period.
    """
    _check_m(m)
    system = _constrained(system)
    cover: dict[int, np.ndarray] = {}
    for task in system:
        if task.wcet:
            lag = (np.arange(task.period) - task.phase) % task.period
            cover[task.period] = cover.get(task.period, 0) + (lag < task.deadline)
    active = np.zeros(system.hyperperiod, dtype=np.int32)
    for period, count in cover.items():
        rows = active.reshape(-1, period)
        rows += count
    capacity = int(np.minimum(active, m).sum())
    demand = system.total_demand()
    if demand > capacity:
        return Certificate.infeasible(
            "necessary:all-jobs",
            witness={"demand": demand, "capacity": capacity},
            detail=f"all jobs demand {demand} > capacity {capacity} of "
            f"min(m, active jobs) per slot",
        )
    return Certificate.abstain(
        "necessary:all-jobs",
        detail=f"all jobs demand {demand} <= capacity {capacity}",
    )


# ---------------------------------------------------------------------------
# interval load (enclosed windows, all slot pairs at once)
# ---------------------------------------------------------------------------

def _distinct(slots: np.ndarray, T: int) -> np.ndarray:
    """The distinct values of ``slots`` (all in ``0 .. T-1``), ascending,
    in ``O(T + len(slots))``."""
    seen = np.zeros(T, dtype=bool)
    seen[slots] = True
    return np.flatnonzero(seen)


def _demand_bound_ceiling(system: TaskSystem, m: int) -> int:
    """``max over L of sum_i C_i max(0, (L - D_i) // T_i + 1) - m L``.

    An interval of ``L`` slots wholly encloses at most
    ``(L - D_i) // T_i + 1`` windows of task ``i``, whatever the task's
    offset, so no scan interval's enclosed demand exceeds its capacity
    by more than this.  The maximum sits on a step point
    ``L = D_i + k T_i <= T``: the points are sorted and their ``C_i``
    summed cumulatively.
    """
    T = system.hyperperiod
    points = [np.arange(t.deadline, T + 1, t.period) for t in system]
    wcets = np.repeat([t.wcet for t in system], [len(p) for p in points])
    steps = np.concatenate(points)
    order = np.argsort(steps, kind="stable")
    return int((np.cumsum(wcets[order]) - m * steps[order]).max())


def _enclosed_over_capacity(
    system: TaskSystem, m: int, max_cells: int, max_pairs: int
) -> "tuple[tuple[int, int, int] | None, bool]":
    """The shared interval-load scan: ``(witness, checked)``.

    ``witness`` is ``(a, b, demand)`` of an over-demanded interval (the
    full-cycle total-demand check, wrapped windows included, comes
    first); ``checked`` is False when *both* strategies — the all-pairs
    sweep (``T^2 <= max_cells``) and the candidate-pair enumeration
    (``starts x ends <= max_pairs``) — were over budget, so the caller
    must abstain rather than conclude "no violation".

    Only non-wrapped windows enter the scans: a window wrapping past
    ``T - 1`` never lies wholly inside a linear scan interval.
    """
    T = system.hyperperiod
    total = system.total_demand()
    if total > m * T:
        return (0, T - 1, total), True
    if T * T <= max_cells and _demand_bound_ceiling(system, m) <= 0:
        return None, True  # no interval can be over capacity: skip the table
    spans = system.windows.spans()
    witness, tabled = demand_kernel.enclosed_excess_witness(
        spans, T, m, max_cells=max_cells
    )
    if not tabled:
        pairs = len(_distinct(spans[:, 0], T)) * len(_distinct(spans[:, 1], T))
        if pairs > max_pairs:
            return None, False
        return demand_kernel.first_excess_pair(spans, m), True
    return witness, True


def demand_over_capacity_witness(
    system: TaskSystem, m: int, max_pairs: int = 250_000
) -> tuple[int, int, int] | None:
    """A scan interval ``[a, b]`` whose enclosed demand exceeds ``m`` slots
    of capacity, or None.

    Small hyperperiods are checked for *every* slot pair by the
    all-pairs sweep; larger ones fall back to enumerating (window
    start, window end) candidate pairs — where the bound is tight — up
    to ``max_pairs``, past which the check degrades to the
    full-hyperperiod test only (equivalent to ``U <= m``).
    """
    _check_m(m)
    system = _constrained(system)
    witness, _ = _enclosed_over_capacity(
        system, m, max_cells=MAX_TABLE_CELLS, max_pairs=max_pairs
    )
    return witness


def interval_load_certificate(
    system: TaskSystem,
    m: int,
    max_cells: int = MAX_TABLE_CELLS,
    max_pairs: int = 250_000,
) -> Certificate:
    """Enclosed-window interval load: demand in ``[a, b]`` vs ``m`` slots.

    Sound for cyclic schedules because every non-wrapped window's ``C``
    units must fall inside the window, hence inside any interval
    enclosing it; the full-cycle check (wrapped windows included) is the
    classical ``total demand <= m T``.  Abstains only when both the
    all-pairs sweep (``max_cells``) and the pair-enumeration
    (``max_pairs``) budgets are exceeded.
    """
    _check_m(m)
    system = _constrained(system)
    witness, checked = _enclosed_over_capacity(
        system, m, max_cells=max_cells, max_pairs=max_pairs
    )
    if witness is not None:
        a, b, demand = witness
        return Certificate.infeasible(
            "necessary:interval-load",
            witness={"interval": [a, b], "demand": demand,
                     "capacity": m * (b - a + 1)},
            detail=f"slots [{a}, {b}] enclose demand {demand} > "
            f"capacity {m * (b - a + 1)}",
        )
    if not checked:
        return Certificate.abstain(
            "necessary:interval-load",
            detail=f"hyperperiod {system.hyperperiod} past the "
            "interval-table and candidate-pair budgets",
        )
    return Certificate.abstain(
        "necessary:interval-load", detail="no over-demanded scan interval"
    )


# ---------------------------------------------------------------------------
# forced demand (partial-overlap strengthening)
# ---------------------------------------------------------------------------

def forced_demand_certificate(
    system: TaskSystem, m: int, max_pairs: int = MAX_FORCED_PAIRS
) -> Certificate:
    """Forced load: jobs overlapping ``[a, b]`` must still run
    ``max(0, C - |window outside [a, b]|)`` units inside it.

    Strictly stronger than the enclosed-window argument (an enclosed
    window is forced for its full ``C``); candidate intervals are
    (window-start, window-end) pairs, abstaining past ``max_pairs``.
    """
    _check_m(m)
    system = _constrained(system)
    windows = system.windows
    if len(windows.wcet) == 0:
        return Certificate.abstain(
            "necessary:forced-demand", detail="no positive-wcet jobs"
        )
    fs, fe, fj = windows.fragments()
    starts = _distinct(fs, windows.hyperperiod)
    ends = _distinct(fe, windows.hyperperiod)
    if len(starts) * len(ends) > max_pairs:
        return Certificate.abstain(
            "necessary:forced-demand",
            detail=f"{len(starts)}x{len(ends)} candidate intervals past "
            f"the pair budget {max_pairs}",
        )
    witness = demand_kernel.forced_demand_witness(
        fs, fe, fj, windows.wcet, windows.deadline, starts, ends, m
    )
    if witness is not None:
        a, b, demand = witness
        capacity = m * (b - a + 1)
        return Certificate.infeasible(
            "necessary:forced-demand",
            witness={"interval": [a, b], "demand": demand,
                     "capacity": capacity},
            detail=f"slots [{a}, {b}] force demand {demand} > "
            f"capacity {capacity}",
        )
    return Certificate.abstain(
        "necessary:forced-demand", detail="no over-forced interval"
    )


# ---------------------------------------------------------------------------
# aggregation + the processor-count lower bound
# ---------------------------------------------------------------------------

def necessary_certificates(system: TaskSystem, m: int) -> list[Certificate]:
    """All necessary-condition certificates, cheapest first.

    Any INFEASIBLE entry proves the instance unschedulable on ``m``
    identical processors; all-abstain proves nothing (the conditions are
    necessary, not sufficient).
    """
    return [
        utilization_certificate(system, m),
        wcet_slack_certificate(system, m),
        all_jobs_cut_certificate(system, m),
        interval_load_certificate(system, m),
        forced_demand_certificate(system, m),
    ]


def prove_infeasible(system: TaskSystem, m: int) -> Certificate | None:
    """The first infeasibility proof found, or None (tests abstained).

    Runs the necessary tests cheapest-first and stops at the first
    failure — the certificate-producing analogue of the paper's ``r > 1``
    pre-filter, for use anywhere a cheap "is this m hopeless?" answer
    avoids an exact search (``find_min_processors`` in particular).
    """
    for test in (
        utilization_certificate,
        wcet_slack_certificate,
        all_jobs_cut_certificate,
        interval_load_certificate,
        forced_demand_certificate,
    ):
        cert = test(system, m)
        if cert.proves_infeasible:
            return cert
    return None


def processor_lower_bound(
    system: TaskSystem, max_cells: int = MAX_TABLE_CELLS
) -> int:
    """The smallest ``m`` no interval-load argument excludes.

    At least ``max(1, ceil(U))``; the all-pairs sweep sharpens it to
    ``max ceil(demand(a, b) / (b - a + 1))`` over all scan intervals
    (e.g. two synchronous ``D = 1`` jobs force ``m >= 2`` even at tiny
    utilization).  Every count below the returned value is *provably*
    infeasible, so minimum-processor searches may start here without
    losing exactness.
    """
    system = _constrained(system)
    bound = max(1, system.min_processors)
    T = system.hyperperiod
    bound = max(bound, math.ceil(system.total_demand() / T))
    need = demand_kernel.interval_min_processors(
        system.windows.spans(), T, max_cells=max_cells
    )
    if need is not None:
        bound = max(bound, need)
    return bound
