"""Sufficient conditions: polynomial-time *feasibility* certificates.

Each test here, when it fires, proves a schedule exists — by a
closed-form schedulability bound for a concrete policy, by a packing
argument, or by exhibiting one cyclic hyperperiod outright:

* ``sufficient:gfb`` — the Goossens-Funk-Baruah utilization bound for
  global EDF on implicit-deadline systems (``U <= m - (m-1) U_max``);
* ``sufficient:density`` — its density generalization for constrained
  deadlines (Bertogna et al.);
* ``sufficient:uniproc-edf`` — on ``m = 1`` EDF is *optimal*, so the
  exact EDF simulation decides both ways: schedulable means feasible and
  a deadline miss proves infeasibility (the one test in this module that
  can also return INFEASIBLE);
* ``sufficient:partitioned-ff`` — a first-fit-decreasing partition whose
  bins are each exactly uniprocessor-EDF-feasible (Chen & Bansal-style
  packing); a partitioned schedule is trivially a global one;
* ``sufficient:edf-sim`` — the hyperperiod simulation witness: run the
  exact global-EDF simulator (periodicity detection makes the verdict a
  proof) and hand back the produced cyclic schedule.

Simulation-backed tests are bounded by ``state_limit`` so the cascade
stays polynomial-time in practice.  ``uniproc-edf`` and ``edf-sim``
simulate the whole system and abstain when the estimate ``hyperperiod x
n x m`` is past it.  ``partitioned-ff`` is charged for the work it
actually simulates: a bin its bounds leave open costs ``lcm(bin periods)
x |bin|`` slot-tasks, and a bin that no longer fits in what is left of
the budget counts as full.

All tests assume ``m`` identical processors and constrained deadlines
(arbitrary-deadline systems are cloned first, Section VI-B).
"""

from __future__ import annotations

from repro.analysis.bounds import density_bound, gfb_utilization_bound
from repro.analysis.certificates import Certificate
from repro.analysis.necessary import _check_m, _constrained
from repro.model.system import TaskSystem

__all__ = [
    "gfb_certificate",
    "density_certificate",
    "uniprocessor_edf_certificate",
    "partitioned_certificate",
    "edf_simulation_certificate",
    "sufficient_certificates",
    "prove_feasible",
]

#: default cap on simulation work, in slot-tasks: the whole-system tests
#: abstain when ``hyperperiod x n x m`` is past it, and the partition
#: witness stops simulating bins once their summed ``lcm(bin periods) x
#: |bin|`` would pass it
DEFAULT_STATE_LIMIT = 200_000


def _sim_work(system: TaskSystem, m: int) -> int:
    """Rough work estimate of one simulation-backed test."""
    return system.hyperperiod * system.n * m


def gfb_certificate(system: TaskSystem, m: int) -> Certificate:
    """GFB bound: implicit-deadline and ``U <= m - (m-1) U_max`` proves
    global-EDF schedulability, hence feasibility."""
    _check_m(m)
    system = _constrained(system)
    if any(t.deadline != t.period for t in system):
        return Certificate.abstain(
            "sufficient:gfb", detail="deadlines not implicit (D != T)"
        )
    verdict = gfb_utilization_bound(system, m)
    if verdict.schedulable:
        return Certificate.feasible(
            "sufficient:gfb",
            witness={"bound": verdict.detail, "m": m},
            detail=verdict.detail,
        )
    return Certificate.abstain("sufficient:gfb", detail=verdict.detail)


def density_certificate(system: TaskSystem, m: int) -> Certificate:
    """Density bound: ``delta_sum <= m - (m-1) delta_max`` on constrained
    deadlines proves global-EDF schedulability, hence feasibility."""
    _check_m(m)
    system = _constrained(system)
    verdict = density_bound(system, m)
    if verdict.schedulable:
        return Certificate.feasible(
            "sufficient:density",
            witness={"bound": verdict.detail, "m": m},
            detail=verdict.detail,
        )
    return Certificate.abstain("sufficient:density", detail=verdict.detail)


def uniprocessor_edf_certificate(
    system: TaskSystem,
    m: int,
    max_cycles: int = 64,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Certificate:
    """Exact ``m = 1`` decision: EDF is optimal on one processor, so the
    simulation verdict settles the instance in *both* directions."""
    _check_m(m)
    if m != 1:
        return Certificate.abstain(
            "sufficient:uniproc-edf", detail="applies to m = 1 only"
        )
    system = _constrained(system)
    if _sim_work(system, m) > state_limit:
        return Certificate.abstain(
            "sufficient:uniproc-edf", detail="past the simulation budget"
        )
    from repro.baselines.priorities import global_edf

    sim = global_edf(system, 1, max_cycles=max_cycles)
    if sim.schedulable:
        return Certificate.feasible(
            "sufficient:uniproc-edf",
            witness={"cycles": sim.cycles_simulated},
            detail="uniprocessor EDF schedule repeats with no miss "
            "(EDF is optimal on m = 1)",
            schedule=sim.schedule,
        )
    if sim.schedulable is False:
        task, release, deadline = sim.missed
        return Certificate.infeasible(
            "sufficient:uniproc-edf",
            witness={"missed": {"task": task, "release": release,
                                "deadline": deadline}},
            detail=f"EDF (optimal on m = 1) misses task {task}'s deadline "
            f"{deadline} for the job released at {release}",
        )
    return Certificate.abstain(
        "sufficient:uniproc-edf", detail="simulation did not converge"
    )


def partitioned_certificate(
    system: TaskSystem,
    m: int,
    max_cycles: int = 64,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Certificate:
    """First-fit-decreasing packing witness: a task-to-processor
    assignment whose every bin is exactly uniprocessor-EDF-feasible.

    A partitioned schedule is trivially a valid global schedule, so a
    found partition proves feasibility; not finding one proves nothing
    (global scheduling strictly dominates partitioning).  ``state_limit``
    budgets the slot-tasks the bin simulations may spend; the witness
    reports what they spent (``sim_work``, ``bins_simulated``).
    """
    _check_m(m)
    system = _constrained(system)
    from repro.baselines.partitioned import first_fit_partition

    try:
        part = first_fit_partition(
            system, m, max_cycles=max_cycles, budget=state_limit
        )
    except RuntimeError:  # a bin simulation failed to converge
        return Certificate.abstain(
            "sufficient:partitioned-ff",
            detail="bin simulation did not converge",
        )
    if part.found:
        return Certificate.feasible(
            "sufficient:partitioned-ff",
            witness={"assignment": part.assignment,
                     "bins_tried": part.partitions_tried,
                     "sim_work": part.sim_work,
                     "bins_simulated": part.bins_simulated},
            detail=f"first-fit partition onto {m} processor(s): "
            f"{part.assignment}",
        )
    if part.bins_refused:
        return Certificate.abstain(
            "sufficient:partitioned-ff",
            detail=f"past the simulation budget after {part.bins_simulated} "
            f"simulated bin(s) ({part.sim_work} slot-tasks)",
        )
    return Certificate.abstain(
        "sufficient:partitioned-ff", detail="first-fit found no partition"
    )


def edf_simulation_certificate(
    system: TaskSystem,
    m: int,
    max_cycles: int = 64,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Certificate:
    """Hyperperiod simulation witness: exact global-EDF simulation with
    periodicity detection; a schedulable verdict hands back the cyclic
    schedule itself (a miss proves nothing for ``m > 1``)."""
    _check_m(m)
    system = _constrained(system)
    if _sim_work(system, m) > state_limit:
        return Certificate.abstain(
            "sufficient:edf-sim", detail="past the simulation budget"
        )
    from repro.baselines.priorities import global_edf

    sim = global_edf(system, m, max_cycles=max_cycles)
    if sim.schedulable:
        return Certificate.feasible(
            "sufficient:edf-sim",
            witness={"cycles": sim.cycles_simulated},
            detail="global EDF schedule repeats with no miss",
            schedule=sim.schedule,
        )
    return Certificate.abstain(
        "sufficient:edf-sim",
        detail="EDF missed a deadline (not an infeasibility proof)"
        if sim.schedulable is False
        else "simulation did not converge",
    )


def sufficient_certificates(
    system: TaskSystem,
    m: int,
    max_cycles: int = 64,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> list[Certificate]:
    """All sufficient-condition certificates, cheapest first."""
    return [
        gfb_certificate(system, m),
        density_certificate(system, m),
        uniprocessor_edf_certificate(
            system, m, max_cycles=max_cycles, state_limit=state_limit
        ),
        partitioned_certificate(
            system, m, max_cycles=max_cycles, state_limit=state_limit
        ),
        edf_simulation_certificate(
            system, m, max_cycles=max_cycles, state_limit=state_limit
        ),
    ]


def prove_feasible(
    system: TaskSystem,
    m: int,
    max_cycles: int = 64,
    state_limit: int = DEFAULT_STATE_LIMIT,
) -> Certificate | None:
    """The first feasibility proof found, or None (tests abstained)."""
    for cert in sufficient_certificates(
        system, m, max_cycles=max_cycles, state_limit=state_limit
    ):
        if cert.proves_feasible:
            return cert
    return None
