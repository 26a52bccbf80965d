"""Baseline schedulers exposed through the solver registry.

The simulation baselines answer a *weaker* question than the CSP solvers:
"does this fixed priority policy meet every deadline?"  A schedulable
verdict implies feasibility (the extracted cyclic schedule validates
against C1-C4), but a deadline miss only disproves that one policy — so
these plugins report FEASIBLE or UNKNOWN, never INFEASIBLE, and carry
neither the ``proves_infeasibility`` nor the ``exact`` capability.

Registered names::

    edf              global earliest-deadline-first simulation
    fp[+rm|+dm|+tc|+dc]  global fixed-priority simulation; the suffix picks
                     the priority order (task-index order when absent)

Because they finish in simulation time (bounded by ``max_cycles``
hyperperiods, not by search), they make cheap portfolio members:
``portfolio:edf,csp2+dc`` answers EDF-schedulable instances at
simulation speed and falls back to the exact solver for the rest.
"""

from __future__ import annotations

import time

from repro.baselines.priorities import (
    global_edf,
    global_fixed_priority,
    priority_order_from_heuristic,
)
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.solvers.base import Feasibility, SolveResult, SolverStats
from repro.solvers.ordering import HEURISTIC_ALIASES
from repro.solvers.registry import register_solver

__all__ = ["PrioritySimulationSolver"]


class PrioritySimulationSolver:
    """Adapter: a priority-policy simulation with the solver calling convention.

    Parameters
    ----------
    policy:
        ``"edf"`` or ``"fp"``.
    heuristic:
        Priority order for ``fp`` (``rm``/``dm``/``tc``/``dc``; ``None``
        is task-index order).  Ignored by ``edf``.
    max_cycles:
        Hyperperiods to simulate before giving up on convergence.
    """

    def __init__(
        self,
        system: TaskSystem,
        platform: Platform,
        policy: str = "edf",
        heuristic: str | None = None,
        max_cycles: int = 64,
    ) -> None:
        if not platform.is_identical:
            raise ValueError(
                "priority-simulation baselines support identical platforms only"
            )
        if policy not in ("edf", "fp"):
            raise ValueError(f"unknown policy {policy!r}; expected 'edf' or 'fp'")
        self.system = system
        self.platform = platform
        self.policy = policy
        self.heuristic = heuristic
        self.max_cycles = max_cycles
        if policy == "edf":
            self.name = "edf"
        else:
            self.name = f"fp{'+' + heuristic if heuristic else ''}"

    def solve(
        self, time_limit: float | None = None, node_limit: int | None = None
    ) -> SolveResult:
        """Simulate the policy; FEASIBLE on schedulable, else UNKNOWN.

        ``time_limit``/``node_limit`` are accepted for interface parity;
        the simulation's own bound is ``max_cycles`` hyperperiods.
        """
        t0 = time.monotonic()
        if self.policy == "edf":
            sim = global_edf(self.system, self.platform.m, max_cycles=self.max_cycles)
        else:
            order = priority_order_from_heuristic(self.system, self.heuristic)
            sim = global_fixed_priority(
                self.system, self.platform.m, order, max_cycles=self.max_cycles
            )
        elapsed = time.monotonic() - t0
        feasible = sim.schedulable is True and sim.schedule is not None
        stats = SolverStats(
            nodes=sim.cycles_simulated,
            elapsed=elapsed,
            extra={"policy": self.name, "verdict": sim.verdict},
        )
        return SolveResult(
            status=Feasibility.FEASIBLE if feasible else Feasibility.UNKNOWN,
            schedule=sim.schedule if feasible else None,
            stats=stats,
            solver_name=self.name,
        )


@register_solver(
    "edf",
    description=(
        "Exact simulation of global preemptive EDF with cycle detection; "
        "schedulable means feasible, a miss only rules out EDF"
    ),
    paper_section="I (the paradigm the CSPs are compared against)",
    pick_when=(
        "A cheap first answer or portfolio member; a miss is NOT an "
        "infeasibility proof"
    ),
    capabilities=(),
    suffixes={},
    options=("max_cycles",),
    platforms=("identical",),
)
def _build_edf(system, platform, spec, seed, **options):
    """Registry factory: ``edf`` (global EDF simulation)."""
    return PrioritySimulationSolver(system, platform, policy="edf", **options)


@register_solver(
    "fp",
    description=(
        "Exact simulation of global fixed-priority scheduling; the suffix "
        "picks the priority order (task-index order when absent)"
    ),
    paper_section="VIII (priority-assignment future work)",
    pick_when=(
        "Checking how a classic priority policy does on an instance; a "
        "miss is NOT an infeasibility proof"
    ),
    capabilities=(),
    suffixes={
        "rm": "Fixed priorities in rate-monotonic order (smallest T first)",
        "dm": "Fixed priorities in deadline-monotonic order (smallest D first)",
        "tc": "Fixed priorities in smallest T-C order",
        "dc": "Fixed priorities in smallest D-C order (the paper's seed "
        "criterion for priority search)",
    },
    options=("max_cycles",),
    platforms=("identical",),
    hidden_suffixes=HEURISTIC_ALIASES,
)
def _build_fp(system, platform, spec, seed, **options):
    """Registry factory: ``fp[+heuristic]`` (suffix = priority order)."""
    return PrioritySimulationSolver(
        system, platform, policy="fp", heuristic=spec.suffix, **options
    )
