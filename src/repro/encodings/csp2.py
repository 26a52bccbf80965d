"""CSP encoding #2 (paper Section V): n-ary variables.

One variable ``x_j(t)`` per (processor, slot) whose value is the task
running there.  The paper's "no task" value is ``-1``; this encoding uses
``n`` (one past the last task index) instead so that the idle value ranks
*above* every task — then the symmetry rule (10) "tasks ascending, idles
last" is the plain :class:`NonDecreasing` chain.  The decoder maps it back.

Constraints:

* (7)  realized structurally: the domain of ``x_j(t)`` only contains tasks
  whose availability windows cover ``t`` (and, heterogeneous case, with
  ``s_{i,j} > 0`` — Section VI-A's domain change);
* (8)  per slot: all-different-except-idle across processors;
* (9)/(12)  per (task, window): exactly ``C_i`` slot-units with value
  ``i``, weighted by ``s_{i,j}`` (every rate is 1 on identical platforms,
  where (12) is (9)).

Search-strategy ingredients (Section V-C) are expressed on top of the
generic engine:

* chronological variable order = variable *creation* order (slot-major,
  processors within a slot ordered least-capable-first on heterogeneous
  platforms) + the ``input`` variable heuristic;
* task value orderings RM/DM/(T-C)/(D-C) via custom value orders (the
  idle value always ranks last, a weak form of the paper's idle rule —
  the *strict* rule is a dedicated-solver pruning, see
  :mod:`repro.solvers.csp2_dedicated`);
* symmetry breaking (10)/(13): NonDecreasing chains per slot over maximal
  groups of identical processors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.csp.core import Model, Variable
from repro.csp.propagators import (
    AllDifferentExceptValue,
    NonDecreasing,
    WeightedCountEq,
)
from repro.model import intervals
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.schedule.schedule import IDLE, Schedule

__all__ = ["Csp2Encoding", "encode_csp2"]


@dataclass
class Csp2Encoding:
    """The CSP2 model plus decode bookkeeping."""

    system: TaskSystem
    platform: Platform
    model: Model
    #: (processor, slot) -> variable
    vars: dict[tuple[int, int], Variable] = field(repr=False)
    #: the value encoding "no task" (== system.n)
    idle_value: int = 0

    @property
    def n_variables(self) -> int:
        return self.model.n_variables

    def decode(self, solution: dict[Variable, int]) -> Schedule:
        """Theorem 1 through the CSP1<->CSP2 bijection of Theorem 2."""
        T = self.system.hyperperiod
        table = np.full((self.platform.m, T), IDLE, dtype=np.int32)
        for (j, t), var in self.vars.items():
            val = solution[var]
            if val != self.idle_value:
                table[j, t] = val
        return Schedule(self.system, self.platform, table)


def _processor_creation_order(system: TaskSystem, platform: Platform) -> list[int]:
    """Within-slot processor order: least capable first (Section VI-A),
    keeping identical-rate groups adjacent so the symmetry chains (13)
    apply to consecutive variables; ties broken by id."""
    if platform.is_identical:
        return list(range(platform.m))
    quality = platform.quality(system)
    mat = platform.rate_matrix(system.n)
    return sorted(
        range(platform.m), key=lambda j: (quality[j], mat[:, j].tobytes(), j)
    )


def encode_csp2(
    system: TaskSystem,
    platform: Platform,
    symmetry_breaking: bool = True,
) -> Csp2Encoding:
    """Build the CSP2 :class:`Model` for a constrained-deadline system."""
    if not system.is_constrained:
        raise ValueError(
            "CSP2 requires a constrained-deadline system; apply "
            "clone_for_arbitrary_deadlines() first (paper Section VI-B)"
        )
    T = system.hyperperiod
    m = platform.m
    n = system.n
    idle = n
    rates = platform.rate_matrix(n).tolist()

    # tasks available per slot (condition (7) folded into the domains)
    active_at: list[list[int]] = [[] for _ in range(T)]
    for i in range(n):
        for t in system.task_slots(i):
            active_at[t].append(i)

    proc_order = _processor_creation_order(system, platform)

    model = Model()
    int_var_from = model.int_var_from
    vars: dict[tuple[int, int], Variable] = {}
    # chronological creation: slot-major, then processors (Section V-C-1)
    slot_vars: list[list[Variable]] = []
    for t in range(T):
        row = []
        for j in proc_order:
            domain = [i for i in active_at[t] if rates[i][j] > 0]
            domain.append(idle)
            v = vars[(j, t)] = int_var_from(domain, f"x[{j},{t}]")
            row.append(v)
        slot_vars.append(row)

    add = model.add
    # (8): processors differ unless idle
    if m > 1:
        for row in slot_vars:
            add(AllDifferentExceptValue(row, idle))

    # (9)/(12): exactly C_i units per window (all rates are 1 on identical
    # platforms, where (12) is (9))
    for i in range(n):
        task = system[i]
        C = task.wcet
        procs = [j for j in range(m) if rates[i][j] > 0]
        coefs = [rates[i][j] for j in procs]
        for job in range(system.n_jobs(i)):
            slots = intervals.window_slots(task, T, job)
            wvars = [vars[(j, t)] for t in slots for j in procs]
            add(WeightedCountEq(wvars, coefs * len(slots), i, C))

    # (10)/(13): symmetry chains over identical processor groups
    if symmetry_breaking and m > 1:
        chains = [
            [j for j in proc_order if j in group]
            for group in platform.identical_groups(n)
            if len(group) > 1
        ]
        for t in range(T):
            for ordered in chains:
                add(NonDecreasing([vars[(j, t)] for j in ordered]))

    return Csp2Encoding(
        system=system, platform=platform, model=model, vars=vars, idle_value=idle
    )
