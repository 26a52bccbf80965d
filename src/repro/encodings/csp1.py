"""CSP encoding #1 (paper Section IV): boolean variables.

One binary variable ``x_{i,j}(t)`` per (task, processor, slot) meaning
"task ``i`` runs on ``P_j`` at slot ``t``", under:

* (2)  ``x_{i,j}(t) = 0`` outside availability windows — realized by *not
  creating* out-of-window variables at all (the paper notes constraint
  propagation would fix them before search; eliminating them up front is
  the same reduction, from ``sum_i m*T`` down to ``sum_i m*(T/T_i)*D_i``
  real variables);
* (3)  per (processor, slot): at most one task;
* (4)  per (task, slot): at most one processor;
* (5)/(11)  per (task, window): ``sum s_{i,j} x_{i,j}(t) = C_i``, which
  is (5) "exactly ``C_i`` units" on identical platforms (every rate 1),
  with ``s_{i,j} = 0`` pairs excluded from variable creation (their
  domain is ``{0}`` in the paper's Section VI-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.csp.core import Model, Variable
from repro.csp.propagators import AtMostOneTrue, WeightedExactSumBool
from repro.model import intervals
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.schedule.schedule import IDLE, Schedule

__all__ = ["Csp1Encoding", "encode_csp1"]


@dataclass
class Csp1Encoding:
    """The CSP1 model plus the bookkeeping needed to decode solutions."""

    system: TaskSystem
    platform: Platform
    model: Model
    #: (task, processor, slot) -> variable; only in-window, rate>0 triples
    vars: dict[tuple[int, int, int], Variable] = field(repr=False)

    @property
    def n_variables(self) -> int:
        return self.model.n_variables

    def decode(self, solution: dict[Variable, int]) -> Schedule:
        """Theorem 1: ``sigma_j(t) = i`` iff ``x_{i,j}(t) = 1``."""
        T = self.system.hyperperiod
        table = np.full((self.platform.m, T), IDLE, dtype=np.int32)
        for (i, j, t), var in self.vars.items():
            if solution[var] == 1:
                if table[j, t] != IDLE:
                    raise ValueError(
                        f"solution places tasks {int(table[j, t])} and {i} both "
                        f"on P{j + 1} at slot {t}"
                    )
                table[j, t] = i
        return Schedule(self.system, self.platform, table)


def encode_csp1(system: TaskSystem, platform: Platform) -> Csp1Encoding:
    """Build the CSP1 :class:`Model` for a constrained-deadline system.

    Arbitrary-deadline systems must be cloned first
    (:func:`repro.model.transform.clone_for_arbitrary_deadlines`).
    """
    if not system.is_constrained:
        raise ValueError(
            "CSP1 requires a constrained-deadline system; apply "
            "clone_for_arbitrary_deadlines() first (paper Section VI-B)"
        )
    T = system.hyperperiod
    m = platform.m
    n = system.n
    rates = platform.rate_matrix(n).tolist()

    model = Model()
    bool_var = model.bool_var
    vars: dict[tuple[int, int, int], Variable] = {}

    # variables: only (i, j, t) with t inside a window of i and s_ij > 0,
    # created task-major, then slot, then processor; the (i, t) groups
    # and the (j, t) groups (keyed j * T + t, in first-seen order) are
    # collected on the way
    per_proc_slot: dict[int, list[Variable]] = {}
    per_task_slot: list[list[Variable]] = []
    # (5)/(11) rows, posted last: (variables, coefficients, C_i)
    windows: list[tuple[list[Variable], list[int], int]] = []
    for i in range(n):
        task = system[i]
        eligible_procs = [j for j in range(m) if rates[i][j] > 0]
        at_slot: dict[int, list[Variable]] = {}
        for t in system.task_slots(i):
            group = []
            for j in eligible_procs:
                v = bool_var(f"x[{i},{j},{t}]")
                vars[(i, j, t)] = v
                group.append(v)
                per_proc_slot.setdefault(j * T + t, []).append(v)
            at_slot[t] = group
            per_task_slot.append(group)
        coefs = [rates[i][j] for j in eligible_procs]
        for job in range(system.n_jobs(i)):
            slots = intervals.window_slots(task, T, job)
            windows.append((
                [v for t in slots for v in at_slot[t]],
                coefs * len(slots),
                task.wcet,
            ))

    add = model.add
    # (3): at most one task per processor-slot
    for group in per_proc_slot.values():
        if len(group) > 1:
            add(AtMostOneTrue(group))
    # (4): at most one processor per task-slot
    for group in per_task_slot:
        if len(group) > 1:
            add(AtMostOneTrue(group))
    # (5)/(11): exactly C_i per availability window (all rates are 1 on
    # identical platforms, where (11) is (5))
    for wvars, wcoefs, C in windows:
        add(WeightedExactSumBool(wvars, wcoefs, C))

    return Csp1Encoding(system=system, platform=platform, model=model, vars=vars)
