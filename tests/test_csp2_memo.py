"""The dedicated CSP2 search's failed-state memo.

A depth that runs out of choices stores its state ``(t, *done)`` (plus
the tasks already running in the slot on a non-identical platform), and
the search refuses that state when it meets it again.  The memo only
prunes, so every verdict must agree with an exact solver that has no
memo, on every platform kind; and a capped memo must reach the verdict
of an uncapped one.
"""

import random

import pytest

from repro.generator import GeneratorConfig, generate_instance
from repro.model import Platform, TaskSystem
from repro.schedule.validate import validate
from repro.solvers import Feasibility, create_solver
from repro.solvers import csp2_dedicated
from repro.solvers.csp2_dedicated import Csp2DedicatedSolver

DEDICATED = ("csp2", "csp2+dc", "csp2+rm")
KINDS = ("identical", "uniform", "heterogeneous")
#: instances per platform kind
PER_KIND = 52
NODE_LIMIT = 20_000


def grid_instance(kind: str, k: int) -> tuple[TaskSystem, Platform]:
    """The ``k``-th seeded instance of one platform kind: n 3-6,
    Tmax 3-6, m 2-3, offsets drawn over the whole period (so some
    windows wrap past the hyperperiod)."""
    rng = random.Random(f"csp2-memo:{kind}:{k}")
    n, tmax, m = rng.randint(3, 6), rng.randint(3, 6), rng.randint(2, 3)
    system = generate_instance(
        GeneratorConfig(n=n, tmax=tmax, m=m), rng.randrange(2**31)
    ).system
    if kind == "identical":
        return system, Platform.identical(m)
    if kind == "uniform":
        return system, Platform.uniform(sorted(
            (rng.choice((1, 2)) for _ in range(m)), reverse=True
        ))
    rates = []
    for _ in range(n):
        row = [rng.choice((0, 1, 1, 2)) for _ in range(m)]
        if not any(row):
            row[rng.randrange(m)] = 1
        rates.append(row)
    return system, Platform.heterogeneous(rates)


def wraps(system: TaskSystem) -> bool:
    """Some task's last window runs past the hyperperiod."""
    T = system.hyperperiod
    return any(
        t.phase + (T // t.period - 1) * t.period + t.deadline > T for t in system
    )


def solve(name, system, platform):
    return create_solver(name, system, platform).solve(node_limit=NODE_LIMIT)


def test_scaled_three_task_system_decided_infeasible():
    # the time-scaling invariance example, scaled by 3: without the memo
    # the search re-enters the same failed states millions of times
    system = TaskSystem.from_tuples([(0, 3, 6, 6), (0, 3, 9, 9), (3, 3, 9, 12)])
    result = create_solver("csp2+dc", system, Platform.identical(1)).solve(
        node_limit=1_000
    )
    assert result.status is Feasibility.INFEASIBLE
    assert result.stats.extra["memo_hits"] > 0


@pytest.mark.parametrize("kind", KINDS)
def test_memo_never_contradicts_an_exact_oracle(kind):
    oracles = ("csp2-generic", "sat") if kind == "identical" else ("csp2-generic",)
    decided = hits = wrapped = 0
    for k in range(PER_KIND):
        system, platform = grid_instance(kind, k)
        wrapped += wraps(system)
        verdicts = set()
        for name in DEDICATED + oracles:
            result = solve(name, system, platform)
            if result.status is Feasibility.UNKNOWN:
                continue
            verdicts.add(result.status)
            if result.status is Feasibility.FEASIBLE:
                assert validate(result.schedule).ok, (kind, k, name)
            if name in DEDICATED:
                decided += 1
                hits += result.stats.extra["memo_hits"] > 0
        assert len(verdicts) <= 1, (kind, k, verdicts)
    # the grid exercises what it is for
    assert wrapped >= 10
    assert decided >= 2 * PER_KIND
    assert hits >= 5


def test_capped_memo_stops_at_the_cap_with_the_same_verdict(monkeypatch):
    system = TaskSystem.from_tuples([(0, 3, 6, 6), (0, 3, 9, 9), (3, 3, 9, 12)])
    platform = Platform.identical(1)
    key_cells = 2 * system.n + 1

    def run():
        solver = Csp2DedicatedSolver(system, platform, heuristic="dc")
        return solver.solve(node_limit=200_000)

    free = run()
    assert free.stats.extra["memo_states"] > 80
    # room for 80 keys and part of one more: the memo holds 80
    monkeypatch.setattr(csp2_dedicated, "MEMO_CELLS", 81 * key_cells - 1)
    capped = run()
    assert capped.stats.extra["memo_states"] == 80
    assert capped.status is free.status is Feasibility.INFEASIBLE
    assert capped.stats.nodes > free.stats.nodes
