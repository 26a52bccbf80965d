"""Model-level invariance properties of MGRTS feasibility.

These are theorems about the *problem*, used as end-to-end oracles for the
solver stack: a bug anywhere (intervals, encodings, search, decode) will
almost surely break one of them.

1. **Task permutation**: feasibility does not depend on task order.
2. **Offset shift**: shifting every offset by the same constant preserves
   feasibility (the schedule shifts along).
3. **Offset modulo period**: only ``O_i mod T_i`` matters for the cyclic
   pattern.
4. **Time scaling**: multiplying all of O, C, D, T by a constant k
   preserves feasibility (each slot stretches into k).
5. **Processor monotonicity**: adding processors never breaks feasibility.
6. **WCET monotonicity**: decreasing a WCET never breaks feasibility.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.model import Platform, Task, TaskSystem
from repro.solvers import Feasibility, create_solver


def small_systems():
    def build(params):
        out = []
        for o, t, d, c in params:
            d = min(d, t)
            out.append(Task(o % t, min(c, d), d, t))
        return TaskSystem(out)

    return st.builds(
        build,
        st.lists(
            st.tuples(
                st.integers(0, 5),
                st.sampled_from([1, 2, 3, 4]),
                st.integers(1, 4),
                st.integers(0, 4),
            ),
            min_size=1,
            max_size=3,
        ),
    )


def feasible(system: TaskSystem, m: int) -> bool:
    r = create_solver("csp2+dc", system, Platform.identical(m)).solve(time_limit=20)
    assert r.status is not Feasibility.UNKNOWN
    return r.is_feasible


@settings(deadline=None, max_examples=30)
@given(small_systems(), st.integers(1, 2), st.randoms(use_true_random=False))
def test_task_permutation_invariance(system, m, rng):
    tasks = list(system.tasks)
    rng.shuffle(tasks)
    permuted = TaskSystem(tasks)
    assert feasible(system, m) == feasible(permuted, m)


@settings(deadline=None, max_examples=30)
@given(small_systems(), st.integers(1, 2), st.integers(1, 7))
def test_offset_shift_invariance(system, m, shift):
    shifted = TaskSystem(
        Task(t.offset + shift, t.wcet, t.deadline, t.period) for t in system
    )
    assert feasible(system, m) == feasible(shifted, m)


@settings(deadline=None, max_examples=30)
@given(small_systems(), st.integers(1, 2), st.integers(1, 3))
def test_offset_mod_period_invariance(system, m, k):
    reduced = TaskSystem(
        Task(t.offset % t.period, t.wcet, t.deadline, t.period) for t in system
    )
    bloated = TaskSystem(
        Task(t.offset % t.period + k * t.period, t.wcet, t.deadline, t.period)
        for t in system
    )
    assert feasible(reduced, m) == feasible(bloated, m)


@settings(deadline=None, max_examples=20)
@given(small_systems(), st.integers(1, 2), st.sampled_from([2, 3]))
# scaled, [(0,3,6,6), (0,3,9,9), (3,3,9,12)]: csp2+dc decides it only
# because the search refuses states it already saw fail
@example(
    system=TaskSystem([Task(0, 1, 2, 2), Task(0, 1, 3, 3), Task(1, 1, 3, 4)]),
    m=1,
    k=3,
)
def test_time_scaling_invariance(system, m, k):
    scaled = TaskSystem(
        Task(t.offset * k, t.wcet * k, t.deadline * k, t.period * k) for t in system
    )
    assert feasible(system, m) == feasible(scaled, m)


@settings(deadline=None, max_examples=25)
@given(small_systems(), st.integers(1, 2))
def test_processor_monotonicity(system, m):
    if feasible(system, m):
        assert feasible(system, m + 1)


@settings(deadline=None, max_examples=25)
@given(small_systems(), st.integers(1, 2), st.data())
def test_wcet_monotonicity(system, m, data):
    if not feasible(system, m):
        return
    i = data.draw(st.integers(0, system.n - 1))
    t = system[i]
    if t.wcet == 0:
        return
    new_c = data.draw(st.integers(0, t.wcet - 1))
    reduced = TaskSystem(
        Task(x.offset, new_c if j == i else x.wcet, x.deadline, x.period)
        for j, x in enumerate(system)
    )
    assert feasible(reduced, m), (system.tasks, i, new_c)
