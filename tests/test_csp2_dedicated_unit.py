"""White-box unit tests for the dedicated CSP2 solver's internals."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.generator import GeneratorConfig, generate_instance
from repro.model import Platform, Task, TaskSystem, intervals, slots_after
from repro.schedule.schedule import IDLE
from repro.schedule.validate import validate
from repro.solvers.csp2_dedicated import Csp2DedicatedSolver

from tests.helpers import running_example


def make_solver(system, m=2, **kw):
    return Csp2DedicatedSolver(system, Platform.identical(m), **kw)


def slot_at(solver, t):
    """``(r, target, slots left)`` of the windows open at slot ``t``."""
    return solver._windows(t)


def no_units(solver):
    """A ``done`` vector before anything has run."""
    return [0] * (2 * solver.system.n)


def window_of(system, i, job):
    """``(r, target)`` of task ``i``'s window ``job``: its ``done`` cell
    (``n + i`` for the window wrapping past the hyperperiod) and the
    cell's count once the window is complete."""
    task = system[i]
    if task.phase + job * task.period + task.deadline > system.hyperperiod:
        return system.n + i, task.wcet
    return i, (job + 1) * task.wcet


def scan(solver, t, done=None):
    """``(required, optional)`` at slot ``t`` (None = dead end), by the
    rule the identical dive applies to each window it scans."""
    done = no_units(solver) if done is None else done
    required, optional = [], []
    for r, target, left in slot_at(solver, t):
        rem = target - done[r]
        if not rem:
            continue
        if rem < left or not (solver.demand_pruning or left == 1):
            optional.append(r)
        elif rem == left:
            required.append(r)
        else:
            return None
    return required, optional


def selections(solver, required, optional):
    """Every selection ``_selections`` yields, in order; a symmetric
    selection (a task set) in the ascending order the schedule uses."""
    found = list(solver._selections(required, optional))
    if solver.symmetry_breaking:
        found = [tuple(sorted(c)) for c in found]
    return found


task_rows = st.lists(
    st.tuples(
        st.sampled_from([1, 2, 3, 4, 6]),  # period
        st.integers(0, 11),                # offset (phase = offset mod P)
        st.integers(1, 6),                 # deadline, clipped to the period
        st.integers(1, 6),                 # wcet, clipped to the deadline
    ),
    min_size=1,
    max_size=3,
)


class TestWindowHelpers:
    @given(task_rows)
    @example([(4, 2, 3, 2)])                # wrapped: tail slot 0, head 2-3
    @example([(3, 1, 3, 1), (2, 0, 1, 1)])  # D == P, non-zero phase, wraps
    @example([(6, 5, 6, 3), (4, 0, 2, 1)])  # D == P wrapping over T = 12
    def test_slot_windows_match_intervals_module(self, rows):
        """At every slot, the arithmetic windows name each active job and
        its slots left exactly as :mod:`repro.model.intervals` does,
        wrapped windows (phase + D > P), ``D == P`` and phases included."""
        system = TaskSystem([
            Task(o, min(c, d, p), min(d, p), p) for p, o, d, c in rows
        ])
        solver = make_solver(system, m=1)
        T = solver._T
        for t in range(T):
            windows = slot_at(solver, t)
            tasks = [r % system.n for r, _, _ in windows]
            assert tasks == sorted(set(tasks))  # one window per task, in order
            by_task = dict(zip(tasks, windows))
            for i, task in enumerate(system):
                job = intervals.active_job(task, T, t)
                if job is None:
                    assert i not in by_task
                    continue
                r, target, left = by_task[i]
                assert (r, target) == window_of(system, i, job)
                # slots left include slot t; slots_after excludes it
                assert left == slots_after(task, T, job, t - 1)

    def test_slot_windows_match_system(self):
        system = running_example()
        solver = make_solver(system)
        for t in range(system.hyperperiod):
            active = {r % system.n: (r, target) for r, target, _ in slot_at(solver, t)}
            for i in range(system.n):
                job = system.active_job(i, t)
                assert (i in active) == (job is not None)
                if job is not None:
                    assert active[i] == window_of(system, i, job)


class TestSlotCandidates:
    def test_required_vs_optional(self):
        # tau3 = (0,2,2,3): C == D -> required at every window slot
        system = running_example()
        solver = make_solver(system)
        required, optional = scan(solver, 0)
        assert required == [2]          # tau3 must run at slot 0
        assert 0 in optional            # tau1 has slack 1
        # tau2's *wrapped* third window [9..12] covers slot 0 (Figure 1),
        # so tau2 is also a (slack-3) candidate there, as r = n + 1
        assert system.n + 1 in optional

    def test_unreleased_task_not_candidate(self):
        # give tau2 no wrap: O=1, D=3 < T=4 -> windows [1..3],[5..7],[9..11]
        system = TaskSystem.from_tuples([(0, 1, 2, 2), (1, 3, 3, 4)])
        solver = make_solver(system)
        required, optional = scan(solver, 0)
        assert 1 not in required and 1 not in optional
        # required: tau2 has C == D, so inside its window it is forced
        required1, _ = scan(solver, 1)
        assert 1 in required1

    def test_dead_end_detected(self):
        # demand 2 left with 1 slot left -> None
        system = TaskSystem.from_tuples([(0, 2, 2, 2)])
        solver = make_solver(system, m=1)
        # at slot 1 with untouched demand (2 units, 1 slot left)
        assert scan(solver, 1) is None

    def test_completed_tasks_skipped(self):
        system = running_example()
        solver = make_solver(system)
        done = no_units(solver)
        done[2] = 2  # tau3's first window (C = 2) already complete
        required, optional = scan(solver, 0, done)
        assert 2 not in required and 2 not in optional

    def test_without_demand_pruning_only_window_end(self):
        system = TaskSystem.from_tuples([(0, 2, 3, 3)])
        solver = make_solver(system, m=1, demand_pruning=False)
        # slot 0: 3 slots left, C=2: without pruning it's optional
        required, optional = scan(solver, 0)
        assert required == [] and optional == [0]
        # slot 2 (last window slot), demand still 2 -> dead end even here
        assert scan(solver, 2) is None


class TestSlotChoices:
    def test_idle_rule_fixes_size(self):
        system = running_example()
        solver = make_solver(system, m=2)
        choices = selections(solver, [2], [0])
        # k = min(2, 2 candidates) = 2: single maximal set {0, 2}
        assert choices == [(0, 2)]

    def test_without_idle_rule_smaller_sets_enumerated(self):
        system = running_example()
        solver = make_solver(system, m=2, idle_rule=False)
        choices = selections(solver, [2], [0])
        # sizes 1..0 of optionals, required always kept
        assert (0, 2) in choices and (2,) in choices
        assert choices.index((0, 2)) < choices.index((2,))  # busier first

    def test_without_symmetry_permutations(self):
        system = running_example()
        solver = make_solver(system, m=2, symmetry_breaking=False)
        choices = selections(solver, [2], [0])
        assert (0, 2) in choices and (2, 0) in choices

    def test_too_many_required_is_dead(self):
        # both tasks are required at slot 0 and one processor is free: the
        # dive offers the root no selection, and its state is the one
        # failed state
        tuples = [(0, 1, 1, 2), (0, 1, 1, 2)]
        solver = make_solver(TaskSystem.from_tuples(tuples), m=1)
        assert scan(solver, 0) == ([0, 1], [])
        assert counters(solver.solve(node_limit=5_000)) == (
            "infeasible", 0, 0, 0, 0, 1
        )

    def test_heuristic_orders_optionals(self):
        # dc ranks tau3 (laxity 0) before tau1 (laxity 1) before tau2
        system = running_example()
        solver = make_solver(system, m=1, heuristic="dc")
        choices = selections(solver, [], [0, 1, 2])
        assert choices[0] == (2,)  # tau3 tried first


class TestEndToEndFlags:
    @pytest.mark.parametrize("heuristic", [None, "rm", "dm", "tc", "dc"])
    def test_solver_name(self, heuristic):
        s = make_solver(running_example(), heuristic=heuristic)
        expected = "csp2" if heuristic is None else f"csp2+{heuristic}"
        assert s.name == expected

    def test_rejects_arbitrary(self):
        with pytest.raises(ValueError, match="clone"):
            make_solver(TaskSystem.from_tuples([(0, 1, 5, 3)]))

    def test_node_limit_unknown(self):
        # force many nodes: infeasible-ish instance with tiny limit
        s = TaskSystem.from_tuples([(0, 1, 2, 2)] * 5)
        solver = make_solver(s, m=2)
        r = solver.solve(node_limit=1)
        assert r.status.value in ("unknown", "infeasible")

    def test_cd_precheck_instant(self):
        s = TaskSystem.from_tuples([(0, 3, 2, 4)])
        r = make_solver(s, m=3).solve(time_limit=10)
        assert r.status.value == "infeasible"
        assert r.stats.nodes == 0

    def test_het_cd_precheck_uses_rates(self):
        # C=3 at rate 2: passes the C <= D*rate pre-check (3 <= 4), so the
        # search actually runs — and then *proves* infeasibility, because
        # rate-2 slots can only accumulate 2 or 4 units, never exactly 3
        # (the paper's equality constraint (12))
        s = TaskSystem.from_tuples([(0, 3, 2, 4)])
        p = Platform.heterogeneous([[2]])
        r = Csp2DedicatedSolver(s, p).solve(time_limit=10)
        assert r.status.value == "infeasible"
        assert r.stats.nodes > 0  # not the pre-check: real search ran

    def test_het_exact_hit_feasible(self):
        # C=4 at rate 2 in a D=2 window: exactly reachable
        s = TaskSystem.from_tuples([(0, 4, 2, 4)])
        p = Platform.heterogeneous([[2]])
        r = Csp2DedicatedSolver(s, p).solve(time_limit=10)
        assert r.status.value == "feasible"


class TestGeneralModeInternals:
    def test_proc_order_least_capable_first(self):
        s = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 2, 2)])
        p = Platform.heterogeneous([[2, 1], [2, 1]])
        solver = Csp2DedicatedSolver(s, p)
        assert solver._proc_order == [1, 0]

    def test_same_as_prev_grouping(self):
        s = TaskSystem.from_tuples([(0, 1, 2, 2)])
        p = Platform.heterogeneous([[1, 1, 2]])
        solver = Csp2DedicatedSolver(s, p)
        order = solver._proc_order
        # two identical columns must be adjacent with the flag set
        flags = [solver._same_as_prev[j] for j in order]
        assert flags.count(True) == 1

    def test_uniform_overshoot_excluded(self):
        # rate 2 > remaining 1: candidate excluded (exactness)
        s = TaskSystem.from_tuples([(0, 1, 2, 2)])
        p = Platform.uniform([2, 1])
        solver = Csp2DedicatedSolver(s, p)
        windows = slot_at(solver, 0)
        cands = solver._proc_candidates(windows, 0, no_units(solver), (), None)
        assert 0 not in cands[:-1]  # only idle available on the fast proc
        cands_slow = solver._proc_candidates(windows, 1, no_units(solver), (), None)
        assert 0 in cands_slow


def test_slot_requiring_more_tasks_than_processors_counts_a_fail():
    # rm runs tau2 at slot 0 first; that dive reaches slot 3 with tau1's
    # wrapped window and tau2's second job both required on the one
    # processor: a dead end, and the one fail of the search.  The dive's
    # slots 2 and 1 are then exhausted (memo states, not fails)
    _, result = edge_solve([(2, 2, 3, 4), (0, 1, 2, 2)], 1, "identical", heuristic="rm")
    assert counters(result) == ("feasible", 7, 1, 4, 0, 3)


def edge_platform(kind, n, m):
    """``m`` unit processors: identical, or an all-ones rate matrix,
    which takes the per-processor (general) search."""
    if kind == "identical":
        return Platform.identical(m)
    return Platform.heterogeneous([[1] * m for _ in range(n)])


def edge_solve(tuples, m, kind, **kw):
    system = TaskSystem.from_tuples(tuples)
    solver = Csp2DedicatedSolver(system, edge_platform(kind, system.n, m), **kw)
    return solver, solver.solve(node_limit=5_000)


def counters(result):
    s = result.stats
    return (result.status.value, s.nodes, s.fails, s.max_depth,
            s.extra["memo_hits"], s.extra["memo_states"])


@pytest.mark.parametrize("kind", ["identical", "general"])
class TestFlatStacks:
    """Edge cases of the per-depth stacks and the failed-state memo:
    depth ``d`` is slot ``d`` on identical platforms and (slot
    ``d // m``, ``d % m``-th processor) otherwise."""

    def test_one_slot_hyperperiod(self, kind):
        # T == 1: the root is the last slot
        _, result = edge_solve([(0, 1, 1, 1), (0, 1, 1, 1)], 2, kind)
        depth = 1 if kind == "identical" else 2
        assert counters(result) == ("feasible", depth, 0, depth, 0, 0)
        assert sorted(result.schedule.table[:, 0]) == [0, 1]
        assert validate(result.schedule).ok

    def test_one_slot_hyperperiod_overloaded(self, kind):
        _, result = edge_solve([(0, 1, 1, 1)] * 3, 2, kind)
        if kind == "identical":
            # three required tasks, two processors: the root has no
            # choice, and its one state is the one failed state
            assert counters(result) == ("infeasible", 0, 0, 0, 0, 1)
        else:
            # the root slot's depths fail under every running pair
            assert counters(result) == ("infeasible", 11, 7, 2, 0, 5)

    def test_root_requires_more_tasks_than_processors(self, kind):
        _, result = edge_solve([(0, 2, 2, 4)] * 3, 2, kind)
        assert result.status.value == "infeasible"
        if kind == "identical":
            assert counters(result) == ("infeasible", 0, 0, 0, 0, 1)

    def test_every_wcet_zero(self, kind):
        _, result = edge_solve([(0, 0, 2, 2), (1, 0, 3, 3)], 2, kind)
        T = 6
        depth = T if kind == "identical" else 2 * T
        assert counters(result) == ("feasible", depth, 0, depth, 0, 0)
        assert (result.schedule.table == IDLE).all()

    @pytest.mark.parametrize("m", [2, 3])
    def test_at_least_as_many_processors_as_tasks(self, kind, m):
        _, result = edge_solve([(0, 1, 2, 2), (1, 2, 3, 3)], m, kind)
        assert result.status.value == "feasible"
        assert validate(result.schedule).ok
        if kind == "identical":
            # every slot runs all its live tasks: one choice, no backtrack
            assert counters(result) == ("feasible", 6, 0, 6, 0, 0)

    def test_wrapped_window_progress_survives_the_gap(self, kind):
        # tau1 = (2,2,3,4) wraps: its tail is slot 0 and its head slots
        # 2-3, so it has no fragment at slot 1.  rm runs tau2 at slot 0
        # first, and that state fails at slot 2; the state reached by
        # running tau1 at slot 0 differs from it only in tau1's wrapped
        # cell there, and is feasible
        tuples = [(2, 2, 3, 4), (0, 1, 2, 2)]
        gap = slot_at(make_solver(TaskSystem.from_tuples(tuples)), 1)
        assert [r for r, _, _ in gap] == [1]
        _, result = edge_solve(tuples, 1, kind, heuristic="rm")
        assert result.status.value == "feasible"
        assert result.stats.extra["memo_states"] == 3
        assert validate(result.schedule).ok

    @pytest.mark.parametrize(
        "spec", [None, (5, 4, 2, 23), (6, 6, 3, 7), (8, 8, "min", 1)]
    )
    def test_solving_twice_reuses_the_slot_table(self, kind, spec):
        """A solver answers a second solve exactly as the first: nothing
        kept from one solve, finished or cut by its budget, changes the
        next."""
        if spec is None:
            system, m = running_example(), 2
        else:
            n, tmax, m, seed = spec
            inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
            system, m = inst.system, inst.m
        platform = edge_platform(kind, system.n, m)
        solver = Csp2DedicatedSolver(system, platform, heuristic="dc")
        first = solver.solve(node_limit=5_000)
        second = solver.solve(node_limit=5_000)
        # the memo is per solve: the second one refuses no state early
        assert counters(second) == counters(first)
        if spec == (8, 8, "min", 1):
            assert first.stats.extra["memo_hits"] > 0
        if first.schedule is None:
            assert second.schedule is None
        else:
            assert np.array_equal(second.schedule.table, first.schedule.table)
        # a first solve cut by its budget changes nothing either
        cut = Csp2DedicatedSolver(system, platform, heuristic="dc")
        cut.solve(node_limit=1)
        assert counters(cut.solve(node_limit=5_000)) == counters(first)
