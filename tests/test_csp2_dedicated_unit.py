"""White-box unit tests for the dedicated CSP2 solver's internals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import Platform, Task, TaskSystem, intervals, slots_after
from repro.solvers.csp2_dedicated import Csp2DedicatedSolver

from tests.helpers import running_example


def make_solver(system, m=2, **kw):
    return Csp2DedicatedSolver(system, Platform.identical(m), **kw)


def slot_at(solver, t):
    """The solver's slot ``t``, stepped from slot 0 by release events."""
    slot = solver._first_slot()
    while slot.t < t:
        slot = solver._next_slot(slot)
    return slot


class TestWindowHelpers:
    @given(
        st.integers(0, 8),
        st.sampled_from([1, 2, 3, 4, 6]),
        st.integers(1, 6),
        st.integers(1, 4),
    )
    def test_stepped_fragments_match_intervals_module(self, o, t, d, mult):
        """At every slot, the stepped fragments name each active job and
        its slots left exactly as the per-slot formulas do."""
        d = min(d, t)
        task = Task(o % t, min(1, d), d, t)
        other = Task(0, 1, 1, t * mult)  # stretches the hyperperiod
        system = TaskSystem([task, other])
        solver = make_solver(system, m=1)
        T = solver._T
        slot = solver._first_slot()
        for slot_t in range(T):
            assert slot.t == slot_t
            frags = {f[0]: f for f in slot.active}
            for i, tk in enumerate(system):
                job = intervals.active_job(tk, T, slot_t)
                if job is None:
                    assert i not in frags
                    continue
                _, key, _, end, later = frags[i]
                assert key == (i, job)
                # stepped slots left include slot_t; slots_after excludes it
                expected = slots_after(tk, T, job, slot_t - 1)
                assert end - slot_t + 1 + later == expected
            if slot_t + 1 < T:
                slot = solver._next_slot(slot)

    def test_stepped_keys_match_system(self):
        system = running_example()
        solver = make_solver(system)
        for t in range(system.hyperperiod):
            slot = slot_at(solver, t)
            active = {frag[0] for frag in slot.active}
            for i in range(system.n):
                job = system.active_job(i, t)
                assert (i in active) == (job is not None)
                if job is not None:
                    assert slot.keys[i] == (i, job)


class TestSlotCandidates:
    def test_required_vs_optional(self):
        # tau3 = (0,2,2,3): C == D -> required at every window slot
        system = running_example()
        solver = make_solver(system)
        required, optional = solver._slot_candidates(slot_at(solver, 0), {})
        assert required == [2]          # tau3 must run at slot 0
        assert 0 in optional            # tau1 has slack 1
        # tau2's *wrapped* third window [9..12] covers slot 0 (Figure 1),
        # so tau2 is also a (slack-3) candidate there
        assert 1 in optional

    def test_unreleased_task_not_candidate(self):
        # give tau2 no wrap: O=1, D=3 < T=4 -> windows [1..3],[5..7],[9..11]
        system = TaskSystem.from_tuples([(0, 1, 2, 2), (1, 3, 3, 4)])
        solver = make_solver(system)
        required, optional = solver._slot_candidates(slot_at(solver, 0), {})
        assert 1 not in required and 1 not in optional
        # required: tau2 has C == D, so inside its window it is forced
        required1, _ = solver._slot_candidates(slot_at(solver, 1), {})
        assert 1 in required1

    def test_dead_end_detected(self):
        # demand 2 left with 1 slot left -> None
        system = TaskSystem.from_tuples([(0, 2, 2, 2)])
        solver = make_solver(system, m=1)
        # at slot 1 with untouched demand (2 units, 1 slot left)
        assert solver._slot_candidates(slot_at(solver, 1), {}) is None

    def test_completed_tasks_skipped(self):
        system = running_example()
        solver = make_solver(system)
        dem = {(2, 0): 0}  # tau3's first window already complete
        required, optional = solver._slot_candidates(slot_at(solver, 0), dem)
        assert 2 not in required and 2 not in optional

    def test_without_demand_pruning_only_window_end(self):
        system = TaskSystem.from_tuples([(0, 2, 3, 3)])
        solver = make_solver(system, m=1, demand_pruning=False)
        # slot 0: 3 slots left, C=2: without pruning it's optional
        required, optional = solver._slot_candidates(slot_at(solver, 0), {})
        assert required == [] and optional == [0]
        # slot 2 (last window slot), demand still 2 -> dead end even here
        assert solver._slot_candidates(slot_at(solver, 2), {}) is None


class TestSlotChoices:
    def test_idle_rule_fixes_size(self):
        system = running_example()
        solver = make_solver(system, m=2)
        choices = list(solver._slot_choices([2], [0]))
        # k = min(2, 2 candidates) = 2: single maximal set {0, 2}
        assert choices == [(0, 2)]

    def test_without_idle_rule_smaller_sets_enumerated(self):
        system = running_example()
        solver = make_solver(system, m=2, idle_rule=False)
        choices = list(solver._slot_choices([2], [0]))
        # sizes 1..0 of optionals, required always kept
        assert (0, 2) in choices and (2,) in choices
        assert choices.index((0, 2)) < choices.index((2,))  # busier first

    def test_without_symmetry_permutations(self):
        system = running_example()
        solver = make_solver(system, m=2, symmetry_breaking=False)
        choices = list(solver._slot_choices([2], [0]))
        assert (0, 2) in choices and (2, 0) in choices

    def test_too_many_required_is_dead(self):
        system = running_example()
        solver = make_solver(system, m=1)
        assert list(solver._slot_choices([0, 2], [])) == []

    def test_heuristic_orders_optionals(self):
        # dc ranks tau3 (laxity 0) before tau1 (laxity 1) before tau2
        system = running_example()
        solver = make_solver(system, m=1, heuristic="dc")
        choices = list(solver._slot_choices([], [0, 1, 2]))
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
        j_fast = solver._proc_order.index(0)
        cands = solver._proc_candidates(slot_at(solver, 0), 0, {}, set(), None)
        assert 0 not in cands[:-1]  # only idle available on the fast proc
        cands_slow = solver._proc_candidates(slot_at(solver, 0), 1, {}, set(), None)
        assert 0 in cands_slow
