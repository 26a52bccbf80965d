"""Tests for the partitioned-scheduling baseline."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    exact_partition,
    first_fit_partition,
    uniprocessor_edf_feasible,
)
from repro.model import Platform, Task, TaskSystem
from repro.solvers import Feasibility, create_solver

from tests.helpers import running_example


class TestUniprocessorTest:
    def test_feasible_single(self):
        assert uniprocessor_edf_feasible([Task(0, 1, 2, 2)])

    def test_overload_infeasible(self):
        assert not uniprocessor_edf_feasible([Task(0, 2, 2, 2), Task(0, 1, 2, 2)])

    def test_empty_bin_feasible(self):
        assert uniprocessor_edf_feasible([])

    def test_edf_optimality_on_one_processor(self):
        # EDF == exact feasibility on m=1: cross-check against the CSP
        for tuples in [
            [(0, 1, 2, 2), (0, 1, 4, 4)],
            [(0, 2, 2, 4), (1, 1, 2, 2)],
            [(0, 1, 1, 2), (1, 1, 1, 2)],
        ]:
            s = TaskSystem.from_tuples(tuples)
            csp = create_solver("csp2+dc", s, Platform.identical(1)).solve(time_limit=20)
            assert uniprocessor_edf_feasible(list(s.tasks)) == csp.is_feasible, tuples


class TestFirstFit:
    def test_easy_fit_packs_first_bin(self):
        # both 0.5-utilization tasks fit together on one processor, and
        # first-fit packs them there rather than spreading
        s = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 2, 2)])
        res = first_fit_partition(s, 2)
        assert res.found
        assert res.assignment == [0, 0]

    def test_spreads_when_needed(self):
        # two saturating tasks cannot share a processor
        s = TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)])
        res = first_fit_partition(s, 2)
        assert res.found
        assert sorted(res.assignment) == [0, 1]

    def test_single_bin(self):
        s = TaskSystem.from_tuples([(0, 1, 4, 4), (0, 1, 4, 4)])
        res = first_fit_partition(s, 1)
        assert res.found
        assert res.assignment == [0, 0]

    def test_heuristic_failure_not_a_proof(self):
        s = TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2)])
        res = first_fit_partition(s, 2)
        assert not res.found
        assert not res.exact

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            first_fit_partition(running_example(), 0)


class TestExactPartition:
    def test_finds_partition(self):
        s = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 2, 2), (0, 1, 4, 4)])
        res = exact_partition(s, 2)
        assert res.found and res.exact
        # verify the witness bin by bin
        bins = {}
        for i, j in enumerate(res.assignment):
            bins.setdefault(j, []).append(s[i])
        assert all(uniprocessor_edf_feasible(b) for b in bins.values())

    def test_refutes_exhaustively(self):
        s = TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2), (0, 2, 2, 2)])
        res = exact_partition(s, 2)
        assert not res.found
        assert res.exact  # a proof: no partition exists

    def test_running_example_has_no_partition_on_two(self):
        """The paper's Example 1 is globally feasible but NOT partitionable:
        global migration is essential — the key global-vs-partitioned gap."""
        res = exact_partition(running_example(), 2)
        assert not res.found and res.exact
        # while the global CSP schedules it
        glob = create_solver("csp2+dc", running_example(), Platform.identical(2)).solve(
            time_limit=20
        )
        assert glob.is_feasible

    def test_time_limit(self):
        s = TaskSystem.from_tuples([(0, 1, 6, 6)] * 6)
        res = exact_partition(s, 3, time_limit=0.0)
        assert not res.exact

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            exact_partition(running_example(), 0)


@settings(deadline=None, max_examples=20)
@given(st.data())
def test_partitioned_implies_global_feasible(data):
    """Soundness: any partition found certifies global feasibility."""
    n = data.draw(st.integers(1, 4))
    tasks = []
    for _ in range(n):
        t = data.draw(st.sampled_from([1, 2, 4]))
        d = data.draw(st.integers(1, t))
        c = data.draw(st.integers(1, d))
        o = data.draw(st.integers(0, t - 1))
        tasks.append(Task(o, c, d, t))
    system = TaskSystem(tasks)
    m = data.draw(st.integers(1, 3))
    res = exact_partition(system, m)
    if res.found:
        glob = create_solver("csp2+dc", system, Platform.identical(m)).solve(
            time_limit=20
        )
        assert glob.is_feasible


@settings(deadline=None, max_examples=15)
@given(st.data())
def test_first_fit_never_beats_exact(data):
    n = data.draw(st.integers(1, 4))
    tasks = []
    for _ in range(n):
        t = data.draw(st.sampled_from([2, 4]))
        d = data.draw(st.integers(1, t))
        c = data.draw(st.integers(1, d))
        tasks.append(Task(0, c, d, t))
    system = TaskSystem(tasks)
    m = data.draw(st.integers(1, 2))
    ff = first_fit_partition(system, m)
    ex = exact_partition(system, m)
    if ff.found:
        assert ex.found  # exact search finds at least what the heuristic does


def _simulation_only(tasks, max_cycles=64):
    """The bin test without its density/utilization shortcuts."""
    from repro.baselines.priorities import global_edf

    if not tasks:
        return True
    sim = global_edf(TaskSystem(tasks), 1, max_cycles=max_cycles)
    if sim.schedulable is None:
        raise RuntimeError("uniprocessor simulation did not converge")
    return bool(sim.schedulable)


def _grid(seed):
    """Seeded constrained systems with offsets, over- and under-loaded."""
    import random

    rng = random.Random(seed)
    for _ in range(60):
        tasks = []
        for _ in range(rng.randint(1, 6)):
            t = rng.choice([2, 3, 4, 5, 6, 8])
            d = rng.randint(1, t)
            tasks.append(Task(rng.randrange(t), rng.randint(0, d), d, t))
        yield TaskSystem(tasks), rng.randint(1, 3)


@pytest.mark.parametrize("seed", [0, 1])
def test_bounds_agree_with_simulation(seed, monkeypatch):
    """Every bin answer, partition and certificate equals the
    simulation-only answer; the grid reaches all three deciders."""
    from repro.analysis import partitioned_certificate
    from repro.baselines import partitioned

    cases = list(_grid(seed))
    bins = [list(system.tasks[: k + 1]) for system, _ in cases for k in range(system.n)]
    assert [uniprocessor_edf_feasible(b) for b in bins] == [_simulation_only(b) for b in bins]

    def answers():
        rows, work = [], []
        for system, m in cases:
            cert = partitioned_certificate(system, m).to_dict()
            work.append(cert["witness"].pop("sim_work", 0))
            cert["witness"].pop("bins_simulated", None)
            rows.append((
                first_fit_partition(system, m).assignment,
                exact_partition(system, m).assignment,
                cert,
            ))
        return rows, work

    fast, fast_work = answers()
    # the simulation-only seam: no bin is decided by its bounds
    monkeypatch.setattr(partitioned, "_bound_verdict", lambda *sums: None)
    slow, slow_work = answers()
    assert fast == slow
    # the bounds only ever save simulation work
    assert all(f <= w for f, w in zip(fast_work, slow_work))
    assert sum(fast_work) < sum(slow_work)

    def density(b):
        return sum(t.density for t in b)

    def utilization(b):
        return sum(t.utilization for t in b)

    assert any(density(b) <= 1 for b in bins)
    assert any(utilization(b) > 1 for b in bins)
    assert any(density(b) > 1 >= utilization(b) for b in bins)


def _open_bins():
    """Three tasks whose shared bin the bounds leave open from the second
    task on (density above 1, utilization at most 1): first-fit simulates
    8 slot-tasks for ``{0, 1}`` and then 24 for ``{0, 1, 2}``."""
    return TaskSystem.from_tuples([(0, 1, 1, 2), (0, 1, 2, 4), (0, 1, 4, 8)])


class TestSimulationBudget:
    def test_unbudgeted_packing_charges_each_simulated_bin(self):
        res = first_fit_partition(_open_bins(), 1)
        assert res.assignment == [0, 0, 0]
        assert (res.sim_work, res.bins_simulated, res.bins_refused) == (32, 2, 0)

    @pytest.fixture
    def no_simulation(self, monkeypatch):
        from repro.baselines import partitioned

        def boom(*args, **kwargs):
            raise AssertionError("a refused bin must not be simulated")

        monkeypatch.setattr(partitioned, "global_edf", boom)

    def test_bin_past_the_budget_is_refused_unsimulated(self, no_simulation):
        res = first_fit_partition(_open_bins(), 1, budget=7)
        assert not res.found and not res.exact
        assert (res.sim_work, res.bins_simulated, res.bins_refused) == (0, 0, 1)

    def test_refused_bin_moves_first_fit_on(self, no_simulation):
        # neither the second task (8 slot-tasks) nor the third (16) can
        # afford a simulation of bin 0, so each moves on to bin 1, where
        # the density bound fits them without one
        res = first_fit_partition(_open_bins(), 2, budget=7)
        assert res.assignment == [0, 1, 1]
        assert (res.sim_work, res.bins_simulated, res.bins_refused) == (0, 0, 2)

    def test_budget_is_charged_cumulatively(self):
        # 8 slot-tasks fit, the next bin's 24 do not fit in the 23 left
        res = first_fit_partition(_open_bins(), 1, budget=31)
        assert not res.found
        assert (res.sim_work, res.bins_simulated, res.bins_refused) == (8, 1, 1)
        assert first_fit_partition(_open_bins(), 1, budget=32).found

    def test_certificate_reports_simulated_work(self):
        from repro.analysis import partitioned_certificate

        cert = partitioned_certificate(_open_bins(), 1)
        assert cert.proves_feasible
        assert cert.witness == {"assignment": [0, 0, 0], "bins_tried": 3,
                                "sim_work": 32, "bins_simulated": 2}

    def test_budget_abstention_counts_simulated_bins(self):
        from repro.analysis import partitioned_certificate

        cert = partitioned_certificate(_open_bins(), 1, state_limit=31)
        assert not cert.decided
        assert cert.detail == (
            "past the simulation budget after 1 simulated bin(s) "
            "(8 slot-tasks)"
        )
        # a packing that fails on its bounds alone is no budget story
        hopeless = TaskSystem.from_tuples([(0, 2, 2, 2)] * 3)
        assert partitioned_certificate(hopeless, 2, state_limit=1).detail == (
            "first-fit found no partition"
        )
