"""The exact global-EDF oracle: state-space decision, witnesses, the
feasibility mapping, registry/composition wiring, and the seeded
agreement grid against every complete solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.edf_exact import (
    EDF_MISS,
    EDF_OVERRUN,
    EDF_SCHEDULABLE,
    EdfExactSolver,
    edf_exact_certificate,
    edf_exact_test,
)
from repro.baselines.priorities import global_edf
from repro.generator import GeneratorConfig, generate_instances
from repro.model import Platform, Task, TaskSystem
from repro.schedule import validate
from repro.solvers import (
    Feasibility,
    Problem,
    SolveReport,
    create_solver,
    solve,
    solve_problem,
    solver_info,
)

from tests.helpers import running_example


def tri_edf_anomaly() -> TaskSystem:
    """Three (C=2, D=3, T=3) tasks: feasible on m=2, yet global EDF misses
    (the classic multiprocessor EDF non-optimality example)."""
    return TaskSystem.from_tuples([(0, 2, 3, 3)] * 3)


class TestEdfExactTest:
    def test_single_task_cycles(self):
        out = edf_exact_test(TaskSystem.from_tuples([(0, 1, 2, 2)]), 1)
        assert out.verdict == EDF_SCHEDULABLE
        assert out.schedulable is True
        assert out.cycle_length >= 1
        assert validate(out.schedule).ok

    def test_uniprocessor_overload_misses(self):
        out = edf_exact_test(
            TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)]), 1
        )
        assert out.verdict == EDF_MISS
        assert out.schedulable is False
        assert out.schedule is None
        miss = out.miss
        assert miss["m"] == 1
        assert miss["remaining"] >= 1
        assert miss["time"] >= miss["release"]
        assert len(miss["configuration"]) == 2

    def test_running_example_misses_under_edf(self):
        """The paper's running example is feasible on m=2 (the CSP finds a
        schedule) but deterministic global EDF misses on it."""
        out = edf_exact_test(running_example(), 2)
        assert out.verdict == EDF_MISS

    def test_edf_anomaly_instance_misses(self):
        out = edf_exact_test(tri_edf_anomaly(), 2)
        assert out.verdict == EDF_MISS

    def test_offset_delays_cycle_start(self):
        s = TaskSystem.from_tuples([(5, 1, 2, 2), (0, 1, 3, 3)])
        out = edf_exact_test(s, 1)
        assert out.verdict == EDF_SCHEDULABLE
        # the first release pattern repeats only after the largest offset
        assert out.cycle_start >= 1
        assert validate(out.schedule).ok

    def test_zero_wcet_tasks(self):
        out = edf_exact_test(
            TaskSystem.from_tuples([(0, 0, 1, 1), (0, 1, 2, 2)]), 1
        )
        assert out.verdict == EDF_SCHEDULABLE
        assert 0 not in out.schedule.table  # a 0-wcet task never runs

    def test_rejects_arbitrary_deadlines(self):
        with pytest.raises(ValueError, match="constrained"):
            edf_exact_test(TaskSystem.from_tuples([(0, 1, 5, 3)]), 1)

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError, match="m must be"):
            edf_exact_test(running_example(), 0)

    def test_node_budget_overrun(self):
        out = edf_exact_test(running_example(), 1, node_limit=1)
        assert out.verdict == EDF_OVERRUN
        assert out.schedulable is None

    def test_config_budget_overrun(self):
        # a schedulable system forced to give up after one hashed config
        s = TaskSystem.from_tuples([(1, 1, 2, 2), (0, 1, 3, 3)])
        out = edf_exact_test(s, 2, config_limit=0)
        assert out.verdict == EDF_OVERRUN

    def test_seeded_census_is_pinned(self):
        """The explorer's state-space census on a fixed grid: verdicts,
        simulated slots, hashed configurations and the longest cycle
        are deterministic, so any change to the search shows here."""
        instances = generate_instances(
            GeneratorConfig(n=5, tmax=5, m="uniform"), 60, seed=0
        )
        verdicts = {EDF_MISS: 0, EDF_SCHEDULABLE: 0}
        slots = configurations = longest_cycle = 0
        for inst in instances:
            out = edf_exact_test(inst.system, inst.m)
            verdicts[out.verdict] += 1
            slots += out.slots
            configurations += out.configurations
            if out.verdict == EDF_SCHEDULABLE:
                longest_cycle = max(longest_cycle, out.cycle_length)
        assert verdicts == {EDF_MISS: 42, EDF_SCHEDULABLE: 18}
        assert (slots, configurations, longest_cycle) == (1624, 19, 1)


class TestEdfExactAgainstSimulator:
    """The independent ``global_edf`` simulator (different loop, same
    deterministic policy) must agree on every decided grid instance."""

    def test_seeded_grid_agreement(self):
        instances = generate_instances(
            GeneratorConfig(n=4, tmax=4), 30, seed=0
        )
        for inst in instances:
            out = edf_exact_test(inst.system, inst.m)
            sim = global_edf(inst.system, inst.m, max_cycles=256)
            assert out.schedulable is not None, inst.seed
            if sim.schedulable is not None:
                assert out.schedulable == sim.schedulable, inst.seed
            if out.verdict == EDF_SCHEDULABLE:
                assert validate(out.schedule).ok, inst.seed


def small_systems():
    """Constrained-deadline systems small enough for exhaustive search."""
    tasks = st.builds(
        lambda offset, wcet, deadline, slack: Task(
            offset, min(wcet, deadline), deadline, deadline + slack
        ),
        offset=st.integers(0, 3),
        wcet=st.integers(0, 3),
        deadline=st.integers(1, 4),
        slack=st.integers(0, 2),
    )
    return st.builds(TaskSystem, st.lists(tasks, min_size=1, max_size=4))


class TestEdfExactProperties:
    @settings(max_examples=60, deadline=None)
    @given(system=small_systems(), m=st.integers(1, 3))
    def test_always_terminates_with_a_verdict(self, system, m):
        """No budgets ⇒ the finite state space always decides."""
        out = edf_exact_test(system, m)
        assert out.schedulable in (True, False)
        assert out.slots >= 1

    @settings(max_examples=60, deadline=None)
    @given(system=small_systems(), m=st.integers(1, 3))
    def test_schedulable_witness_validates(self, system, m):
        out = edf_exact_test(system, m)
        if out.verdict == EDF_SCHEDULABLE:
            assert out.schedule.horizon == out.cycle_length * system.hyperperiod
            assert validate(out.schedule).ok
        else:
            assert out.miss is not None
            config = out.miss["configuration"]
            rem, laxity = config[out.miss["task"]]
            assert rem == out.miss["remaining"] >= 1
            assert laxity <= 0

    @settings(max_examples=30, deadline=None)
    @given(system=small_systems(), m=st.integers(1, 2))
    def test_report_roundtrips_through_jsonl(self, system, m):
        report = solve_problem(
            Problem.of(system, m=m, time_limit=5.0), "edf-exact", check=False
        )
        back = SolveReport.from_dict(report.to_dict())
        assert back.status is report.status
        assert back.decided_by == report.decided_by
        assert back.stats.extra["edf_exact"] == report.stats.extra["edf_exact"]
        if report.schedule is not None:
            assert (back.schedule.table == report.schedule.table).all()


class TestEdfExactCertificate:
    def test_feasible_certificate(self):
        cert = edf_exact_certificate(TaskSystem.from_tuples([(0, 1, 2, 2)]), 1)
        assert cert.verdict is Feasibility.FEASIBLE
        assert cert.test_name == "edf-exact:cycle"
        assert cert.witness["cycle_length"] >= 1
        assert validate(cert.schedule).ok

    def test_uniprocessor_miss_is_infeasibility_proof(self):
        cert = edf_exact_certificate(
            TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)]), 1
        )
        assert cert.verdict is Feasibility.INFEASIBLE
        assert cert.test_name == "edf-exact:miss"
        assert cert.witness["task"] in (0, 1)

    def test_multiprocessor_miss_abstains(self):
        """EDF is not optimal on m>=2: a miss must not claim INFEASIBLE."""
        cert = edf_exact_certificate(tri_edf_anomaly(), 2)
        assert cert.verdict is Feasibility.UNKNOWN
        assert cert.test_name == "edf-exact:miss"
        assert cert.witness["task"] is not None

    def test_overrun_abstains(self):
        cert = edf_exact_certificate(running_example(), 1, node_limit=1)
        assert cert.verdict is Feasibility.UNKNOWN
        assert cert.test_name == "edf-exact:overrun"


class TestEdfExactSolverWiring:
    def test_registry_metadata(self):
        info = solver_info("edf-exact")
        assert info.proves_infeasibility
        assert not info.is_exact  # complete for EDF, not for feasibility
        assert info.platforms == ("identical",)
        assert "config_limit" in info.options

    def test_front_door_feasible(self):
        report = solve(TaskSystem.from_tuples([(0, 1, 2, 2)]), m=1,
                       solver="edf-exact")
        assert report.status is Feasibility.FEASIBLE
        assert report.decided_by == "edf-exact:cycle"
        assert validate(report.schedule).ok
        assert report.stats.extra["edf_exact"]["verdict"] == "feasible"

    def test_front_door_uniprocessor_infeasible(self):
        report = solve(
            TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)]), m=1,
            solver="edf-exact",
        )
        assert report.status is Feasibility.INFEASIBLE
        assert report.decided_by == "edf-exact:miss"

    def test_multiprocessor_miss_reports_unknown_not_infeasible(self):
        """The anomaly instance: csp2+dc proves FEASIBLE, so edf-exact
        claiming INFEASIBLE here would be the exact soundness bug the
        capability mapping exists to prevent."""
        exact = solve(tri_edf_anomaly(), m=2, solver="csp2+dc", time_limit=20)
        assert exact.status is Feasibility.FEASIBLE
        oracle = solve(tri_edf_anomaly(), m=2, solver="edf-exact")
        assert oracle.status is Feasibility.UNKNOWN
        assert oracle.stats.extra["edf_exact"]["test"] == "edf-exact:miss"

    def test_arbitrary_deadlines_cloned_by_front_door(self):
        report = solve(TaskSystem.from_tuples([(0, 1, 6, 3)]), m=1,
                       solver="edf-exact")
        assert report.status is Feasibility.FEASIBLE

    def test_rejects_non_identical_platform(self):
        with pytest.raises(ValueError, match="identical"):
            EdfExactSolver(
                running_example(), Platform.uniform([2, 1])
            )

    def test_composes_with_screen(self):
        report = solve(TaskSystem.from_tuples([(0, 1, 2, 2)]), m=1,
                       solver="screen+edf-exact")
        assert report.status is Feasibility.FEASIBLE

    def test_composes_with_portfolio(self):
        report = solve(
            TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)]), m=1,
            solver="portfolio:edf-exact,csp2+dc", time_limit=20, jobs=1,
        )
        assert report.status is Feasibility.INFEASIBLE
        assert report.winner == "edf-exact"  # the oracle answers first

    def test_solver_name_listed(self):
        engine = create_solver(
            "edf-exact", running_example(), Platform.identical(2)
        )
        assert engine.name == "edf-exact"


class TestAgreementGrid:
    """Seeded agreement grid: the oracle must never contradict a complete
    solver — the in-suite miniature of ``repro-mgrts difftest``."""

    SOLVERS = ("csp2+dc", "csp2+learn", "sat", "screen+csp2+dc")

    def test_oracle_agrees_with_every_complete_solver(self):
        instances = generate_instances(
            GeneratorConfig(n=4, tmax=4), 10, seed=2009
        )
        for inst in instances:
            oracle = solve(inst.system, m=inst.m, solver="edf-exact",
                           time_limit=10)
            for name in self.SOLVERS:
                other = solve(inst.system, m=inst.m, solver=name,
                              time_limit=10)
                if oracle.status is Feasibility.FEASIBLE:
                    assert other.status is not Feasibility.INFEASIBLE, (
                        inst.seed, name)
                if oracle.status is Feasibility.INFEASIBLE:
                    assert other.status is not Feasibility.FEASIBLE, (
                        inst.seed, name)
