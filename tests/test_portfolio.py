"""The racing portfolio meta-solver: first definitive answer wins,
losers are cancelled, incomplete members never decide INFEASIBLE."""

import pytest

from repro.model import Platform, TaskSystem
from repro.schedule import validate
from repro.solvers import Feasibility, create_solver, solve

from tests.helpers import running_example


def infeasible_system() -> TaskSystem:
    """3 saturating tasks on 2 processors: demand 5 in 4 processor-slots."""
    return TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2), (0, 1, 2, 2)])


class TestPortfolioRacing:
    def test_feasible_race_matches_single_solver(self):
        single = solve(running_example(), m=2, solver="csp2+dc", time_limit=20)
        report = solve(
            running_example(), m=2, solver="portfolio:csp2+dc,sat", time_limit=20
        )
        assert report.status is single.status is Feasibility.FEASIBLE
        assert validate(report.schedule).ok
        meta = report.stats.extra["portfolio"]
        assert meta["winner"] in ("csp2+dc", "sat")
        assert report.winner == meta["winner"]

    def test_infeasible_race_and_cancellation(self):
        """csp2-local runs its whole 30 s budget on an infeasible instance;
        the portfolio must answer as soon as csp2+dc proves INFEASIBLE and
        cancel the local search — a sub-10 s wall clock is the proof."""
        report = solve(
            infeasible_system(), m=2,
            solver="portfolio:csp2-local,csp2+dc", time_limit=30,
        )
        assert report.status is Feasibility.INFEASIBLE
        assert report.winner == "csp2+dc"
        assert report.elapsed < 10, "losers were not cancelled"
        meta = report.stats.extra["portfolio"]
        assert meta["winner"] == "csp2+dc"

    def test_winner_deterministic_when_unique_decider(self):
        """With one capable member, the reported winner cannot vary."""
        winners = set()
        for _ in range(2):
            report = solve(
                infeasible_system(), m=2, seed=7,
                solver="portfolio:csp2-local,csp2+dc", time_limit=30,
            )
            winners.add(report.winner)
            assert report.status is Feasibility.INFEASIBLE
        assert winners == {"csp2+dc"}

    def test_incomplete_members_never_decide_infeasible(self):
        report = solve(
            infeasible_system(), m=2,
            solver="portfolio:csp2-local,edf", time_limit=0.4,
        )
        assert report.status is Feasibility.UNKNOWN
        assert report.schedule is None

    def test_local_search_can_win_feasible_race(self):
        report = solve(
            TaskSystem.from_tuples([(0, 1, 2, 2)]), m=1,
            solver="portfolio:csp2-local", time_limit=20,
        )
        assert report.status is Feasibility.FEASIBLE
        assert report.winner == "csp2-local"
        assert validate(report.schedule).ok


    def test_dead_member_is_reported_and_the_race_goes_on(self):
        """A member whose child is SIGKILLed faults; csp2+dc still wins."""
        import os
        import signal

        from repro.solvers import register_solver
        from repro.solvers import registry as reg

        @register_solver(
            "test-sigkill", description="test-only: dies at build",
            advertise=False,
        )
        def _build(system, platform, spec, seed, **options):
            os.kill(os.getpid(), signal.SIGKILL)

        try:
            report = solve(
                running_example(), m=2,
                solver="portfolio:test-sigkill,csp2+dc", time_limit=20,
            )
        finally:
            reg._REGISTRY.pop("test-sigkill", None)
        assert report.status is Feasibility.FEASIBLE
        assert report.winner == "csp2+dc"
        meta = report.stats.extra["portfolio"]
        status = meta["statuses"].get("test-sigkill")
        # it died at once, so it normally reports before the winner
        assert status is None or status.startswith("error: oom:")
        assert set(meta["statuses"]) | set(meta["cancelled"]) == {
            "test-sigkill", "csp2+dc"
        }

    def test_limited_jobs_race_accounts_for_queued_members(self):
        """jobs=2 of 3 members: the third starts only when a slot frees."""
        report = solve(
            infeasible_system(), m=2,
            solver="portfolio:csp2+dc,csp2-local,sat", time_limit=30, jobs=2,
        )
        assert report.status is Feasibility.INFEASIBLE
        meta = report.stats.extra["portfolio"]
        assert meta["mode"] == "race" and meta["winner"] == "csp2+dc"
        accounted = (
            set(meta["statuses"]) | set(meta["cancelled"])
            | set(meta["not_started"])
        )
        assert accounted == set(meta["members"])
        assert report.elapsed < 10, "the local search was not cancelled"


class TestPortfolioSequential:
    def test_jobs1_is_deterministic_first_decider(self):
        report = solve(
            running_example(), m=2,
            solver="portfolio:csp2+dc,sat", time_limit=20, jobs=1,
        )
        assert report.status is Feasibility.FEASIBLE
        assert report.winner == "csp2+dc"  # first member answers first
        meta = report.stats.extra["portfolio"]
        assert meta["mode"] == "sequential"

    def test_jobs1_skips_incapable_decider(self):
        report = solve(
            infeasible_system(), m=2,
            solver="portfolio:edf,csp2+dc", time_limit=20, jobs=1,
        )
        assert report.status is Feasibility.INFEASIBLE
        assert report.winner == "csp2+dc"


class TestPortfolioVerdictsAgree:
    """Acceptance smoke: on a mixed feasible/infeasible set, the portfolio
    verdict equals the single-solver verdict on every instance."""

    def test_mixed_set(self):
        from repro.generator import GeneratorConfig, generate_instances

        instances = generate_instances(
            GeneratorConfig(n=4, m=2, tmax=4), 4, seed=11
        )
        for inst in instances:
            single = solve(
                inst.system, m=inst.m, solver="csp2+dc", time_limit=20
            )
            raced = solve(
                inst.system, m=inst.m,
                solver="portfolio:csp2+dc,sat", time_limit=20,
            )
            assert raced.status is single.status, inst.seed
            assert raced.elapsed <= 20 + 1e-6


class TestPortfolioMemoryGuard:
    def test_memory_bound_members_dropped(self):
        from repro.solvers import Problem, solve_problem

        p = Problem.of(running_example(), m=2, time_limit=5.0, variable_limit=1)
        report = solve_problem(p, "portfolio:csp1,csp2+dc", check=False)
        assert report.skipped is None and report.is_feasible
        assert report.stats.extra["portfolio"]["members"] == ["csp2+dc"]
        assert report.solver == "portfolio:csp1,csp2+dc"  # requested name kept

    def test_all_members_over_limit_skips(self):
        from repro.solvers import Problem, solve_problem

        p = Problem.of(running_example(), m=2, time_limit=5.0, variable_limit=1)
        report = solve_problem(p, "portfolio:csp1,sat", check=False)
        assert report.skipped == "memory"
        assert report.status_label == "skipped-memory"


class TestPortfolioAccounting:
    def test_sequential_reports_not_started_members(self):
        report = solve(
            running_example(), m=2,
            solver="portfolio:csp2+dc,sat,csp2-generic", time_limit=20, jobs=1,
        )
        meta = report.stats.extra["portfolio"]
        assert meta["not_started"] == ["sat", "csp2-generic"]

    def test_race_meta_accounts_for_every_member(self):
        report = solve(
            infeasible_system(), m=2,
            solver="portfolio:csp2-local,csp2+dc", time_limit=30,
        )
        meta = report.stats.extra["portfolio"]
        accounted = (
            set(meta["statuses"]) | set(meta["cancelled"]) | set(meta["not_started"])
        )
        assert accounted == set(meta["members"])


class TestPortfolioCapabilityCoherence:
    """EXACT ⟹ PROVES_INFEASIBILITY: a member claiming a complete search
    must be able to prove infeasibility, or its INFEASIBLE answers would
    be silently downgraded while the metadata promises proofs."""

    def test_rejects_exact_member_without_infeasibility_proofs(self):
        from repro.solvers import register_solver
        from repro.solvers import registry as reg
        from repro.solvers.registry import EXACT

        @register_solver(
            "test-incoherent",
            description="test-only: exact without proves_infeasibility",
            capabilities=(EXACT,),
            advertise=False,
        )
        def _build(system, platform, spec, seed, **options):  # pragma: no cover
            raise AssertionError("must fail at portfolio construction")

        try:
            with pytest.raises(ValueError, match="proves_infeasibility"):
                create_solver(
                    "portfolio:test-incoherent,csp2+dc",
                    running_example(), Platform.identical(2),
                )
        finally:
            reg._REGISTRY.pop("test-incoherent", None)

    def test_registry_wide_coherence(self):
        """No registered family may claim EXACT without the proof bit
        (edf-exact is the deliberate converse: proofs without EXACT)."""
        from repro.solvers import iter_solver_info

        for info in iter_solver_info():
            if info.is_exact:
                assert info.proves_infeasibility, info.base

    def test_edf_exact_infeasible_is_definitive(self):
        """An edf-exact uniprocessor miss proof ends the race."""
        report = solve(
            TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)]), m=1,
            solver="portfolio:edf-exact,csp2+dc", time_limit=20, jobs=1,
        )
        assert report.status is Feasibility.INFEASIBLE
        assert report.winner == "edf-exact"
        assert report.decided_by == "edf-exact:miss"


class TestPortfolioConstruction:
    def test_unknown_member_fails_fast(self):
        with pytest.raises(ValueError, match="unknown solver"):
            create_solver(
                "portfolio:csp2+dc,magic", running_example(), Platform.identical(2)
            )

    def test_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            create_solver(
                "portfolio:csp2+dc", running_example(), Platform.identical(2),
                jobs=0,
            )

    def test_name(self):
        engine = create_solver(
            "portfolio:csp2+dc,sat", running_example(), Platform.identical(2)
        )
        assert engine.name == "portfolio:csp2+dc,sat"

    def test_through_batch_layer(self):
        """Portfolio names flow through cells/run_batch unchanged."""
        from repro.batch import cells_for_matrix, run_batch
        from repro.generator.random_systems import Instance

        inst = Instance(system=running_example(), m=2, seed=0)
        cells = cells_for_matrix([inst], ["portfolio:csp2+dc,sat"], 20.0)
        report = run_batch(cells)
        assert report.records[0].status == "feasible"
        assert report.records[0].solver == "portfolio:csp2+dc,sat"

    @pytest.mark.parametrize("problems", [1, 2])
    def test_parallel_campaign_runs_members_sequentially(self, problems):
        """Under ``jobs > 1`` each cell runs in a daemonic supervised
        child, which may not start processes: the portfolio runs its
        members in order there and reaches the ``jobs=1`` verdict."""
        from repro.solvers.problem import Problem, solve_iter

        problem = Problem.of(running_example(), m=2, time_limit=20.0)
        solver = ["portfolio:csp2+dc,sat"]
        (serial,) = solve_iter(problem, solver, jobs=1)
        parallel = list(solve_iter([problem] * problems, solver, jobs=2))
        assert len(parallel) == problems
        for report in parallel:
            assert report.status_label == serial.status_label == "feasible"
            meta = report.result.stats.extra["portfolio"]
            assert meta["mode"] == "sequential"
            assert meta["winner"] == "csp2+dc"
