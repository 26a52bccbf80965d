"""The analysis subsystem: certificates, the screening cascade, the
``screen`` meta-solver, and decided_by provenance end to end."""

import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import (
    Certificate,
    all_jobs_cut_certificate,
    default_tests,
    density_certificate,
    edf_simulation_certificate,
    forced_demand_certificate,
    gfb_certificate,
    interval_load_certificate,
    partitioned_certificate,
    processor_lower_bound,
    prove_infeasible,
    run_cascade,
    uniprocessor_edf_certificate,
    utilization_certificate,
    utilization_exceeds,
    wcet_slack_certificate,
)
from repro.model import Platform, Task, TaskSystem
from repro.schedule import validate
from repro.solvers import (
    Feasibility,
    Problem,
    SolveReport,
    SolverSpec,
    available_solvers,
    create_solver,
    is_solver_name,
    solve,
    solve_problem,
    solver_info,
)

from tests.helpers import running_example


def overloaded() -> TaskSystem:
    """U = 2 > 1: the utilization certificate fires on m = 1."""
    return TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)])


def collision() -> TaskSystem:
    """Two synchronous D=1 jobs: r <= 1 on m=1 yet locally over-demanded."""
    return TaskSystem.from_tuples([(0, 1, 1, 8), (0, 1, 1, 8)])


def light_implicit() -> TaskSystem:
    """Implicit deadlines, U small: GFB fires on any m."""
    return TaskSystem.from_tuples([(0, 1, 4, 4), (0, 1, 8, 8)])


def screen_item_25() -> TaskSystem:
    """Item 25 of the ``perfbench`` ``screen`` corpus (m = 4, T = 36036)."""
    return TaskSystem.from_tuples([
        (9, 5, 10, 11), (1, 6, 9, 11), (1, 8, 13, 13), (6, 6, 8, 9),
        (5, 2, 4, 6), (6, 2, 2, 13), (2, 4, 7, 14), (11, 7, 9, 12),
    ])


def screen_item_31() -> TaskSystem:
    """Item 31 of the ``perfbench`` ``screen`` corpus (m = 5, T = 360)."""
    return TaskSystem.from_tuples([
        (0, 1, 3, 4), (0, 9, 10, 10), (1, 9, 10, 10), (6, 7, 9, 9),
        (4, 4, 7, 8), (3, 5, 8, 10), (0, 4, 5, 6), (6, 3, 4, 8),
        (8, 1, 4, 10),
    ])


def _interval_load_grid(rng, count=150):
    """Seeded ``(system, m)`` pairs for the interval-load scans: random
    offsets (so windows wrap), zero wcets, some ``D > T`` tasks (cloned
    first), each system on ``m`` around ``ceil(U)``, plus systems built
    with ``U = m`` exactly."""
    cases = []
    for _ in range(count):
        tasks = []
        for _ in range(rng.randint(1, 5)):
            period = rng.choice([2, 3, 4, 6, 8, 12])
            deadline = rng.choice([1, 2, rng.randint(1, period + 2)])
            wcet = rng.randint(0, min(deadline, 4))
            tasks.append((rng.randrange(period), wcet, deadline, period))
        system = TaskSystem.from_tuples(tasks)
        m = system.min_processors
        cases += [(system, k) for k in sorted({max(1, m - 1), m, m + 1})]
    for _ in range(count // 3):
        period, m = rng.choice([2, 3, 4, 6]), rng.randint(1, 3)
        units, tasks = m * period, []
        while units:
            wcet = rng.randint(1, min(units, period))
            units -= wcet
            tasks.append((rng.randrange(period), wcet,
                          rng.randint(wcet, period), period))
        cases.append((TaskSystem.from_tuples(tasks), m))
    return cases


# ---------------------------------------------------------------------------
# necessary certificates
# ---------------------------------------------------------------------------

class TestNecessaryCertificates:
    def test_utilization_fires(self):
        cert = utilization_certificate(overloaded(), 1)
        assert cert.proves_infeasible
        assert cert.test_name == "necessary:utilization"
        assert cert.witness["ratio"] == 2.0

    def test_utilization_abstains(self):
        cert = utilization_certificate(running_example(), 2)
        assert not cert.decided

    def test_utilization_exceeds_is_the_shared_predicate(self):
        assert utilization_exceeds(1.001)
        assert not utilization_exceeds(1.0)

    def test_wcet_slack_fires(self):
        cert = wcet_slack_certificate(
            TaskSystem.from_tuples([(0, 3, 2, 4)]), 1
        )
        assert cert.proves_infeasible
        assert cert.witness["tasks"] == [[0, 3, 2]]

    def test_wcet_slack_abstains(self):
        assert not wcet_slack_certificate(running_example(), 2).decided

    def test_interval_load_fires_on_local_collision(self):
        cert = interval_load_certificate(collision(), 1)
        assert cert.proves_infeasible
        assert cert.witness["interval"] == [0, 0]
        assert cert.witness["demand"] == 2

    def test_interval_load_abstains_on_feasible(self):
        assert not interval_load_certificate(running_example(), 2).decided

    def test_interval_load_large_hyperperiod_pair_fallback(self):
        # T^2 is past any table budget but there are only two windows:
        # the candidate-pair fallback must still find the proof
        from repro.analysis import demand_over_capacity_witness

        s = TaskSystem.from_tuples([(0, 1, 1, 1000), (0, 1, 1, 1000)])
        cert = interval_load_certificate(s, 1, max_cells=1)
        assert cert.proves_infeasible
        assert cert.witness["interval"] == [0, 0]
        assert demand_over_capacity_witness(s, 1) == (0, 0, 2)

    def test_interval_load_abstains_past_both_budgets(self):
        s = TaskSystem.from_tuples([(0, 1, 1, 1000), (0, 1, 1, 1000)])
        cert = interval_load_certificate(s, 1, max_cells=1, max_pairs=0)
        assert not cert.decided
        assert "budget" in cert.detail

    def test_interval_load_total_demand_branch(self):
        cert = interval_load_certificate(overloaded(), 1)
        assert cert.proves_infeasible

    def test_demand_bound_exit_changes_no_certificate(self, monkeypatch):
        """The demand-bound ceiling skips only tables that find nothing:
        on a seeded grid (offsets, wrapped windows, zero-wcet tasks,
        arbitrary deadlines, ``U = m``) each certificate, witness and
        detail included, equals the full table's, and the ceiling bounds
        every excess the table finds."""
        from repro.analysis import necessary

        cases = _interval_load_grid(random.Random(2009))
        with_exit = [interval_load_certificate(s, m) for s, m in cases]
        ceilings = [
            necessary._demand_bound_ceiling(necessary._constrained(s), m)
            for s, m in cases
        ]
        monkeypatch.setattr(necessary, "_demand_bound_ceiling", lambda s, m: 1)
        table = [interval_load_certificate(s, m) for s, m in cases]
        assert [c.to_dict() for c in with_exit] == [c.to_dict() for c in table]
        found = 0
        for cert, ceiling, (s, m) in zip(table, ceilings, cases):
            if cert.proves_infeasible and s.total_demand() <= m * s.hyperperiod:
                found += 1
                assert ceiling >= cert.witness["demand"] - cert.witness["capacity"]
        exits = sum(c <= 0 for c in ceilings)
        assert found > 10 and exits > 10
        assert any(s.utilization == m for s, m in cases)

    def test_forced_demand_counts_partial_overlap(self):
        # A: window [0,9], C=9 (laxity 1); B: window [4,5], C=2 on m=1 —
        # slots [4,5] are forced to hold >= 1 unit of A plus all of B
        s = TaskSystem.from_tuples([(0, 9, 10, 12), (4, 2, 2, 12)])
        cert = forced_demand_certificate(s, 1)
        assert cert.proves_infeasible
        a, b = cert.witness["interval"]
        assert cert.witness["demand"] > cert.witness["capacity"]

    def test_forced_demand_abstains_on_feasible(self):
        assert not forced_demand_certificate(running_example(), 2).decided

    def test_prove_infeasible_returns_first_proof(self):
        cert = prove_infeasible(overloaded(), 1)
        assert cert is not None and cert.test_name == "necessary:utilization"
        assert prove_infeasible(running_example(), 2) is None

    def test_rejects_bad_m(self):
        for fn in (
            utilization_certificate,
            wcet_slack_certificate,
            all_jobs_cut_certificate,
            interval_load_certificate,
            forced_demand_certificate,
        ):
            with pytest.raises(ValueError):
                fn(running_example(), 0)


class TestAllJobsCut:
    def test_fires_where_interval_load_cannot(self):
        # T = 4 on one processor: A's window wraps ({3, 0}) and B's sits
        # inside it, so 3 units share the 2 slots any job covers; no
        # interval encloses A's wrapped window, and U = 3/4
        s = TaskSystem.from_tuples([(3, 2, 2, 4), (0, 1, 1, 4)])
        cert = all_jobs_cut_certificate(s, 1)
        assert cert.proves_infeasible
        assert cert.witness == {"demand": 3, "capacity": 2}
        assert not interval_load_certificate(s, 1).decided

    def test_wrapped_tails_count_as_capacity(self):
        # one job whose window wraps from slot 1 into slot 0 of the next
        # cycle: both slots serve it, so its 2 units fit
        cert = all_jobs_cut_certificate(TaskSystem.from_tuples([(1, 2, 2, 2)]), 1)
        assert not cert.decided
        assert cert.detail == "all jobs demand 2 <= capacity 2"

    def test_caps_each_slot_at_m(self):
        # three synchronous unit jobs in one slot: m = 2 runs only two
        s = TaskSystem.from_tuples([(0, 1, 1, 4)] * 3)
        assert all_jobs_cut_certificate(s, 2).witness == {
            "demand": 3, "capacity": 2,
        }
        assert not all_jobs_cut_certificate(s, 3).decided

    def test_refutes_screen_corpus_item(self):
        """``screen`` corpus item 31: every other test abstains, and
        csp2+dc and sat stay undecided after minutes, but one cycle's
        1789 units of demand exceed the 1788 that the slots' job counts
        let five processors run."""
        outcome = run_cascade(screen_item_31(), 5)
        assert outcome.verdict is Feasibility.INFEASIBLE
        assert outcome.decided.test_name == "necessary:all-jobs"
        assert outcome.decided.witness == {"demand": 1789, "capacity": 1788}


def _wrapping_systems():
    """Small identical-platform systems whose random offsets make windows
    wrap past the hyperperiod (``O + D > T``)."""
    task = st.sampled_from([2, 3, 4, 6]).flatmap(
        lambda t: st.integers(1, t).flatmap(
            lambda d: st.tuples(
                st.integers(0, t - 1), st.integers(1, d), st.just(d), st.just(t)
            )
        )
    )
    return st.lists(task, min_size=1, max_size=5).map(
        lambda params: TaskSystem([Task(*p) for p in params])
    )


@settings(deadline=None, max_examples=60)
@given(_wrapping_systems(), st.integers(1, 3))
@example(TaskSystem.from_tuples([(3, 2, 2, 4), (0, 1, 1, 4)]), 1)
@example(TaskSystem.from_tuples([(1, 2, 2, 2), (1, 1, 1, 2)]), 1)
@example(TaskSystem.from_tuples([(0, 1, 1, 4)] * 3), 2)
def test_all_jobs_cut_never_contradicts_exact(system, m):
    """A fired cut is an infeasibility proof: neither the exact global-EDF
    test nor csp2+dc may find a schedule for the system."""
    cert = all_jobs_cut_certificate(system, m)
    if not cert.decided:
        return
    assert cert.witness["demand"] > cert.witness["capacity"]
    platform = Platform.identical(m)
    edf = create_solver("edf-exact", system, platform).solve(time_limit=20)
    assert edf.status is not Feasibility.FEASIBLE, system
    exact = create_solver("csp2+dc", system, platform).solve(time_limit=20)
    assert exact.status is Feasibility.INFEASIBLE, system


class TestProcessorLowerBound:
    def test_at_least_ceil_utilization(self):
        assert processor_lower_bound(running_example()) == 2

    def test_interval_argument_sharpens(self):
        # U = 1/4 but two synchronous D=1 jobs force m >= 2
        assert processor_lower_bound(collision()) == 2

    def test_trivial_system(self):
        assert processor_lower_bound(light_implicit()) == 1


# ---------------------------------------------------------------------------
# sufficient certificates
# ---------------------------------------------------------------------------

class TestSufficientCertificates:
    def test_gfb_fires_on_implicit(self):
        cert = gfb_certificate(light_implicit(), 2)
        assert cert.proves_feasible

    def test_gfb_abstains_on_constrained(self):
        cert = gfb_certificate(running_example(), 2)
        assert not cert.decided
        assert "implicit" in cert.detail

    def test_density_fires(self):
        s = TaskSystem.from_tuples([(0, 1, 4, 8), (0, 1, 4, 8)])
        assert density_certificate(s, 2).proves_feasible

    def test_density_abstains_when_dense(self):
        assert not density_certificate(running_example(), 2).decided

    def test_uniproc_exact_both_ways(self):
        feas = uniprocessor_edf_certificate(light_implicit(), 1)
        assert feas.proves_feasible
        assert feas.schedule is not None
        assert validate(feas.schedule).ok
        infeas = uniprocessor_edf_certificate(collision(), 1)
        assert infeas.proves_infeasible
        assert "missed" in infeas.witness

    def test_uniproc_abstains_beyond_one(self):
        assert not uniprocessor_edf_certificate(running_example(), 2).decided

    def test_partitioned_witness(self):
        s = TaskSystem.from_tuples([(0, 2, 4, 4), (0, 2, 4, 4)])
        cert = partitioned_certificate(s, 2)
        assert cert.proves_feasible
        assert len(cert.witness["assignment"]) == s.n

    def test_partitioned_budget_charges_simulated_bins(self):
        """``screen`` corpus item 25: ``T x n x m`` = 36036 x 8 x 4 is far
        past the default budget, yet the bins first-fit simulates cost
        1294 slot-tasks, so the packing runs and proves feasibility."""
        system = screen_item_25()
        cert = partitioned_certificate(system, 4)
        assert cert.proves_feasible
        assert cert.witness == {
            "assignment": [2, 2, 3, 1, 1, 0, 3, 0], "bins_tried": 20,
            "sim_work": 1294, "bins_simulated": 6,
        }
        assert run_cascade(system, 4).decided.test_name == (
            "sufficient:partitioned-ff"
        )

    def test_edf_sim_witness_validates(self):
        cert = edf_simulation_certificate(light_implicit(), 2)
        assert cert.proves_feasible
        assert validate(cert.schedule).ok

    def test_simulation_budget_abstains(self):
        cert = edf_simulation_certificate(
            running_example(), 2, state_limit=1
        )
        assert not cert.decided
        assert "budget" in cert.detail


# ---------------------------------------------------------------------------
# the cascade
# ---------------------------------------------------------------------------

class TestCascade:
    def test_stops_at_first_proof(self):
        outcome = run_cascade(overloaded(), 1)
        assert outcome.verdict is Feasibility.INFEASIBLE
        assert outcome.decided.test_name == "necessary:utilization"
        assert len(outcome.certificates) == 1

    def test_all_abstain_is_unknown(self):
        # the running example defeats every polynomial test (that is why
        # the paper needs exact search for it)
        outcome = run_cascade(running_example(), 2)
        assert outcome.verdict is Feasibility.UNKNOWN
        assert outcome.decided is None
        assert len(outcome.certificates) == len(default_tests())

    def test_timings_per_test(self):
        outcome = run_cascade(running_example(), 2)
        assert set(outcome.timings) == {
            c.test_name for c in outcome.certificates
        }

    def test_no_simulate_drops_sim_tier(self):
        outcome = run_cascade(running_example(), 2, simulate=False)
        names = {c.test_name for c in outcome.certificates}
        assert not any(n.startswith("sufficient:edf") for n in names)
        assert "sufficient:partitioned-ff" not in names

    def test_to_dict_is_jsonable(self):
        payload = json.dumps(run_cascade(collision(), 1).to_dict())
        back = json.loads(payload)
        assert back["verdict"] == "infeasible"
        assert back["decided_by"] == "sufficient:uniproc-edf"

    def test_closed_form_tier_catches_collision(self):
        # without the simulation tier the closing necessary tier provides
        # the same infeasibility proof, just later in the cascade: the
        # all-jobs cut opens it, and interval load alone proves it too
        outcome = run_cascade(collision(), 1, simulate=False)
        assert outcome.verdict is Feasibility.INFEASIBLE
        assert outcome.decided.test_name == "necessary:all-jobs"
        assert interval_load_certificate(collision(), 1).proves_infeasible

    def test_explicit_tests_reject_options(self):
        with pytest.raises(ValueError, match="default test list"):
            run_cascade(
                running_example(), 2,
                tests=[utilization_certificate], simulate=False,
            )


# ---------------------------------------------------------------------------
# the screen solver and the name grammar
# ---------------------------------------------------------------------------

class TestScreenSpec:
    def test_roundtrip(self):
        for name in ("screen", "screen+csp2+dc", "screen+sat+pairwise",
                     "screen+portfolio:csp2+dc,sat"):
            spec = SolverSpec.parse(name)
            assert spec.is_screen
            assert spec.canonical == name
            assert SolverSpec.parse(spec.canonical) == spec

    def test_inner_spec_exposed(self):
        spec = SolverSpec.parse("screen+csp2+dc")
        assert spec.screened == SolverSpec.parse("csp2+dc")
        assert SolverSpec.parse("screen").screened is None

    def test_screen_cannot_nest(self):
        with pytest.raises(ValueError, match="nest"):
            SolverSpec.parse("screen+screen+csp2")

    def test_portfolio_cannot_nest_via_screen(self):
        with pytest.raises(ValueError, match="nest"):
            SolverSpec.parse("portfolio:screen+portfolio:csp2,sat")

    def test_screen_member_in_portfolio(self):
        spec = SolverSpec.parse("portfolio:screen+csp2+dc,sat")
        assert spec.is_portfolio
        assert spec.members[0].is_screen

    def test_is_solver_name_validates_inner(self):
        assert is_solver_name("screen")
        assert is_solver_name("screen+csp2+dc")
        assert not is_solver_name("screen+magic")
        assert not is_solver_name("screen+csp2+bogus")

    def test_registry_lists_screen(self):
        assert "screen" in available_solvers()
        assert solver_info("screen+csp2+dc").proves_infeasibility


class TestScreenSolver:
    def test_bare_screen_decides(self):
        r = create_solver("screen", overloaded(), Platform.identical(1)).solve()
        assert r.status is Feasibility.INFEASIBLE
        assert r.decided_by == "necessary:utilization"
        assert r.solver_name == "screen"
        assert r.stats.extra["screen"]["decided_by"] == r.decided_by

    def test_bare_screen_abstains_to_unknown(self):
        r = create_solver(
            "screen", running_example(), Platform.identical(2)
        ).solve(time_limit=10)
        assert r.status is Feasibility.UNKNOWN
        assert r.decided_by is None

    def test_screen_falls_through_to_inner(self):
        r = create_solver(
            "screen+csp2+dc", running_example(), Platform.identical(2)
        ).solve(time_limit=20)
        assert r.status is Feasibility.FEASIBLE
        assert r.decided_by == "csp2+dc"
        assert r.solver_name == "csp2+dc"
        assert validate(r.schedule).ok
        # cascade bookkeeping still attached
        assert r.stats.extra["screen"]["decided_by"] is None
        assert len(r.stats.extra["screen"]["tests"]) == len(default_tests())

    def test_decided_instance_never_builds_inner(self):
        # an unknown inner name would raise at construction; the screen
        # resolves it eagerly, so use a valid but expensive inner and a
        # certificate-decidable instance: no search nodes may appear
        r = create_solver(
            "screen+csp2+dc", overloaded(), Platform.identical(1)
        ).solve(time_limit=10)
        assert r.status is Feasibility.INFEASIBLE
        assert r.decided_by == "necessary:utilization"
        assert r.stats.nodes == 0

    def test_unknown_inner_rejected_at_construction(self):
        with pytest.raises(ValueError, match="unknown solver"):
            create_solver(
                "screen+magic", running_example(), Platform.identical(2)
            )

    def test_screen_options_flow(self):
        r = create_solver(
            "screen", running_example(), Platform.identical(2),
            simulate=False,
        ).solve()
        names = {t["name"] for t in r.stats.extra["screen"]["tests"]}
        assert "sufficient:partitioned-ff" not in names

    def test_unknown_option_rejected(self):
        with pytest.raises(ValueError, match="simulate"):
            create_solver(
                "screen", running_example(), Platform.identical(2),
                simulte=True,
            )

    def test_non_identical_platform_delegates(self):
        platform = Platform.uniform([2, 1])
        r = create_solver(
            "screen+csp2+dc", running_example(), platform
        ).solve(time_limit=20)
        assert r.status in (Feasibility.FEASIBLE, Feasibility.INFEASIBLE)
        assert r.stats.extra["screen"]["skipped"] == "non-identical platform"

    def test_zero_budget_matches_inner_semantics(self):
        # the screen neither grants nor steals budget: whatever the
        # inner engine answers at time_limit=0 is what screen+inner does
        inner = create_solver(
            "csp2+dc", running_example(), Platform.identical(2)
        ).solve(time_limit=0.0)
        screened = create_solver(
            "screen+csp2+dc", running_example(), Platform.identical(2)
        ).solve(time_limit=0.0)
        assert screened.status is inner.status


class TestScreenFrontDoor:
    def test_solve_records_decided_by(self):
        report = solve(overloaded(), m=1, solver="screen+csp2+dc", time_limit=10)
        assert report.status is Feasibility.INFEASIBLE
        assert report.decided_by == "necessary:utilization"
        assert report.winner == "screen"

    def test_report_jsonl_roundtrip_keeps_provenance(self):
        report = solve(overloaded(), m=1, solver="screen+csp2+dc", time_limit=10)
        line = json.dumps(report.to_dict())
        back = SolveReport.from_dict(json.loads(line))
        assert back.decided_by == "necessary:utilization"
        assert back.to_dict() == report.to_dict()

    def test_plain_solver_decided_by_falls_back_to_winner(self):
        report = solve(running_example(), m=2, time_limit=20)
        assert report.decided_by == "csp2+dc"

    def test_memory_guard_strips_memory_bound_inner(self):
        p = Problem.of(
            running_example(), m=2, time_limit=0.5, variable_limit=1
        )
        report = solve_problem(p, "screen+csp1", check=False)
        # screening still ran (no skipped-memory): the cascade abstains
        # on the running example and the stripped csp1 never builds
        assert report.skipped is None
        assert report.status is Feasibility.UNKNOWN
        # a decidable instance is still decided outright
        p2 = Problem.of(overloaded(), m=1, time_limit=0.5, variable_limit=1)
        report2 = solve_problem(p2, "screen+csp1", check=False)
        assert report2.status is Feasibility.INFEASIBLE
        assert report2.decided_by == "necessary:utilization"

    def test_portfolio_with_screen_member(self):
        report = solve(
            overloaded(), m=1,
            solver="portfolio:screen+csp2+dc,csp2+dc",
            time_limit=10, jobs=1,
        )
        assert report.status is Feasibility.INFEASIBLE
        assert report.decided_by == "necessary:utilization"


# ---------------------------------------------------------------------------
# soundness: the cascade may abstain, never contradict the exact solver
# ---------------------------------------------------------------------------

class TestSoundnessGrid:
    @pytest.mark.parametrize("n,count,seed", [
        (5, 40, 4711),
        # the agreement grid of the cascade's first benchmark: 13 of 16
        # instances decided, every one compared
        (6, 16, 2009),
    ])
    def test_cascade_agrees_with_exact_on_seeded_grid(self, n, count, seed):
        from repro.generator import GeneratorConfig, generate_instances

        cfg = GeneratorConfig(n=n, tmax=5, m="uniform", order="d-first")
        instances = generate_instances(cfg, count, seed=seed)
        disagreements = []
        decided = 0
        for inst in instances:
            outcome = run_cascade(inst.system, inst.m)
            if outcome.decided is None:
                continue
            decided += 1
            exact = create_solver(
                "csp2+dc", inst.system, Platform.identical(inst.m)
            ).solve(time_limit=30)
            assert exact.status is not Feasibility.UNKNOWN, inst.seed
            if exact.status is not outcome.verdict:
                disagreements.append(
                    (inst.seed, outcome.decided.test_name,
                     outcome.verdict, exact.status)
                )
        assert not disagreements, disagreements
        # the grid must actually exercise the cascade
        assert decided >= len(instances) // 2


# ---------------------------------------------------------------------------
# provenance through the batch layer
# ---------------------------------------------------------------------------

class TestBatchProvenance:
    def test_run_record_carries_decided_by(self):
        from repro.batch.cells import Cell, solve_cell
        from repro.generator.random_systems import Instance

        inst = Instance(system=overloaded(), m=1, seed=7)
        cell = Cell.from_instance(inst, "screen+csp2+dc", time_limit=10)
        record = solve_cell(cell)
        assert record.status == "infeasible"
        assert record.decided_by == "necessary:utilization"

    def test_experiment_run_roundtrip(self):
        from repro.batch.cells import Cell, solve_cell
        from repro.experiments.runner import ExperimentRun, RunRecord
        from repro.generator.random_systems import Instance

        inst = Instance(system=overloaded(), m=1, seed=7)
        record = solve_cell(Cell.from_instance(inst, "screen", time_limit=10))
        run = ExperimentRun("t", 10.0, [record])
        back = ExperimentRun.from_json(run.to_json())
        assert back.records[0].decided_by == "necessary:utilization"

    def test_legacy_records_without_decided_by_load(self):
        from repro.experiments.runner import RunRecord

        legacy = {
            "instance_seed": 1, "n": 2, "m": 1, "hyperperiod": 4,
            "utilization_ratio": 0.5, "solver": "csp2+dc",
            "status": "feasible", "elapsed": 0.1, "nodes": 3,
        }
        assert RunRecord(**legacy).decided_by is None


# ---------------------------------------------------------------------------
# min-processors integration
# ---------------------------------------------------------------------------

class TestMinProcessorsAnalysis:
    def test_lower_bound_skips_search(self):
        from repro.solvers import find_min_processors

        res = find_min_processors(collision(), time_limit_per_m=20)
        assert res.m == 2 and res.exact
        assert res.attempts[1] is Feasibility.INFEASIBLE
        assert res.decided_by[1].startswith("analysis:")

    def test_certificates_prove_infeasible_counts(self):
        from repro.solvers import find_min_processors

        # C > D: every count is excluded by certificate, never by search
        s = TaskSystem.from_tuples([(0, 3, 2, 4)])
        res = find_min_processors(s, time_limit_per_m=5, max_m=4)
        assert not res.found
        assert all(
            v is Feasibility.INFEASIBLE for v in res.attempts.values()
        )
        assert all(
            d == "analysis:processor-lower-bound"
            or d.startswith("necessary:")
            for d in res.decided_by.values()
        )

    def test_use_analysis_false_matches(self):
        from repro.solvers import find_min_processors

        with_a = find_min_processors(collision(), time_limit_per_m=20)
        without = find_min_processors(
            collision(), time_limit_per_m=20, use_analysis=False
        )
        assert with_a.m == without.m == 2
        assert without.decided_by[1] == "csp2+dc"


# ---------------------------------------------------------------------------
# the analyze CLI
# ---------------------------------------------------------------------------

class TestAnalyzeCli:
    def _write_instance(self, tmp_path, system, m):
        path = tmp_path / "i.json"
        path.write_text(json.dumps(
            {"tasks": [list(t.as_tuple()) for t in system], "m": m}
        ))
        return str(path)

    def test_decided_exits_zero(self, capsys, tmp_path):
        from repro.cli import main

        path = self._write_instance(tmp_path, overloaded(), 1)
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "verdict: infeasible" in out
        assert "necessary:utilization" in out

    def test_abstain_exits_two(self, capsys, tmp_path):
        from repro.cli import main

        path = self._write_instance(tmp_path, running_example(), 2)
        assert main(["analyze", path]) == 2
        assert "every test abstained" in capsys.readouterr().out

    def test_json_output(self, capsys, tmp_path):
        from repro.cli import main

        path = self._write_instance(tmp_path, collision(), 1)
        assert main(["analyze", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "infeasible"
        assert payload["decided_by"] == "sufficient:uniproc-edf"

    def test_m_override(self, capsys, tmp_path):
        from repro.cli import main

        path = self._write_instance(tmp_path, overloaded(), 4)
        assert main(["analyze", path, "-m", "1"]) == 0
        assert "infeasible" in capsys.readouterr().out

    def test_min_processors_prints_provenance(self, capsys, tmp_path):
        from repro.cli import main

        path = self._write_instance(tmp_path, collision(), 1)
        assert main(["solve", path, "--min-processors",
                     "--time-limit", "20"]) == 0
        out = capsys.readouterr().out
        assert "decided by analysis:" in out
