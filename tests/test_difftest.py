"""The differential-testing subsystem: capability-aware cross-checking,
deterministic shrinking to 1-minimal counterexamples, JSONL artifacts,
the campaign driver, and the ``difftest`` CLI subcommand."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.difftest import (
    DEFAULT_SOLVERS,
    DiffTestConfig,
    Finding,
    cross_check,
    iter_artifacts,
    run_difftest,
    shrink_problem,
    write_artifacts,
)
from repro.difftest.core import (
    INVALID_WITNESS,
    MISSING_WITNESS,
    UNSOUND_INFEASIBLE,
    VERDICT_DISAGREEMENT,
)
from repro.difftest.shrink import shrink_candidates
from repro.model import Platform, TaskSystem
from repro.schedule.schedule import IDLE, Schedule
from repro.solvers import (
    Feasibility,
    Problem,
    register_solver,
    solve_problem,
)
from repro.solvers.base import SolveResult, SolverStats
from repro.solvers.registry import PROVES_INFEASIBILITY

from tests.helpers import running_example


class _Canned:
    """Test-only engine returning a canned result."""

    def __init__(self, name, status, schedule=None, decided_by=None):
        self.name = name
        self._result = SolveResult(
            status=status,
            schedule=schedule,
            stats=SolverStats(),
            solver_name=name,
            decided_by=decided_by or name,
        )

    def solve(self, time_limit=None, node_limit=None):
        return self._result


def _register_canned(name, make_result, capabilities=()):
    """Register a canned solver; caller must pop it from the registry."""

    @register_solver(
        name, description=f"test-only canned solver {name}",
        capabilities=capabilities, advertise=False,
    )
    def _build(system, platform, spec, seed, **options):
        return make_result(system, platform)

    return name


@pytest.fixture
def liar():
    """A trusted (proves_infeasibility) family that always lies INFEASIBLE."""
    from repro.solvers import registry as reg

    name = _register_canned(
        "dt-liar",
        lambda s, p: _Canned("dt-liar", Feasibility.INFEASIBLE),
        capabilities=(PROVES_INFEASIBILITY,),
    )
    yield name
    reg._REGISTRY.pop(name, None)


@pytest.fixture
def bogus_witness():
    """Claims FEASIBLE with an all-idle (C1-violating) schedule."""
    from repro.solvers import registry as reg

    def make(system, platform):
        table = np.full((platform.m, system.hyperperiod), IDLE, dtype=np.int32)
        return _Canned(
            "dt-bogus", Feasibility.FEASIBLE,
            schedule=Schedule(system, platform, table),
        )

    name = _register_canned("dt-bogus", make)
    yield name
    reg._REGISTRY.pop(name, None)


@pytest.fixture
def hollow():
    """Claims FEASIBLE with neither a schedule nor a certified bound."""
    from repro.solvers import registry as reg

    name = _register_canned(
        "dt-hollow", lambda s, p: _Canned("dt-hollow", Feasibility.FEASIBLE)
    )
    yield name
    reg._REGISTRY.pop(name, None)


@pytest.fixture
def weak():
    """Reports INFEASIBLE without the proves_infeasibility capability."""
    from repro.solvers import registry as reg

    name = _register_canned(
        "dt-weak", lambda s, p: _Canned("dt-weak", Feasibility.INFEASIBLE)
    )
    yield name
    reg._REGISTRY.pop(name, None)


def feasible_problem() -> Problem:
    """The running example on m=2: provably feasible (csp2+dc finds it)."""
    return Problem.of(running_example(), m=2, time_limit=20.0, label="unit")


class TestDiffTestConfig:
    def test_defaults_are_registered_solvers(self):
        cfg = DiffTestConfig()
        assert cfg.solvers == DEFAULT_SOLVERS

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            DiffTestConfig(solvers=())

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            DiffTestConfig(solvers=("sat", "sat"))

    def test_rejects_unknown_solver(self):
        with pytest.raises(ValueError, match="unknown solver"):
            DiffTestConfig(solvers=("sat", "not-a-solver"))

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            DiffTestConfig(jobs=0)

    def test_to_dict_round_trips_the_grid(self):
        cfg = DiffTestConfig(instances=7, seed=3, n=4, tmax=4)
        d = cfg.to_dict()
        assert d["instances"] == 7 and d["seed"] == 3
        assert DiffTestConfig(**d).to_dict() == d


class TestCrossCheck:
    def test_agreeing_reports_are_clean(self):
        problem = feasible_problem()
        reports = [
            solve_problem(problem, s, check=False)
            for s in ("csp2+dc", "sat")
        ]
        assert cross_check(problem, reports) == []

    def test_trusted_disagreement_is_found(self, liar):
        problem = feasible_problem()
        reports = [
            solve_problem(problem, s, check=False) for s in (liar, "csp2+dc")
        ]
        findings = cross_check(problem, reports)
        assert [f.kind for f in findings] == [VERDICT_DISAGREEMENT]
        assert "dt-liar" in findings[0].detail
        assert findings[0].solvers == (liar, "csp2+dc")

    def test_invalid_feasible_witness_is_found(self, bogus_witness):
        problem = feasible_problem()
        report = solve_problem(problem, bogus_witness, check=False)
        findings = cross_check(problem, [report])
        assert [f.kind for f in findings] == [INVALID_WITNESS]

    def test_schedule_free_feasible_needs_certified_bound(self, hollow):
        problem = feasible_problem()
        report = solve_problem(problem, hollow, check=False)
        findings = cross_check(problem, [report])
        assert [f.kind for f in findings] == [MISSING_WITNESS]

    def test_screen_sufficient_bound_is_trusted(self):
        """A screen-decided FEASIBLE with no schedule is not a finding."""
        s = TaskSystem.from_tuples([(0, 1, 4, 4)])
        problem = Problem.of(s, m=2, time_limit=10.0)
        report = solve_problem(problem, "screen+csp2+dc", check=False)
        assert report.status is Feasibility.FEASIBLE
        assert cross_check(problem, [report]) == []

    def test_untrusted_infeasible_is_unsound_not_disagreement(self, weak):
        problem = feasible_problem()
        reports = [
            solve_problem(problem, s, check=False) for s in (weak, "csp2+dc")
        ]
        kinds = [f.kind for f in cross_check(problem, reports)]
        assert UNSOUND_INFEASIBLE in kinds
        assert VERDICT_DISAGREEMENT not in kinds

    def test_unknown_never_disagrees(self):
        problem = Problem.of(running_example(), m=2, node_limit=1,
                             time_limit=5.0)
        reports = [
            solve_problem(problem, s, check=False)
            for s in ("csp2+dc", "edf-exact")
        ]
        # edf-exact overruns on node_limit=1; csp2+dc overruns too: no
        # verdicts, hence nothing to disagree about
        assert cross_check(problem, reports) == []


class TestShrinkCandidates:
    def test_structural_reductions_come_first(self):
        problem = feasible_problem()
        cands = list(shrink_candidates(problem))
        assert cands[0].system.n == problem.system.n - 1  # drop task 0
        assert all(c.system.is_constrained for c in cands)

    def test_single_task_m1_still_shrinks_parameters(self):
        problem = Problem.of(TaskSystem.from_tuples([(2, 2, 3, 4)]), m=1)
        cands = list(shrink_candidates(problem))
        assert cands, "parameter reductions expected"
        assert all(c.system.n == 1 and c.platform.m == 1 for c in cands)

    def test_fully_minimal_has_no_candidates(self):
        problem = Problem.of(TaskSystem.from_tuples([(0, 0, 1, 1)]), m=1)
        assert list(shrink_candidates(problem)) == []

    def test_budget_and_seed_preserved(self):
        problem = Problem.of(running_example(), m=2, time_limit=3.0, seed=9)
        for c in shrink_candidates(problem):
            assert c.time_limit == 3.0 and c.seed == 9


class TestShrinkProblem:
    def test_planted_disagreement_shrinks_to_trivial(self, liar):
        """The liar disagrees with csp2+dc on every feasible instance, so
        the 1-minimal counterexample is a single do-nothing task."""
        problem = feasible_problem()
        solvers = (liar, "csp2+dc")

        def still_fails(candidate):
            reports = [
                solve_problem(candidate, s, check=False) for s in solvers
            ]
            return any(
                f.kind == VERDICT_DISAGREEMENT
                for f in cross_check(candidate, reports)
            )

        small = shrink_problem(problem, still_fails, budget=300)
        assert small.system.n <= 3
        assert small.platform.m == 1
        assert [t.as_tuple() for t in small.system] == [(0, 0, 1, 1)]
        # deterministic: a second run lands on the identical minimum
        again = shrink_problem(problem, still_fails, budget=300)
        assert [t.as_tuple() for t in again.system] == [(0, 0, 1, 1)]
        assert again.platform.m == small.platform.m

    def test_budget_zero_returns_input(self):
        problem = feasible_problem()
        assert shrink_problem(problem, lambda c: True, budget=0) is problem

    def test_result_still_fails(self):
        """Whatever the predicate, the returned instance satisfies it."""
        problem = feasible_problem()

        def wide(candidate):
            return candidate.system.n >= 2

        small = shrink_problem(problem, wide, budget=100)
        assert wide(small)
        assert small.system.n == 2


class TestRunDifftest:
    def test_clean_campaign(self):
        cfg = DiffTestConfig(instances=6, n=4, tmax=4, time_limit=10.0)
        report = run_difftest(cfg)
        assert report.ok
        assert report.instances == 6
        assert report.cells == 6 * len(DEFAULT_SOLVERS)
        for solver in DEFAULT_SOLVERS:
            assert sum(report.verdicts[solver].values()) == 6
        assert "no disagreements" in report.summary()

    def test_campaign_with_planted_liar(self, liar):
        cfg = DiffTestConfig(
            solvers=(liar, "csp2+dc"), instances=4, n=3, tmax=3,
            time_limit=10.0, shrink_budget=120,
        )
        report = run_difftest(cfg)
        assert not report.ok
        finding = next(
            f for f in report.findings if f.kind == VERDICT_DISAGREEMENT
        )
        assert finding.shrunk_problem is not None
        assert finding.shrunk_problem.system.n <= finding.problem.system.n
        assert len(finding.shrunk_reports) == 2
        assert "FINDING" in report.summary()

    def test_progress_ticks_every_cell(self):
        ticks = []
        cfg = DiffTestConfig(
            solvers=("edf-exact",), instances=3, n=3, tmax=3
        )
        run_difftest(cfg, progress=lambda done, total: ticks.append((done, total)))
        assert ticks == [(1, 3), (2, 3), (3, 3)]


@pytest.fixture
def bomb():
    """A solver whose build always raises — a faulting campaign member."""
    from repro.solvers import registry as reg

    def make_result(system, platform):
        raise RuntimeError("deliberate solver explosion")

    name = _register_canned("test-bomb", make_result)
    yield name
    reg._REGISTRY.pop(name)


class TestFaultTolerantCampaign:
    """One crashing solver must not abort the differential campaign."""

    def test_faulting_solver_becomes_unknown_census(self, bomb):
        cfg = DiffTestConfig(
            solvers=(bomb, "csp2+dc"), instances=3, n=3, tmax=3,
            time_limit=10.0,
        )
        report = run_difftest(cfg)
        # the campaign completed; the bomb's cells are fault:error and,
        # being UNKNOWN underneath, can never disagree with anyone
        assert report.ok
        assert report.verdicts[bomb] == {"fault:error": 3}
        assert sum(report.verdicts["csp2+dc"].values()) == 3

    def test_solve_iter_on_fault_record_yields_fault_reports(self, bomb):
        from repro.solvers.problem import solve_iter

        problem = feasible_problem()
        reports = list(solve_iter(problem, [bomb], on_fault="record"))
        assert len(reports) == 1
        assert reports[0].status_label == "fault:error"
        assert reports[0].decided_by == "supervisor:error"
        assert "deliberate solver explosion" in reports[0].fault["detail"]

    def test_solve_iter_parallel_fault_reruns_once_in_a_fresh_child(
        self, bomb
    ):
        """A failing cell re-runs once in a fresh child, then classifies."""
        from repro.solvers.problem import solve_iter

        problems = [feasible_problem()] * 3
        reports = list(solve_iter(
            problems, [bomb, "csp2+dc"], jobs=2, on_fault="record"
        ))
        assert sorted(r.index for r in reports) == list(range(6))
        faults = [r for r in reports if r.fault is not None]
        assert sorted(r.index for r in faults) == [0, 2, 4]
        assert all(r.status_label == "fault:error" for r in faults)
        # two attempts, each in its own child
        assert all(r.fault["attempts"] == 2 for r in faults)
        assert all(
            r.status_label == "feasible" for r in reports if r.fault is None
        )

    def test_solve_iter_on_fault_raise_still_propagates(self, bomb):
        from repro.solvers.problem import solve_iter

        with pytest.raises(RuntimeError, match="deliberate solver explosion"):
            list(solve_iter(feasible_problem(), [bomb]))

    def test_solve_iter_parallel_raise_names_the_fault(self, bomb):
        """With jobs > 1 the failing cell re-runs once, supervised, and
        then ends the stream with the fault's kind and traceback."""
        from repro.solvers.problem import solve_iter

        with pytest.raises(RuntimeError, match="fault:error") as err:
            list(solve_iter(
                [feasible_problem()] * 2, [bomb, "csp2+dc"], jobs=2
            ))
        assert "Traceback" in str(err.value)
        assert "deliberate solver explosion" in str(err.value)

    def test_solve_iter_rejects_unknown_policy(self):
        from repro.solvers.problem import solve_iter

        with pytest.raises(ValueError, match="on_fault"):
            list(solve_iter(feasible_problem(), ["csp2"], on_fault="ignore"))


class TestArtifacts:
    def test_round_trip(self, tmp_path, liar):
        cfg = DiffTestConfig(
            solvers=(liar, "csp2+dc"), instances=2, n=3, tmax=3,
            time_limit=10.0, shrink=False,
        )
        report = run_difftest(cfg)
        path = tmp_path / "findings.jsonl"
        write_artifacts(str(path), report)
        header, findings = iter_artifacts(str(path))
        assert header["config"]["solvers"] == [liar, "csp2+dc"]
        assert header["summary"]["ok"] == report.ok
        assert len(findings) == len(report.findings)
        for got, want in zip(findings, report.findings):
            assert got.kind == want.kind
            assert got.problem.to_dict() == want.problem.to_dict()
            assert [r.to_dict() for r in got.reports] == [
                r.to_dict() for r in want.reports
            ]

    def test_clean_run_writes_header_only(self, tmp_path):
        cfg = DiffTestConfig(solvers=("edf-exact",), instances=2, n=3, tmax=3)
        path = tmp_path / "clean.jsonl"
        write_artifacts(str(path), run_difftest(cfg))
        header, findings = iter_artifacts(str(path))
        assert findings == []
        assert header["summary"]["ok"] is True

    def test_rejects_foreign_jsonl(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text(json.dumps({"kind": "something-else"}) + "\n")
        with pytest.raises(ValueError, match="not a difftest artifact"):
            iter_artifacts(str(path))

    def test_finding_dict_round_trip(self, liar):
        problem = feasible_problem()
        reports = [
            solve_problem(problem, s, check=False) for s in (liar, "csp2+dc")
        ]
        finding = cross_check(problem, reports)[0]
        back = Finding.from_dict(finding.to_dict())
        assert back.kind == finding.kind
        assert back.detail == finding.detail
        assert back.problem.to_dict() == finding.problem.to_dict()
        assert back.reports[1].status is finding.reports[1].status


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDifftestCli:
    def test_smoke_run_is_clean(self, capsys):
        code, out, _ = run_cli(
            capsys, "difftest", "--instances", "4", "-n", "4", "--tmax", "4",
            "--seed", "0", "--quiet",
        )
        assert code == 0
        assert "no disagreements" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "difftest", "--instances", "2", "-n", "3", "--tmax", "3",
            "--solvers", "edf-exact,csp2+dc", "--quiet", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["ok"] is True
        assert data["cells"] == 4

    def test_artifacts_written(self, capsys, tmp_path):
        path = tmp_path / "trail.jsonl"
        code, out, _ = run_cli(
            capsys, "difftest", "--instances", "2", "-n", "3", "--tmax", "3",
            "--solvers", "edf-exact", "--quiet", "--artifacts", str(path),
        )
        assert code == 0
        header, findings = iter_artifacts(str(path))
        assert findings == [] and header["summary"]["instances"] == 2

    def test_unknown_solver_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "difftest", "--solvers", "no-such-solver", "--quiet",
        )
        assert code == 2
        assert "unknown solver" in err

    def test_bad_jobs_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "difftest", "--jobs", "0", "--quiet")
        assert code == 2
