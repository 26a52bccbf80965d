"""The redesigned solving API: spec parsing, registry metadata, option
validation, the Problem/SolveReport front door, and the removal of the
PR 2 deprecation shims."""

import json

import pytest

from repro.model import Platform, TaskSystem
from repro.schedule import validate
from repro.solvers import (
    Feasibility,
    Problem,
    SolveReport,
    SolverSpec,
    available_solvers,
    create_solver,
    is_solver_name,
    iter_solver_info,
    register_solver,
    solve,
    solve_iter,
    solver_info,
)

from tests.helpers import running_example


def tiny_feasible() -> TaskSystem:
    """One task, half utilization: feasible on one processor."""
    return TaskSystem.from_tuples([(0, 1, 2, 2)])


def tiny_infeasible() -> TaskSystem:
    """Two saturating tasks on one processor: demand 4 in 2 slots."""
    return TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)])


class TestSolverSpec:
    def test_simple_roundtrip(self):
        for name in ("csp2", "csp2+dc", "sat+pairwise", "csp1+dom_deg"):
            spec = SolverSpec.parse(name)
            assert spec.canonical == name
            assert SolverSpec.parse(spec.canonical) == spec
            assert not spec.is_portfolio

    def test_normalization(self):
        assert SolverSpec.parse(" CSP2+DC ").canonical == "csp2+dc"

    def test_parse_idempotent_on_spec(self):
        spec = SolverSpec.parse("csp2+dc")
        assert SolverSpec.parse(spec) is spec

    def test_portfolio(self):
        spec = SolverSpec.parse("portfolio:csp2+dc,sat,csp2-local")
        assert spec.is_portfolio
        assert [m.canonical for m in spec.members] == ["csp2+dc", "sat", "csp2-local"]
        assert spec.canonical == "portfolio:csp2+dc,sat,csp2-local"

    def test_portfolio_errors(self):
        with pytest.raises(ValueError, match="member"):
            SolverSpec.parse("portfolio:")
        with pytest.raises(ValueError, match="members"):
            SolverSpec.parse("portfolio")
        with pytest.raises(ValueError, match="nest"):
            SolverSpec.parse("portfolio:csp2,portfolio:sat")

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            SolverSpec.parse("   ")


class TestRegistryMetadata:
    def test_every_family_has_metadata(self):
        for info in iter_solver_info():
            assert info.description
            assert isinstance(info.options, tuple)
            assert set(info.platforms) <= {"identical", "uniform", "heterogeneous"}

    def test_known_capabilities(self):
        assert solver_info("csp2+dc").proves_infeasibility
        assert solver_info("csp2+dc").is_exact
        assert not solver_info("csp2-local").proves_infeasibility
        assert not solver_info("edf").proves_infeasibility
        assert solver_info("sat").proves_infeasibility

    def test_is_solver_name(self):
        assert is_solver_name("csp2+dc")
        assert is_solver_name("portfolio:csp2+dc,sat")
        assert not is_solver_name("magic")
        assert not is_solver_name("portfolio:csp2+dc,magic")

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown solver"):
            create_solver("magic", running_example(), Platform.identical(2))

    def test_unknown_suffix_rejected_everywhere(self):
        for bad in ("csp2+bogus", "edf+bogus", "csp2-local+x", "sat+bogus",
                    "portfolio:csp2+zzz,sat"):
            assert not is_solver_name(bad), bad
            with pytest.raises(ValueError, match="suffix"):
                create_solver(bad, running_example(), Platform.identical(2))

    def test_engine_knob_suffix_gone(self):
        """The generic engine has one fixpoint; ``+vec`` selected nothing."""
        for bad in ("csp1+vec", "csp2-generic+vec"):
            with pytest.raises(ValueError, match="suffix"):
                create_solver(bad, running_example(), Platform.identical(2))

    def test_hidden_suffixes_still_accepted(self):
        for ok in ("csp2+d-c", "csp1+min_dom", "sat+sequential", "fp+(d-c)"):
            assert is_solver_name(ok), ok
            engine = create_solver(ok, running_example(), Platform.identical(2))
            assert hasattr(engine, "solve")

    def test_register_decorator(self):
        from repro.solvers import registry as reg

        @register_solver(
            "test-dummy", description="a test-only solver", options=("knob",),
        )
        def build(system, platform, spec, seed, **options):
            return create_solver("csp2+dc", system, platform)

        try:
            assert "test-dummy" in available_solvers()
            engine = create_solver("test-dummy", tiny_feasible(), Platform.identical(1))
            assert engine.solve(time_limit=5).is_feasible
        finally:
            reg._REGISTRY.pop("test-dummy", None)
        assert "test-dummy" not in available_solvers()


class TestOptionValidation:
    def test_typo_raises_with_accepted_list(self):
        with pytest.raises(ValueError, match="symmetry_breaking"):
            create_solver(
                "csp2+dc", running_example(), Platform.identical(2),
                symetry_breaking=False,  # the motivating typo
            )

    def test_solver_without_options(self):
        with pytest.raises(ValueError, match="accepted options: none"):
            create_solver(
                "sat", running_example(), Platform.identical(2), foo=1
            )

    def test_through_solve(self):
        with pytest.raises(ValueError, match="unknown option"):
            solve(running_example(), m=2, demand_prunning=True)

    def test_valid_options_still_flow(self):
        r = solve(running_example(), m=2, time_limit=20, symmetry_breaking=False)
        assert r.is_feasible


class TestRegistryRoundTrip:
    """Every advertised name solves tiny instances and honors its
    declared ``proves_infeasibility`` capability."""

    @pytest.mark.parametrize("name", available_solvers())
    def test_feasible_instance(self, name):
        info = solver_info(name)
        engine = create_solver(name, tiny_feasible(), Platform.identical(1))
        result = engine.solve(time_limit=10)
        if info.is_exact:
            assert result.status is Feasibility.FEASIBLE, name
        else:
            assert result.status in (Feasibility.FEASIBLE, Feasibility.UNKNOWN)
        if result.schedule is not None:
            assert validate(result.schedule).ok, name

    @pytest.mark.parametrize("name", available_solvers())
    def test_infeasible_instance(self, name):
        info = solver_info(name)
        budget = 10 if info.is_exact else 0.3
        engine = create_solver(name, tiny_infeasible(), Platform.identical(1))
        result = engine.solve(time_limit=budget)
        if info.proves_infeasibility:
            assert result.status is Feasibility.INFEASIBLE, name
        else:
            assert result.status is not Feasibility.INFEASIBLE, name


class TestDeprecationShimsRemoved:
    """The PR 2 shims warned for three PRs and are now gone (PR 5)."""

    def test_make_solver_gone(self):
        import repro
        import repro.solvers
        import repro.solvers.registry as registry

        for namespace in (repro, repro.solvers, registry):
            assert not hasattr(namespace, "make_solver")
        with pytest.raises(ImportError):
            from repro.solvers.registry import make_solver  # noqa: F401

    def test_mgrts_result_gone(self):
        import repro.solvers
        import repro.solvers.api as api

        for namespace in (repro.solvers, api):
            assert not hasattr(namespace, "MgrtsResult")
        with pytest.raises(ImportError):
            from repro.solvers.api import MgrtsResult  # noqa: F401

    def test_every_preexisting_name_still_resolves(self):
        preexisting = [
            "csp1", "csp2", "csp2+rm", "csp2+dm", "csp2+tc", "csp2+dc",
            "csp1+dom_deg", "csp1+input",
            "csp2-generic", "csp2-generic+rm", "csp2-generic+dm",
            "csp2-generic+tc", "csp2-generic+dc",
            "csp2-local", "sat", "sat+pairwise",
        ]
        for name in preexisting:
            assert name in available_solvers()
            engine = create_solver(name, running_example(), Platform.identical(2))
            assert hasattr(engine, "solve")


class TestProblemFrontDoor:
    def test_of_requires_platform_or_m(self):
        with pytest.raises(ValueError, match="platform"):
            Problem.of(running_example())
        with pytest.raises(ValueError, match="conflicting"):
            Problem.of(running_example(), platform=Platform.identical(2), m=3)

    def test_problem_roundtrip(self):
        p = Problem.of(
            running_example(), m=2, time_limit=3.5, seed=7, label="cell-0"
        )
        assert Problem.from_dict(p.to_dict()) == p

    def test_solve_iter_matrix_order(self):
        problems = [
            Problem.of(tiny_feasible(), m=1, time_limit=10),
            Problem.of(tiny_infeasible(), m=1, time_limit=10),
        ]
        reports = list(solve_iter(problems, ["csp2+dc", "sat"]))
        assert [r.index for r in reports] == [0, 1, 2, 3]
        assert [r.status for r in reports] == [
            Feasibility.FEASIBLE, Feasibility.FEASIBLE,
            Feasibility.INFEASIBLE, Feasibility.INFEASIBLE,
        ]
        assert [r.solver for r in reports] == ["csp2+dc", "sat"] * 2

    def test_solve_iter_parallel_matches_serial(self):
        problems = [
            Problem.of(tiny_feasible(), m=1, time_limit=10),
            Problem.of(tiny_infeasible(), m=1, time_limit=10),
        ]
        serial = {
            r.index: r.status for r in solve_iter(problems, ["csp2+dc", "sat"])
        }
        parallel = {
            r.index: r.status
            for r in solve_iter(problems, ["csp2+dc", "sat"], jobs=2)
        }
        assert serial == parallel

    def test_solve_iter_progress_and_single_forms(self):
        seen = []
        reports = list(
            solve_iter(
                Problem.of(tiny_feasible(), m=1, time_limit=10),
                "csp2+dc",
                progress=lambda done, total: seen.append((done, total)),
            )
        )
        assert len(reports) == 1 and reports[0].is_feasible
        assert seen == [(1, 1)]

    def test_report_jsonl_roundtrip(self):
        report = solve(running_example(), m=2, time_limit=20)
        line = json.dumps(report.to_dict())
        back = SolveReport.from_dict(json.loads(line))
        assert back.to_dict() == report.to_dict()
        assert back.status is report.status
        assert back.schedule == report.schedule
        assert validate(back.schedule).ok

    def test_report_roundtrip_arbitrary_deadlines(self):
        arb = TaskSystem.from_tuples([(0, 2, 5, 2), (0, 1, 3, 3)])
        report = solve(arb, m=2, time_limit=20)
        back = SolveReport.from_dict(report.to_dict())
        assert not back.clone_map.is_identity
        assert back.original_schedule.system == arb

    def test_fault_report_jsonl_roundtrip(self):
        """A fault:* report (crashed cell) survives the JSONL round trip."""
        from repro.batch.supervise import FaultRecord
        from repro.solvers.problem import fault_report

        problem = Problem.of(tiny_feasible(), m=1, time_limit=2.0)
        fault = FaultRecord("crash", "worker killed by SIGABRT", exitcode=-6)
        report = fault_report(problem, "csp2", fault, index=3)
        line = json.dumps(report.to_dict())
        back = SolveReport.from_dict(json.loads(line))
        assert back.to_dict() == report.to_dict()
        assert back.status_label == "fault:crash"
        assert back.decided_by == "supervisor:crash"
        assert back.elapsed == 2.0  # charged the full budget, like overruns
        assert back.fault == fault.to_dict()
        assert back.index == 3

    def test_node_limit_stop_keeps_true_wall_time(self):
        report = solve(
            running_example(), m=2, solver="csp1", time_limit=30.0, node_limit=1
        )
        assert report.timed_out
        assert report.elapsed < 1.0  # node-caused stop, not a 30 s overrun

    def test_wall_overrun_charged_full_budget(self):
        report = solve(running_example(), m=2, solver="csp1", time_limit=0.0)
        assert report.timed_out
        assert report.elapsed == 0.0

    def test_memory_guard_via_problem(self):
        p = Problem.of(running_example(), m=2, time_limit=0.5, variable_limit=1)
        from repro.solvers import solve_problem

        report = solve_problem(p, "csp1", check=False)
        assert report.skipped == "memory"
        assert report.status_label == "skipped-memory"
        assert report.status is Feasibility.UNKNOWN
        assert report.elapsed == 0.5
        # non-memory-bound solvers ignore the guard
        assert solve_problem(p, "csp2+dc").is_feasible

    def test_solve_returns_report_with_winner(self):
        report = solve(running_example(), m=2, time_limit=20)
        assert isinstance(report, SolveReport)
        assert report.solver == "csp2+dc"
        assert report.winner == "csp2+dc"


class TestSolversCli:
    def test_solvers_subcommand(self, capsys):
        from repro.cli import main

        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "csp2 / csp2+rm" in out
        assert "portfolio:NAME" in out

    def test_solvers_json(self, capsys):
        from repro.cli import main

        assert main(["solvers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = payload["solvers"]
        names = [n for entry in entries for n in entry["names"]]
        assert names == available_solvers()
        by_base = {entry["names"][0]: entry for entry in entries}
        assert "proves_infeasibility" in by_base["csp2"]["capabilities"]
        assert by_base["csp2-local"]["capabilities"] == []

    def test_solvers_json_has_only_the_solvers_block(self, capsys):
        """numpy is a declared dependency: no kernel block to report."""
        from repro.cli import main

        assert main(["solvers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"solvers"}

    def test_solvers_json_carries_service_discovery_fields(self, capsys):
        """The service hello/clients key off base, suffixes, memory_bound."""
        from repro.cli import main

        assert main(["solvers", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        entries = payload["solvers"]
        by_base = {entry["base"]: entry for entry in entries}
        assert set(by_base["csp2"]["suffixes"]) >= {"rm", "dm", "tc", "dc"}
        assert all(
            isinstance(entry["memory_bound"], bool) for entry in entries
        )
        assert by_base["csp1"]["memory_bound"] is True

    def test_batch_solver_list_keeps_portfolio_names(self):
        from repro.cli import _split_solver_list

        assert _split_solver_list("csp1,csp2+dc") == ["csp1", "csp2+dc"]
        assert _split_solver_list("portfolio:csp2+dc,sat") == [
            "portfolio:csp2+dc,sat"
        ]
        assert _split_solver_list("csp1; portfolio:csp2+dc,sat") == [
            "csp1", "portfolio:csp2+dc,sat"
        ]

    def test_unknown_solver_rejected(self, capsys, tmp_path):
        from repro.cli import main

        inst = tmp_path / "i.json"
        inst.write_text(json.dumps({"tasks": [[0, 1, 2, 2]], "m": 1}))
        assert main(["solve", str(inst), "--solver", "magic"]) == 2
        assert "unknown solver" in capsys.readouterr().err


class TestDocsDriftGuard:
    def test_rendered_doc_matches_checked_in_file(self):
        import pathlib

        from repro.solvers.docs import render_solvers_md

        path = pathlib.Path(__file__).resolve().parent.parent / "docs" / "SOLVERS.md"
        assert path.read_text() == render_solvers_md(), (
            "docs/SOLVERS.md drifted from the registry; run "
            "`python scripts/solvers_md.py --write`"
        )
