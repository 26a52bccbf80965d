"""Tests for the experiment harness (runner, tables, reports, paper data)."""

import json

import pytest

from repro.experiments import (
    ExperimentRun,
    RunRecord,
    Table1Config,
    Table4Config,
    figure1,
    run_instances,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
)
from repro.experiments.report import (
    format_table1,
    format_table2,
    format_table3,
    format_table4,
)
from repro.experiments.table3 import PAPER_BINS
from repro.generator import GeneratorConfig, generate_instances
from repro.generator.random_systems import Instance
from repro.model import TaskSystem
from repro.model.platform import Platform
from repro.solvers.problem import estimate_generic_variables


@pytest.fixture(scope="module")
def small_table1():
    """A tiny but real Table I run shared by the aggregation tests."""
    cfg = Table1Config(n_instances=8, time_limit=0.2, seed=7)
    return run_table1(cfg)


class TestRunner:
    def test_records_have_all_solvers(self, small_table1):
        run = small_table1.run
        per_instance = run.by_instance()
        assert len(per_instance) == 8
        for records in per_instance.values():
            assert [r.solver for r in records] == list(small_table1.config.solvers)

    def test_statuses_legal(self, small_table1):
        legal = {"feasible", "infeasible", "unknown", "skipped-memory"}
        assert {r.status for r in small_table1.run.records} <= legal

    def test_elapsed_capped_by_budget(self, small_table1):
        limit = small_table1.config.time_limit
        # generous tolerance: budget checks happen between nodes
        assert all(r.elapsed <= limit * 3 + 0.2 for r in small_table1.run.records)

    def test_overrun_semantics(self):
        r = RunRecord(1, 2, 1, 4, 0.5, "x", "unknown", 1.0, 5)
        assert r.overrun and not r.solved
        r2 = RunRecord(1, 2, 1, 4, 0.5, "x", "skipped-memory", 1.0, 0)
        assert r2.overrun
        r3 = RunRecord(1, 2, 1, 4, 0.5, "x", "feasible", 0.1, 5)
        assert r3.solved and not r3.overrun

    def test_json_roundtrip(self, small_table1):
        text = small_table1.run.to_json()
        back = ExperimentRun.from_json(text)
        assert back.records == small_table1.run.records
        assert back.time_limit == small_table1.run.time_limit

    def test_memory_guard(self):
        # n=2 tasks with long periods -> big T; force a tiny limit
        s = TaskSystem.from_tuples([(0, 1, 13, 13), (0, 1, 11, 11)])
        inst = Instance(system=s, m=1, seed=1)
        # T = lcm(13,11) = 143: each task contributes (T/T_i) * D_i = 143
        assert estimate_generic_variables(inst.system, Platform.identical(inst.m)) == 286
        run = run_instances([inst], ["csp1"], time_limit=0.5, csp1_variable_limit=10)
        assert run.records[0].status == "skipped-memory"
        # dedicated csp2 is never guarded
        run2 = run_instances([inst], ["csp2+dc"], time_limit=5.0, csp1_variable_limit=10)
        assert run2.records[0].status in ("feasible", "infeasible")


class TestTable1:
    def test_groups_partition_instances(self, small_table1):
        assert (
            small_table1.n_solved_instances + small_table1.n_unsolved_instances == 8
        )

    def test_overruns_bounded_by_group_size(self, small_table1):
        for group, per_solver in small_table1.overruns.items():
            size = (
                small_table1.n_solved_instances
                if group == "solved"
                else small_table1.n_unsolved_instances
            )
            assert all(0 <= v <= size for v in per_solver.values())

    def test_rows_shape(self, small_table1):
        rows = small_table1.rows()
        assert [r[0] for r in rows] == ["solved", "unsolved"]
        assert all(len(r[1]) == len(small_table1.config.solvers) for r in rows)

    def test_paper_scale_config(self):
        cfg = Table1Config.paper_scale()
        assert cfg.n_instances == 500 and cfg.time_limit == 30.0

    def test_format(self, small_table1):
        text = format_table1(small_table1)
        assert "Table I" in text
        assert "CSP1" in text and "+(D-C)" in text
        assert "paper" in text
        text_bare = format_table1(small_table1, with_paper=False)
        assert "paper" not in text_bare


class TestTable2:
    def test_reuses_table1_records(self, small_table1):
        t2 = run_table2(table1=small_table1)
        assert t2.run is small_table1.run
        assert t2.n_filtered + t2.n_unfiltered == small_table1.n_unsolved_instances

    def test_filtered_instances_really_overloaded(self, small_table1):
        t2 = run_table2(table1=small_table1)
        for records in small_table1.run.by_instance().values():
            if any(r.solved for r in records):
                continue
            r = records[0].utilization_ratio
            if r > 1:
                # a filtered instance can never be feasible
                assert not any(rec.status == "feasible" for rec in records)

    def test_format(self, small_table1):
        t2 = run_table2(table1=small_table1)
        text = format_table2(t2)
        assert "Table II" in text and "provably unsolvable" in text


class TestTable3:
    def test_bins_cover_all_instances(self, small_table1):
        t3 = run_table3(table1=small_table1)
        assert sum(b[2] for b in t3.bins) == 8

    def test_bin_edges_match_paper(self):
        assert PAPER_BINS[0] == (0.0, 0.4)
        assert PAPER_BINS[1] == (0.4, 0.5)
        assert PAPER_BINS[-1] == (1.7, 2.0)
        # contiguous
        for (a, b), (c, d) in zip(PAPER_BINS, PAPER_BINS[1:]):
            assert b == c

    def test_mean_time_none_for_empty_bins(self, small_table1):
        t3 = run_table3(table1=small_table1)
        for lo, hi, count, mean_t in t3.bins:
            assert (mean_t is None) == (count == 0)

    def test_format(self, small_table1):
        text = format_table3(run_table3(table1=small_table1))
        assert "Table III" in text and "rmin-rmax" in text


class TestTable4:
    @pytest.fixture(scope="class")
    def t4(self):
        cfg = Table4Config(task_counts=(4, 8), instances_per_n=3, time_limit=0.2)
        return run_table4(cfg)

    def test_rows_per_n(self, t4):
        assert [row.n for row in t4.rows] == [4, 8]

    def test_min_processors_rule(self, t4):
        for run in t4.runs.values():
            assert all(r.utilization_ratio <= 1.0 + 1e-9 for r in run.records)

    def test_csp1_skipped_beyond_max_n(self):
        cfg = Table4Config(
            task_counts=(4, 8), instances_per_n=2, time_limit=0.2, csp1_max_n=4
        )
        t4 = run_table4(cfg)
        assert t4.rows[0].per_solver["csp1"] is not None
        assert t4.rows[1].per_solver["csp1"] is None

    def test_solved_fraction_range(self, t4):
        for row in t4.rows:
            for entry in row.per_solver.values():
                if entry is not None:
                    assert 0.0 <= entry[0] <= 1.0

    def test_format(self, t4):
        text = format_table4(t4)
        assert "Table IV" in text
        assert "(paper)" in text

    def test_paper_scale(self):
        cfg = Table4Config.paper_scale()
        assert cfg.task_counts == (4, 8, 16, 32, 64, 128, 256)
        assert cfg.instances_per_n == 100


class TestFigure1:
    def test_default_is_running_example(self):
        text = figure1()
        assert "hyperperiod T = 12" in text
        assert "tau1" in text and "tau3" in text

    def test_custom_system(self):
        s = TaskSystem.from_tuples([(0, 1, 2, 2)])
        assert "hyperperiod T = 2" in figure1(s)


class TestPaperData:
    def test_table1_totals_consistent(self):
        from repro.experiments.paperdata import PAPER_TABLE1

        assert PAPER_TABLE1["solved"]["total"] == 295
        assert PAPER_TABLE1["unsolved"]["total"] == 205
        # 500 instances in total
        assert 295 + 205 == 500

    def test_table2_partitions_table1_unsolved(self):
        from repro.experiments.paperdata import PAPER_TABLE2

        assert PAPER_TABLE2["filtered"]["total"] + PAPER_TABLE2["unfiltered"]["total"] == 205
        # per-solver overruns add up across the split (paper consistency)
        for s in ("csp1", "csp2", "csp2+dc"):
            total = PAPER_TABLE2["filtered"][s] + PAPER_TABLE2["unfiltered"][s]
            from repro.experiments.paperdata import PAPER_TABLE1

            assert total == PAPER_TABLE1["unsolved"][s]

    def test_table3_instance_count(self):
        from repro.experiments.paperdata import PAPER_TABLE3

        assert sum(cnt for _, _, cnt, _ in PAPER_TABLE3) == 500
