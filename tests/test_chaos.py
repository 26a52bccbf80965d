"""Tests for deterministic chaos injection and fault-tolerant campaigns.

The acceptance bar (ISSUE 8): with a 0.3 injection rate on a seeded
100-cell grid, ``run_batch`` completes with zero raised exceptions, every
cell is journaled (a result or a ``fault:*`` record), and a re-run with
the same seeds produces a byte-identical journal.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.batch import cells_for_matrix, load_journal, run_batch
from repro.batch.chaos import (
    CHAOS_KINDS,
    ChaosConfig,
    ChaosError,
    chaos_draw,
    inject_worker_fault,
    torn_write_prefix,
)
from repro.batch.cells import cell_key
from repro.batch.supervise import fault_traceback
from repro.generator.random_systems import GeneratorConfig, generate_instances

#: small budgets keep injected hangs cheap: a hang costs wall_limit =
#: time_limit + grace before the watchdog reaps it
TIME_LIMIT = 0.4
GRACE = 0.4


@pytest.fixture(scope="module")
def grid_cells():
    """The acceptance grid: 100 tiny cells (50 instances x 2 solvers)."""
    instances = generate_instances(GeneratorConfig(n=3, m=2, tmax=3), 50, seed=2009)
    return cells_for_matrix(instances, ["csp2+dc", "csp2"], TIME_LIMIT)


class TestChaosConfig:
    def test_rate_bounds_enforced(self):
        with pytest.raises(ValueError):
            ChaosConfig(rate=1.5)
        with pytest.raises(ValueError):
            ChaosConfig(rate=-0.1)

    def test_kinds_validated(self):
        with pytest.raises(ValueError):
            ChaosConfig(kinds=())
        with pytest.raises(ValueError):
            ChaosConfig(kinds=("crash", "meteor"))

    def test_to_dict_is_json_able(self):
        cfg = ChaosConfig(seed=7, rate=0.25, kinds=("error",))
        assert json.loads(json.dumps(cfg.to_dict())) == cfg.to_dict()


class TestChaosDraw:
    def test_pure_function_of_seed_site_key(self):
        cfg = ChaosConfig(seed=13, rate=0.5)
        draws = [chaos_draw(cfg, "worker", f"k{i}") for i in range(64)]
        again = [chaos_draw(cfg, "worker", f"k{i}") for i in range(64)]
        assert draws == again

    def test_seed_and_site_change_the_draws(self):
        a = ChaosConfig(seed=1, rate=0.5)
        b = ChaosConfig(seed=2, rate=0.5)
        keys = [f"k{i}" for i in range(128)]
        assert [chaos_draw(a, "worker", k) for k in keys] != [
            chaos_draw(b, "worker", k) for k in keys
        ]
        assert [chaos_draw(a, "worker", k) for k in keys] != [
            chaos_draw(a, "journal", k) for k in keys
        ]

    def test_rate_zero_never_draws(self):
        cfg = ChaosConfig(rate=0.0)
        assert all(chaos_draw(cfg, "worker", f"k{i}") is None for i in range(100))
        assert chaos_draw(None, "worker", "k") is None

    def test_rate_one_always_draws_a_known_kind(self):
        cfg = ChaosConfig(rate=1.0)
        for i in range(100):
            assert chaos_draw(cfg, "worker", f"k{i}") in CHAOS_KINDS

    def test_rate_is_roughly_respected(self):
        cfg = ChaosConfig(seed=5, rate=0.3)
        hits = sum(
            chaos_draw(cfg, "worker", f"k{i}") is not None for i in range(1000)
        )
        assert 200 <= hits <= 400  # ~0.3 within generous tolerance

    def test_error_kind_raises_chaos_error(self):
        cfg = ChaosConfig(rate=1.0, kinds=("error",))
        with pytest.raises(ChaosError):
            inject_worker_fault(cfg, "some-cell")
        inject_worker_fault(None, "some-cell")  # no config: no-op


class TestTornWrites:
    def test_prefix_is_a_truncated_newline_terminated_copy(self):
        cfg = ChaosConfig(rate=1.0)
        line = json.dumps({"key": "k", "record": {"a": 1}})
        torn = torn_write_prefix(cfg, "k", line)
        assert torn is not None and torn.endswith("\n")
        body = torn[:-1]
        assert line.startswith(body) and len(body) < len(line)

    def test_disabled_by_flag_or_config(self):
        line = "x" * 50
        assert torn_write_prefix(None, "k", line) is None
        cfg = ChaosConfig(rate=1.0, torn_writes=False)
        assert torn_write_prefix(cfg, "k", line) is None


class TestChaosCampaign:
    """The acceptance bar: chaos campaigns always complete, reproducibly."""

    CHAOS = ChaosConfig(seed=42, rate=0.3)

    def run(self, cells, journal, **kw):
        return run_batch(
            cells, journal=journal, chaos=self.CHAOS, retries=1,
            grace=GRACE, **kw,
        )

    def test_campaign_completes_and_reruns_byte_identically(
        self, tmp_path, grid_cells
    ):
        j1, j2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        report = self.run(grid_cells, j1)

        # zero raised exceptions (we got here) and every cell journaled
        assert report.total == 100
        assert all(r is not None for r in report.records)
        entries = load_journal(j1)
        assert set(entries) == {cell_key(c) for c in grid_cells}
        for rec in entries.values():
            assert rec["status"].startswith("fault:") or rec["status"] in (
                "feasible", "infeasible", "unknown", "skipped-memory",
            )

        # the chaos actually did something on this seed
        assert report.retried > 0
        statuses = {r.status for r in report.records}
        assert any(s.startswith("fault:") for s in statuses) or report.retried

        # byte-identical journal on re-run with the same seeds
        self.run(grid_cells, j2)
        assert j1.read_bytes() == j2.read_bytes()

    def test_resume_equivalence_after_a_crash(self, tmp_path, grid_cells):
        """Fresh run vs crash-at-arbitrary-byte + resume: same journal."""
        fresh = tmp_path / "fresh.jsonl"
        self.run(grid_cells, fresh)
        data = fresh.read_bytes()

        crashed = tmp_path / "crashed.jsonl"
        crashed.write_bytes(data[: int(len(data) * 0.6)])  # torn mid-line
        report = self.run(grid_cells, crashed, resume=True)
        assert report.resumed > 0 and report.computed > 0
        assert crashed.read_bytes() == data

    def test_fault_records_carry_provenance(self, tmp_path, grid_cells):
        chaos = ChaosConfig(seed=42, rate=1.0, kinds=("error",))
        cells = grid_cells[:3]
        report = run_batch(
            cells, journal=tmp_path / "f.jsonl", chaos=chaos, retries=1,
            grace=GRACE,
        )
        assert report.faults == 3
        for r in report.records:
            assert r.status == "fault:error"
            assert r.decided_by == "supervisor:error"
            assert r.elapsed == TIME_LIMIT and r.nodes == 0
            assert r.fault["kind"] == "error"
            assert r.fault["attempts"] == 2  # retries=1 -> two attempts
            assert "ChaosError" in r.fault["detail"]

    def test_retry_can_rescue_a_cell(self, tmp_path, grid_cells):
        """Attempt-salted draws: cells that fault once succeed on retry."""
        no_retry = run_batch(
            grid_cells[:40], chaos=self.CHAOS, retries=0, grace=GRACE,
        )
        with_retry = run_batch(
            grid_cells[:40], chaos=self.CHAOS, retries=2, grace=GRACE,
        )
        assert with_retry.faults < no_retry.faults
        assert with_retry.retried > 0


#: the chaos smoke campaign with no retries: 40 cells, 16 of them faults,
#: six of those ``fault:error`` / ``fault:oom`` records carrying tracebacks
_CAMPAIGN = """
import sys
from repro.batch import ChaosConfig, cells_for_matrix, run_batch
from repro.generator.random_systems import GeneratorConfig, generate_instances
instances = generate_instances(GeneratorConfig(n=3, m=2, tmax=3), 20, seed=2009)
cells = cells_for_matrix(instances, ["csp2+dc", "csp2"], 0.4)
chaos = ChaosConfig(seed=2009, rate=0.3)
run_batch(cells, journal=sys.argv[1], chaos=chaos, retries=0, grace=0.4)
"""


class TestFaultDetail:
    """A fault's traceback names the package's frames from ``repro/``
    down, so where the tree is checked out never shows in a journal."""

    def test_package_frames_are_named_from_repro_down(self):
        try:
            ChaosConfig(seed=0, rate=2.0)
        except ValueError:
            text = fault_traceback()
        source_root = str(Path(repro.__file__).parents[1])
        assert text.startswith("Traceback (most recent call last):")
        assert 'File "repro/batch/chaos.py"' in text
        assert source_root not in text
        assert text.endswith("ValueError: chaos rate must be in [0, 1], got 2.0\n")

    def test_a_chaos_journal_is_the_same_from_two_checkouts(self, tmp_path):
        source = Path(repro.__file__).parent
        journals = []
        for copy in ("first", "second"):
            src = tmp_path / copy / "src"
            shutil.copytree(
                source, src / "repro",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
            journal = tmp_path / copy / "campaign.jsonl"
            env = dict(os.environ, PYTHONPATH=str(src))
            subprocess.run(
                [sys.executable, "-c", _CAMPAIGN, str(journal)],
                env=env, cwd=tmp_path / copy, check=True, timeout=300,
            )
            journals.append(journal.read_bytes())
        details = [
            rec["fault"]["detail"]
            for rec in load_journal(tmp_path / "first" / "campaign.jsonl").values()
            if rec["fault"] is not None and rec["fault"]["detail"].startswith("Traceback")
        ]
        assert details  # the campaign does reach the traceback path
        assert journals[0] == journals[1]
