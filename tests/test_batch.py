"""Tests for the parallel batch layer (cells, cache, executor, CLI)."""

import io
import json
import os
import signal
import time
from dataclasses import asdict, replace

import pytest

from repro.batch import (
    Cell,
    ResultCache,
    cell_key,
    cells_for_matrix,
    load_journal,
    run_batch,
    solve_cell,
)
from repro.batch.transport import WorkResult
from repro.experiments.runner import RunRecord, run_instances
from repro.generator.random_systems import (
    GeneratorConfig,
    Instance,
    generate_instances,
)
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.service import ServiceClient, ServiceConfig, ServiceHandle
from repro.service.protocol import report_text
from repro.solvers.problem import Problem, solve_problem

SOLVERS = ["csp2+dc", "csp2"]
TIME_LIMIT = 5.0  # generous: the tiny instances below always decide


@pytest.fixture(scope="module")
def instances():
    """Six tiny instances every solver decides well within the budget."""
    return generate_instances(GeneratorConfig(n=4, m=2, tmax=4), 6, seed=11)


@pytest.fixture(scope="module")
def cells(instances):
    return cells_for_matrix(instances, SOLVERS, TIME_LIMIT)


def strip_elapsed(records):
    """Everything deterministic about a record (elapsed is wall-clock)."""
    return [
        (r.instance_seed, r.n, r.m, r.hyperperiod, r.utilization_ratio,
         r.solver, r.status, r.nodes)
        for r in records
    ]


def with_problem(cell, **changes):
    """``cell`` asking a changed question."""
    return replace(cell, problem=replace(cell.problem, **changes))


class TestCells:
    def test_matrix_is_instance_major(self, instances, cells):
        assert len(cells) == len(instances) * len(SOLVERS)
        assert [c.solver for c in cells[:2]] == SOLVERS
        assert cells[0].instance_seed == cells[1].instance_seed

    def test_roundtrip_system(self, instances, cells):
        assert cells[0].problem.system == instances[0].system
        assert cells[0].problem.platform == Platform.identical(instances[0].m)

    def test_key_ignores_instance_seed(self, cells):
        c = cells[0]
        relabeled = replace(c, instance_seed=999)
        assert cell_key(relabeled) == cell_key(c)

    def test_key_sensitive_to_content(self, cells):
        c = cells[0]
        more = Platform.identical(c.problem.platform.m + 1)
        assert cell_key(with_problem(c, platform=more)) != cell_key(c)
        assert cell_key(replace(c, solver="csp1")) != cell_key(c)
        assert cell_key(with_problem(c, time_limit=9.0)) != cell_key(c)

    def test_golden_keys_keep_existing_caches_warm(self):
        """Digests written by earlier campaigns and daemons must still be
        found: these values predate the shared ``solve_key``."""
        system = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 3, 3)])
        plain = Cell.from_instance(Instance(system, 2), "csp2+dc", 5.0)
        seeded = with_problem(plain, seed=7, node_limit=100)
        assert cell_key(plain) == (
            "88bf4e8bcfb3f4335d35785ea27a05a2af842401010d7c346695dab2f128003d"
        )
        assert cell_key(seeded) == (
            "32b98636dc562e63475bca188243001bce14ba539750158ee890307c2b6df833"
        )
        # the daemon keys the same question, clamped, the same way
        from repro.service.protocol import ServiceCaps, parse_solve_request

        asked = Problem.of(
            system, m=2, time_limit=5.0, seed=7, node_limit=100
        )
        request = parse_solve_request(
            {"id": 1, "type": "solve", "problem": asked.to_dict(),
             "solver": "csp2+dc"},
            ServiceCaps(),
        )
        assert request.key == cell_key(seeded)

    def test_solve_cell_matches_serial_runner(self, instances, cells):
        run = run_instances(instances[:2], SOLVERS, TIME_LIMIT)
        records = [solve_cell(c) for c in cells[: 2 * len(SOLVERS)]]
        assert strip_elapsed(records) == strip_elapsed(run.records)

    def test_memory_guard_in_cell(self):
        s = TaskSystem.from_tuples([(0, 1, 13, 13), (0, 1, 11, 11)])
        cell = Cell(
            Problem.of(s, m=1, time_limit=0.5, variable_limit=10), "csp1"
        )
        rec = solve_cell(cell)
        assert rec.status == "skipped-memory"
        assert rec.elapsed == 0.5 and rec.nodes == 0


def chunked_dump(doc):
    """The entry text the object-path caches wrote: a chunked
    ``json.dump`` of the value's document."""
    buf = io.StringIO()
    json.dump(doc, buf, separators=(",", ":"))
    return buf.getvalue()


class _PresolvedTransport:
    """Answers every item with one report solved before the request, as
    the worker encodes it, so the test holds the very report served."""

    def __init__(self, report):
        self.text = report_text(report.to_dict())

    def execute(self, items):
        for item in items:
            yield WorkResult(key=item.key, value=self.text)


class _Daemon:
    """An in-process daemon with its memo under ``root``: ``ask(problem,
    solver)`` sends one solve request and returns its decoded response."""

    def __init__(self, root, report):
        config = ServiceConfig(jobs=1, supervised=False, cache_dir=str(root))
        self.handle = ServiceHandle(config, transport=_PresolvedTransport(report))
        self.memo = ResultCache(root / "reports")

    def __enter__(self):
        self.client = ServiceClient.connect(*self.handle.start())
        return self

    def __exit__(self, *exc):
        self.client.close()
        self.handle.stop()

    def ask(self, problem, solver):
        return self.client.recv(self.client.submit(problem, solver=solver))


class TestCache:
    """The one cache class stores text; each consumer (``run_batch``'s
    record memo, the daemon's report memo) parses an entry once and
    treats a document of the wrong shape as a miss."""

    def test_miss_then_hit_roundtrip(self, tmp_path, cells):
        cache = ResultCache(tmp_path / "cache")
        key = cell_key(cells[0])
        assert cache.get(key) is None and key not in cache
        text = json.dumps(asdict(solve_cell(cells[0])))
        cache.put(key, text)
        assert key in cache and len(cache) == 1
        assert cache.get(key) == text  # byte-identical round-trip

    def test_corrupt_entry_is_a_miss(self, tmp_path, cells):
        cache = ResultCache(tmp_path / "cache")
        key = cell_key(cells[0])
        cache.put(key, "{not json")
        rep = run_batch(cells[:1], cache=cache)
        assert rep.cache_hits == 0 and rep.computed == 1
        assert RunRecord.from_dict(json.loads(cache.get(key))) == rep.records[0]
        with open(cache.log, "ab") as fh:  # a later record, not even text
            fh.write(b"\n" + key.encode() + b" \xff\xfe\n")
        assert cache.get(key) is None

    def test_entry_files_match_the_chunked_dump(self, tmp_path, cells):
        cell = cells[0]
        key = cell_key(cell)
        # the campaign memo: one record document per cell
        cold = run_batch([cell], cache=tmp_path / "results")
        results = ResultCache(tmp_path / "results")
        assert results.get(key) == chunked_dump(asdict(cold.records[0]))
        warm = run_batch([cell], cache=results)
        assert warm.cache_hits == 1 and warm.records == cold.records
        # the daemon's memo: one full report document per question
        report = solve_problem(cell.problem, cell.solver)
        with _Daemon(tmp_path, report) as daemon:
            assert daemon.ask(cell.problem, cell.solver)["cached"] is False
            assert daemon.memo.get(key) == chunked_dump(report.to_dict())
            hit = daemon.ask(cell.problem, cell.solver)
            assert hit["cached"] is True and hit["report"] == report.to_dict()
        for cache in (results, daemon.memo):  # no debris beside the log
            assert [p.name for p in cache.root.iterdir()] == [cache.log.name]

    @pytest.mark.parametrize("damage", ["truncated", "foreign"])
    def test_unreadable_entry_is_a_miss(self, tmp_path, cells, damage):
        """A damaged entry, or valid JSON that is neither a record nor a
        report, is a miss for its consumer: the cell or request is solved
        again and the entry is overwritten."""
        cell = cells[0]
        key = cell_key(cell)

        def damaged(doc):
            text = chunked_dump(doc)
            if damage == "truncated":
                yield text[: len(text) // 2]
            else:
                doc = json.loads(text)
                doc.pop("status")
                yield json.dumps(doc)
            yield from ("[1, 2]", '{"key": 1}', "null")

        results = ResultCache(tmp_path / "results")
        for text in damaged(asdict(solve_cell(cell))):
            results.put(key, text)
            rep = run_batch([cell], cache=results)
            assert rep.cache_hits == 0 and rep.computed == 1, text
            assert results.get(key) == chunked_dump(asdict(rep.records[0]))
        report = solve_problem(cell.problem, cell.solver)
        with _Daemon(tmp_path, report) as daemon:
            for text in damaged(report.to_dict()):
                daemon.memo.put(key, text)
                assert daemon.ask(cell.problem, cell.solver)["cached"] is False
                assert daemon.memo.get(key) == chunked_dump(report.to_dict())

    def test_run_batch_warm_cache_is_byte_identical(self, tmp_path, cells):
        cache = tmp_path / "cache"
        cold = run_batch(cells, jobs=1, cache=cache)
        assert cold.computed == len(cells) and cold.cache_hits == 0
        warm = run_batch(cells, jobs=1, cache=cache)
        assert warm.computed == 0 and warm.cache_hits == len(cells)
        assert warm.records == cold.records  # elapsed included

    def test_cache_shared_across_campaign_seeds(self, tmp_path, instances):
        """Same system content under a different generator seed still hits,
        and the served record carries the new campaign's seed."""
        cache = tmp_path / "cache"
        run_batch(cells_for_matrix(instances[:1], SOLVERS, TIME_LIMIT), cache=cache)
        relabeled = replace(instances[0], seed=424242)
        assert isinstance(relabeled, Instance)
        journal = tmp_path / "b.jsonl"
        rep = run_batch(
            cells_for_matrix([relabeled], SOLVERS, TIME_LIMIT),
            cache=cache, journal=journal,
        )
        assert rep.cache_hits == len(SOLVERS)
        assert all(r.instance_seed == 424242 for r in rep.records)
        # the journal is campaign B's output: it must carry B's seeds too
        assert all(
            rec["instance_seed"] == 424242
            for rec in load_journal(journal).values()
        )


class TestExecutor:
    def test_jobs1_matches_jobsN(self, cells):
        serial = run_batch(cells, jobs=1)
        parallel = run_batch(cells, jobs=4)
        assert strip_elapsed(serial.records) == strip_elapsed(parallel.records)

    def test_records_in_canonical_order(self, cells):
        rep = run_batch(cells, jobs=4)
        assert [(r.instance_seed, r.solver) for r in rep.records] == [
            (c.instance_seed, c.solver) for c in cells
        ]

    def test_journal_streams_every_cell(self, tmp_path, cells):
        journal = tmp_path / "results.jsonl"
        rep = run_batch(cells, jobs=1, journal=journal)
        entries = load_journal(journal)
        assert set(entries) == {cell_key(c) for c in cells}
        assert rep.resumed == 0

    def test_resume_after_kill(self, tmp_path, cells):
        """A journal with some complete lines and one torn line resumes
        exactly: journaled cells are served, the rest recomputed."""
        journal = tmp_path / "results.jsonl"
        full = run_batch(cells, jobs=1, journal=journal)
        lines = journal.read_text().splitlines(keepends=True)
        keep = len(cells) // 2
        # simulate a crash mid-write: half the lines, plus a torn one
        journal.write_text("".join(lines[:keep]) + lines[keep][: len(lines[keep]) // 2])
        resumed = run_batch(cells, jobs=1, journal=journal, resume=True)
        assert resumed.resumed == keep
        assert resumed.computed == len(cells) - keep
        assert strip_elapsed(resumed.records) == strip_elapsed(full.records)
        # the journal is whole again afterwards: every cell present and
        # every line valid JSON (the torn tail was truncated, not kept)
        assert set(load_journal(journal)) == {cell_key(c) for c in cells}
        for line in journal.read_text().splitlines():
            json.loads(line)

    def test_resume_tolerates_foreign_record_shape(self, tmp_path, cells):
        """A journal line whose record doesn't match RunRecord's fields is
        recomputed, never a crash (e.g. written by another version)."""
        journal = tmp_path / "results.jsonl"
        run_batch(cells[:2], jobs=1, journal=journal)
        lines = journal.read_text().splitlines()
        bad = json.loads(lines[0])
        bad["record"]["bogus_field"] = 1
        journal.write_text(json.dumps(bad) + "\n" + lines[1] + "\n")
        rep = run_batch(cells[:2], jobs=1, journal=journal, resume=True)
        assert rep.resumed == 1 and rep.computed == 1

    def test_resume_warms_the_cache(self, tmp_path, cells):
        """Cells served from the journal are also written to --cache-dir."""
        journal = tmp_path / "results.jsonl"
        cache = ResultCache(tmp_path / "cache")
        run_batch(cells, jobs=1, journal=journal)
        run_batch(cells, jobs=1, journal=journal, resume=True, cache=cache)
        assert len(cache) == len(cells)

    def test_resume_with_full_journal_computes_nothing(self, tmp_path, cells):
        journal = tmp_path / "results.jsonl"
        full = run_batch(cells, jobs=1, journal=journal)
        again = run_batch(cells, jobs=4, journal=journal, resume=True)
        assert again.resumed == len(cells) and again.computed == 0
        assert again.records == full.records

    def test_duplicate_cells_solved_once(self, cells):
        rep = run_batch([cells[0], cells[0], cells[1]], jobs=1)
        assert rep.computed == 2
        assert rep.records[0] == rep.records[1]

    def test_progress_called_per_cell(self, cells):
        seen = []
        run_batch(cells, jobs=1, progress=lambda d, t: seen.append((d, t)))
        assert seen[-1] == (len(cells), len(cells))
        assert len(seen) == len(cells)

    def test_bad_jobs_rejected(self, cells):
        with pytest.raises(ValueError):
            run_batch(cells, jobs=0)


#: instance seed whose cells the killer/raiser helpers below target;
#: set by each test before launching the campaign
_VICTIM_SEED = None


def _solve_or_sigkill(cell):
    """Worker stand-in: SIGKILL ourselves on the victim's cells."""
    if cell.instance_seed == _VICTIM_SEED:
        os.kill(os.getpid(), signal.SIGKILL)
    return solve_cell(cell)


def _solve_or_raise(cell):
    """Worker stand-in: raise on the victim's cells."""
    if cell.instance_seed == _VICTIM_SEED:
        raise RuntimeError("deliberate worker failure")
    return solve_cell(cell)


def _solve_or_hang(cell):
    """Worker stand-in: overrun the victim's budget by seconds."""
    if cell.instance_seed == _VICTIM_SEED:
        time.sleep(8.0)
    return solve_cell(cell)


def _solve_or_balloon(cell):
    """Worker stand-in: reserve 3 GiB of address space on the victim's
    cells (``np.zeros`` maps it lazily, so without an rlimit it costs
    no physical memory)."""
    if cell.instance_seed == _VICTIM_SEED:
        import numpy as np

        np.zeros(3 << 30, dtype=np.uint8)
    return solve_cell(cell)


class TestFaultTolerance:
    """A campaign always completes; dead cells become fault:* records."""

    def _mark_victim(self, monkeypatch, instances):
        monkeypatch.setattr(
            "tests.test_batch._VICTIM_SEED", instances[0].seed, raising=False
        )
        # monkeypatch can't reach the module-global read by the forked
        # workers through its normal attr path, so set it directly too
        global _VICTIM_SEED
        _VICTIM_SEED = instances[0].seed

    def test_sigkilled_pool_worker_does_not_abort_the_campaign(
        self, tmp_path, monkeypatch, instances, cells
    ):
        """A SIGKILLed warm child takes down only its own cell: the
        campaign completes, with the victim journaled as a fault
        record and every other cell clean."""
        self._mark_victim(monkeypatch, instances)
        monkeypatch.setattr(
            "repro.batch.executor.solve_cell", _solve_or_sigkill
        )
        journal = tmp_path / "r.jsonl"
        report = run_batch(cells, jobs=2, journal=journal, retries=1, grace=2.0)
        assert all(r is not None for r in report.records)
        victims = [r for r in report.records if r.instance_seed == instances[0].seed]
        assert victims and all(r.status.startswith("fault:") for r in victims)
        # SIGKILL without a report classifies as the OOM-killer's work
        assert all(r.status == "fault:oom" for r in victims)
        survivors = [r for r in report.records if r.instance_seed != instances[0].seed]
        assert all(not r.status.startswith("fault:") for r in survivors)
        assert set(load_journal(journal)) == {cell_key(c) for c in cells}
        assert report.faults == len(victims)

    def test_hanging_cell_under_parallel_jobs_times_out(
        self, tmp_path, monkeypatch, instances
    ):
        """Unsupervised ``jobs=2`` cells run under the watchdog: the
        victim's cells end ``fault:timeout`` at budget + grace instead
        of running on, and the campaign finishes in bounded time."""
        self._mark_victim(monkeypatch, instances)
        monkeypatch.setattr("repro.batch.executor.solve_cell", _solve_or_hang)
        cells = cells_for_matrix(instances[:3], SOLVERS, 1.0)
        journal = tmp_path / "r.jsonl"
        t0 = time.monotonic()
        report = run_batch(cells, jobs=2, journal=journal, retries=0,
                           grace=0.5)
        assert time.monotonic() - t0 < 6.0
        journaled = load_journal(journal)
        for cell in cells:
            status = journaled[cell_key(cell)]["status"]
            if cell.instance_seed == instances[0].seed:
                assert status == "fault:timeout"
            else:
                assert not status.startswith("fault:")
        assert report.faults == len(SOLVERS)

    def test_memory_limit_applies_to_parallel_cells(
        self, monkeypatch, instances, cells
    ):
        """``memory_limit`` binds every ``jobs=2`` child, not only
        supervised runs: the victim's over-limit cells end
        ``fault:oom``."""
        self._mark_victim(monkeypatch, instances)
        monkeypatch.setattr(
            "repro.batch.executor.solve_cell", _solve_or_balloon
        )
        report = run_batch(cells[:4], jobs=2, retries=0,
                           memory_limit=2 << 30)
        for record in report.records:
            if record.instance_seed == instances[0].seed:
                assert record.status == "fault:oom"
            else:
                assert not record.status.startswith("fault:")

    def test_inprocess_failure_escalates_to_supervision(
        self, tmp_path, monkeypatch, instances, cells
    ):
        """jobs=1 in-process exceptions classify instead of propagating."""
        self._mark_victim(monkeypatch, instances)
        monkeypatch.setattr("repro.batch.executor.solve_cell", _solve_or_raise)
        report = run_batch(cells[:4], jobs=1, retries=0, grace=2.0)
        faulted = [r for r in report.records if r.status == "fault:error"]
        assert len(faulted) == 2  # both solvers of the victim instance
        assert all("deliberate worker failure" in r.fault["detail"] for r in faulted)
        assert report.retried == 2

    def test_supervised_matches_plain_execution(self, cells):
        plain = run_batch(cells[:6], jobs=1)
        watched = run_batch(cells[:6], jobs=2, supervised=True)
        assert strip_elapsed(plain.records) == strip_elapsed(watched.records)
        assert watched.faults == 0 and watched.retried == 0

    def test_raising_progress_callback_cannot_abort_journaling(
        self, tmp_path, cells
    ):
        def bad_progress(done, total):
            raise ValueError("user callback bug")

        journal = tmp_path / "r.jsonl"
        with pytest.warns(RuntimeWarning, match="progress callback"):
            report = run_batch(cells[:4], jobs=1, journal=journal,
                               progress=bad_progress)
        assert all(r is not None for r in report.records)
        assert set(load_journal(journal)) == {cell_key(c) for c in cells[:4]}

    def test_fault_resume_skip_serves_retry_recomputes(self, tmp_path, cells):
        from repro.batch import ChaosConfig

        chaos = ChaosConfig(seed=0, rate=1.0, kinds=("error",), torn_writes=False)
        journal = tmp_path / "r.jsonl"
        first = run_batch(cells[:2], journal=journal, chaos=chaos, retries=0)
        assert first.faults == 2

        served = run_batch(cells[:2], journal=journal, resume=True)
        assert served.resumed == 2 and served.computed == 0
        assert all(r.status == "fault:error" for r in served.records)

        healed = run_batch(
            cells[:2], journal=journal, resume=True, fault_resume="retry"
        )
        assert healed.resumed == 0 and healed.computed == 2
        assert all(not r.status.startswith("fault:") for r in healed.records)
        # the journal's last word per key is now the healed record
        for rec in load_journal(journal).values():
            assert not rec["status"].startswith("fault:")

    def test_fault_records_never_enter_the_cache(self, tmp_path, cells):
        from repro.batch import ChaosConfig

        chaos = ChaosConfig(seed=0, rate=1.0, kinds=("error",))
        cache = ResultCache(tmp_path / "cache")
        run_batch(cells[:2], cache=cache, chaos=chaos, retries=0)
        assert len(cache) == 0

    def test_bad_knobs_rejected(self, cells):
        with pytest.raises(ValueError):
            run_batch(cells[:1], retries=-1)
        with pytest.raises(ValueError):
            run_batch(cells[:1], fault_resume="maybe")


class TestRunnerShim:
    def test_run_instances_still_serial_compatible(self, instances):
        a = run_instances(instances, SOLVERS, TIME_LIMIT)
        b = run_instances(instances, SOLVERS, TIME_LIMIT, jobs=2)
        assert strip_elapsed(a.records) == strip_elapsed(b.records)

    def test_run_instances_uses_cache(self, tmp_path, instances):
        cache = str(tmp_path / "cache")
        a = run_instances(instances, SOLVERS, TIME_LIMIT, cache_dir=cache)
        b = run_instances(instances, SOLVERS, TIME_LIMIT, cache_dir=cache)
        assert a.records == b.records


class TestBatchCli:
    def run_cli(self, *argv):
        from repro.cli import main

        return main(list(argv))

    def test_cold_then_resume(self, tmp_path, capsys):
        out = tmp_path / "r.jsonl"
        args = [
            "batch", "--count", "4", "-n", "4", "-m", "2", "--tmax", "4",
            "--solvers", "csp2+dc", "--time-limit", "5.0",
            "--jobs", "2", "--cache-dir", str(tmp_path / "cache"),
            "-o", str(out), "--quiet",
        ]
        assert self.run_cli(*args) == 0
        first = capsys.readouterr().out
        assert "4 cells" in first and "computed: 4" in first
        assert self.run_cli(*args, "--resume") == 0
        second = capsys.readouterr().out
        assert "computed: 0" in second and "resumed: 4" in second
        assert len(load_journal(out)) == 4

    def test_instances_file(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(
            {"tasks": [[0, 1, 2, 2], [1, 3, 4, 4], [0, 2, 2, 3]], "m": 2}
        ))
        rc = self.run_cli(
            "batch", "--instances-file", str(path), "--solvers", "csp2+dc",
            "--time-limit", "5.0", "-o", str(tmp_path / "r.jsonl"), "--quiet",
        )
        assert rc == 0
        assert "feasible: 1" in capsys.readouterr().out

    def test_unknown_solver_rejected(self, tmp_path, capsys):
        rc = self.run_cli(
            "batch", "--count", "1", "--solvers", "nope",
            "-o", str(tmp_path / "r.jsonl"),
        )
        assert rc == 2


def test_journal_loader_ignores_garbage(tmp_path):
    path = tmp_path / "j.jsonl"
    rec = RunRecord(1, 4, 2, 12, 0.5, "csp2+dc", "feasible", 0.1, 3)
    good = json.dumps({"key": "k1", "record": rec.__dict__})
    path.write_text(good + "\n\nnot json\n" + '{"key": "k2"}' + "\n")
    entries = load_journal(path)
    assert set(entries) == {"k1"}
    assert RunRecord(**entries["k1"]) == rec


def test_load_journal_missing_file(tmp_path):
    assert load_journal(tmp_path / "absent.jsonl") == {}
