"""Tests for the execution-transport seam (``repro.batch.transport``)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from contextlib import closing
from pathlib import Path

import pytest

from repro.batch import (
    LocalPoolTransport,
    Transport,
    WorkItem,
    WorkResult,
    cells_for_matrix,
    run_batch,
)
from repro.batch import transport as transport_mod
from repro.batch.supervise import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_OOM,
    FAULT_TIMEOUT,
    SupervisedWorker,
)
from repro.batch.transport import backoff_delay
from repro.generator.random_systems import GeneratorConfig, generate_instances

# -- module-level workers (pickled by name into children: R4 contract) ------


def _double(payload, attempt):
    return payload * 2


def _echo_attempt(payload, attempt):
    return (payload, attempt)


def _always_raises(payload, attempt):
    raise ValueError(f"deliberate failure on {payload!r}")


def _fails_in_pid(payload, attempt):
    """Raise only inside the process whose pid rides in the payload.

    Lets a test fail deterministically in the parent (serial path) while
    succeeding in any supervised child, which necessarily has a
    different pid — the attempt counter restarts at 0 in children, so
    attempt-based flakiness cannot model escalation.
    """
    if os.getpid() == payload:
        raise RuntimeError("failing in the original process")
    return "recovered"


def _pid(payload, attempt):
    return os.getpid()


def _slow_echo(payload, attempt):
    time.sleep(0.01)
    return payload


def _die(payload, attempt):
    os.kill(os.getpid(), signal.SIGABRT)


def _hang(payload, attempt):
    time.sleep(3600.0)


def _sleep_six(payload, attempt):
    time.sleep(6.0)
    return payload


def _balloon(payload, attempt):
    return len(bytearray(3 << 30))


def _fail_first_attempt(payload, attempt):
    if attempt == 0:
        raise RuntimeError("first attempt fails")
    return os.getpid()


def _pid_then_sleep(payload, attempt):
    """Record this child's pid under ``payload``'s path, then hang."""
    Path(payload + ".tmp").write_text(str(os.getpid()))
    os.replace(payload + ".tmp", payload)  # the path appears complete
    time.sleep(60.0)


def _alive(pid):
    """True iff ``pid`` is a running (not zombie) process."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


class TestBackoffDelay:
    def test_deterministic_per_key_and_attempt(self):
        assert backoff_delay(0.5, "cell-a", 1) == backoff_delay(0.5, "cell-a", 1)
        assert backoff_delay(0.5, "cell-a", 1) != backoff_delay(0.5, "cell-b", 1)
        assert backoff_delay(0.5, "cell-a", 1) != backoff_delay(0.5, "cell-a", 2)

    def test_zero_backoff_is_free(self):
        assert backoff_delay(0.0, "k", 1) == 0.0
        assert backoff_delay(-1.0, "k", 3) == 0.0

    def test_exponential_base_with_bounded_jitter(self):
        # jitter is in [0.5, 1.5): attempt 1 of base 1.0 lands there
        d1 = backoff_delay(1.0, "k", 1)
        assert 0.5 <= d1 < 1.5
        # attempt 3 doubles twice; jitter is re-drawn but stays bounded
        d3 = backoff_delay(1.0, "k", 3)
        assert 2.0 <= d3 < 6.0


class TestConstruction:
    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="jobs"):
            LocalPoolTransport(jobs=0)
        with pytest.raises(ValueError, match="retries"):
            LocalPoolTransport(retries=-1)

    def test_satisfies_the_protocol(self):
        assert isinstance(LocalPoolTransport(), Transport)

    def test_empty_batch_yields_nothing(self):
        assert list(LocalPoolTransport().execute([])) == []


class TestSerialPath:
    def test_in_process_success(self):
        items = [WorkItem(f"k{i}", _double, i) for i in range(4)]
        results = list(LocalPoolTransport(jobs=1).execute(items))
        assert [r.key for r in results] == [f"k{i}" for i in range(4)]
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_first_attempt_is_zero(self):
        (res,) = LocalPoolTransport(jobs=1).execute([WorkItem("k", _echo_attempt, "p")])
        assert res.value == ("p", 0)

    def test_raise_escalates_to_supervised_child(self):
        item = WorkItem("k", _fails_in_pid, os.getpid())
        (res,) = LocalPoolTransport(jobs=1, retries=1).execute([item])
        assert res.ok and res.value == "recovered"
        # one burned in-process attempt + one successful child
        assert res.attempts == 2

    def test_exhausted_retries_classify_a_fault(self):
        item = WorkItem("k", _always_raises, "p")
        (res,) = LocalPoolTransport(jobs=1, retries=2).execute([item])
        assert not res.ok and res.value is None
        assert res.fault.kind == FAULT_ERROR
        assert "deliberate failure" in res.fault.detail
        # the fault records the supervised loop's own count; the result
        # additionally counts the burned in-process attempt
        assert res.fault.attempts == 3
        assert res.attempts == 4


class TestSupervisedPath:
    def test_single_job(self):
        items = [WorkItem(f"k{i}", _double, i) for i in range(3)]
        results = list(LocalPoolTransport(supervised=True).execute(items))
        assert sorted((r.key, r.value) for r in results) == [
            ("k0", 0), ("k1", 2), ("k2", 4),
        ]
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_parallel_watchers_return_every_item(self):
        items = [WorkItem(f"k{i}", _double, i) for i in range(5)]
        results = list(
            LocalPoolTransport(jobs=3, supervised=True).execute(items)
        )
        # completion order is free; coverage and values are not
        assert {r.key: r.value for r in results} == {
            f"k{i}": i * 2 for i in range(5)
        }

    def test_fault_attempt_accounting(self):
        item = WorkItem("k", _always_raises, "p")
        (res,) = LocalPoolTransport(supervised=True, retries=1).execute([item])
        assert not res.ok
        assert res.fault.attempts == 2 and res.attempts == 2


class TestPoolPath:
    """``jobs > 1`` without ``supervised``: warm watched children too."""

    def test_pool_success(self):
        items = [WorkItem(f"k{i}", _double, i) for i in range(6)]
        with LocalPoolTransport(jobs=2) as transport:
            results = list(transport.execute(items))
            assert 1 <= transport.workers_spawned <= 2
        assert {r.key: r.value for r in results} == {
            f"k{i}": i * 2 for i in range(6)
        }
        assert all(r.ok and r.attempts == 1 for r in results)

    def test_pool_failure_retries_in_a_fresh_child_then_classifies(self):
        items = [
            WorkItem("good", _double, 5),
            WorkItem("bad", _always_raises, "p"),
        ]
        for retries in (0, 1):
            transport = LocalPoolTransport(jobs=2, retries=retries)
            results = {r.key: r for r in transport.execute(items)}
            assert results["good"].ok and results["good"].value == 10
            bad = results["bad"]
            assert not bad.ok and bad.fault.kind == FAULT_ERROR
            # no in-process attempt is burned: every attempt is a child's
            assert bad.attempts == bad.fault.attempts == retries + 1

    def test_overrunning_item_ends_fault_timeout(self):
        """The watchdog covers unsupervised ``jobs > 1`` items: a 6 s
        item with a 0.5 s budget is terminated at budget + grace while
        its quick neighbour answers."""
        items = [
            WorkItem("slow", _sleep_six, "s", wall_limit=0.5),
            WorkItem("quick", _double, 4, wall_limit=0.5),
        ]
        t0 = time.monotonic()
        with LocalPoolTransport(jobs=2, retries=0, grace=0.5) as transport:
            results = {r.key: r for r in transport.execute(items)}
        assert time.monotonic() - t0 < 3.0
        assert results["slow"].fault.kind == FAULT_TIMEOUT
        assert results["quick"].ok and results["quick"].value == 8


class TestWarmPool:
    def test_consecutive_items_share_one_child(self):
        items = [WorkItem(f"k{i}", _pid, None) for i in range(2)]
        with LocalPoolTransport(supervised=True) as transport:
            first, second = transport.execute(items)
            assert first.value == second.value != os.getpid()
            assert transport.workers_spawned == 1

    @pytest.mark.parametrize(
        "fn, kind",
        [
            (_always_raises, FAULT_ERROR),
            (_die, FAULT_CRASH),
            (_hang, FAULT_TIMEOUT),
            (_balloon, FAULT_OOM),
        ],
    )
    def test_every_fault_kind_recycles_the_child(self, fn, kind):
        transport = LocalPoolTransport(
            supervised=True, retries=0, grace=0.3, memory_limit=2 << 30,
        )
        with transport:
            (warm,) = transport.execute([WorkItem("a", _pid, None)])
            (bad,) = transport.execute(
                [WorkItem("b", fn, None, wall_limit=0.0)]
            )
            assert bad.fault.kind == kind
            assert not _alive(warm.value)  # the faulted child is gone
            (after,) = transport.execute([WorkItem("c", _pid, None)])
            assert after.ok and after.value != warm.value
            assert transport.workers_spawned == 2

    def test_retry_never_runs_in_the_faulted_child(self):
        with LocalPoolTransport(supervised=True, retries=1) as transport:
            (warm,) = transport.execute([WorkItem("a", _pid, None)])
            (res,) = transport.execute(
                [WorkItem("b", _fail_first_attempt, None)]
            )
            # attempt 0 faulted in the warm child; attempt 1 ran fresh
            assert res.ok and res.attempts == 2
            assert res.value != warm.value
            assert transport.workers_spawned == 2

    def test_child_is_recycled_after_max_items(self, monkeypatch):
        monkeypatch.setattr(transport_mod, "_WORKER_MAX_ITEMS", 3)
        items = [WorkItem(f"k{i}", _pid, None) for i in range(7)]
        with LocalPoolTransport(supervised=True) as transport:
            pids = [r.value for r in transport.execute(items)]
            assert transport.workers_spawned == 3
        assert pids[0:3] == [pids[0]] * 3
        assert pids[3:6] == [pids[3]] * 3
        assert len({pids[0], pids[3], pids[6]}) == 3

    def test_concurrent_executes_never_share_a_child(self, monkeypatch):
        lock = threading.Lock()
        busy, shared = set(), []

        class TrackedWorker(SupervisedWorker):
            def run(self, *args, **kwargs):
                with lock:
                    if self.pid in busy:
                        shared.append(self.pid)
                    busy.add(self.pid)
                try:
                    return super().run(*args, **kwargs)
                finally:
                    with lock:
                        busy.discard(self.pid)

        monkeypatch.setattr(transport_mod, "SupervisedWorker", TrackedWorker)
        transport = LocalPoolTransport(supervised=True)
        start = threading.Barrier(2)
        results = {}

        def stream(name):
            start.wait()
            items = [WorkItem(f"{name}{i}", _slow_echo, (name, i))
                     for i in range(8)]
            results[name] = [r.value for r in transport.execute(items)]

        threads = [threading.Thread(target=stream, args=(n,)) for n in "ab"]
        with transport:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        assert shared == []
        assert results == {
            n: [(n, i) for i in range(8)] for n in "ab"
        }
        assert 1 <= transport.workers_spawned <= 2

    def test_close_leaves_no_live_children(self):
        items = [WorkItem(f"k{i}", _slow_echo, i) for i in range(6)]
        transport = LocalPoolTransport(jobs=3, supervised=True)
        list(transport.execute(items))
        pids = [w.pid for w in transport._idle]
        assert pids and all(_alive(pid) for pid in pids)
        transport.close()
        assert not any(_alive(pid) for pid in pids)
        # a transport used after close still answers, without pooling
        (res,) = transport.execute([WorkItem("late", _pid, None)])
        assert res.ok and transport._idle == []

    def test_killed_parent_leaves_no_orphan_children(self, tmp_path):
        script = tmp_path / "parent.py"
        script.write_text(
            "import json, os, sys, time\n"
            "from repro.batch.transport import LocalPoolTransport, WorkItem\n"
            "def pid(payload, attempt):\n"
            "    time.sleep(0.2)\n"
            "    return os.getpid()\n"
            "transport = LocalPoolTransport(jobs=2, supervised=True)\n"
            "items = [WorkItem(str(i), pid, i) for i in range(2)]\n"
            "print(json.dumps([r.value for r in transport.execute(items)]))\n"
            "sys.stdout.flush()\n"
            "time.sleep(120)\n"
        )
        root = Path(__file__).resolve().parent.parent
        proc = subprocess.Popen(
            [sys.executable, str(script)], stdout=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(root / "src")},
        )
        try:
            pids = json.loads(proc.stdout.readline())
            assert len(set(pids)) == 2 and all(_alive(p) for p in pids)
        finally:
            proc.kill()
            proc.wait(timeout=30.0)
            proc.stdout.close()
        deadline = time.monotonic() + 5.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(p) for p in pids)


class TestEarlyClose:
    """Closing a supervised stream early cancels the rest of it."""

    def test_closing_a_pool_stream_never_starts_queued_cells(self):
        """``solve_iter(jobs=2)``: six 2 s cells on two warm children,
        closed after the first report, return at once; the children
        running cells are gone well within the budget, and the queued
        cells never start."""
        import multiprocessing

        from repro.solvers.problem import Problem, solve_iter

        inst = generate_instances(GeneratorConfig(n=5, tmax=5, m=2), 1,
                                  seed=31)[0]
        problems = [
            Problem.of(inst.system, m=2, time_limit=2.0, label=f"p{i}")
            for i in range(6)
        ]
        before = set(multiprocessing.active_children())
        stream = solve_iter(problems, "csp2-local", jobs=2)
        assert next(stream).status_label == "unknown"
        pool = set(multiprocessing.active_children()) - before
        t0 = time.monotonic()
        stream.close()
        assert time.monotonic() - t0 < 1.0
        # the running children are terminated; had the queued cells
        # started, the children would stay busy for 4 s more
        deadline = time.monotonic() + 3.5
        while any(p.is_alive() for p in pool):
            assert time.monotonic() < deadline, "queued cells ran"
            time.sleep(0.05)

    def test_closing_a_pool_stream_terminates_its_running_workers(self, capfd):
        """Six 2 s cells on two warm children, closed after the first
        report: the children still running cells are gone within 1 s,
        without a traceback on stderr."""
        import multiprocessing

        from repro.solvers.problem import Problem, solve_iter

        inst = generate_instances(GeneratorConfig(n=5, tmax=5, m=2), 1,
                                  seed=31)[0]
        problems = [
            Problem.of(inst.system, m=2, time_limit=2.0, label=f"p{i}")
            for i in range(6)
        ]
        before = set(multiprocessing.active_children())
        stream = solve_iter(problems, "csp2-local", jobs=2)
        assert next(stream).status_label == "unknown"
        pool = set(multiprocessing.active_children()) - before
        assert pool
        stream.close()
        deadline = time.monotonic() + 1.0
        while any(p.is_alive() for p in pool):
            assert time.monotonic() < deadline, "children still running"
            time.sleep(0.02)
        assert "Traceback" not in capfd.readouterr().err

    def test_close_kills_running_children_and_skips_queued(self, tmp_path):
        names = ["slow", "fast", "q1", "q2", "q3"]
        items = [
            WorkItem(name, _double, 21) if name == "fast"
            else WorkItem(name, _pid_then_sleep, str(tmp_path / name))
            for name in names
        ]
        transport = LocalPoolTransport(jobs=2, supervised=True, retries=0)
        stream = transport.execute(items)
        first = next(stream)
        assert first.key == "fast" and first.value == 42
        # the freed slot may already have taken q1; slow is running
        deadline = time.monotonic() + 10.0
        while not (tmp_path / "slow").exists():
            assert time.monotonic() < deadline, "slow never started"
            time.sleep(0.01)
        t0 = time.monotonic()
        stream.close()
        assert time.monotonic() - t0 < 5.0
        pids = [
            int((tmp_path / name).read_text())
            for name in ("slow", "q1") if (tmp_path / name).exists()
        ]
        deadline = time.monotonic() + 5.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(p) for p in pids)
        # both slots were busy until the close: q2 and q3 never started
        assert not (tmp_path / "q2").exists()
        assert not (tmp_path / "q3").exists()
        # killed children are never handed back for reuse
        assert not any(w.pid in pids for w in transport._idle)
        transport.close()

    def test_close_under_contention_leaves_no_child_running(self, tmp_path):
        """More watcher threads than cores and a short switch interval:
        every child the closed stream started is dead, none is reused,
        and no item past the first free slot ever starts."""
        sleepers = [f"s{i}" for i in range(12)]
        items = [WorkItem("fast", _double, 1)] + [
            WorkItem(name, _pid_then_sleep, str(tmp_path / name))
            for name in sleepers
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with LocalPoolTransport(
                jobs=4, supervised=True, retries=0
            ) as transport:
                with closing(transport.execute(items)) as stream:
                    assert next(stream).key == "fast"
                    deadline = time.monotonic() + 10.0
                    while not (tmp_path / "s0").exists():
                        assert time.monotonic() < deadline
                        time.sleep(0.01)
                started = [n for n in sleepers if (tmp_path / n).exists()]
                pids = [int((tmp_path / n).read_text()) for n in started]
                assert not any(w.pid in pids for w in transport._idle)
        finally:
            sys.setswitchinterval(old)
        # four slots: "fast" and three sleepers, then one freed slot
        assert set(started) <= {"s0", "s1", "s2", "s3"}
        deadline = time.monotonic() + 5.0
        while any(_alive(p) for p in pids) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(_alive(p) for p in pids)


class _RecordingTransport:
    """Delegates to the real local transport, remembering what it saw."""

    def __init__(self):
        self.inner = LocalPoolTransport(jobs=1)
        self.items = []

    def execute(self, items):
        self.items.extend(items)
        yield from self.inner.execute(items)


class TestRunBatchSeam:
    def test_custom_transport_receives_the_pending_cells(self, tmp_path):
        instances = generate_instances(
            GeneratorConfig(n=3, m=2, tmax=3), 3, seed=11
        )
        cells = cells_for_matrix(instances, ["csp2+dc"], 5.0)
        transport = _RecordingTransport()
        report = run_batch(
            cells, journal=tmp_path / "j.jsonl", transport=transport
        )
        assert report.computed == len(cells)
        assert len(transport.items) == len(cells)
        assert all(isinstance(it, WorkItem) for it in transport.items)
        assert all(it.wall_limit == 5.0 for it in transport.items)
        # the injected transport's results are what the campaign recorded
        assert {r.status for r in report.records} <= {"feasible", "infeasible"}

    def test_work_result_ok_property(self):
        assert WorkResult(key="k", value=1).ok
        assert not WorkResult(key="k", fault=object()).ok
