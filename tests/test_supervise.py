"""Tests for supervised execution: watchdog, rlimit, fault classification."""

import os
import signal
import time

import pytest

from repro.batch.supervise import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_OOM,
    FAULT_TIMEOUT,
    FaultRecord,
    SupervisedWorker,
    run_supervised,
)

# -- module-level worker functions (pickled by name into children) ---------


def _double(x):
    return x * 2


def _raise_value_error(_):
    raise ValueError("deliberate failure")


def _raise_memory_error(_):
    raise MemoryError("simulated exhaustion")


def _die_by_signal(sig):
    os.kill(os.getpid(), sig)


def _exit_silently(code):
    os._exit(code)


def _sleep_forever(_):
    time.sleep(3600.0)


def _allocate_3gb(_):
    return len(bytearray(3 << 30))


def _pid(_):
    return os.getpid()


def _spawn_a_worker(_):
    with SupervisedWorker() as worker:
        return worker.run(_double, 1)


class TestCleanRuns:
    def test_result_comes_back(self):
        result, fault = run_supervised(_double, 21)
        assert result == 42 and fault is None

    def test_picklable_payloads_roundtrip(self):
        result, fault = run_supervised(_double, [1, 2])
        assert result == [1, 2, 1, 2] and fault is None


class TestClassification:
    def test_python_error_carries_traceback(self):
        result, fault = run_supervised(_raise_value_error, None)
        assert result is None
        assert fault.kind == FAULT_ERROR
        assert "ValueError" in fault.detail and "deliberate failure" in fault.detail
        assert fault.exitcode == 0  # the child reported, then exited cleanly

    def test_memory_error_classifies_as_oom(self):
        _, fault = run_supervised(_raise_memory_error, None)
        assert fault.kind == FAULT_OOM
        assert "MemoryError" in fault.detail

    def test_sigkill_death_reads_as_oom(self):
        """SIGKILL without a report is the OOM-killer's signature."""
        _, fault = run_supervised(_die_by_signal, signal.SIGKILL)
        assert fault.kind == FAULT_OOM
        assert fault.exitcode == -signal.SIGKILL
        assert "SIGKILL" in fault.detail

    def test_other_signal_death_is_a_crash(self):
        _, fault = run_supervised(_die_by_signal, signal.SIGABRT)
        assert fault.kind == FAULT_CRASH
        assert fault.exitcode == -signal.SIGABRT
        assert "SIGABRT" in fault.detail

    def test_silent_exit_is_a_crash(self):
        _, fault = run_supervised(_exit_silently, 7)
        assert fault.kind == FAULT_CRASH
        assert fault.exitcode == 7
        assert "without reporting" in fault.detail


class TestWatchdog:
    def test_hang_is_reaped_at_the_deadline(self):
        t0 = time.monotonic()
        result, fault = run_supervised(_sleep_forever, None, wall_limit=0.5)
        assert result is None
        assert fault.kind == FAULT_TIMEOUT
        assert time.monotonic() - t0 < 10.0  # reaped, not waited out

    def test_fast_work_beats_the_deadline(self):
        result, fault = run_supervised(_double, 3, wall_limit=30.0)
        assert result == 6 and fault is None


class TestMemoryLimit:
    def test_rlimit_turns_a_balloon_into_oom(self):
        _, fault = run_supervised(
            _allocate_3gb, None, wall_limit=30.0, memory_limit=2 << 30
        )
        assert fault is not None
        # MemoryError under the rlimit, or a kernel kill — both are OOM
        assert fault.kind == FAULT_OOM

    def test_modest_work_fits_under_the_limit(self):
        result, fault = run_supervised(_double, 5, memory_limit=8 << 30)
        assert result == 10 and fault is None


class TestSupervisedWorker:
    def test_one_child_answers_many_items(self):
        with SupervisedWorker() as worker:
            first, fault1 = worker.run(_pid, None)
            second, fault2 = worker.run(_pid, None)
            assert fault1 is None and fault2 is None
            assert first == second == worker.pid
            assert worker.items == 2

    def test_reported_error_retires_the_child(self):
        with SupervisedWorker() as worker:
            _, fault = worker.run(_raise_value_error, None)
            assert fault.kind == FAULT_ERROR and fault.exitcode == 0
            assert not worker.proc.is_alive()

    def test_timeout_terminates_the_child(self):
        with SupervisedWorker() as worker:
            _, fault = worker.run(_sleep_forever, None, wall_limit=0.3)
            assert fault.kind == FAULT_TIMEOUT
            assert fault.exitcode == -signal.SIGTERM

    def test_death_while_idle_is_the_next_items_verdict(self):
        with SupervisedWorker() as worker:
            os.kill(worker.pid, signal.SIGKILL)
            worker.proc.join(timeout=5.0)
            _, fault = worker.run(_double, 1)
            assert fault.kind == FAULT_OOM and fault.exitcode == -signal.SIGKILL

    def test_child_may_start_a_worker_of_its_own(self):
        """A child is forked while the parent holds the spawn lock; it
        must not inherit that lock held.  Starting a worker inside one
        then fails at once (a supervised child is daemonic) instead of
        blocking on the lock until the watchdog fires."""
        t0 = time.monotonic()
        _, fault = run_supervised(_spawn_a_worker, None, wall_limit=30.0)
        assert time.monotonic() - t0 < 10.0
        assert fault.kind == FAULT_ERROR
        assert "daemonic processes are not allowed" in fault.detail

    def test_close_stops_the_child(self):
        worker = SupervisedWorker()
        assert worker.run(_double, 2) == (4, None)
        worker.close()
        assert not worker.proc.is_alive() and worker.proc.exitcode == 0
        worker.close()  # idempotent


class TestFaultRecord:
    def test_to_dict_roundtrips_the_fields(self):
        rec = FaultRecord(kind="crash", detail="d", exitcode=-9, attempts=3)
        assert rec.to_dict() == {
            "kind": "crash", "detail": "d", "exitcode": -9, "attempts": 3,
        }
