"""Supervised execution: watched children, one classified verdict per item.

The paper's own experiments say workers *will* die — CSP1 "runs out of
memory on large instances" — so a child process here is *expected* to
be killable, and its death is a classifiable result of its own item,
not an exception that takes the other items down with it.  This module
holds the only code in the repo that starts worker processes.

A :class:`SupervisedWorker` is one child that answers work items until
it is closed or faults; :func:`run_supervised` is the single-use case.
Every item runs under

* a **wall-clock watchdog** — the parent waits on the result pipe *and*
  the process sentinel (``multiprocessing.connection.wait``), so a child
  that dies without reporting is noticed immediately and a child that
  hangs is terminated at the deadline;
* an optional **address-space rlimit** — ``RLIMIT_AS`` set in the child
  before any work, so a memory balloon dies with ``MemoryError`` (or a
  kernel kill) inside its own sandbox instead of taking the machine down;
* **exit classification** into a :class:`FaultRecord`: a clean return,
  a Python error (with traceback), a signal death (SIGKILL read as the
  OOM-killer's signature), or a watchdog timeout.

A child that reports an error exits right after, and a watchdog timeout
terminates it, so a faulted worker never takes another item.  Reuse is
the caller's policy (:class:`~repro.batch.transport.LocalPoolTransport`
keeps clean workers warm and recycles them after a fault or a fixed
number of items); the watchdog and the classification here are the same
for a fresh child and a warm one.

``fn`` must be a module-level callable and ``payload`` plain picklable
data (the R4 pickle-safety lint enforces both).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import threading
import time
import traceback
from collections.abc import Callable
from dataclasses import dataclass
from multiprocessing.connection import wait as _wait_connections
from typing import Any

__all__ = [
    "FAULT_CRASH",
    "FAULT_ERROR",
    "FAULT_OOM",
    "FAULT_TIMEOUT",
    "FaultRecord",
    "SupervisedWorker",
    "fault_traceback",
    "run_supervised",
]

#: fault kinds a supervised run classifies into
FAULT_ERROR = "error"      # the child raised; detail carries the traceback
FAULT_CRASH = "crash"      # the child died to a signal without reporting
FAULT_OOM = "oom"          # SIGKILL death or MemoryError: memory exhaustion
FAULT_TIMEOUT = "timeout"  # the watchdog deadline passed; child terminated

#: default seconds granted past the nominal budget before the watchdog
#: fires (covers model construction and interpreter startup)
DEFAULT_GRACE = 10.0

#: seconds a retiring worker gets to exit on its own before it is
#: terminated
_RETIRE_GRACE = 1.0

#: how a traceback names a frame of this package's source tree; the
#: directory above ``repro/`` is cut from it (see :func:`fault_traceback`)
_SOURCE_FRAME = 'File "%s' % os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), ""
)


def fault_traceback() -> str:
    """The exception being handled, formatted for a fault's ``detail``.

    Its last 20 frames, with this package's frames named from
    ``repro/`` down, so the same fault reads the same from any checkout
    (a chaos campaign's journal is byte-identical across directories).
    The ``Traceback`` header, the exception type and the message stay.
    """
    return traceback.format_exc(limit=20).replace(_SOURCE_FRAME, 'File "')


#: serialises pipe creation and fork across threads: a child forked
#: while another thread's pipe is half set up would inherit that pipe's
#: child end, and two such children could keep each other's pipes open
#: after the parent dies
_SPAWN_LOCK = threading.Lock()


def _fresh_spawn_lock() -> None:
    """Give a forked child an unheld spawn lock: children are forked
    while the parent holds it, and would otherwise block forever on
    their first spawn."""
    global _SPAWN_LOCK
    _SPAWN_LOCK = threading.Lock()


os.register_at_fork(after_in_child=_fresh_spawn_lock)


@dataclass(frozen=True)
class FaultRecord:
    """How one supervised run failed, as plain classifiable data.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_ERROR` / :data:`FAULT_CRASH` /
        :data:`FAULT_OOM` / :data:`FAULT_TIMEOUT`.
    detail:
        Human-readable cause: the child's traceback (``error``/``oom``
        via MemoryError), the fatal signal name (``crash``/``oom`` via
        SIGKILL), or the exceeded deadline (``timeout``).
    exitcode:
        The child's ``Process.exitcode`` (negative = killed by that
        signal; ``None`` when the child had to be force-killed).
    attempts:
        Filled in by the retrying caller: 1-based attempt count this
        record is the last of.
    """

    kind: str
    detail: str
    exitcode: int | None = None
    attempts: int = 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-able form (rides the journal inside fault records)."""
        return {
            "kind": self.kind,
            "detail": self.detail,
            "exitcode": self.exitcode,
            "attempts": self.attempts,
        }


def _signal_name(exitcode: int) -> str:
    """``-9`` -> ``"SIGKILL"`` (falls back to the raw number)."""
    try:
        return signal.Signals(-exitcode).name
    except ValueError:  # pragma: no cover - unknown signal number
        return f"signal {-exitcode}"


def _worker_main(conn, parent_end, memory_limit: int | None) -> None:
    """Child target: sandbox once, then answer work messages until EOF.

    Each ``(fn, payload)`` message is answered ``("ok", result)`` or
    ``("error", traceback_text)``; after an error the child exits, so a
    failed item never leaves a possibly-poisoned interpreter behind.  A
    signal death reports nothing (that *is* the signal the parent
    classifies).  The rlimit is set before any work so an over-budget
    item fails inside the sandbox.  The inherited copy of the parent's
    pipe end is closed first: once the parent is gone, ``recv`` sees EOF
    and the child exits instead of lingering as an orphan.
    """
    parent_end.close()
    if memory_limit is not None:
        import resource

        soft, hard = resource.getrlimit(resource.RLIMIT_AS)
        resource.setrlimit(
            resource.RLIMIT_AS,
            (memory_limit, hard if 0 < hard < memory_limit else memory_limit),
        )
    while True:
        try:
            data = conn.recv_bytes()
        except (EOFError, OSError):
            return  # the parent closed its end (or died): retire
        try:
            # unpickled here, so a payload that fails to load (a
            # MemoryError under the rlimit) is reported like fn's errors
            message = pickle.loads(data)
            if message is None:
                return  # an explicit stop request
            fn, payload = message
            result = fn(payload)
        except BaseException:
            try:
                conn.send(("error", fault_traceback()))
            except (MemoryError, OSError):  # pragma: no cover - truly starved
                pass
            return
        conn.send(("ok", result))


def _classify_death(exitcode: int | None) -> FaultRecord:
    """A child died without reporting: signal death or silent exit."""
    if exitcode is not None and exitcode < 0:
        name = _signal_name(exitcode)
        kind = FAULT_OOM if -exitcode == signal.SIGKILL else FAULT_CRASH
        detail = f"worker killed by {name} (exitcode {exitcode})"
        if kind == FAULT_OOM:
            detail += " — SIGKILL without a report is the OOM-killer's signature"
        return FaultRecord(kind=kind, detail=detail, exitcode=exitcode)
    return FaultRecord(
        kind=FAULT_CRASH,
        detail=f"worker exited without reporting (exitcode {exitcode})",
        exitcode=exitcode,
    )


def _reap(proc) -> None:
    """Terminate, then if needed kill, a still-running child."""
    if proc.is_alive():
        proc.terminate()
    proc.join(timeout=5.0)
    if proc.is_alive():  # pragma: no cover - terminate() failed
        proc.kill()
        proc.join(timeout=5.0)


class SupervisedWorker:
    """One watched child that answers work items until it is closed.

    The child is forked and sandboxed (``RLIMIT_AS``) once, then serves
    ``(fn, payload)`` messages over one duplex pipe.  :meth:`run` watches
    each item on the pipe and the process sentinel under the wall-clock
    deadline, and classifies any failure into a :class:`FaultRecord`.  A faulted worker is dead (it
    exits after reporting an error, and the watchdog terminates a hang),
    so callers :meth:`close` it and run the next item elsewhere.

    Not thread-safe: one item at a time, from one thread.
    """

    def __init__(self, memory_limit: int | None = None) -> None:
        ctx = mp.get_context()
        with _SPAWN_LOCK:
            self._conn, child = ctx.Pipe(duplex=True)
            self.proc = ctx.Process(
                target=_worker_main,
                args=(child, self._conn, memory_limit),
                daemon=True,
            )
            self.proc.start()
            child.close()  # the child's handle lives in the child now
        #: work items handed to this child so far
        self.items = 0

    @property
    def pid(self) -> int | None:
        """The child's process id."""
        return self.proc.pid

    def run(
        self, fn: Callable, payload, wall_limit: float | None = None
    ) -> "tuple[Any, FaultRecord | None]":
        """Run ``fn(payload)`` in the child; classify how it ended.

        Parameters
        ----------
        fn:
            Module-level callable (pickled by qualified name).
        payload:
            Plain picklable argument for ``fn``.
        wall_limit:
            Watchdog deadline in seconds (``None`` = wait for the sentinel
            forever — death is still detected, hangs are the caller's
            risk).

        Returns
        -------
        (result, fault):
            Exactly one side is meaningful: ``fault is None`` and
            ``result`` is ``fn``'s return value, or ``fault`` is the
            classified :class:`FaultRecord` and ``result`` is ``None``.
        """
        self.items += 1
        conn, proc = self._conn, self.proc
        try:
            conn.send((fn, payload))
        except OSError:
            # the child died while idle: that death is this item's verdict
            _reap(proc)
            return None, _classify_death(proc.exitcode)
        deadline = None if wall_limit is None else time.monotonic() + wall_limit
        while True:
            timeout = None
            if deadline is not None:
                timeout = max(0.0, deadline - time.monotonic())
            ready = _wait_connections([conn, proc.sentinel], timeout=timeout)
            if conn in ready:
                try:
                    tag, value = conn.recv()
                except (EOFError, OSError):
                    # pipe closed without a message: treat as a death
                    proc.join()
                    return None, _classify_death(proc.exitcode)
                if tag == "ok":
                    return value, None
                proc.join()  # the child exits after reporting an error
                return None, _classify_fault_message(value, proc.exitcode)
            if proc.sentinel in ready:
                # dead without (yet) a message — drain the pipe once:
                # a child can send and exit before the parent polls
                if conn.poll(0.1):
                    continue
                proc.join()
                return None, _classify_death(proc.exitcode)
            # neither fired: the watchdog deadline passed
            _reap(proc)
            return None, FaultRecord(
                kind=FAULT_TIMEOUT,
                detail=(
                    f"worker exceeded the {wall_limit:.3f}s watchdog "
                    "deadline and was terminated"
                ),
                exitcode=proc.exitcode,
            )

    def close(self) -> None:
        """Retire the child: ask it to stop, then make sure it has.

        The explicit stop message matters: a sibling forked later holds
        a copy of this pipe's parent end, so closing it here alone would
        not deliver EOF.
        """
        if not self._conn.closed:
            try:
                self._conn.send(None)
            except OSError:
                pass  # already gone
            self._conn.close()
        self.proc.join(timeout=_RETIRE_GRACE)
        _reap(self.proc)

    def __enter__(self) -> "SupervisedWorker":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def run_supervised(
    fn: Callable,
    payload,
    wall_limit: float | None = None,
    memory_limit: int | None = None,
) -> "tuple[Any, FaultRecord | None]":
    """Run ``fn(payload)`` in a single-use :class:`SupervisedWorker`.

    ``wall_limit`` is the watchdog deadline in seconds and
    ``memory_limit`` the child's ``RLIMIT_AS`` in bytes; returns
    :meth:`SupervisedWorker.run`'s ``(result, fault)`` pair.
    """
    with SupervisedWorker(memory_limit) as worker:
        return worker.run(fn, payload, wall_limit)


def _classify_fault_message(tb_text: str, exitcode: int | None) -> FaultRecord:
    """A child reported an error: Python failure, or OOM via MemoryError."""
    kind = FAULT_ERROR
    if "MemoryError" in tb_text:
        kind = FAULT_OOM
    return FaultRecord(kind=kind, detail=tb_text, exitcode=exitcode)
