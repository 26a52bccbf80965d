"""Pluggable execution transports: *how* keyed work units run.

:func:`~repro.batch.executor.run_batch` runs its cells one of two ways:
in process, or in watched children with bounded retries.  This module
puts that choice behind a :class:`Transport` protocol so other consumers
(the solver service daemon in :mod:`repro.service`) can run work on the
exact same machinery without going through campaign bookkeeping:

* a :class:`WorkItem` is one keyed execution request: a module-level
  worker ``fn``, a plain picklable ``payload``, and an optional wall
  budget the supervised watchdog enforces;
* a :class:`WorkResult` is how it ended: the worker's return value, or a
  classified :class:`~repro.batch.supervise.FaultRecord` once retries
  are exhausted, plus the attempt count;
* :class:`LocalPoolTransport` is the local path: in-process or
  supervised execution with deterministic seeded retry backoff; an
  in-process item that raises escalates to supervision.  Its supervised
  children are reused across items — a child that answered cleanly
  takes the next item; a child is recycled after any fault or a fixed
  number of items, and every retry runs in a fresh child.  It is the
  only code in the repo that starts or watches worker processes (it
  starts them through :mod:`repro.batch.supervise`): ``run_batch``,
  :func:`~repro.solvers.problem.solve_iter`, the racing portfolio and
  the solver service all run on it.

Closing an ``execute()`` stream early cancels it: its queued items never
start, and the children running its items are terminated.  The thread
that watches each killed child still reaps it.  That is what a race is
built from — the ``portfolio:`` meta-solver consumes a stream until the
first decisive member answers, then closes it.

Workers are invoked as ``fn(payload, attempt)`` with a 0-based attempt
number so fault-injection hooks (chaos) can salt their draws per
attempt; workers that do not care simply ignore the second argument.
Both ``fn`` and ``payload`` cross process boundaries and must therefore
be module-level / plain data (the R4 pickle-safety contract).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace
from typing import Any, Protocol, runtime_checkable

from repro.batch.supervise import DEFAULT_GRACE, FaultRecord, SupervisedWorker

__all__ = [
    "WorkItem",
    "WorkResult",
    "Transport",
    "LocalPoolTransport",
    "backoff_delay",
]

#: deterministic seed salt for the retry-backoff jitter
_BACKOFF_SALT = "repro-batch-backoff"

#: items a supervised worker answers before it is recycled, bounding
#: what a long-lived child can accumulate (heap growth, module caches)
_WORKER_MAX_ITEMS = 200


def backoff_delay(backoff: float, key: str, attempt: int) -> float:
    """The seeded retry delay before ``attempt`` (1-based) of ``key``.

    Exponential base with a deterministic jitter drawn by hashing — no
    wall clock, no shared RNG state, so retry *decisions* replay
    byte-identically (the R1 determinism contract).
    """
    if backoff <= 0.0:
        return 0.0
    digest = hashlib.sha256(
        f"{_BACKOFF_SALT}:{key}:{attempt}".encode()
    ).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
    return backoff * (2 ** (attempt - 1)) * jitter


@dataclass(frozen=True)
class WorkItem:
    """One keyed execution request handed to a transport.

    Attributes
    ----------
    key:
        Stable identity of the work (a cell key, a request key); retry
        backoff is seeded by it and results echo it back.
    fn:
        Module-level worker invoked as ``fn(payload, attempt)``; must
        pickle by qualified name (R4).
    payload:
        Plain picklable argument for ``fn``.
    wall_limit:
        Nominal wall budget in seconds; supervised executions grant the
        watchdog this plus the transport's grace.  ``None`` = unbounded.
    """

    key: str
    fn: Callable
    payload: Any
    wall_limit: float | None = None


@dataclass
class WorkResult:
    """How one :class:`WorkItem` ended.

    Exactly one of ``value`` / ``fault`` is meaningful: ``fault is
    None`` and ``value`` is the worker's return, or ``fault`` is the
    classified record of the *last* failed attempt.  ``attempts`` counts
    every execution that happened (a failed in-process attempt
    included), so consumers derive "was retried" as ``attempts > 1``.
    """

    key: str
    value: Any = None
    fault: FaultRecord | None = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        """True iff the worker answered (possibly after retries)."""
        return self.fault is None


@runtime_checkable
class Transport(Protocol):
    """The execution seam: run keyed work, stream results as they finish.

    ``execute`` yields one :class:`WorkResult` per item, in whatever
    order executions complete; it must yield a result for *every* item
    (faults included) — a transport never drops work.
    """

    def execute(self, items: Sequence[WorkItem]) -> Iterator[WorkResult]:
        """Run every item; yield results as they complete."""
        ...  # pragma: no cover - protocol signature


def _supervised_call(packed: tuple) -> Any:
    """Supervised-child shim: unpack ``(fn, payload, attempt)`` and run."""
    fn, payload, attempt = packed
    return fn(payload, attempt)


class _Stream:
    """The children one supervised stream is running, and whether its
    consumer has closed it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._running: set[SupervisedWorker] = set()
        self.closed = False

    def enter(self, worker: SupervisedWorker) -> bool:
        """Register ``worker`` as running an item; False once closed."""
        with self._lock:
            if not self.closed:
                self._running.add(worker)
            return not self.closed

    def leave(self, worker: SupervisedWorker) -> None:
        """Unregister ``worker``: its item is over."""
        with self._lock:
            self._running.discard(worker)

    def close(self) -> None:
        """Terminate every running child; no item starts after this.

        Only signals: the thread running each item sees its child die,
        reaps it and classifies the death like any other.
        """
        with self._lock:
            self.closed = True
            running = list(self._running)
        for worker in running:
            worker.proc.terminate()


class LocalPoolTransport:
    """Today's local execution path behind the :class:`Transport` seam.

    Two strategies:

    * ``jobs == 1`` and not ``supervised`` — in-process execution (no
      child, no pickling, bit-compatible with the historical serial
      runner); a raising item escalates to the supervised retry loop;
    * otherwise — every item runs in a watched child
      (:class:`~repro.batch.supervise.SupervisedWorker`) under the
      ``wall_limit + grace`` watchdog and the optional ``memory_limit``,
      with bounded deterministic retries; ``jobs`` watcher threads wait
      in parallel.  One child's death touches no other item, so a batch
      *always completes*.

    Supervised children are reused: a child that answered cleanly goes
    back to a lock-protected idle list and takes the next item, so a
    stream of items pays one fork per worker rather than one per item.
    A child is recycled (closed, never reused) after any fault and after
    :data:`_WORKER_MAX_ITEMS` items, and every retry runs in a freshly
    spawned child.  :meth:`close` (or leaving a ``with`` block) retires
    the idle children; a child handed back after that is retired too.
    ``workers_spawned`` counts the children this transport has started.
    Closing a stream early cancels it (see the module notes).
    """

    def __init__(
        self,
        jobs: int = 1,
        supervised: bool = False,
        retries: int = 1,
        memory_limit: int | None = None,
        grace: float = DEFAULT_GRACE,
        backoff: float = 0.0,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.supervised = supervised
        self.retries = retries
        self.memory_limit = memory_limit
        self.grace = grace
        self.backoff = backoff
        #: supervised children started so far (warm reuse keeps it low)
        self.workers_spawned = 0
        self._idle: list[SupervisedWorker] = []
        self._lock = threading.Lock()
        self._closed = False

    # -- warm workers -------------------------------------------------------
    def _spawn(self) -> SupervisedWorker:
        with self._lock:
            self.workers_spawned += 1
        return SupervisedWorker(self.memory_limit)

    def _checkout(self) -> SupervisedWorker:
        """An idle live worker, or a freshly spawned one."""
        while True:
            with self._lock:
                worker = self._idle.pop() if self._idle else None
            if worker is None:
                return self._spawn()
            if worker.proc.is_alive():
                return worker
            worker.close()  # died while idle: retire, try the next

    def _checkin(self, worker: SupervisedWorker) -> None:
        """Return a worker that answered cleanly, unless it is spent."""
        if worker.items < _WORKER_MAX_ITEMS:
            with self._lock:
                if not self._closed:
                    self._idle.append(worker)
                    return
        worker.close()

    def close(self) -> None:
        """Retire every idle supervised child (idempotent)."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for worker in idle:
            worker.close()

    def __enter__(self) -> "LocalPoolTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- supervised path ----------------------------------------------------
    def _run_with_retries(
        self, item: WorkItem, base_attempts: int = 0,
        stream: _Stream | None = None,
    ) -> WorkResult | None:
        """One item in watched children until it answers or retries run out.

        The first attempt may run in a warm worker; a worker that faults
        is closed, and each retry runs in a freshly spawned child.

        ``base_attempts`` counts executions already burned elsewhere (a
        failed in-process attempt); it rides into ``WorkResult.attempts``
        but not into the fault record, whose ``attempts`` is the
        supervised loop's own count (the historical journal-visible
        convention).

        Returns None, without running anything more, once ``stream`` has
        been closed: nobody is left to read the result.
        """
        stream = stream or _Stream()
        wall = None if item.wall_limit is None else item.wall_limit + self.grace
        last_fault: FaultRecord | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                delay = backoff_delay(self.backoff, item.key, attempt)
                if delay > 0.0:
                    time.sleep(delay)
            worker = self._spawn() if attempt else self._checkout()
            if not stream.enter(worker):
                self._checkin(worker)  # never ran an item: still clean
                return None
            try:
                value, fault = worker.run(
                    _supervised_call,
                    (item.fn, item.payload, attempt),
                    wall_limit=wall,
                )
            except BaseException:
                worker.close()
                raise
            finally:
                stream.leave(worker)
            if stream.closed:
                worker.close()  # it may have been signalled: never reuse
                return None
            if fault is None:
                self._checkin(worker)
                return WorkResult(
                    key=item.key,
                    value=value,
                    attempts=base_attempts + attempt + 1,
                )
            worker.close()
            last_fault = fault
        assert last_fault is not None
        return WorkResult(
            key=item.key,
            fault=replace(last_fault, attempts=self.retries + 1),
            attempts=base_attempts + self.retries + 1,
        )

    def _execute_supervised(self, items: Sequence[WorkItem]) -> Iterator[WorkResult]:
        """Run these items in watched children, ``jobs`` wide.

        Results come in completion order.  Closing the generator early
        cancels the stream.
        """
        if self.jobs == 1 or len(items) == 1:
            # one item at a time in this thread: while the consumer holds
            # a result no child is running, and closing stops the loop
            for item in items:
                yield self._run_with_retries(item)
            return
        from concurrent.futures import ThreadPoolExecutor, as_completed

        stream = _Stream()
        # threads only *wait* on supervised children; each thread holds
        # its own checked-out worker, so no two items share a child
        with ThreadPoolExecutor(max_workers=self.jobs) as waiters:
            tasks = [
                waiters.submit(self._run_with_retries, item, stream=stream)
                for item in items
            ]
            try:
                for fut in as_completed(tasks):
                    yield fut.result()
            finally:
                # a no-op once every item is done; after an early close
                # it cancels the rest before the executor waits on them
                for fut in tasks:
                    fut.cancel()
                stream.close()

    # -- in-process path ----------------------------------------------------
    def _execute_serial(self, items: Sequence[WorkItem]) -> Iterator[WorkResult]:
        for item in items:
            try:
                value = item.fn(item.payload, 0)
            except Exception:
                # escalate: retry in supervised children, classify there
                yield self._run_with_retries(item, base_attempts=1)
            else:
                yield WorkResult(key=item.key, value=value, attempts=1)

    def execute(self, items: Sequence[WorkItem]) -> Iterator[WorkResult]:
        """Run every item on the configured local strategy."""
        if not items:
            return
        if self.jobs == 1 and not self.supervised:
            yield from self._execute_serial(items)
        else:
            yield from self._execute_supervised(items)
