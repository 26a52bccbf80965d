"""The asyncio solver daemon: JSONL over TCP (and stdio, for testing).

:class:`SolverService` is one server object, transport-agnostic at both
ends: *listening* happens over TCP (:meth:`~SolverService.serve_tcp`)
or the process's own stdin/stdout (:meth:`~SolverService.serve_stdio`),
and *executing* happens on the batch layer's
:class:`~repro.batch.transport.Transport` seam (by default a supervised
:class:`~repro.batch.transport.LocalPoolTransport` whose warm watched
children are reused across requests: a child that answered cleanly takes
the next request, a child is recycled after any fault or a fixed number
of requests, and a retry always runs in a fresh child — so a crashing or
hanging solve faults that request, never the daemon).

Request lifecycle:

1. **admission** — a ``solve`` line is validated and clamped
   (:func:`~repro.service.protocol.parse_solve_request`), and a question
   ``solve_problem`` would refuse up front (an unsupported solver /
   platform pair, a heterogeneous platform under arbitrary deadlines)
   is answered ``bad-request`` without starting a worker; when the
   number of admitted-but-unfinished requests has reached
   ``max_pending`` the server answers a structured ``busy`` error
   instead — back-pressure is always a protocol message, never a
   dropped connection;
2. **memo** — the request's key
   (:func:`~repro.solvers.problem.solve_key` over the clamped problem,
   the solver and the options: what a campaign cell asking the same
   question is keyed by) is looked up in the shared
   :class:`~repro.batch.cache.ResultCache` of reports; a hit is served
   without re-solving (the response says ``"cached": true``): the cached
   document, parsed once, gets the request's own clamped problem (its
   ``label`` and budgets) and ``index`` 0, and is encoded once; an entry
   that is not a report document is a miss;
3. **execution** — a miss runs on the transport under a concurrency
   semaphore (``jobs`` solves in flight); the worker returns the
   report's canonical text (:func:`~repro.service.protocol.report_text`),
   and the memo entry, the journal line and the response line carry
   those bytes; a transport fault becomes a ``fault:*`` report through
   :func:`~repro.solvers.problem.fault_report`, as a campaign's does;
4. **journal, then respond** — every completed request is appended to
   the crash-safe JSONL journal (flushed per line, torn tail trimmed on
   reopen) *before* its response line is written, so a daemon killed
   mid-reply never loses a solved result.

``stats`` requests are answered inline from the counters (including
``workers_spawned``, the supervised children started so far);
``shutdown`` (when enabled) acknowledges, drains in-flight solves, then
stops the server and retires its warm children.  A request line longer
than :data:`~repro.service.protocol.MAX_LINE_BYTES` is answered
``bad-request`` and skipped through its newline; the connection keeps
serving, as it does after any line that does not decode to an object
with a scalar ``id``.  Responses carry the request's ``id`` and
interleave in completion order.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.batch.cache import ResultCache
from repro.batch.journal import trim_torn_tail
from repro.batch.supervise import DEFAULT_GRACE
from repro.batch.transport import LocalPoolTransport, Transport, WorkItem
from repro.service.protocol import (
    ERR_BAD_REQUEST,
    ERR_BUSY,
    ERR_INTERNAL,
    MAX_LINE_BYTES,
    ProtocolError,
    ServiceCaps,
    SolveRequest,
    error_line,
    hello_line,
    ok_line,
    parse_solve_request,
    report_line,
    report_text,
    stats_line,
)
from repro.solvers.problem import REPORT_KEYS, Problem, fault_report, solve_problem
from repro.solvers.registry import available_solvers

__all__ = ["ServiceConfig", "SolverService", "ServiceHandle"]


def _solve_request_worker(payload, attempt: int) -> str:
    """Transport worker: solve one service request in a watched child.

    The payload is plain JSON-shaped data (problem dict, solver name,
    options dict) so it pickles into supervised children.  The worker
    returns the report's canonical text
    (:func:`~repro.service.protocol.report_text`), encoded here once:
    the daemon writes those bytes to the memo, the journal and the
    response without decoding them.
    """
    problem_dict, solver, options = payload
    problem = Problem.from_dict(problem_dict)
    return report_text(solve_problem(problem, solver, **options).to_dict())


def _memo_report(text: "str | None") -> "dict | None":
    """The report document a memo entry holds, or None (a miss) when it
    is missing or not an object with exactly ``REPORT_KEYS``, in order —
    so a hit re-encodes into the bytes a cold solve produced."""
    try:
        doc = json.loads(text)  # TypeError: no entry (None)
    except (TypeError, ValueError):
        return None
    return doc if isinstance(doc, dict) and tuple(doc) == REPORT_KEYS else None


#: JSON types a request ``id`` may have (``bool`` is an ``int``): scalars,
#: echoed back verbatim
_ID_TYPES = (str, int, float, type(None))


async def _read_request_line(reader) -> "bytes | None":
    """The next request line; ``b""`` at EOF, ``None`` if over-long.

    The reader's limit is :data:`~repro.service.protocol.MAX_LINE_BYTES`.
    An over-long line is discarded through its newline (or to EOF), so
    the stream resyncs at the next request.
    """
    try:
        return await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        return exc.partial  # EOF, possibly after an unterminated line
    except asyncio.LimitOverrunError as exc:
        consumed = exc.consumed
    while True:
        await reader.readexactly(consumed)
        try:
            await reader.readuntil(b"\n")
            return None
        except asyncio.IncompleteReadError:
            return None
        except asyncio.LimitOverrunError as exc:
            consumed = exc.consumed


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a :class:`SolverService` is configured by.

    Attributes
    ----------
    jobs:
        Solves allowed in flight at once (each in a watched child under
        the default transport, which keeps clean children warm for the
        next request and recycles them after a fault or a fixed number
        of requests).
    max_pending:
        Admission window: admitted-but-unfinished solve requests across
        all connections; the next one is answered ``busy``.
    caps:
        Budget ceilings applied to every request
        (:class:`~repro.service.protocol.ServiceCaps`).
    cache_dir:
        Root of the shared memo layer; reports live under
        ``<cache_dir>/reports`` (a :class:`~repro.batch.cache.ResultCache`
        of report documents — keep it apart from a campaign's memo root,
        whose entries are records).  ``None`` disables the memo.
    journal:
        JSONL path appended to as requests complete (``{"key": ...,
        "report": ...}`` lines); ``None`` disables journaling.
    supervised:
        Run each solve in a watched child (fault classification, wall
        watchdog, optional rlimit); children are reused across requests
        until one faults or reaches its item limit.  Turning it off
        executes in-process — faster for tests, but a crashing solve
        takes the daemon down.
    retries:
        Extra supervised attempts before a request is answered
        ``fault:*``.
    memory_limit:
        Per-child ``RLIMIT_AS`` in bytes (supervised only).
    grace:
        Watchdog headroom past each request's wall budget.
    allow_shutdown:
        Whether a ``shutdown`` request stops the daemon (tests and
        single-user servers want it; shared deployments disable it).
    """

    jobs: int = 2
    max_pending: int = 64
    caps: ServiceCaps = field(default_factory=ServiceCaps)
    cache_dir: str | None = None
    journal: str | None = None
    supervised: bool = True
    retries: int = 1
    memory_limit: int | None = None
    grace: float = DEFAULT_GRACE
    allow_shutdown: bool = True


class SolverService:
    """The daemon: admission, memo, transport execution, journaling."""

    def __init__(
        self, config: ServiceConfig | None = None,
        transport: Transport | None = None,
    ) -> None:
        self.config = config or ServiceConfig()
        if self.config.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.config.jobs}")
        if self.config.max_pending < 1:
            raise ValueError(
                f"max_pending must be >= 1, got {self.config.max_pending}"
            )
        #: the transport this service built (and so retires on shutdown);
        #: a transport passed in belongs to the caller
        self._owned_transport: LocalPoolTransport | None = None
        if transport is None:
            # concurrency comes from the service's own semaphore, so the
            # transport itself is serial; its warm children are shared
            # by the executor threads
            transport = self._owned_transport = LocalPoolTransport(
                jobs=1,
                supervised=self.config.supervised,
                retries=self.config.retries,
                memory_limit=self.config.memory_limit,
                grace=self.config.grace,
            )
        self.transport = transport
        self.cache = None
        if self.config.cache_dir is not None:
            self.cache = ResultCache(Path(self.config.cache_dir) / "reports")
        self._journal_fh = None
        self._journal_lock = threading.Lock()
        self._counter_lock = threading.Lock()
        self._counters = {
            "received": 0,   # request lines that parsed at all
            "served": 0,     # solve responses written (cached + computed)
            "computed": 0,   # solves actually executed on the transport
            "cached": 0,     # solves answered from the memo layer
            "faulted": 0,    # computed solves that ended fault:*
            "errors": 0,     # structured error lines (busy included)
            "busy": 0,       # admission-window refusals
        }
        self._pending = 0
        self._solvers = available_solvers()
        # event-loop state, bound in serve_*()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop: asyncio.Event | None = None
        self._sem: asyncio.Semaphore | None = None
        self._tasks: dict[int, asyncio.Task] = {}
        self._conn_tasks: dict[int, asyncio.Task] = {}

    # -- counters -----------------------------------------------------------
    def _bump(self, name: str, delta: int = 1) -> None:
        with self._counter_lock:
            self._counters[name] += delta

    def stats(self) -> dict[str, Any]:
        """A snapshot of the server's counters."""
        with self._counter_lock:
            snap = dict(self._counters)
        snap["in_flight"] = self._pending
        snap["max_pending"] = self.config.max_pending
        snap["jobs"] = self.config.jobs
        snap["workers_spawned"] = getattr(self.transport, "workers_spawned", 0)
        if self.cache is not None:
            snap["cache_entries"] = len(self.cache)
        return snap

    # -- blocking execution (runs in executor threads) ----------------------
    def _journal_report(self, key: str, text: str) -> None:
        if self._journal_fh is None:
            return
        line = f'{{"key":{json.dumps(key)},"report":{text}}}\n'
        with self._journal_lock:
            self._journal_fh.write(line)
            self._journal_fh.flush()

    def _execute(self, req: SolveRequest) -> str:
        """Answer one admitted solve request; returns the response line.

        Blocking — always called off the event loop.  The completed
        report is journaled before the line is handed back for sending.
        """
        if self.cache is not None:
            doc = _memo_report(self.cache.get(req.key))
            if doc is not None:
                # the memo key ignores request-scoped bookkeeping; patch
                # this request's own (clamped) problem back on so the
                # client sees its label and budgets echoed
                doc["problem"] = req.problem.to_dict()
                doc["index"] = 0
                text = report_text(doc)
                self._bump("served")
                self._bump("cached")
                self._journal_report(req.key, text)
                return report_line(req.id, req.key, text, cached=True)
        item = WorkItem(
            key=req.key,
            fn=_solve_request_worker,
            payload=(req.problem.to_dict(), req.solver, req.options),
            wall_limit=req.problem.time_limit,
        )
        results = list(self.transport.execute([item]))
        res = results[0]
        if res.fault is not None:
            text = report_text(
                fault_report(req.problem, req.solver, res.fault).to_dict()
            )
            self._bump("faulted")
        else:
            text = res.value
            if self.cache is not None:
                # faults are execution accidents, not properties of the
                # cell — only real answers enter the shared memo
                self.cache.put(req.key, text)
        self._bump("served")
        self._bump("computed")
        self._journal_report(req.key, text)
        return report_line(req.id, req.key, text, cached=False)

    # -- async plumbing -----------------------------------------------------
    async def _send(self, writer, wlock: asyncio.Lock, line: str) -> None:
        async with wlock:
            writer.write(line.encode())
            await writer.drain()

    async def _solve_task(
        self, req: SolveRequest, writer, wlock: asyncio.Lock
    ) -> None:
        try:
            async with self._sem:
                line = await asyncio.get_running_loop().run_in_executor(
                    None, self._execute, req
                )
        except Exception as exc:  # a server bug, not a solve fault
            self._bump("errors")
            line = error_line(
                req.id, ERR_INTERNAL, f"{type(exc).__name__}: {exc}"
            )
        finally:
            self._pending -= 1
        try:
            await self._send(writer, wlock, line)
        except (ConnectionError, OSError):
            pass  # client went away; the journal already has the result

    async def _dispatch(
        self, entry: dict, writer, wlock: asyncio.Lock
    ) -> tuple[bool, asyncio.Task | None]:
        """Handle one decoded request line.

        Returns ``(keep_connection, spawned_solve_task_or_None)``.
        """
        request_id = entry.get("id")
        kind = entry.get("type")
        if kind == "solve":
            try:
                req = parse_solve_request(entry, self.config.caps)
            except ProtocolError as exc:
                self._bump("errors")
                await self._send(
                    writer, wlock, error_line(request_id, exc.code, exc.detail)
                )
                return True, None
            if self._pending >= self.config.max_pending:
                # back-pressure is a message, never a dropped connection
                self._bump("errors")
                self._bump("busy")
                await self._send(
                    writer, wlock,
                    error_line(
                        request_id, ERR_BUSY,
                        f"admission window full "
                        f"({self.config.max_pending} pending); resubmit",
                    ),
                )
                return True, None
            self._pending += 1
            task = asyncio.ensure_future(self._solve_task(req, writer, wlock))
            self._tasks[id(task)] = task
            task.add_done_callback(lambda t: self._tasks.pop(id(t), None))
            return True, task
        if kind == "stats":
            await self._send(writer, wlock, stats_line(request_id, self.stats()))
            return True, None
        if kind == "shutdown":
            if not self.config.allow_shutdown:
                self._bump("errors")
                await self._send(
                    writer, wlock,
                    error_line(
                        request_id, ERR_BAD_REQUEST,
                        "remote shutdown is disabled on this server",
                    ),
                )
                return True, None
            await self._send(writer, wlock, ok_line(request_id))
            self._stop.set()
            return False, None
        self._bump("errors")
        await self._send(
            writer, wlock,
            error_line(
                request_id, ERR_BAD_REQUEST,
                f"unknown request type {kind!r}",
            ),
        )
        return True, None

    def close(self) -> None:
        """Retire the warm children of the transport this service built."""
        if self._owned_transport is not None:
            self._owned_transport.close()

    async def _handle_conn(self, reader, writer) -> None:
        """One client connection: hello, then request lines until EOF."""
        wlock = asyncio.Lock()
        conn_tasks: list[asyncio.Task] = []
        try:
            await self._send(
                writer, wlock,
                hello_line(
                    self._solvers, self.config.caps, self.config.max_pending
                ),
            )
            while not self._stop.is_set():
                raw = await _read_request_line(reader)
                if raw is None:
                    self._bump("errors")
                    await self._send(
                        writer, wlock,
                        error_line(
                            None, ERR_BAD_REQUEST,
                            f"request line exceeds {MAX_LINE_BYTES} bytes",
                        ),
                    )
                    continue
                if not raw:
                    break  # EOF: client finished sending
                line = raw.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                    if not isinstance(entry, dict):
                        raise ValueError("request line is not an object")
                    if not isinstance(entry.get("id"), _ID_TYPES):
                        # a nested id could be too deep to echo back
                        raise ValueError(
                            "request id must be a string, number, "
                            "boolean or null"
                        )
                except (ValueError, RecursionError) as exc:
                    # RecursionError: nesting deeper than the decoder's
                    # stack, well inside the line cap
                    self._bump("errors")
                    await self._send(
                        writer, wlock,
                        error_line(
                            None, ERR_BAD_REQUEST, f"bad request line: {exc}"
                        ),
                    )
                    continue
                self._bump("received")
                keep, task = await self._dispatch(entry, writer, wlock)
                if task is not None:
                    conn_tasks = [t for t in conn_tasks if not t.done()]
                    conn_tasks.append(task)
                if not keep:
                    break
            # EOF/shutdown: finish this connection's in-flight responses
            # before closing — pipelined clients are still reading
            if conn_tasks:
                await asyncio.gather(
                    *[t for t in conn_tasks if not t.done()],
                    return_exceptions=True,
                )
        except (ConnectionError, asyncio.IncompleteReadError, OSError):
            pass  # client went away mid-line; in-flight work completes
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, NotImplementedError):
                # pipe transports (stdio) have no close waiter
                pass

    def _bind_loop(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._sem = asyncio.Semaphore(self.config.jobs)

    def _open_journal(self) -> None:
        if self.config.journal is None:
            return
        path = Path(self.config.journal)
        path.parent.mkdir(parents=True, exist_ok=True)
        # append across daemon restarts; a crash's torn tail is trimmed
        # so the journal stays pure JSONL
        trim_torn_tail(path)
        self._journal_fh = open(path, "a")

    def _close_journal(self) -> None:
        if self._journal_fh is not None:
            self._journal_fh.close()
            self._journal_fh = None

    async def _drain(self) -> None:
        """Wait out in-flight solves, then cancel idle connections."""
        pending = [t for t in self._tasks.values() if not t.done()]
        if pending:
            await asyncio.gather(*pending, return_exceptions=True)
        conns = [t for t in self._conn_tasks.values() if not t.done()]
        for task in conns:
            task.cancel()
        if conns:
            await asyncio.gather(*conns, return_exceptions=True)

    async def serve_tcp(
        self, host: str = "127.0.0.1", port: int = 0, ready=None
    ) -> None:
        """Listen on TCP until a shutdown request or :meth:`request_stop`.

        ``port=0`` binds an ephemeral port; ``ready`` (if given) is
        called with the bound ``(host, port)`` once the socket listens —
        how tests and the CLI learn the address.
        """
        self._bind_loop()
        self._open_journal()

        async def handler(reader, writer):
            task = asyncio.current_task()
            self._conn_tasks[id(task)] = task
            try:
                await self._handle_conn(reader, writer)
            except asyncio.CancelledError:
                pass  # shutdown drain cancelled an idle connection
            finally:
                self._conn_tasks.pop(id(task), None)

        server = await asyncio.start_server(
            handler, host=host, port=port, limit=MAX_LINE_BYTES
        )
        try:
            addr = server.sockets[0].getsockname()
            if ready is not None:
                ready((addr[0], addr[1]))
            await self._stop.wait()
        finally:
            server.close()
            await server.wait_closed()
            await self._drain()
            self.close()
            self._close_journal()

    async def serve_stdio(self) -> None:
        """Serve one session over this process's stdin/stdout."""
        import sys

        self._bind_loop()
        self._open_journal()
        loop = self._loop
        reader = asyncio.StreamReader(limit=MAX_LINE_BYTES)
        await loop.connect_read_pipe(
            lambda: asyncio.StreamReaderProtocol(reader), sys.stdin
        )
        w_transport, w_protocol = await loop.connect_write_pipe(
            asyncio.streams.FlowControlMixin, sys.stdout
        )
        writer = asyncio.StreamWriter(w_transport, w_protocol, reader, loop)
        try:
            await self._handle_conn(reader, writer)
            pending = [t for t in self._tasks.values() if not t.done()]
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        finally:
            self.close()
            self._close_journal()

    def request_stop(self) -> None:
        """Ask a serving loop (possibly on another thread) to stop."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # the loop already finished: nothing left to stop


class ServiceHandle:
    """A TCP daemon on a background thread — the in-process test/bench rig.

    ``start()`` returns the bound ``(host, port)`` once the server
    listens; ``stop()`` shuts it down and joins the thread.  Usable as a
    context manager.
    """

    def __init__(
        self, config: ServiceConfig | None = None,
        transport: Transport | None = None,
        host: str = "127.0.0.1",
    ) -> None:
        self.service = SolverService(config, transport=transport)
        self.host = host
        self._thread: threading.Thread | None = None
        self._addr: tuple[str, int] | None = None
        self._ready = threading.Event()

    def _run(self) -> None:
        def on_ready(addr):
            self._addr = addr
            self._ready.set()

        try:
            asyncio.run(self.service.serve_tcp(self.host, 0, ready=on_ready))
        finally:
            self._ready.set()  # unblock start() even on a bind failure

    def start(self) -> tuple[str, int]:
        """Launch the daemon; returns its bound address."""
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        self._ready.wait(timeout=30.0)
        if self._addr is None:
            raise RuntimeError("service failed to start")
        return self._addr

    def stop(self) -> None:
        """Stop the daemon, join its thread and retire its children."""
        self.service.request_stop()
        if self._thread is not None:
            self._thread.join(timeout=30.0)
            self._thread = None
        self.service.close()

    def __enter__(self) -> "ServiceHandle":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
