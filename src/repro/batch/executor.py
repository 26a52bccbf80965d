"""Campaign orchestration: caching, journaling, resume over a transport.

:func:`run_batch` is the one entry point: give it the cells of a campaign
and it returns their records in canonical cell order, no matter which of
three sources each record came from —

1. the campaign **journal** (``--resume``): a streaming JSONL file, one
   completed cell per line, appended and flushed as results arrive, so a
   killed campaign restarts exactly where it died (a torn final line is
   ignored);
2. the shared **cache** (``--cache-dir``): the content-addressed store of
   :mod:`repro.batch.cache`, which lets *different* campaigns (or a warm
   re-run) skip any cell ever solved under the same key;
3. fresh **computation**: remaining cells are deduplicated by key and
   handed to a :class:`~repro.batch.transport.Transport` — by default a
   :class:`~repro.batch.transport.LocalPoolTransport`, which solves in
   process at ``jobs=1`` and in watched children otherwise.

Fault tolerance: a campaign *always completes*.  A cell whose execution
dies — worker SIGKILLed by the OOM killer, a hang past the watchdog, an
unhandled exception — is retried a bounded number of times (seeded
deterministic backoff) in supervised children
(:mod:`repro.batch.supervise`), then journaled as a ``fault:*`` record
like any other result.  With ``jobs > 1``, or ``supervised=True``
(forced on whenever chaos injection is configured), *every* computed
cell runs in a watched child under the ``time_limit + grace`` watchdog
and the optional address-space rlimit; at ``jobs=1`` without
supervision a cell that raises in process escalates to a watched child.
Watched children are reused: a child that answered cleanly takes the
next cell, a child is recycled after any fault or a fixed number of
cells, and every retry runs in a fresh child.  All of that lives behind
the transport seam, so other consumers (the solver service) inherit it.

Determinism: a cell's outcome depends only on its content (system, solver,
budgets, seed), never on scheduling, so ``jobs=N`` produces the same
statuses/node counts as ``jobs=1`` and the same record *order* — only the
wall-clock ``elapsed`` fields can differ between cold runs.  Cached or
resumed cells reproduce byte-identically.  Under chaos injection every
computed record is charged its full budget as ``elapsed`` (the way
overruns already are), so a chaos campaign's journal is byte-identical
across re-runs with the same seeds.
"""

from __future__ import annotations

import json
import os
import time
import warnings
from pathlib import Path
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field, replace

from repro.batch.cache import ResultCache
from repro.batch.cells import Cell, cell_key, rekey_record, solve_cell
from repro.batch.chaos import ChaosConfig, torn_write_prefix
from repro.batch.journal import load_journal, trim_torn_tail
from repro.batch.supervise import DEFAULT_GRACE
from repro.batch.transport import LocalPoolTransport, Transport, WorkItem
from repro.experiments.runner import RunRecord
from repro.solvers.problem import fault_report, is_fault_label

__all__ = ["BatchReport", "run_batch", "load_journal"]


@dataclass
class BatchReport:
    """Everything a campaign produced, plus where each record came from."""

    #: records in canonical cell order (instance-major, solver-minor)
    records: list = field(default_factory=list)
    #: cells answered from the resume journal
    resumed: int = 0
    #: cells answered from the content-addressed cache
    cache_hits: int = 0
    #: cells actually solved this run
    computed: int = 0
    #: cells whose final record is a ``fault:*`` (retries exhausted)
    faults: int = 0
    #: cells that needed more than one execution attempt
    retried: int = 0
    #: wall-clock seconds for the whole batch
    elapsed: float = 0.0

    @property
    def total(self) -> int:
        """Number of cells in the campaign."""
        return len(self.records)


def _batch_worker(payload, attempt: int):
    """Transport worker: unpack one ``(cell, chaos, key)`` and solve it.

    The chaos key is salted with the attempt number, so injected faults
    are per-attempt draws — a cell that crashed once can
    (deterministically) succeed on retry.
    """
    cell, chaos, key = payload
    if chaos is None:
        return solve_cell(cell)
    return solve_cell(cell, chaos=chaos, chaos_key=f"{key}:{attempt}")


def _memo_text(record: RunRecord) -> str:
    """A record's campaign-memo entry: its compact JSON document."""
    return json.dumps(record.to_dict(), separators=(",", ":"))


def run_batch(
    cells: Sequence[Cell],
    jobs: int = 1,
    cache: ResultCache | str | os.PathLike | None = None,
    journal: str | os.PathLike | None = None,
    resume: bool = False,
    progress: Callable[[int, int], None] | None = None,
    supervised: bool = False,
    retries: int = 1,
    memory_limit: int | None = None,
    chaos: ChaosConfig | None = None,
    grace: float = DEFAULT_GRACE,
    backoff: float = 0.0,
    fault_resume: str = "skip",
    transport: Transport | None = None,
) -> BatchReport:
    """Run a campaign of cells, in parallel, with caching and resume.

    Parameters
    ----------
    cells:
        The campaign, typically :func:`~repro.batch.cells.cells_for_matrix`.
    jobs:
        Worker processes; ``1`` runs in-process (no child, no pickling)
        unless ``supervised``.  A ``portfolio:`` cell runs its members
        sequentially in a worker, because a supervised child may not
        start processes of its own.
    cache:
        A :class:`ResultCache` or a directory path for one; ``None``
        disables cross-campaign caching.  Fault records never enter the
        cache — a fault is an execution accident, not a property of the
        cell.
    journal:
        JSONL path streamed to as cells complete; with ``resume=True`` its
        existing complete lines are honored before anything is scheduled.
    resume:
        Re-read ``journal`` and skip cells already recorded there.
    progress:
        ``progress(done, total)`` callback, called as each cell resolves
        (from whichever source).  A callback that raises is disabled with
        a warning — user code must never abort journaling mid-campaign.
    supervised:
        Run every computed cell in a watched child process even at
        ``jobs=1`` (watchdog + optional rlimit + fault classification;
        clean children are reused, faulted ones recycled).  With
        ``jobs > 1`` cells always run that way.  Forced on whenever
        ``chaos`` is set.
    retries:
        Extra supervised attempts granted to a faulted cell before it is
        journaled as ``fault:*``.
    memory_limit:
        Per-child ``RLIMIT_AS`` in bytes; applies to every watched
        child, so to every cell unless ``jobs=1`` runs in process.
    chaos:
        Opt-in deterministic fault injection
        (:class:`~repro.batch.chaos.ChaosConfig`); implies supervision.
    grace:
        Watchdog headroom in seconds past each cell's ``time_limit``.
    backoff:
        Base seconds of the seeded exponential retry backoff (``0`` =
        retry immediately; the delay schedule is deterministic per key).
    fault_resume:
        What ``resume`` does with journaled ``fault:*`` cells: ``"skip"``
        serves them as-is, ``"retry"`` recomputes them.
    transport:
        Execution backend for computed cells.  ``None`` builds the
        :class:`~repro.batch.transport.LocalPoolTransport` implied by
        ``jobs``/``supervised``/``retries``/``memory_limit``/``grace``/
        ``backoff``; passing one explicitly overrides all of those
        execution knobs (caching, journaling and ordering are
        unaffected).

    Returns
    -------
    BatchReport
        Records in canonical order plus hit/compute/fault accounting.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    if fault_resume not in ("skip", "retry"):
        raise ValueError(
            f"fault_resume must be 'skip' or 'retry', got {fault_resume!r}"
        )
    if isinstance(cache, (str, os.PathLike)):
        cache = ResultCache(cache)
    use_supervised = supervised or chaos is not None
    t_start = time.monotonic()
    report = BatchReport(records=[None] * len(cells))
    keys = [cell_key(c) for c in cells]
    total = len(cells)
    done = 0
    callback = progress

    def tick() -> None:
        nonlocal callback
        if callback is None:
            return
        try:
            callback(done, total)
        except Exception as exc:
            # journaling and completion must survive user code: disable
            # the callback and finish the campaign
            callback = None
            warnings.warn(
                f"progress callback raised {type(exc).__name__}: {exc}; "
                "disabling progress reporting for the rest of the campaign",
                RuntimeWarning,
                stacklevel=2,
            )

    # 1. resume from the journal's completed lines
    journaled: dict[str, dict] = {}
    if resume and journal is not None:
        journaled = load_journal(journal)
    for i, (cell, key) in enumerate(zip(cells, keys)):
        if key not in journaled:
            continue
        record = RunRecord.from_dict(journaled[key])
        if is_fault_label(record.status) and fault_resume == "retry":
            continue  # policy: give crashed cells another campaign
        report.records[i] = rekey_record(record, cell)
        report.resumed += 1
        done += 1
        if cache is not None and key not in cache and not is_fault_label(record.status):
            cache.put(key, _memo_text(record))  # warm the shared cache too
        tick()

    journal_fh = None
    if journal is not None:
        path = Path(journal)
        path.parent.mkdir(parents=True, exist_ok=True)
        if resume:
            # a crash can leave a torn final line with no newline; cut it
            # so the finished journal contains only complete JSONL lines
            trim_torn_tail(path)
        journal_fh = open(path, "a" if resume else "w")

    def record_done(i: int, key: str, record) -> None:
        nonlocal done
        rekeyed = rekey_record(record, cells[i])
        report.records[i] = rekeyed
        done += 1
        if journal_fh is not None:
            # journal the *rekeyed* record: the JSONL is this campaign's
            # output and must carry this campaign's instance seeds
            line = json.dumps(
                {"key": key, "record": rekeyed.to_dict()},
                separators=(",", ":"),
            )
            torn = torn_write_prefix(chaos, key, line)
            if torn is not None:
                # injected torn duplicate: the debris a crash mid-write
                # leaves; load_journal must skip it on resume
                journal_fh.write(torn)
            journal_fh.write(line + "\n")
            journal_fh.flush()
        tick()

    owned: LocalPoolTransport | None = None
    try:
        # 2. serve what the shared cache already knows
        if cache is not None:
            for i, (cell, key) in enumerate(zip(cells, keys)):
                if report.records[i] is not None:
                    continue
                try:  # a missing entry (None) or a non-record is a miss
                    hit = RunRecord.from_dict(json.loads(cache.get(key)))
                except (TypeError, ValueError):
                    continue
                report.cache_hits += 1
                record_done(i, key, hit)

        # 3. compute the rest, one task per *unique* key
        pending: dict[str, list[int]] = {}
        for i, key in enumerate(keys):
            if report.records[i] is None:
                pending.setdefault(key, []).append(i)

        def finish(key: str, record, was_retried: bool = False) -> None:
            report.computed += 1
            if was_retried:
                report.retried += 1
            if is_fault_label(record.status):
                report.faults += 1
            elif cache is not None:
                cache.put(key, _memo_text(record))
            for i in pending[key]:
                record_done(i, key, record)

        if pending:
            if transport is None:
                transport = owned = LocalPoolTransport(
                    jobs=jobs,
                    supervised=use_supervised,
                    retries=retries,
                    memory_limit=memory_limit,
                    grace=grace,
                    backoff=backoff,
                )
            items = [
                WorkItem(
                    key=key,
                    fn=_batch_worker,
                    payload=(cells[indices[0]], chaos, key),
                    wall_limit=cells[indices[0]].problem.time_limit,
                )
                for key, indices in pending.items()
            ]
            for res in transport.execute(items):
                cell = cells[pending[res.key][0]]
                if res.fault is not None:
                    # charged the full budget, like an overrun
                    record = RunRecord.of(
                        fault_report(cell.problem, cell.solver, res.fault),
                        cell.instance_seed,
                    )
                elif chaos is not None:
                    # chaos campaigns trade timing fidelity for
                    # determinism: charge the budget so re-runs journal
                    # byte-identically
                    record = replace(res.value, elapsed=cell.problem.time_limit)
                else:
                    record = res.value
                finish(res.key, record, res.attempts > 1)
    finally:
        if owned is not None:
            owned.close()  # retire the warm supervised children
        if journal_fh is not None:
            journal_fh.close()

    report.elapsed = time.monotonic() - t_start
    return report
