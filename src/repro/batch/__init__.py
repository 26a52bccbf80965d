"""Parallel batch solving: the (instance x solver) campaign engine.

The paper's experiments (Tables I-IV) are big matrices of independent
(instance, solver) runs — embarrassingly parallel, expensive, and painful
to lose to a crash at cell 4,987 of 5,000.  This package turns such
campaigns into first-class objects:

* :mod:`repro.batch.cells` — the picklable work unit (a
  :class:`~repro.solvers.problem.Problem` plus a solver name) and the
  single worker function (:func:`solve_cell`) every execution path
  shares; a cell's key is :func:`repro.solvers.problem.solve_key` of
  the question it asks, the one memo key the solver service uses too;
* :mod:`repro.batch.cache` — :class:`ResultCache`, the content-addressed
  on-disk text store under both memos, so any cell ever solved under
  the same key is never solved again, across campaigns;
* :mod:`repro.batch.executor` — :func:`run_batch`: parallel execution
  with one watched worker per ``--jobs``, streaming JSONL journaling,
  and crash-safe ``--resume``;
* :mod:`repro.batch.supervise` — :class:`SupervisedWorker` (and its
  single-use form :func:`run_supervised`): work units in a watched
  child, with wall watchdog, optional address-space rlimit and fault
  classification (the layer that makes
  ``run_batch`` campaigns *always complete*, journaling dead cells as
  ``fault:*`` records after bounded deterministic retries);
* :mod:`repro.batch.chaos` — :class:`ChaosConfig`: seeded deterministic
  fault injection (crash / hang / oom / error / torn journal writes)
  for testing all of the above without real hardware failures;
* :mod:`repro.batch.transport` — the :class:`Transport` execution seam:
  :class:`LocalPoolTransport` is the in-process/supervised local path
  and the only code that starts or watches worker processes —
  ``run_batch``, :func:`~repro.solvers.problem.solve_iter`, the
  ``portfolio:`` race (a supervised stream closed at the first decisive
  answer, which terminates the losers) and the solver service in
  :mod:`repro.service` all run on it;
* :mod:`repro.batch.journal` — crash-safe JSONL journal primitives:
  :func:`load_journal` (torn-line tolerant, last-line-wins),
  :func:`trim_torn_tail` and :func:`merge_journals` (N shard journals
  -> one canonical-order journal).

``repro.experiments.runner.run_instances`` is a thin shim over this
layer (``jobs=1``, no cache) and every table/benchmark driver and the
``repro batch`` CLI route through it.
"""

from repro.batch.cache import ResultCache
from repro.batch.cells import Cell, cell_key, cells_for_matrix, solve_cell
from repro.batch.chaos import ChaosConfig, ChaosError
from repro.batch.executor import BatchReport, run_batch
from repro.batch.journal import (
    MergeReport,
    load_journal,
    merge_journals,
    trim_torn_tail,
)
from repro.batch.transport import (
    LocalPoolTransport,
    Transport,
    WorkItem,
    WorkResult,
)
from repro.batch.supervise import (
    FAULT_CRASH,
    FAULT_ERROR,
    FAULT_OOM,
    FAULT_TIMEOUT,
    FaultRecord,
    SupervisedWorker,
    run_supervised,
)

__all__ = [
    "Cell",
    "cell_key",
    "cells_for_matrix",
    "solve_cell",
    "ResultCache",
    "BatchReport",
    "load_journal",
    "trim_torn_tail",
    "merge_journals",
    "MergeReport",
    "run_batch",
    "Transport",
    "LocalPoolTransport",
    "WorkItem",
    "WorkResult",
    "ChaosConfig",
    "ChaosError",
    "FaultRecord",
    "SupervisedWorker",
    "run_supervised",
    "FAULT_CRASH",
    "FAULT_ERROR",
    "FAULT_OOM",
    "FAULT_TIMEOUT",
]
