"""Interval-load demand kernels: all-slot-pairs tables and forced loads.

The necessary-condition tests (:mod:`repro.analysis.necessary`) reason
about the demand enclosed in — or forced into — every scan interval
``[a, b]`` of a hyperperiod.  This module hosts the array arithmetic:

* :func:`enclosed_excess_witness` — the all-pairs enclosed-demand table
  ``D[a, b]`` (one 2-D prefix sum over a (start, end) histogram) minus
  capacity ``m (b - a + 1)``, reporting the row-major-first maximal
  excess when positive;
* :func:`interval_min_processors` — the same table's
  ``max ceil(D[a, b] / (b - a + 1))``, the processor-count lower bound;
* :func:`forced_demand_witness` — the partial-overlap strengthening:
  per candidate interval, every job is forced to run
  ``max(0, C - |window outside [a, b]|)`` units inside it.

Each function runs on numpy (``np.cumsum`` prefix sums, vectorised
overlap clips).  Each also has a private pure-Python reference
(``_*_reference``) that tests and ``benchmarks/bench_kernels.py`` call
directly; production code never selects it.  The references trade the
``O(T^2)`` table for an ``O(T)``-memory rolling row sweep but return
**identical** results — including the numpy path's
first-occurrence-in-row-major tie-break for the witness interval, which
the parity suite pins.

This module is a leaf: inputs are plain sequences of ints, not model
objects.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "enclosed_excess_witness",
    "interval_min_processors",
    "forced_demand_witness",
]

Span = "tuple[int, int, int]"  # (start, end, wcet) of one job window


def _demand_table(spans, T: int):
    """``D[a, b]`` = total demand of windows wholly inside ``[a, b]``."""
    hist = np.zeros((T, T), dtype=np.int64)
    for s, e, c in spans:
        hist[s, e] += c
    # suffix-sum over starts (s >= a), prefix-sum over ends (e <= b)
    table = np.flip(np.cumsum(np.flip(hist, axis=0), axis=0), axis=0)
    np.cumsum(table, axis=1, out=table)
    return table


def _iter_rows_desc(spans, T: int):
    """Yield ``(a, row)`` for ``a = T-1 .. 0``, where ``row[b]`` is the
    enclosed demand ``D[a, b]`` — O(T) memory via a rolling histogram."""
    by_start: list[list[tuple[int, int]]] = [[] for _ in range(T)]
    for s, e, c in spans:
        by_start[s].append((e, c))
    hist = [0] * T  # over ends, for windows with start >= a
    for a in range(T - 1, -1, -1):
        for e, c in by_start[a]:
            hist[e] += c
        row = [0] * T
        acc = 0
        for b in range(T):
            acc += hist[b]
            row[b] = acc
        yield a, row


def enclosed_excess_witness(
    spans: Sequence[tuple],
    T: int,
    m: int,
    max_cells: int,
) -> "tuple[tuple[int, int, int] | None, bool]":
    """The all-pairs enclosed-demand check: ``(witness, tabled)``.

    ``witness`` is ``(a, b, demand)`` for the interval of *maximal*
    excess ``D[a, b] - m (b - a + 1)`` when that excess is positive
    (ties broken by the first row-major ``(a, b)``, matching
    ``np.argmax`` over the flattened table); None when no interval is
    over capacity.  ``tabled`` is False when ``T^2 > max_cells`` — the
    scan was skipped entirely and the caller must fall back to pair
    enumeration or abstain.
    """
    if T * T > max_cells:
        return None, False
    table = _demand_table(spans, T)
    lengths = np.arange(T)[None, :] - np.arange(T)[:, None] + 1
    excess = np.where(lengths > 0, table - m * lengths, np.int64(-1))
    flat = int(np.argmax(excess))
    a, b = divmod(flat, T)
    if excess[a, b] > 0:
        return (int(a), int(b), int(table[a, b])), True
    return None, True


def _enclosed_excess_witness_reference(
    spans: Sequence[tuple], T: int, m: int, max_cells: int
) -> "tuple[tuple[int, int, int] | None, bool]":
    """Pure-Python :func:`enclosed_excess_witness` (parity oracle)."""
    if T * T > max_cells:
        return None, False
    # rolling sweep: track the maximal excess and, among equal maxima,
    # the smallest flat index a*T + b — np.argmax's first occurrence
    best = None
    best_flat = -1
    best_demand = 0
    for a, row in _iter_rows_desc(spans, T):
        base = a * T
        for b in range(a, T):
            excess = row[b] - m * (b - a + 1)
            flat = base + b
            if (
                best is None
                or excess > best
                or (excess == best and flat < best_flat)
            ):
                best = excess
                best_flat = flat
                best_demand = row[b]
    if best is not None and best > 0:
        a, b = divmod(best_flat, T)
        return (a, b, best_demand), True
    return None, True


def interval_min_processors(
    spans: Sequence[tuple], T: int, max_cells: int
) -> int | None:
    """``max ceil(D[a, b] / (b - a + 1))`` over all scan intervals — the
    interval-load processor lower bound; None when over ``max_cells``."""
    if T * T > max_cells or T == 0:
        return None
    table = _demand_table(spans, T)
    lengths = np.arange(T)[None, :] - np.arange(T)[:, None] + 1
    valid = lengths > 0
    need = -(-table[valid] // lengths[valid])  # ceil division
    return int(need.max()) if need.size else None


def _interval_min_processors_reference(
    spans: Sequence[tuple], T: int, max_cells: int
) -> int | None:
    """Pure-Python :func:`interval_min_processors` (parity oracle)."""
    if T * T > max_cells or T == 0:
        return None
    best = 0
    for a, row in _iter_rows_desc(spans, T):
        for b in range(a, T):
            need = -(-row[b] // (b - a + 1))
            if need > best:
                best = need
    return best


def forced_demand_witness(
    f_start: Sequence[int],
    f_end: Sequence[int],
    f_job: Sequence[int],
    wcet: Sequence[int],
    wlen: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
    m: int,
) -> "tuple[int, int, int] | None":
    """First candidate interval whose *forced* demand exceeds capacity.

    Fragments (a wrapped window contributes two) are given by parallel
    arrays ``f_start``/``f_end``/``f_job``; per job, ``wcet`` and the
    full window length ``wlen``.  Candidates are scanned in ``starts``
    x ``ends`` order (both ascending) and the first ``(a, b, demand)``
    with ``demand > m (b - a + 1)`` is returned, or None.
    """
    fs = np.asarray(f_start, dtype=np.int64)
    fe = np.asarray(f_end, dtype=np.int64)
    fj = np.asarray(f_job, dtype=np.int64)
    wc = np.asarray(wcet, dtype=np.int64)
    wl = np.asarray(wlen, dtype=np.int64)
    for a in starts:
        for b in ends:
            if b < a:
                continue
            overlap_f = np.clip(
                np.minimum(fe, b) - np.maximum(fs, a) + 1, 0, None
            )
            overlap = np.zeros(len(wc), dtype=np.int64)
            np.add.at(overlap, fj, overlap_f)
            forced = np.clip(wc - (wl - overlap), 0, None)
            demand = int(forced.sum())
            if demand > m * (b - a + 1):
                return int(a), int(b), demand
    return None


def _forced_demand_witness_reference(
    f_start: Sequence[int],
    f_end: Sequence[int],
    f_job: Sequence[int],
    wcet: Sequence[int],
    wlen: Sequence[int],
    starts: Sequence[int],
    ends: Sequence[int],
    m: int,
) -> "tuple[int, int, int] | None":
    """Pure-Python :func:`forced_demand_witness` (parity oracle)."""
    n_jobs = len(wcet)
    n_frag = len(f_start)
    overlap = [0] * n_jobs
    for a in starts:
        for b in ends:
            if b < a:
                continue
            for j in range(n_jobs):
                overlap[j] = 0
            for k in range(n_frag):
                o = min(f_end[k], b) - max(f_start[k], a) + 1
                if o > 0:
                    overlap[f_job[k]] += o
            demand = 0
            for j in range(n_jobs):
                forced = wcet[j] - (wlen[j] - overlap[j])
                if forced > 0:
                    demand += forced
            if demand > m * (b - a + 1):
                return a, b, demand
    return None
