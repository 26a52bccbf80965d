"""Interval-load demand kernels: all-slot-pairs sweeps and forced loads.

The necessary-condition tests (:mod:`repro.analysis.necessary`) reason
about the demand enclosed in — or forced into — every scan interval
``[a, b]`` of a hyperperiod.  This module hosts the array arithmetic:

* :func:`enclosed_excess_witness` — the enclosed demand ``D[a, b]`` of
  every slot pair minus capacity ``m (b - a + 1)``, reporting the
  row-major-first maximal excess when positive;
* :func:`interval_min_processors` — the same demand's
  ``max ceil(D[a, b] / (b - a + 1))``, the processor-count lower bound;
* :func:`first_excess_pair` — the first over-demanded (start, end)
  pair in row-major order, the interval-load fallback past the
  all-pairs budget;
* :func:`forced_demand_witness` — the partial-overlap strengthening:
  per candidate interval, every job is forced to run
  ``max(0, C - |window outside [a, b]|)`` units inside it.

The first three share one rolling sweep (:func:`_row_blocks`) over the
rows of the demand table, restricted to the distinct window starts and
ends: only those rows and columns can hold a maximum, because shrinking
an interval to its first enclosed start and last enclosed end keeps its
demand and shortens it.  Rows come in blocks, in descending order of
start: a block's (start, end) histogram (``np.add.at``), summed over
later starts and then over ends, is its rows.  A block holds at most
:data:`_BLOCK_CELLS` cells, or one row: memory is ``O(T)``, never the
``T x T`` table, while a small system takes one vectorised step.

Each sweep also has a private pure-Python reference (``_*_reference``)
over every slot pair; the parity tests call the references directly,
production code never does.  The sweeps return **identical** results —
including the first-occurrence-in-row-major tie-break for the witness
interval, which the parity suite pins.

This module is a leaf: inputs are plain sequences or arrays of ints,
not model objects.  A span is one window's ``(start, end, wcet)``.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence

import numpy as np

__all__ = [
    "enclosed_excess_witness",
    "interval_min_processors",
    "first_excess_pair",
    "forced_demand_witness",
]


#: the excess of a cell that is no interval (its end precedes its start)
_NO_INTERVAL = np.iinfo(np.int64).min

#: demand-table cells one block of the sweep holds (at least one row)
_BLOCK_CELLS = 1 << 16


def _row_blocks(spans) -> Iterator[tuple]:
    """Yield ``(a, ends, lengths, rows)`` for blocks of the distinct
    window starts, blocks in descending order: ``a`` are the block's
    starts (ascending), ``ends`` every distinct window end,
    ``rows[k, j]`` the demand of the windows wholly inside
    ``[a[k], ends[j]]`` and ``lengths[k, j] = ends[j] - a[k] + 1``
    (``<= 0`` where the end precedes the start: no interval)."""
    start, end, wcet = np.asarray(spans, dtype=np.int64).reshape(-1, 3).T
    starts, start_row = np.unique(start, return_inverse=True)
    ends, end_col = np.unique(end, return_inverse=True)
    order = np.argsort(start_row, kind="stable")
    start_row, end_col, wcet = start_row[order], end_col[order], wcet[order]
    step = max(1, _BLOCK_CELLS // max(1, len(ends)))
    later = np.zeros(len(ends), dtype=np.int64)  # by end, starts past block
    for hi in range(len(starts), 0, -step):
        lo = max(0, hi - step)
        first, past = np.searchsorted(start_row, (lo, hi))
        hist = np.zeros((hi - lo, len(ends)), dtype=np.int64)
        np.add.at(
            hist, (start_row[first:past] - lo, end_col[first:past]),
            wcet[first:past],
        )
        # suffix sum over starts (start >= a), then prefix sum over ends
        rows = np.cumsum(hist[::-1], axis=0)[::-1] + later
        later = rows[0].copy()
        np.cumsum(rows, axis=1, out=rows)
        a = starts[lo:hi]
        yield a, ends, ends[None, :] - a[:, None] + 1, rows


def enclosed_excess_witness(
    spans: Sequence[tuple],
    T: int,
    m: int,
    max_cells: int,
) -> "tuple[tuple[int, int, int] | None, bool]":
    """The all-pairs enclosed-demand check: ``(witness, tabled)``.

    ``witness`` is ``(a, b, demand)`` for the interval of *maximal*
    excess ``D[a, b] - m (b - a + 1)`` when that excess is positive
    (ties broken by the first row-major ``(a, b)``); None when no
    interval is over capacity.  ``tabled`` is False when
    ``T^2 > max_cells`` — the scan was skipped entirely and the caller
    must fall back to pair enumeration or abstain.
    """
    if T * T > max_cells:
        return None, False
    best = None  # (excess, a, b, demand)
    for a, ends, lengths, rows in _row_blocks(spans):
        excess = np.where(lengths > 0, rows - m * lengths, _NO_INTERVAL)
        k, j = np.unravel_index(np.argmax(excess), excess.shape)
        # blocks come in descending a: on a tie the smaller a wins
        if best is None or excess[k, j] >= best[0]:
            best = (int(excess[k, j]), int(a[k]), int(ends[j]), int(rows[k, j]))
    if best is not None and best[0] > 0:
        return best[1:], True
    return None, True


def _iter_rows_desc(spans, T: int):
    """Yield ``(a, row)`` for ``a = T-1 .. 0``, where ``row[b]`` is the
    enclosed demand ``D[a, b]`` — every slot, pure Python."""
    by_start: list[list[tuple[int, int]]] = [[] for _ in range(T)]
    for s, e, c in np.asarray(spans, dtype=np.int64).reshape(-1, 3).tolist():
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


def _enclosed_excess_witness_reference(
    spans: Sequence[tuple], T: int, m: int, max_cells: int
) -> "tuple[tuple[int, int, int] | None, bool]":
    """Pure-Python :func:`enclosed_excess_witness` (parity oracle)."""
    if T * T > max_cells:
        return None, False
    # track the maximal excess and, among equal maxima, the smallest
    # flat index a*T + b — the first occurrence in row-major order
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
    best = 0
    for _a, _ends, lengths, rows in _row_blocks(spans):
        need = -(-rows // np.maximum(lengths, 1))  # 0 where no interval
        best = max(best, int(need.max()))
    return best


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


def first_excess_pair(
    spans: Sequence[tuple], m: int
) -> "tuple[int, int, int] | None":
    """The first (window start, window end) pair, in row-major order,
    whose enclosed demand exceeds ``m`` slots of capacity, as
    ``(a, b, demand)``; None when no such pair exists."""
    found = None
    for a, ends, lengths, rows in _row_blocks(spans):
        over = (lengths > 0) & (rows > m * lengths)
        if over.any():
            # blocks come in descending a: the last one found comes first
            k, j = np.unravel_index(np.argmax(over), over.shape)
            found = (int(a[k]), int(ends[j]), int(rows[k, j]))
    return found


def _first_excess_pair_reference(
    spans: Sequence[tuple], m: int
) -> "tuple[int, int, int] | None":
    """Pure-Python :func:`first_excess_pair` (parity oracle)."""
    spans = np.asarray(spans, dtype=np.int64).reshape(-1, 3).tolist()
    starts = sorted({s for s, _, _ in spans})
    ends = sorted({e for _, e, _ in spans})
    for a in starts:
        inside = sorted((e, c) for s, e, c in spans if s >= a)
        demand = 0
        k = 0
        for b in ends:
            if b < a:
                continue
            while k < len(inside) and inside[k][0] <= b:
                demand += inside[k][1]
                k += 1
            if demand > m * (b - a + 1):
                return (a, b, demand)
    return None


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
