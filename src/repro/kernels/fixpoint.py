"""Batched counting rows for the propagation fixpoint.

The four counting propagators (``ExactSumBool``/``WeightedExactSumBool``
/``CountEq``/``WeightedCountEq``) are the engine's tier-0 workhorses:
on the paper-scale CSP2 grids they receive the large majority of all
event wakes, and each wake costs a Python method call just to bump two
or three counters and check a bound.  This module stacks *all* their
rows into one shared store the engine consults inline:

* **Row matrix.**  Every row is a set of ``(var_index, value_bit,
  coefficient)`` cells plus a target ``total`` (and ``cmax`` for the
  weighted rows) — exported by each propagator's ``batch_row()`` and
  added by :meth:`CountingKernel.add` during the engine's one-pass
  wiring compile (:mod:`repro.csp.wiring`).  The whole system of rows is
  one sparse ``(rows x vars)`` masked matrix.
* **Reset pass.**  :meth:`CountingKernel.reset` evaluates every row's
  aggregates from the current domain masks in one scalar sweep and
  re-points each propagator's ``_c`` at the kernel-owned list, so
  ``propagate`` reads the shared aggregates with no synchronisation.
* **Inline update tables.**  :attr:`CountingKernel.table` maps each
  variable to the row entries its events touch.  The engine's
  dispatch loop updates the aggregates *inline* (no function call) and
  re-enqueues a row only when its bounds say propagation could act —
  exactly the skip condition the scalar ``on_event`` hooks implement,
  so per-node search decisions are byte-identical (pinned by
  ``tests/test_engine_regression.py``).

The kernel is pure Python: one numpy dispatch costs more than an entire
node's bookkeeping at these row sizes, and even the once-per-search
reset measured slower through numpy than through the scalar sweep.

Trail safety: aggregate lists are snapshotted once per node onto the
engine's undo log before the first inline update (the same
``(list, None, tuple)`` record the scalar propagators use), guarded by
a per-row stamp holder; deactivated (entailed) rows are skipped first,
keeping their aggregates frozen exactly like the scalar engine.
"""

from __future__ import annotations

__all__ = ["CountingKernel"]

#: the TRUE bit of 2-value boolean domains (bool rows count this value)
_TRUE = 0b10


class _Row:
    """One counting row: identity, cells and the shared aggregate list."""

    __slots__ = ("pid", "prop", "slots", "cells", "c", "st")

    def __init__(self, pid, prop, slots, cells):
        self.pid = pid
        self.prop = prop
        self.slots = slots
        self.cells = cells  # [(var_index, value_bit, coefficient), ...]
        self.c = [0] * slots  # kernel-owned aggregates; prop._c aliases it
        self.st = [-1]  # per-row once-per-node trail stamp holder


class CountingKernel:
    """Shared aggregate store + per-variable inline wake tables.

    Rows are added one at a time by :meth:`add`, in propagator order,
    from the engine's one-pass wiring compiler
    (:func:`repro.csp.wiring.compile_wiring`); each call appends the
    row's entries to the tables of the variables it counts.
    """

    def __init__(self, n_vars: int) -> None:
        self.rows: list[_Row] = []
        #: per-variable dict ``value_bit -> list of inline entries``
        #: ``(pid, c, st, total, coef, w3, cmax)``, indexed by
        #: ``var.index`` (None for a variable no row counts).  Keying by
        #: bit lets the dispatch loop jump straight from an event's
        #: removed/assigned bits to the rows they affect, instead of
        #: scanning every row watching the var.
        self.table: list[dict[int, list] | None] = [None] * n_vars
        #: per-variable OR of the keyed bits: masking an event's removed
        #: bits with this skips the non-keyed ones before any dict lookup
        #: (and makes every surviving lookup a guaranteed hit)
        self.bitmask: list[int] = [0] * n_vars

    def add(self, pid: int, prop) -> None:
        """Append ``prop``'s ``batch_row()`` export as row ``pid``.

        Every entry is the same uniform 7-tuple: the bool rows are just
        count rows whose counted value-bit is TRUE (a 2-value domain
        only ever sees assign events, and the gain/loss bookkeeping
        coincides), and the 2-slot rows are 3-slot rows without the
        free-count cell (``w3`` gates it).  A variable listed twice in
        one row (``CountEq`` keeps repeated occurrences) gets one entry
        carrying the summed coefficient, so one event updates the
        aggregates once per occurrence.
        """
        kind, slots, cells, total, cmax = prop.batch_row()
        row = _Row(pid, prop, slots, cells)
        self.rows.append(row)
        table = self.table
        bitmask = self.bitmask
        c = row.c
        st = row.st
        w3 = slots == 3
        count = kind == "count"
        unit = (pid, c, st, total, 1, w3, cmax)
        for vi, bit, coef in cells:
            if not count:
                bit = _TRUE
            entry = unit if coef == 1 else (pid, c, st, total, coef, w3, cmax)
            buckets = table[vi]
            if buckets is None:
                table[vi] = {bit: [entry]}
                bitmask[vi] = bit
                continue
            bucket = buckets.get(bit)
            if bucket is None:
                buckets[bit] = [entry]
                bitmask[vi] |= bit
            elif bucket[-1][0] == pid:  # repeated variable: sum the weights
                prev = bucket[-1]
                bucket[-1] = (pid, c, st, total, prev[4] + coef, w3, cmax)
            else:
                bucket.append(entry)

    # -- the single-pass reset sweep ----------------------------------------
    def reset(self, state) -> None:
        """Recompute every row's aggregates from the current domains.

        Each propagator's ``_c`` is re-pointed at the kernel-owned list
        so ``propagate`` and the inline tables observe the same
        aggregates with no copying.
        """
        for row, agg in zip(self.rows, self.evaluate(state)):
            row.c[:] = agg
            row.st[0] = -1
            row.prop._c = row.c

    def evaluate(self, state) -> list[list[int]]:
        """Every row's aggregates, computed fresh from the domain masks.

        Also usable by tests to cross-check the incrementally-maintained
        aggregates mid-search.
        """
        out = []
        masks = state.masks
        for row in self.rows:
            fix = cand_w = cand_n = 0
            for vi, bit, coef in row.cells:
                m = masks[vi]
                if m & bit:
                    if m == bit:
                        fix += coef
                    else:
                        cand_w += coef
                        cand_n += 1
            if row.slots == 2:
                out.append([fix, cand_w])
            else:
                out.append([fix, cand_w, cand_n])
        return out
