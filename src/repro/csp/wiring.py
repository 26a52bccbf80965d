"""The search engine's dispatch wiring, compiled from a model in one pass.

:class:`~repro.csp.search.Solver` does not walk the model's propagators
itself: it binds the :class:`Wiring` that :func:`compile_wiring` builds
in a single pass over ``model.constraints``.  For every propagator, in
order, that pass

* records its queue tier, its ``propagate`` function and, for a
  propagator that keeps counters, its ``reset``;
* counts its variables into the degrees the dom/deg heuristics read;
* appends its subscriptions to the per-variable watcher lists of the
  event classes its wake mask reaches.

The chronological and the learning search bind the same wiring: the
counting rows of both encodings keep their aggregates through their own
``on_event`` hooks, as every other stateful propagator does.

An event's mask is always one of REMOVE (1), REMOVE|BOUNDS (3) or
REMOVE|BOUNDS|ASSIGN (7), so each variable gets an 8-slot jump table
``watchers[idx][event_mask]`` whose slots 1, 3 and 7 hold the
subscriptions ``(pid, on_event-or-None, relevance, dedup)`` that event
wakes, in propagator order (the order the dispatch loop visits them, and
hence the order of the queue).  The three classes are nested, so where
two of them hold the same entries they share one tuple.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.csp.core import Model
from repro.csp.propagators import Propagator
from repro.csp.state import EVT_ANY, EVT_ASSIGN, EVT_BOUNDS, EVT_REMOVE

__all__ = ["Wiring", "compile_wiring", "N_TIERS"]

#: number of propagation-queue tiers (``priority`` is clamped into it)
N_TIERS = 3

_E = ()
_UNWATCHED = (_E,) * 8
_DEFAULT_WATCHES = Propagator.watches
_DEFAULT_RESET = Propagator.reset


class Wiring(NamedTuple):
    """Everything the search loop dispatches through, per model.

    ``props``, ``fns`` (bound ``propagate`` methods) and ``tiers`` are
    indexed by propagator id; ``degrees`` and ``watchers`` by variable
    index.  ``resets`` lists the ``reset`` hooks a fresh search must
    call (tally-on-wake propagators keep no counters).
    """

    props: list
    fns: list
    tiers: list[int]
    degrees: list[int]
    watchers: list[tuple]
    resets: list


def compile_wiring(model: Model) -> Wiring:
    """Compile ``model``'s dispatch wiring in one pass."""
    props = list(model.constraints)
    n_vars = len(model.variables)
    # per-variable subscriptions of event classes 1, 3 and 7
    c1: list[list] = [[] for _ in range(n_vars)]
    c3: list[list] = [[] for _ in range(n_vars)]
    c7: list[list] = [[] for _ in range(n_vars)]
    degrees = [0] * n_vars
    tiers: list[int] = []
    fns = []
    resets = []
    for pid, prop in enumerate(props):
        tier = min(N_TIERS - 1, max(0, getattr(prop, "priority", 1)))
        tiers.append(tier)
        fns.append(prop.propagate)
        pvars = prop.vars
        handler = getattr(prop, "on_event", None)
        incremental = getattr(prop, "incremental", True)
        if not incremental:
            handler = None  # tally-on-wake mode: no delta bookkeeping
        reset = getattr(prop, "reset", None)
        if (
            incremental and reset is not None
            and getattr(reset, "__func__", None) is not _DEFAULT_RESET
        ):
            resets.append(reset)
        dedup = handler is not None and getattr(prop, "stateless_filter", False)
        watches = getattr(prop, "watches", None)
        if watches is None or getattr(watches, "__func__", None) is _DEFAULT_WATCHES:
            # one wake mask for every variable: one shared entry
            wake_mask = EVT_ANY if watches is None else prop.wake_on
            entry = (pid, handler, None, dedup)
            if wake_mask & EVT_REMOVE:
                for v in pvars:
                    i = v.index
                    degrees[i] += 1
                    c1[i].append(entry)
                    c3[i].append(entry)
                    c7[i].append(entry)
            elif wake_mask & EVT_BOUNDS:
                for v in pvars:
                    i = v.index
                    degrees[i] += 1
                    c3[i].append(entry)
                    c7[i].append(entry)
            elif wake_mask & EVT_ASSIGN:
                for v in pvars:
                    i = v.index
                    degrees[i] += 1
                    c7[i].append(entry)
            else:
                for v in pvars:
                    degrees[v.index] += 1
            continue
        for v in pvars:
            degrees[v.index] += 1
        for sub in watches():
            if len(sub) == 2:  # legacy (var, wake_mask) subscription
                var, wake_mask = sub
                relevance = None
            else:
                var, wake_mask, relevance = sub
            if not wake_mask & EVT_ANY:
                continue
            i = var.index
            entry = (pid, handler, relevance, dedup)
            if wake_mask & EVT_REMOVE:
                c1[i].append(entry)
            if wake_mask & (EVT_REMOVE | EVT_BOUNDS):
                c3[i].append(entry)
            c7[i].append(entry)
    watchers = []
    for l1, l3, l7 in zip(c1, c3, c7):
        if not l3:
            watchers.append((_E, _E, _E, _E, _E, _E, _E, tuple(l7)) if l7 else _UNWATCHED)
            continue
        t7 = tuple(l7)
        t3 = t7 if len(l3) == len(l7) else tuple(l3)
        t1 = t3 if len(l1) == len(l3) else tuple(l1)
        watchers.append((_E, t1, _E, t3, _E, _E, _E, t7))
    return Wiring(props, fns, tiers, degrees, watchers, resets)
