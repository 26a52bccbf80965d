"""Variable- and value-ordering heuristics (paper Section III-B).

A *variable order* is a callable ``(state, context) -> Variable | None``
returning the next unassigned variable to branch on (None = all assigned).
A *value order* is a callable ``(state, var) -> list[int]`` returning the
values to try, best first.  ``context`` carries the search data the
orders share (variable degrees, an optional ``random.Random``, conflict
statistics, and min-domain's incremental index of binary domains).

The generic CSP1 solver uses ``min_domain`` (+ optional random tie-break,
reproducing Choco's randomized default-search behaviour observed in
Section VII-B); the generic CSP2 solver uses ``input`` order over
chronologically created variables plus custom per-variable value orders
for the RM/DM/(T-C)/(D-C) task heuristics.

Three *adaptive* heuristics feed on the conflict statistics the learning
search (``Solver(learn=True)``) maintains in the shared
:class:`SearchContext`:

* :func:`var_order_dom_wdeg` — dom/wdeg weighted degree: every conflict
  bumps the weight of the failing constraint's variables, and the
  heuristic minimizes ``domain size / (static degree + learned weight)``
  so branching drifts toward the variables that keep causing trouble;
* :func:`make_var_order_last_conflict` — last-conflict reasoning: the
  variable whose assignment most recently conflicted is retried first
  until it assigns cleanly, testing whether it is the culprit;
* :func:`make_value_order_phase_saving` — phase saving: a variable first
  retries the value it last held, so backjumps and restarts do not
  un-learn a partial assignment that was working.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.csp.core import Variable
from repro.csp.state import DomainState

__all__ = [
    "SearchContext",
    "var_order_input",
    "var_order_min_domain",
    "var_order_dom_deg",
    "var_order_dom_wdeg",
    "var_order_random",
    "make_var_order_last_conflict",
    "value_order_ascending",
    "value_order_descending",
    "value_order_random",
    "value_order_custom",
    "make_value_order_phase_saving",
]


@dataclass
class SearchContext:
    """Data shared by heuristics during one solve.

    ``weights``, ``phases`` and ``last_conflicts`` are *conflict
    statistics* maintained by the learning search (``Solver(learn=True)``)
    and consumed by the adaptive heuristics; they stay ``None``/empty on
    non-learning runs.  ``binary`` is :func:`var_order_min_domain`'s
    index of binary domains, built on its first call for a state.
    """

    degrees: Sequence[int]
    rng: random.Random | None = None
    #: scratch: index of the first possibly-unassigned variable (input order)
    first_unassigned_hint: int = field(default=0)
    #: per-variable accumulated conflict weight (dom/wdeg); lazily
    #: initialized by the search or by :func:`var_order_dom_wdeg`
    weights: list | None = None
    #: last value each variable held (``var.index -> value``, phase saving)
    phases: dict | None = None
    #: variables of the most recent conflicts, most recent first
    #: (last-conflict reasoning reads the head)
    last_conflicts: list = field(default_factory=list)
    #: binary-domain index of the state being searched (min-domain order);
    #: replaced whenever the order is called with a different state
    binary: _BinaryIndex | None = field(default=None, repr=False)


class _BinaryIndex:
    """Sorted indices of one state's binary-domain variables (size 2).

    Every mask write appends a fresh ``(idx, old, new, ev)`` tuple to
    ``state.events`` and backtracking only truncates that list, so the
    index catches up from the log alone: :meth:`sync` unwinds the tuples
    it applied that are no longer the tuples at the same positions of
    ``state.events`` (an identity test; ``applied`` keeps them alive, so
    no id is reused), then applies the new tail.  A variable named by an
    unwound or new event enters or leaves ``ids`` as its current mask
    crosses size 2.  Cost per call: O(events since the last call), not
    O(variables)."""

    __slots__ = ("state", "ids", "applied")

    def __init__(self, state: DomainState) -> None:
        self.state = state
        #: ascending indices of the variables whose domain has size 2
        self.ids: list[int] = [
            i for i, m in enumerate(state.masks)
            if (t := m & (m - 1)) and not t & (t - 1)
        ]
        #: the event tuples :attr:`ids` reflects, in log order
        self.applied: list[tuple[int, int, int, int]] = list(state.events)

    def sync(self) -> list[int]:
        """Bring :attr:`ids` up to the state's current masks; return it."""
        events = self.state.events
        applied = self.applied
        n = len(events)
        k = len(applied)
        if k == n and (not k or applied[-1] is events[-1]):
            return self.ids
        if k > n:
            k = n
        while k and applied[k - 1] is not events[k - 1]:
            k -= 1
        changed = applied[k:]
        del applied[k:]
        fresh = events[k:]
        applied.extend(fresh)
        changed.extend(fresh)
        masks = self.state.masks
        ids = self.ids
        for e in changed:
            i = e[0]
            m = masks[i]
            t = m & (m - 1)
            j = bisect_left(ids, i)
            if t and not t & (t - 1):
                if j == len(ids) or ids[j] != i:
                    ids.insert(j, i)
            elif j < len(ids) and ids[j] == i:
                del ids[j]
        return ids


# -- variable orders ----------------------------------------------------------

def var_order_input(state: DomainState, ctx: SearchContext) -> Variable | None:
    """First unassigned variable in model creation order.

    With CSP2's chronological variable creation this is the paper's
    "time first, then processor id" ordering (Section V-C-1).
    """
    variables = state.model.variables
    masks = state.masks
    for idx in range(ctx.first_unassigned_hint, len(variables)):
        m = masks[idx]
        if m & (m - 1):
            return variables[idx]
    return None


def var_order_min_domain(state: DomainState, ctx: SearchContext) -> Variable | None:
    """Smallest current domain ("most constrained variable" fail-first);
    ties broken by index, or uniformly at random when ``ctx.rng`` is set.

    Size 2 is the floor, so whenever a binary domain exists the answer
    comes from ``ctx.binary``, the sorted indices of the binary-domain
    variables kept current from the state's event log
    (:class:`_BinaryIndex`): the deterministic path takes the
    smallest index, the randomized path draws from the whole tie list.
    Only when no binary domain is left does the order scan every
    variable for the smallest size above 2.  Either way the tie list —
    and so every ``rng`` draw — is the one a full scan would build."""
    index = ctx.binary
    if index is None or index.state is not state:
        index = ctx.binary = _BinaryIndex(state)
    rng = ctx.rng
    ids = index.sync()
    if not ids:
        ids = _min_size_ties(state.masks)
        if not ids:
            return None
    if rng is not None and len(ids) > 1:
        return state.model.variables[rng.choice(ids)]
    return state.model.variables[ids[0]]


def _min_size_ties(masks: Sequence[int]) -> list[int]:
    """Indices of the unassigned variables of smallest domain size,
    ascending (empty when every variable is assigned)."""
    best_size = 1 << 62
    for m in masks:
        if m & (m - 1):
            s = m.bit_count()
            if s < best_size:
                best_size = s
    if best_size == 1 << 62:
        return []
    return [
        i for i, m in enumerate(masks)
        if m & (m - 1) and m.bit_count() == best_size
    ]


def var_order_dom_deg(state: DomainState, ctx: SearchContext) -> Variable | None:
    """Minimize domain-size / static-degree (a classic refinement of
    min-domain that prefers highly-constrained variables)."""
    best = None
    best_key = None
    for v, m in zip(state.model.variables, state.masks):
        if not m & (m - 1):
            continue
        deg = ctx.degrees[v.index] or 1
        key = (m.bit_count() / deg, v.index)
        if best_key is None or key < best_key:
            best_key = key
            best = v
    return best


def var_order_dom_wdeg(state: DomainState, ctx: SearchContext) -> Variable | None:
    """Minimize domain-size / (static degree + conflict weight).

    The weighted-degree heuristic of Boussemart et al.: the search bumps
    ``ctx.weights`` for every variable of a failing constraint, so
    repeatedly conflicting variables are branched on earlier.  Before
    the first conflict this coincides with :func:`var_order_dom_deg`;
    ties break by variable index."""
    weights = ctx.weights
    if weights is None:
        weights = ctx.weights = [0.0] * len(state.masks)
    best = None
    best_key = None
    for v, m in zip(state.model.variables, state.masks):
        if not m & (m - 1):
            continue
        i = v.index
        # zero degree + zero weight falls back to 1, same as dom/deg, so
        # the two heuristics coincide before the first conflict
        denom = (ctx.degrees[i] + weights[i]) or 1
        key = (m.bit_count() / denom, i)
        if best_key is None or key < best_key:
            best_key = key
            best = v
    return best


def make_var_order_last_conflict(base):
    """Factory: last-conflict reasoning layered over ``base``.

    If a variable from a recent conflict (``ctx.last_conflicts``) is
    still unassigned, branch on it first — if it is the real culprit the
    refutation happens near the top of the subtree instead of after
    re-exploring everything below it.  Otherwise defer to ``base``."""

    def order(state: DomainState, ctx: SearchContext) -> Variable | None:
        masks = state.masks
        for idx in ctx.last_conflicts:
            m = masks[idx]
            if m & (m - 1):
                return state.model.variables[idx]
        return base(state, ctx)

    return order


def var_order_random(state: DomainState, ctx: SearchContext) -> Variable | None:
    """Uniformly random unassigned variable (requires ``ctx.rng``)."""
    if ctx.rng is None:
        raise ValueError("var_order_random needs a seeded SearchContext.rng")
    pool = [
        v
        for v, m in zip(state.model.variables, state.masks)
        if m & (m - 1)
    ]
    if not pool:
        return None
    return ctx.rng.choice(pool)


# -- value orders -------------------------------------------------------------

def value_order_ascending(state: DomainState, var: Variable) -> list[int]:
    """Smallest value first."""
    return state.values(var)


def value_order_descending(state: DomainState, var: Variable) -> list[int]:
    """Largest value first."""
    return state.values(var)[::-1]


def make_value_order_random(rng: random.Random):
    """Factory: shuffled value order using a shared RNG."""

    def order(state: DomainState, var: Variable) -> list[int]:
        vals = state.values(var)
        rng.shuffle(vals)
        return vals

    return order


# kept as a named symbol so callers can pass it like the other orders;
# they must construct it through make_value_order_random for seeding.
value_order_random = make_value_order_random


def make_value_order_phase_saving(base, phases: Mapping[int, int]):
    """Factory: try each variable's previously-held value first.

    ``phases`` is the shared ``var.index -> last value`` mapping the
    learning search maintains (``SearchContext.phases``); values the
    variable no longer has — or never had recorded — leave the ``base``
    order untouched."""

    def order(state: DomainState, var: Variable) -> list[int]:
        vals = base(state, var)
        saved = phases.get(var.index)
        if saved is None or not vals or vals[0] == saved:
            return vals
        b = saved - var.offset
        if b < 0 or not state.masks[var.index] >> b & 1:
            return vals  # saved value no longer available
        out = [saved]
        out.extend(v for v in vals if v != saved)
        return out

    return order


def value_order_custom(ranks: Mapping[int, Sequence[int]] | Sequence[int]):
    """Factory: per-variable (by ``var.index``) or global preferred order.

    ``ranks`` is either a mapping ``var.index -> preferred value list`` or a
    single list applied to every variable.  Values present in the current
    domain are tried in preferred order (a value listed twice is tried
    once, at its first position — branching on the same value twice would
    just re-explore an identical subtree); leftover domain values (not
    mentioned in the list) follow in ascending order.
    """

    def order(state: DomainState, var: Variable) -> list[int]:
        if isinstance(ranks, Mapping):
            preferred = ranks.get(var.index, ())
        else:
            preferred = ranks
        mask = state.masks[var.index]
        offset = var.offset
        out = []
        taken = 0  # bitmask of already-emitted values (dedup + leftovers)
        for v in preferred:
            b = v - offset
            if b >= 0 and mask >> b & 1 and not taken >> b & 1:
                taken |= 1 << b
                out.append(v)
        if taken != mask:
            # leftover domain values not mentioned in `preferred`
            out.extend(
                v for v in state.values(var) if not taken >> (v - offset) & 1
            )
        return out

    return order
