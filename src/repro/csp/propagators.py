"""Constraint propagators — incremental, event-typed, entailment-aware.

Each propagator exposes the variables it watches and a
``propagate(state)`` method that prunes domains towards (at least)
bounds/value consistency.  ``propagate`` returns one of

* :data:`PROP_FAIL` (``0``, falsy) — wipe-out, the subtree is dead;
* :data:`PROP_OK` (``1``) — pruned to a local fixpoint, stay active;
* :data:`PROP_ENTAILED` (``2``) — the constraint now holds for *every*
  remaining assignment; the engine deactivates the propagator for the
  rest of the subtree (and the trail reactivates it on backtrack).

Truthiness is preserved on purpose: legacy ``True``/``False`` returns
still mean OK/FAIL, so external propagators keep working unchanged.

Unlike the first-generation engine — whose propagators were *stateless*
and rescanned all ``k`` variables on every call — the counting
propagators here own **reversible counters** (TRUE/undecided tallies,
weighted fixed and free sums, validity bitmasks) that the engine keeps
current through :meth:`Propagator.on_event` deltas: O(1) bookkeeping per
domain change, O(1) bound checks on wake, and an O(k) pruning scan only
on the rare wake that actually prunes (which then usually entails).
Counters are trailed through :meth:`DomainState.save` /
:meth:`DomainState.save_all`, so backtracking restores them together
with the domains.

Writing an incremental propagator
---------------------------------
1. Declare ``priority`` (0 = cheap counter checks, drained first;
   1 = linear passes; 2 = expensive, e.g. table filtering) and a
   ``wake_on`` event mask (or override :meth:`Propagator.watches` for
   per-variable masks) from :data:`~repro.csp.state.EVT_REMOVE` /
   ``EVT_BOUNDS`` / ``EVT_ASSIGN``.
2. Initialize the counters from the current domains in ``reset(state)``
   (the engine calls it once per search; after any out-of-engine domain
   mutation, call it yourself before ``propagate``).
3. In ``on_event(state, idx, old_mask, new_mask)``, update the counters
   from the delta.  Trail them first, at most once per node::

       if self._stamp != state.stamp:
           self._stamp = state.stamp
           state.save_all(self._c)

   (The built-in propagators inline the equivalent private-attribute
   form ``state._undo.append((c, None, tuple(c)))`` because this runs
   once per event on the hottest path; external propagators should use
   the public ``stamp`` + ``save_all`` spelling above.)  ``on_event``
   must **never** mutate domains; all pruning belongs in ``propagate``.  Return ``False`` when
   the updated counters prove the wake would be a no-op (no failure, no
   pruning, no entailment possible) and the engine skips the enqueue;
   any other return value schedules ``propagate`` as usual.
4. Declare every attribute ``on_event``/``propagate`` mutates in the
   class-level ``_trail_safe`` tuple — the statically checked record of
   which search-time state is trailed (or deliberately not, with a
   comment saying why that is sound, as for :class:`Table`'s residual
   caches and the ``_stamp`` guards).  ``repro-mgrts lint`` flags any
   search-time mutation outside the declared set
   (``R5.unregistered-mutation``).
5. Only report :data:`PROP_ENTAILED` when no future domain change could
   make the constraint prune or fail again in this subtree — a
   too-eager entailment silently weakens propagation.

Explaining propagations (conflict-directed search)
--------------------------------------------------
When the solver runs with learning enabled (see
:mod:`repro.csp.learning`), propagators may additionally *explain*
themselves.  A literal is a ``(var_index, value, sign)`` triple —
``sign=True`` means "the variable is assigned ``value``", ``sign=False``
means "``value`` was removed".

* :meth:`Propagator.explain_event` ``(state, trail, pos)`` returns a
  list of literals, **all true strictly before event position** ``pos``,
  whose conjunction forced the event this propagator recorded at ``pos``
  (``state.events[pos]``); literals that have been true since the root
  may be included or dropped freely (they carry no information).  Return
  ``None`` to decline: the analyzer then falls back to the sound
  decision-prefix reason (every event is a deterministic consequence of
  the decisions above it), which is always correct but maximally coarse.
* :meth:`Propagator.explain_failure` ``(state, trail)`` returns literals
  (all currently true) whose conjunction is sufficient for the wipe-out
  this propagator just reported, or ``None`` for the same fallback.

The hot counting/table propagators implement both for real —
:class:`AtMostOneTrue` blames the TRUE variable, the exact-sum
propagator blames the TRUE set (overshoot) or the FALSE set
(undershoot), the count propagator the fixed or the lost set, and
:class:`Table` blames the removals that invalidated the supports — so
learned nogoods stay short and reusable instead of degenerating into
full decision prefixes.

The set of propagators is exactly what the paper's encodings need.  Each
counting constraint has one implementation: (5) and (9) are (11) and
(12) with every rate 1 (Section VI-A), so :class:`ExactSumBool` and
:class:`CountEq` are the weighted classes with unit coefficients, and
the encoders post the weighted class on every platform kind.

================  ============================================  ==========
propagator         paper constraint                              encoding
================  ============================================  ==========
AtMostOneTrue      (3) one task per processor-slot,              CSP1
                   (4) one processor per task-slot
WeightedExactSum   (11) sum_j s_ij x_ij = C_i per window,        CSP1
                   (5) when every rate is 1 (ExactSumBool)
WeightedCountEq    (12) rate-weighted slots equal to i = C_i,    CSP2
                   (9) when every rate is 1 (CountEq)
AllDifferentExc    (8) processors differ unless idle             CSP2
NonDecreasing      (10)/(13) symmetry breaking                   CSP2
Table              (generic; used by tests/extensions)           --
================  ============================================  ==========
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.csp.core import Variable
from repro.csp.state import EVT_ANY, EVT_ASSIGN, EVT_BOUNDS, EVT_REMOVE, DomainState
from repro.util.bitset import values_from_mask

__all__ = [
    "Propagator",
    "PROP_FAIL",
    "PROP_OK",
    "PROP_ENTAILED",
    "INCREMENTAL_ARITY_THRESHOLD",
    "AtMostOneTrue",
    "ExactSumBool",
    "WeightedExactSumBool",
    "CountEq",
    "WeightedCountEq",
    "AllDifferentExceptValue",
    "NonDecreasing",
    "Table",
]

#: propagate() verdict: domain wipe-out (falsy, like the legacy ``False``)
PROP_FAIL = 0
#: propagate() verdict: local fixpoint reached, constraint stays active
PROP_OK = 1
#: propagate() verdict: satisfied for every remaining assignment —
#: the engine deactivates the propagator until backtracking
PROP_ENTAILED = 2

#: number of distinct (for the count propagators: watched) variables at
#: which the counting propagators switch from tally-on-wake to delta-fed
#: counters; a repeated variable is one entry, so it counts once.  Below
#: it a fresh O(k) tally on the (filtered, deduplicated) wakes is cheaper
#: than per-event counter bookkeeping — CSP1's at-most-one rows sit well
#: under this; CSP2's per-window count constraints sit well over it.
#: Instances expose the decision as the writable ``incremental`` attribute.
INCREMENTAL_ARITY_THRESHOLD = 8

_TRUE = 0b10  # singleton {1} mask of a boolean variable
_FALSE = 0b01  # singleton {0}
_BOTH = 0b11  # undecided boolean


def _check_bools(vars: Sequence[Variable]) -> tuple[Variable, ...]:
    vs = tuple(vars)
    for v in vs:
        if v.offset != 0 or v.initial_mask & ~_BOTH:
            raise ValueError(f"{v.name} is not a boolean variable")
    return vs


def _counting_row(
    vars: tuple[Variable, ...], coefs: Sequence[int], total: int
) -> tuple[tuple[Variable, ...], tuple[int, ...]]:
    """Check one weighted counting row and merge its repeated variables:
    one entry per distinct variable, in first-occurrence order, whose
    coefficient sums its occurrences."""
    coefs = tuple(coefs)
    if len(coefs) != len(vars):
        raise ValueError("one coefficient per variable required")
    if coefs and min(coefs) < 1:
        raise ValueError(f"coefficients must be >= 1, got {coefs}")
    if total < 0:
        raise ValueError(f"total must be >= 0, got {total}")
    if len(set(vars)) == len(vars):
        return vars, coefs
    merged: dict[Variable, int] = {}
    for v, c in zip(vars, coefs):
        merged[v] = merged.get(v, 0) + c
    return tuple(merged), tuple(merged.values())


class Propagator:
    """Base class; subclasses set ``vars`` and implement ``propagate``.

    Class attributes ``priority`` (queue tier) and ``wake_on`` (event
    subscription mask) drive the engine's scheduling; stateful
    subclasses additionally implement ``reset`` and ``on_event`` (see
    the module docstring for the full contract).
    """

    __slots__ = ("vars",)

    vars: tuple[Variable, ...]
    #: queue tier: 0 = cheapest (drained first), 2 = most expensive
    priority = 1
    #: event types that wake this propagator (see ``watches``)
    wake_on = EVT_ANY
    #: True when ``on_event`` is a pure wake filter — it updates no
    #: counters, so its only effect is deciding whether to enqueue.
    #: The dispatch loop then skips the call entirely while the
    #: propagator is already queued (the outcome cannot matter), which
    #: keeps filter cost proportional to *enqueue attempts* rather than
    #: raw event volume.  Stateful ``on_event`` hooks (counter deltas)
    #: must leave this False: they need to see every event.
    stateless_filter = False
    #: attributes ``on_event``/``propagate`` may mutate: each is either
    #: trailed (state.save/save_all or the inlined ``_undo`` form) or
    #: deliberately untrailed with a comment at the subclass declaration
    #: saying why that is sound.  Checked statically by the lint rule
    #: R5.unregistered-mutation.
    _trail_safe: tuple[str, ...] = ()

    def watches(self) -> list[tuple[Variable, int, int | None]]:
        """``(variable, wake_mask, relevance)`` subscriptions; default:
        every variable with the class-level ``wake_on`` mask.

        ``relevance`` is an optional value bitmask (in the variable's
        local bit positions): when set, the engine only wakes the
        propagator for events that remove one of those values or assign
        the variable to one of them — the dispatch-level form of "I only
        care about value ``v``".  ``None`` means every matching event is
        relevant."""
        return [(v, self.wake_on, None) for v in self.vars]

    def reset(self, state: DomainState) -> None:
        """(Re)initialize owned counters from the current domains.

        The engine calls this once at the start of every search run;
        stateless propagators inherit the no-op."""

    def propagate(self, state: DomainState) -> int:  # pragma: no cover - abstract
        raise NotImplementedError

    def explain_event(self, state: DomainState, trail, pos: int):
        """Literals (true strictly before ``pos``) that forced the event
        this propagator recorded at ``state.events[pos]``.

        Default ``None``: the conflict analyzer falls back to the sound
        decision-prefix reason.  See the module docstring for the full
        contract."""
        return None

    def explain_failure(self, state: DomainState, trail):
        """Literals (currently true) sufficient for the wipe-out this
        propagator just reported; ``None`` for the decision-prefix
        fallback."""
        return None

    def __repr__(self) -> str:
        names = ",".join(v.name for v in self.vars[:4])
        more = "" if len(self.vars) <= 4 else f",..{len(self.vars)}"
        return f"{type(self).__name__}({names}{more})"


class AtMostOneTrue(Propagator):
    """At most one of the boolean variables is 1 (paper (3)/(4)).

    Counters: ``[n_true, n_undecided]``; wakes on ASSIGN only (boolean
    domains have no other transition)."""

    __slots__ = ("incremental", "_c", "_stamp")

    priority = 0
    wake_on = EVT_ASSIGN
    # _c is trailed via the inlined _undo form; _stamp is a monotone
    # once-per-node guard that is sound without trailing
    _trail_safe = ("_c", "_stamp")

    def __init__(self, bools: Sequence[Variable]) -> None:
        self.vars = _check_bools(bools)
        self.incremental = len(self.vars) >= INCREMENTAL_ARITY_THRESHOLD
        self._c: list[int] | None = None
        self._stamp = -1

    def _tally(self, state: DomainState) -> list[int]:
        masks = state.masks
        n_true = n_und = 0
        for v in self.vars:
            m = masks[v.index]
            if m == _TRUE:
                n_true += 1
            elif m == _BOTH:
                n_und += 1
        return [n_true, n_und]

    def reset(self, state: DomainState) -> None:
        """Count TRUE / undecided booleans from the current domains."""
        self._c = self._tally(state)
        self._stamp = -1

    def on_event(self, state: DomainState, idx: int, old: int, new: int):
        """A watched boolean was assigned: retally in O(1)."""
        c = self._c
        if self._stamp != state._stamp:  # trail the counters once per node
            self._stamp = state._stamp
            state._undo.append((c, None, tuple(c)))
        if new == _TRUE:
            c[0] += 1
            c[1] -= 1
            return None  # a new TRUE always forces, fails or entails
        c[1] -= 1
        if c[0] == 0 and c[1] > 1:
            return False  # nothing to do while no var is TRUE
        return None

    def explain_event(self, state: DomainState, trail, pos: int):
        """A forced 0 is explained by the variable that was TRUE."""
        idx, _old, new, _ev = state.events[pos]
        if new != _FALSE:
            return None
        pos_of = trail.pos_of
        for v in self.vars:
            if v.index == idx:
                continue
            if v.initial_mask == _TRUE:
                return []  # forced by a root-fixed TRUE: a root fact
            p = pos_of.get((v.index, 1, True))
            if p is not None and p < pos:
                return [(v.index, 1, True)]
        return None

    def explain_failure(self, state: DomainState, trail):
        """Two TRUE variables violate at-most-one: blame them."""
        out = []
        masks = state.masks
        for v in self.vars:
            if masks[v.index] == _TRUE and v.initial_mask != _TRUE:
                out.append((v.index, 1, True))
        return out

    def propagate(self, state: DomainState) -> int:
        """O(1) verdict; an O(k) forcing scan only when one var is TRUE."""
        n_true, n_und = self._c if self.incremental else self._tally(state)
        if n_true > 1:
            return PROP_FAIL
        if n_true == 0:
            # 0/1 undecided vars cannot violate at-most-one anymore
            return PROP_ENTAILED if n_und <= 1 else PROP_OK
        if n_und:
            masks = state.masks
            for v in self.vars:
                if masks[v.index] == _BOTH:
                    state.assign(v, 0)
        return PROP_ENTAILED


class WeightedExactSumBool(Propagator):
    """``sum c_k b_k == total`` with ``c_k >= 1`` (paper (11); its
    unit-coefficient case (5) is :class:`ExactSumBool`).

    Zero-rate pairs must be excluded by the encoding (their variable's
    domain is {0} in the paper; here they are simply not created).  A
    repeated variable is one entry whose coefficient sums its
    occurrences.

    Counters: ``[lb, free_sum]``, the coefficient sums of the TRUE and
    of the undecided variables (``free_sum == 0`` exactly when none is
    undecided).  A saturated (``lb == total``) or tight
    (``lb + free_sum == total``) wake decides every undecided variable
    in one scan; otherwise a static max-coefficient test skips the
    per-variable scan whenever no variable can overshoot or be
    required, which is the common wake."""

    __slots__ = (
        "coefs",
        "total",
        "incremental",
        "_coef_of",
        "_lb_max",
        "_reach_min",
        "_c",
        "_stamp",
    )

    priority = 0
    wake_on = EVT_ASSIGN
    # _c is trailed via the inlined _undo form; _stamp is a monotone
    # once-per-node guard that is sound without trailing
    _trail_safe = ("_c", "_stamp")

    def __init__(
        self, bools: Sequence[Variable], coefs: Sequence[int], total: int
    ) -> None:
        self.vars, self.coefs = _counting_row(_check_bools(bools), coefs, total)
        self.total = total
        self.incremental = len(self.vars) >= INCREMENTAL_ARITY_THRESHOLD
        self._coef_of = {v.index: c for v, c in zip(self.vars, self.coefs)}
        cmax = max(self.coefs) if self.coefs else 0
        # a wake with lb <= _lb_max (no coefficient can overshoot) and
        # lb + free_sum >= _reach_min (none is required) forces nothing
        self._lb_max = total - cmax
        self._reach_min = total + cmax
        self._c: list[int] | None = None
        self._stamp = -1

    def _tally(self, state: DomainState) -> list[int]:
        masks = state.masks
        lb = free_sum = 0
        for i, c in self._coef_of.items():
            m = masks[i]
            if m == _TRUE:
                lb += c
            elif m == _BOTH:
                free_sum += c
        return [lb, free_sum]

    def reset(self, state: DomainState) -> None:
        """Tally the TRUE and undecided coefficient sums."""
        self._c = self._tally(state)
        self._stamp = -1

    def on_event(self, state: DomainState, idx: int, old: int, new: int):
        """A watched boolean was assigned: move its coefficient."""
        c = self._c
        if self._stamp != state._stamp:  # trail the counters once per node
            self._stamp = state._stamp
            state._undo.append((c, None, tuple(c)))
        coef = self._coef_of[idx]
        if new == _TRUE:
            c[0] += coef
        c[1] -= coef
        lb = c[0]
        if lb <= self._lb_max and lb + c[1] >= self._reach_min:
            return False  # no variable can be forced either way yet
        return None

    def explain_event(self, state: DomainState, trail, pos: int):
        """A forced 0 is explained by the TRUE set (its coefficient sum
        leaves no room); a forced 1 by the FALSE set (without this
        variable the reachable sum falls short).  Root-fixed variables
        carry no event and are dropped (root facts)."""
        idx, _old, new, _ev = state.events[pos]
        if new == _FALSE:
            val = 1
        elif new == _TRUE:
            val = 0
        else:
            return None
        pos_of = trail.pos_of
        out = []
        for v in self.vars:
            if v.index == idx:
                continue
            p = pos_of.get((v.index, val, True))
            if p is not None and p < pos:
                out.append((v.index, val, True))
        return out

    def explain_failure(self, state: DomainState, trail):
        """Overshoot blames the TRUE set, undershoot the FALSE set
        (recomputed from the masks: a scan may fail mid-update)."""
        lb, free_sum = self._tally(state)
        if lb > self.total:
            val, want = 1, _TRUE
        elif lb + free_sum < self.total:
            val, want = 0, _FALSE
        else:
            return None
        masks = state.masks
        pos_of = trail.pos_of
        return [
            (v.index, val, True)
            for v in self.vars
            if masks[v.index] == want and (v.index, val, True) in pos_of
        ]

    def propagate(self, state: DomainState) -> int:
        """O(1) bound checks; one forcing scan when saturated or tight
        (after which the constraint is entailed), and the per-variable
        scan only when some coefficient could overshoot ``total`` or be
        required to reach it."""
        lb, free_sum = self._c if self.incremental else self._tally(state)
        total = self.total
        if lb > total or lb + free_sum < total:
            return PROP_FAIL
        if not free_sum:
            return PROP_ENTAILED
        if lb <= self._lb_max and lb + free_sum >= self._reach_min:
            return PROP_OK  # no single variable can be forced either way
        masks = state.masks
        if lb == total:  # saturated: every undecided var must be 0
            for v in self.vars:
                if masks[v.index] == _BOTH:
                    state.assign(v, 0)
            return PROP_ENTAILED
        if lb + free_sum == total:  # tight: every undecided var must be 1
            for v in self.vars:
                if masks[v.index] == _BOTH:
                    state.assign(v, 1)
            return PROP_ENTAILED
        # pruning scan + local fixpoint over the free variables; counters
        # are tracked locally — the engine's event dispatch updates
        # self._c afterwards, so writing them back here would double-count
        free = [
            (v, c) for v, c in zip(self.vars, self.coefs) if masks[v.index] == _BOTH
        ]
        while True:
            changed = False
            for v, c in free:
                if masks[v.index] != _BOTH:
                    continue
                if lb + c > total:  # taking v would overshoot
                    state.assign(v, 0)
                    free_sum -= c
                    changed = True
                elif lb + free_sum - c < total:  # dropping v would undershoot
                    state.assign(v, 1)
                    lb += c
                    free_sum -= c
                    changed = True
            if lb > total or lb + free_sum < total:
                return PROP_FAIL
            if not changed:
                return PROP_OK if free_sum else PROP_ENTAILED


class ExactSumBool(WeightedExactSumBool):
    """Exactly ``total`` of the booleans are 1 (paper (5)): the
    unit-coefficient :class:`WeightedExactSumBool`, so a repeated
    boolean counts once per occurrence."""

    __slots__ = ()

    def __init__(self, bools: Sequence[Variable], total: int) -> None:
        bools = tuple(bools)
        super().__init__(bools, (1,) * len(bools), total)


class WeightedCountEq(Propagator):
    """``sum_k c_k [x_k == value] == total`` with ``c_k >= 1`` (paper
    (12); its unit-coefficient case (9) is :class:`CountEq`).

    A repeated variable is one entry whose coefficient sums its
    occurrences.  Counters: ``[lb, free_sum]`` over the variables whose
    initial domain contains ``value`` — the coefficient sums of those
    fixed to it and of the open candidates.  Only those variables are
    watched, and the wake filter is REMOVE (every event carries it; the
    ``on_event`` delta test is a pair of bit probes).  Same saturated /
    tight forcing scans and max-coefficient scan filter as
    :class:`WeightedExactSumBool`."""

    __slots__ = (
        "coefs",
        "value",
        "total",
        "incremental",
        "_bits",
        "_coef_of",
        "_scan",
        "_lb_max",
        "_reach_min",
        "_c",
        "_stamp",
    )

    priority = 0
    wake_on = EVT_REMOVE
    # _c is trailed via the inlined _undo form; _stamp is a monotone
    # once-per-node guard that is sound without trailing
    _trail_safe = ("_c", "_stamp")

    def __init__(
        self,
        vars: Sequence[Variable],
        coefs: Sequence[int],
        value: int,
        total: int,
    ) -> None:
        self.vars, self.coefs = _counting_row(tuple(vars), coefs, total)
        self.value = value
        self.total = total
        # only variables that can ever take `value` matter; the
        # (var, bit, coef) triples in watch order let the scans skip
        # two dict lookups per variable per call
        bits: dict[int, int] = {}
        coef_of: dict[int, int] = {}
        scan = []
        for v, c in zip(self.vars, self.coefs):
            b = value - v.offset
            if b >= 0 and v.initial_mask >> b & 1:
                bits[v.index] = 1 << b
                coef_of[v.index] = c
                scan.append((v, 1 << b, c))
        self._bits = bits
        self._coef_of = coef_of
        self._scan: tuple[tuple[Variable, int, int], ...] = tuple(scan)
        cmax = max(coef_of.values()) if coef_of else 0
        self._lb_max = total - cmax  # the scan filter of WeightedExactSumBool
        self._reach_min = total + cmax
        self.incremental = len(scan) >= INCREMENTAL_ARITY_THRESHOLD
        self._c: list[int] | None = None
        self._stamp = -1

    def watches(self) -> list[tuple[Variable, int, int | None]]:
        """Subscribe only the variables that can ever take ``value``,
        and only for events that touch its bit (or assign to it)."""
        return [(v, EVT_REMOVE, bit) for v, bit, _ in self._scan]

    def _tally(self, state: DomainState) -> list[int]:
        masks = state.masks
        lb = free_sum = 0
        for v, bit, c in self._scan:
            m = masks[v.index]
            if m & bit:
                if m == bit:
                    lb += c
                else:
                    free_sum += c
        return [lb, free_sum]

    def reset(self, state: DomainState) -> None:
        """Tally the fixed and candidate coefficient sums."""
        self._c = self._tally(state)
        self._stamp = -1

    def on_event(self, state: DomainState, idx: int, old: int, new: int):
        """Classify the delta with two bit probes; O(1)."""
        bit = self._bits[idx]
        if not old & bit:
            return False  # `value` was already gone — nothing we track changed
        if new == bit:  # candidate became fixed to `value`
            c = self._c
            if self._stamp != state._stamp:
                self._stamp = state._stamp
                state._undo.append((c, None, tuple(c)))
            coef = self._coef_of[idx]
            c[0] += coef
            c[1] -= coef
        elif not new & bit:  # candidate lost `value`
            c = self._c
            if self._stamp != state._stamp:
                self._stamp = state._stamp
                state._undo.append((c, None, tuple(c)))
            c[1] -= self._coef_of[idx]
        else:
            return False  # still an open candidate: nothing we track changed
        lb = c[0]
        if lb <= self._lb_max and lb + c[1] >= self._reach_min:
            return False  # no variable can be forced either way yet
        return None

    def explain_event(self, state: DomainState, trail, pos: int):
        """A var forced *to* ``value`` is explained by the set that lost
        it (without it the count falls short); a var that lost ``value``
        by the set fixed to it (taking it would overshoot)."""
        idx, _old, new, _ev = state.events[pos]
        bit = self._bits.get(idx)
        if bit is None:
            return None
        if new == bit:
            tail = (self.value, False)
        elif not new & bit:
            tail = (self.value, True)
        else:
            return None
        pos_of = trail.pos_of
        out = []
        for v, _bit, _c in self._scan:
            if v.index == idx:
                continue
            lit = (v.index,) + tail
            p = pos_of.get(lit)
            if p is not None and p < pos:
                out.append(lit)
        return out

    def explain_failure(self, state: DomainState, trail):
        """Overshoot blames the fixed set, undershoot the lost set."""
        lb, free_sum = self._tally(state)
        masks = state.masks
        if lb > self.total:
            tail = (self.value, True)
            blamed = [v for v, bit, _ in self._scan if masks[v.index] == bit]
        elif lb + free_sum < self.total:
            tail = (self.value, False)
            blamed = [v for v, bit, _ in self._scan if not masks[v.index] & bit]
        else:
            return None
        pos_of = trail.pos_of
        lits = [(v.index,) + tail for v in blamed]
        return [lit for lit in lits if lit in pos_of]

    def propagate(self, state: DomainState) -> int:
        """O(1) bound checks; one forcing scan when saturated or tight
        (after which the count is decided and the constraint entailed),
        and the per-variable scan + local fixpoint only when some
        coefficient could overshoot or be required."""
        lb, free_sum = self._c if self.incremental else self._tally(state)
        total = self.total
        if lb > total or lb + free_sum < total:
            return PROP_FAIL
        if not free_sum:
            return PROP_ENTAILED
        if lb <= self._lb_max and lb + free_sum >= self._reach_min:
            return PROP_OK  # no single variable can be forced either way
        value = self.value
        masks = state.masks
        # `free_sum` sums the candidates the forcing scans touch; they stop
        # once all are handled (removals only mutate the candidate itself,
        # so the sum stays exact mid-scan)
        if lb == total:  # saturated: no candidate may take `value`
            for v, bit, c in self._scan:
                m = masks[v.index]
                if m & bit and m != bit:
                    if not state.remove_value(v, value):
                        return PROP_FAIL
                    free_sum -= c
                    if not free_sum:
                        break
            return PROP_ENTAILED
        if lb + free_sum == total:  # tight: every candidate must take it
            for v, bit, c in self._scan:
                m = masks[v.index]
                if m & bit and m != bit:
                    if not state.assign(v, value):
                        return PROP_FAIL
                    free_sum -= c
                    if not free_sum:
                        break
            return PROP_ENTAILED
        free = [
            (v, bit, c) for v, bit, c in self._scan
            if masks[v.index] & bit and masks[v.index] != bit
        ]
        # local fixpoint; self._c is updated by the engine's event dispatch
        while True:
            changed = False
            for v, bit, c in free:
                m = masks[v.index]
                if not m & bit or m == bit:
                    continue
                if lb + c > total:  # taking `value` would overshoot
                    if not state.remove_value(v, value):
                        return PROP_FAIL
                    free_sum -= c
                    changed = True
                elif lb + free_sum - c < total:  # dropping it would undershoot
                    if not state.assign(v, value):
                        return PROP_FAIL
                    lb += c
                    free_sum -= c
                    changed = True
            if lb > total or lb + free_sum < total:
                return PROP_FAIL
            if not changed:
                return PROP_OK if free_sum else PROP_ENTAILED


class CountEq(WeightedCountEq):
    """Exactly ``total`` variables take ``value`` (paper (9)): the
    unit-coefficient :class:`WeightedCountEq`, so a repeated variable
    counts once per occurrence."""

    __slots__ = ()

    def __init__(self, vars: Sequence[Variable], value: int, total: int) -> None:
        vars = tuple(vars)
        if not vars:
            raise ValueError("CountEq over no variables")
        super().__init__(vars, (1,) * len(vars), value, total)


class AllDifferentExceptValue(Propagator):
    """Assigned values are pairwise distinct, except ``except_value``
    which any number of variables may share (paper (8): two processors
    never run the same task unless both are idle).

    ``except_value=None`` gives plain value-consistency alldifferent.

    Stateless by design — its pruning depends only on which variables
    are *assigned*, so it subscribes to ASSIGN events alone (interior
    removals and bounds moves never re-run it), skips wakes for
    assignments *to* the exception value (they never extend the taken
    set — in CSP2 that is every idle slot), and reports entailment once
    at most one variable remains open."""

    __slots__ = ("except_value", "_except_bits", "_same_off")

    priority = 1
    wake_on = EVT_ASSIGN
    stateless_filter = True  # on_event reads, never writes

    def __init__(self, vars: Sequence[Variable], except_value: int | None) -> None:
        self.vars = tuple(vars)
        if len(self.vars) < 2:
            raise ValueError("AllDifferent needs at least two variables")
        # all vars sharing one offset (the common case: CSP2 slot vars
        # range over the same task ids) lets the pruning pass build the
        # taken-value kill mask once instead of once per open variable
        offs = {v.offset for v in self.vars}
        self._same_off = offs.pop() if len(offs) == 1 else None
        self.except_value = except_value
        #: var index -> singleton mask of the exception value (0 if unreachable)
        self._except_bits: dict[int, int] = {}
        if except_value is not None:
            for v in self.vars:
                b = except_value - v.offset
                self._except_bits[v.index] = 1 << b if b >= 0 else 0

    def on_event(self, state: DomainState, idx: int, old: int, new: int):
        """Skip the wake when a variable was assigned the exception
        value: the taken set (and hence any pruning) is unchanged."""
        if new == self._except_bits.get(idx, 0):
            return False
        return None

    def explain_event(self, state: DomainState, trail, pos: int):
        """Each removed value is blamed on the variable assigned to it."""
        idx, old, new, _ev = state.events[pos]
        removed = old & ~new
        offset = state.model.variables[idx].offset
        pos_of = trail.pos_of
        out = []
        while removed:
            low = removed & -removed
            removed ^= low
            val = offset + low.bit_length() - 1
            found = None
            for x in self.vars:
                if x.index == idx:
                    continue
                p = pos_of.get((x.index, val, True))
                if p is not None and p < pos:
                    found = (x.index, val, True)
                    break
            if found is None:
                return None  # taker not on the trail (root-fixed): punt
            out.append(found)
        return out

    def explain_failure(self, state: DomainState, trail):
        """Blame the two variables assigned the same (non-idle) value."""
        masks = state.masks
        seen: dict[int, Variable] = {}
        for v in self.vars:
            m = masks[v.index]
            if m & (m - 1):
                continue
            val = v.offset + m.bit_length() - 1
            if val == self.except_value:
                continue
            if val in seen:
                pos_of = trail.pos_of
                return [
                    (x.index, val, True)
                    for x in (seen[val], v)
                    if (x.index, val, True) in pos_of
                ]
            seen[val] = v
        return None

    def propagate(self, state: DomainState) -> int:
        """Value consistency over the assigned variables."""
        taken: set[int] = set()
        unassigned: list[Variable] = []
        masks = state.masks
        for v in self.vars:
            m = masks[v.index]
            if m & (m - 1):
                unassigned.append(v)
                continue
            val = v.offset + m.bit_length() - 1
            if val == self.except_value:
                continue
            if val in taken:
                return PROP_FAIL
            taken.add(val)
        pruned = False
        if taken:
            before = len(state.events)
            same_off = self._same_off
            if same_off is not None:
                # shared offset: one kill mask covers every open var
                kill = 0
                for val in taken:
                    kill |= 1 << (val - same_off)
                keep = ~kill
                for v in unassigned:
                    if not state.intersect_mask(v, keep):
                        return PROP_FAIL
            else:
                for v in unassigned:
                    off = v.offset
                    kill = 0
                    for val in taken:
                        b = val - off
                        if b >= 0:
                            kill |= 1 << b
                    # all taken values leave in one event (delta-batched
                    # so watchers fire once per variable, not per value)
                    if kill and not state.intersect_mask(v, ~kill):
                        return PROP_FAIL
            pruned = len(state.events) != before
        if pruned:
            # a removal may have assigned a variable; its ASSIGN event
            # re-wakes us, and entailment is decided on that clean call
            return PROP_OK
        return PROP_ENTAILED if len(unassigned) <= 1 else PROP_OK


class NonDecreasing(Propagator):
    """``x_1 <= x_2 <= .. <= x_k`` via bounds propagation (paper (10)/(13)).

    Used for symmetry breaking across (groups of) identical processors;
    the CSP2 encoding ranks the idle value *above* every task id so the
    plain ordering matches the paper's "tasks ascending, idles last".

    Stateless; subscribes to BOUNDS events only (interior removals can
    never change its pruning) and reports entailment once every adjacent
    pair satisfies ``max(x_i) <= min(x_{i+1})``."""

    __slots__ = ("_chain_pos", "_fwd", "_bwd", "_nbr")

    priority = 1
    wake_on = EVT_BOUNDS
    stateless_filter = True  # on_event reads, never writes

    def __init__(self, vars: Sequence[Variable]) -> None:
        self.vars = tuple(vars)
        if len(self.vars) < 2:
            raise ValueError("NonDecreasing needs at least two variables")
        self._chain_pos = {v.index: i for i, v in enumerate(self.vars)}
        # the two ripple orders, precomputed (propagate is hot; slicing
        # the chain on every call shows up in engine profiles)
        self._fwd = self.vars[1:]
        self._bwd = self.vars[-2::-1]
        # needy-wake filter table: chain neighbours of each variable as
        # ``idx -> (right_index, right_delta, left_index, left_delta)``
        # with offsets pre-folded into the deltas (-1 = no neighbour).
        # A repeated variable would alias two chain positions, so the
        # table stays empty (filter disabled) in that degenerate case.
        self._nbr: dict[int, tuple[int, int, int, int]] = {}
        if len(self._chain_pos) == len(self.vars):
            for i, v in enumerate(self.vars):
                r = self.vars[i + 1] if i + 1 < len(self.vars) else None
                left = self.vars[i - 1] if i else None
                self._nbr[v.index] = (
                    r.index if r is not None else -1,
                    v.offset - r.offset if r is not None else 0,
                    left.index if left is not None else -1,
                    left.offset - v.offset if left is not None else 0,
                )

    def on_event(self, state: DomainState, idx: int, old: int, new: int):
        """Skip the wake when no ripple can fire.

        A bounds event on ``x_i`` only disturbs the pairs ``(i-1, i)``
        and ``(i, i+1)``; if the right neighbour's lower bound already
        sits at or above ours and the left neighbour's upper bound at or
        below ours, :meth:`propagate` would change no domain — so the
        wake is dropped.  (Entailment detection is merely deferred: the
        constraint stays subscribed and later events re-run the check.)
        Any pair made inconsistent by an *earlier* event already holds a
        queue slot, so dropping this wake never loses a ripple."""
        nbr = self._nbr.get(idx)
        if nbr is None:
            return None  # duplicated chain var: never filter
        r_idx, r_delta, l_idx, l_delta = nbr
        masks = state.masks
        if r_idx >= 0:
            m = masks[r_idx]
            # right lower bound below ours? (offsets folded into delta)
            if (m & -m).bit_length() < (new & -new).bit_length() + r_delta:
                return None  # right lower bound must rise
        if l_idx >= 0:
            # left upper bound above ours?
            if masks[l_idx].bit_length() + l_delta > new.bit_length():
                return None  # left upper bound must drop
        return False

    def _neighbour_removals(self, neigh: Variable, trail, pos: int):
        """Every recorded removal on ``neigh`` before ``pos`` — enough to
        pin its bound, hence the ripple it caused."""
        pos_of = trail.pos_of
        out = []
        for val in values_from_mask(neigh.initial_mask, neigh.offset):
            lit = (neigh.index, val, False)
            p = pos_of.get(lit)
            if p is not None and p < pos:
                out.append(lit)
        return out

    def explain_event(self, state: DomainState, trail, pos: int):
        """A raised lower bound is blamed on the left neighbour's
        removals, a lowered upper bound on the right neighbour's (the
        bound ripples come from exactly one side per event)."""
        idx, old, new, _ev = state.events[pos]
        i = self._chain_pos.get(idx)
        if i is None:
            return None
        min_moved = (old & -old) != (new & -new)
        if min_moved and i > 0:
            neigh = self.vars[i - 1]
        elif not min_moved and i + 1 < len(self.vars):
            neigh = self.vars[i + 1]
        else:
            return None
        return self._neighbour_removals(neigh, trail, pos)

    def explain_failure(self, state: DomainState, trail):
        """A wiped-out ripple is blamed on both neighbours' removals."""
        masks = state.masks
        vs = self.vars
        # find a crossing pair: max(left) > max possible of right chain
        for i in range(len(vs) - 1):
            a, b = vs[i], vs[i + 1]
            lo_a = a.offset + ((masks[a.index] & -masks[a.index]).bit_length() - 1)
            hi_b = b.offset + masks[b.index].bit_length() - 1
            if lo_a > hi_b:
                inf = float("inf")
                return self._neighbour_removals(
                    a, trail, inf
                ) + self._neighbour_removals(b, trail, inf)
        return None

    def propagate(self, state: DomainState) -> int:
        """Ripple lower bounds right, upper bounds left.

        Bounds are read straight off the masks (lowest/highest set bit);
        the final pass checks ``max(x_i) <= min(x_{i+1})`` pairwise for
        entailment."""
        vs = self.vars
        masks = state.masks
        # forward pass: lower bounds ripple right
        m = masks[vs[0].index]
        lo = vs[0].offset + ((m & -m).bit_length() - 1)
        for b in self._fwd:
            if not state.remove_below(b, lo):
                return PROP_FAIL
            m = masks[b.index]
            lo = b.offset + ((m & -m).bit_length() - 1)
        # backward pass: upper bounds ripple left
        hi = vs[-1].offset + masks[vs[-1].index].bit_length() - 1
        for a in self._bwd:
            if not state.remove_above(a, hi):
                return PROP_FAIL
            hi = a.offset + masks[a.index].bit_length() - 1
        # entailed once the chains of bounds can no longer cross
        prev_max = None
        for v in vs:
            m = masks[v.index]
            if prev_max is not None and prev_max > v.offset + (
                (m & -m).bit_length() - 1
            ):
                return PROP_OK
            prev_max = v.offset + m.bit_length() - 1
        return PROP_ENTAILED


class Table(Propagator):
    """Positive table constraint: the value tuple must be one of ``tuples``.

    Generalized-arc-consistent filtering in the style of simple tabular
    reduction: a trailed **validity bitmask** over tuple indices is
    narrowed incrementally — ``on_event`` ANDs out the tuples that
    mention a removed value (via per-(position, value) support masks
    precomputed at construction) — and the pruning scan keeps a value
    iff it still has a valid support, consulting a **residual support**
    (the last tuple index that worked, an O(1) recheck) before paying
    for a mask intersection.  Residues are deliberately not trailed:
    a stale residue is a hint that misses, never an unsound keep."""

    __slots__ = (
        "tuples",
        "_supports",
        "_positions",
        "_mentioned_lits",
        "_residue",
        "_valid",
        "_stamp",
    )

    priority = 2
    wake_on = EVT_REMOVE
    # _valid is trailed via state.save; _residue is a deliberately
    # untrailed residual-support cache (stale entries miss, never keep
    # unsoundly); _stamp is a monotone once-per-node guard
    _trail_safe = ("_valid", "_residue", "_stamp")

    def __init__(self, vars: Sequence[Variable], tuples: Iterable[Sequence[int]]) -> None:
        self.vars = tuple(vars)
        if not self.vars:
            raise ValueError("Table over no variables")
        tups = tuple(tuple(t) for t in tuples)
        if any(len(t) != len(self.vars) for t in tups):
            raise ValueError("every tuple must match the variable count")
        self.tuples = tups
        # support mask per (position, value): which tuples mention it
        self._supports: list[dict[int, int]] = [{} for _ in self.vars]
        for ti, tup in enumerate(tups):
            bit = 1 << ti
            for p, val in enumerate(tup):
                sup = self._supports[p]
                sup[val] = sup.get(val, 0) | bit
        # positions of each distinct variable (a var may appear twice)
        self._positions: dict[int, list[int]] = {}
        for p, v in enumerate(self.vars):
            self._positions.setdefault(v.index, []).append(p)
        # removal-literal candidates for explanations, one per distinct
        # (variable, mentioned value) pair — static after construction
        mentioned: list[tuple[int, int, bool]] = []
        seen_vars: set[int] = set()
        for v in self.vars:
            if v.index in seen_vars:
                continue
            seen_vars.add(v.index)
            vals: set[int] = set()
            for q in self._positions[v.index]:
                vals.update(self._supports[q])
            mentioned.extend((v.index, val, False) for val in vals)
        self._mentioned_lits = tuple(mentioned)
        self._residue: dict[tuple[int, int], int] = {}
        self._valid: list[int] | None = None
        self._stamp = -1

    def watches(self) -> list[tuple[Variable, int, int | None]]:
        """Each distinct variable once (duplicates share one watcher),
        relevant only to the values its tuples actually mention."""
        rel_of: dict[int, int] = {}
        order: list[Variable] = []
        for p, v in enumerate(self.vars):
            if v.index not in rel_of:
                rel_of[v.index] = 0
                order.append(v)
            for val in self._supports[p]:
                b = val - v.offset
                if b >= 0:
                    rel_of[v.index] |= 1 << b
        return [(v, EVT_REMOVE, rel_of[v.index]) for v in order]

    def reset(self, state: DomainState) -> None:
        """Recompute the validity mask from the current domains."""
        valid = (1 << len(self.tuples)) - 1
        for p, v in enumerate(self.vars):
            union = 0
            sup = self._supports[p]
            for val in state.values(v):
                union |= sup.get(val, 0)
            valid &= union
        self._valid = [valid]
        self._stamp = -1

    def on_event(self, state: DomainState, idx: int, old: int, new: int) -> None:
        """Invalidate every tuple that mentions a removed value."""
        removed = old & ~new
        offset = None
        kill = 0
        for p in self._positions[idx]:
            sup = self._supports[p]
            if offset is None:
                offset = self.vars[p].offset
            m = removed
            while m:
                low = m & -m
                m ^= low
                kill |= sup.get(offset + low.bit_length() - 1, 0)
        valid = self._valid[0]
        if kill & valid:
            if self._stamp != state._stamp:
                self._stamp = state._stamp
                state.save(self._valid, 0)
            self._valid[0] = valid & ~kill

    def _removal_reason(self, trail, limit):
        """Removal literals (before ``limit``) of mentioned values: the
        validity mask — and hence any pruning or wipe-out — is a pure
        function of which mentioned values have been removed."""
        pos_of = trail.pos_of
        out = []
        for lit in self._mentioned_lits:
            p = pos_of.get(lit)
            if p is not None and p < limit:
                out.append(lit)
        return out

    def explain_event(self, state: DomainState, trail, pos: int):
        """Blame every earlier removal of a mentioned value (they fixed
        the validity mask that left the pruned values supportless)."""
        return self._removal_reason(trail, pos)

    def explain_failure(self, state: DomainState, trail):
        """Blame the removals that invalidated the last tuples."""
        return self._removal_reason(trail, float("inf"))

    def propagate(self, state: DomainState) -> int:
        """Keep exactly the values with a valid supporting tuple."""
        valid = self._valid[0]
        if valid == 0:
            return PROP_FAIL
        residue = self._residue
        all_assigned = True
        for p, v in enumerate(self.vars):
            sup = self._supports[p]
            offset = v.offset
            dm = state.masks[v.index]
            keep = 0
            m = dm
            while m:
                low = m & -m
                m ^= low
                val = offset + low.bit_length() - 1
                r = residue.get((p, val))
                if r is not None and valid >> r & 1:
                    keep |= low
                    continue
                s = sup.get(val, 0) & valid
                if s:
                    residue[(p, val)] = (s & -s).bit_length() - 1
                    keep |= low
            if keep == 0:
                return PROP_FAIL
            if keep != dm and not state.intersect_mask(v, keep):
                return PROP_FAIL
            if keep & (keep - 1):
                all_assigned = False
        return PROP_ENTAILED if all_assigned else PROP_OK
