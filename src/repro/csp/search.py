"""Systematic (backtracking) search over a CSP model.

Depth-first d-way branching exactly as sketched in the paper's Section
III-B: pick an unassigned variable (variable-ordering heuristic), try its
values in heuristic order, propagate constraints to a fixpoint after every
assignment, backtrack on wipe-out.  The search is *complete*: it terminates
with SAT (a solution), UNSAT (exhausted the space) or UNKNOWN (hit the
time/node budget, the paper's "overrun").

Propagation is **incremental and event-driven** (see
:mod:`repro.csp.state` and :mod:`repro.csp.propagators`):

* every domain mutation is a typed event (ASSIGN / BOUNDS / REMOVE) and
  propagators subscribe per variable *and* per event type, so e.g. a
  symmetry chain only wakes when a bound moves;
* before a woken propagator runs, its ``on_event`` hook is fed the exact
  domain delta so owned counters stay current in O(1) per change;
* the propagation queue is priority-tiered — cheap counter-check
  propagators (tier 0) drain before linear passes (tier 1) before
  table filtering (tier 2) — which keeps expensive propagators from
  running against half-settled domains;
* a propagator that reports entailment (:data:`~repro.csp.propagators.
  PROP_ENTAILED`) is deactivated for the rest of the subtree; the
  deactivation lives on the trail, so backtracking reactivates it.

**Conflict-directed search** (``Solver(learn=True)``) replaces the
chronological value iteration with CDCL-style learning built on
:mod:`repro.csp.learning`:

* the state records an implication trail (which propagator, decision or
  nogood caused every domain event);
* on conflict, 1-UIP analysis resolves the failing propagator's
  explanation back to an *asserting nogood*, the search backjumps
  straight to the nogood's second-deepest level (skipping the levels the
  conflict never depended on), and the nogood store immediately forces
  the UIP's negation there — refuted regions are never re-explored, so
  there are no explicit "remaining values" to iterate;
* learned nogoods propagate through two watched literals per nogood and
  are forgotten lowest-activity-first when the bounded store fills
  (short nogoods and nogoods locked as live reasons always survive);
* with ``restart_nodes``, the store **persists across the geometric
  restarts** — the frontier of learned refutations carries over, so a
  restart no longer throws away everything the previous run derived;
* termination does not depend on retention: every conflict strictly
  grows the trail at the backjump level (the classic CDCL argument), so
  the search is complete even with aggressive forgetting, and UNSAT is
  reported exactly when a conflict is analyzed back to the root.

Learning is opt-in: the default configuration runs the chronological
search below, byte-identical to the pre-learning engine.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field, fields
from enum import Enum

from repro.csp.core import Model, Variable
from repro.csp.heuristics import (
    SearchContext,
    make_value_order_phase_saving,
    value_order_ascending,
    var_order_input,
    var_order_min_domain,
)
from repro.csp.learning import (
    NogoodStore,
    Trail,
    analyze_conflict,
    apply_negation,
)
from repro.csp.propagators import PROP_ENTAILED
from repro.csp.state import CAUSE_DECISION, EVT_ASSIGN, DomainState
from repro.csp.wiring import N_TIERS, compile_wiring
from repro.util.timer import Deadline

_EVT_ASSIGN = EVT_ASSIGN  # module-local alias, bound once for the hot loop

__all__ = ["Status", "SearchStats", "SolveOutcome", "Solver"]


class Status(Enum):
    """Search outcome."""

    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"  # budget exhausted before an answer (paper: overrun)


@dataclass
class SearchStats:
    """Counters of one solve run."""

    nodes: int = 0          # value-assignment attempts
    fails: int = 0          # attempts refuted by propagation
    propagations: int = 0   # propagator executions
    events: int = 0         # typed domain-change events dispatched
    entailments: int = 0    # propagators deactivated as entailed
    solutions: int = 0
    max_depth: int = 0
    restarts: int = 0       # geometric restarts taken (restart_nodes mode)
    conflicts: int = 0      # conflicts analyzed (learning search only)
    learned: int = 0        # nogoods learned
    forgotten: int = 0      # nogoods dropped by store reduction
    backjumps: int = 0      # non-chronological jumps (> 1 level)
    max_backjump: int = 0   # deepest jump, in levels skipped
    elapsed: float = 0.0


#: restart-merge groups: every SearchStats field must appear in exactly
#: one, so a future counter cannot silently be dropped by the restart
#: wrapper (see :func:`_merge_restart_stats`)
_MERGE_SUM = (
    "nodes", "fails", "propagations", "events", "entailments",
    "conflicts", "learned", "forgotten", "backjumps",
)
_MERGE_MAX = ("max_depth", "max_backjump")
_MERGE_OWNED = ("solutions", "restarts", "elapsed")


def _merge_restart_stats(total: SearchStats, run: SearchStats) -> None:
    """Accumulate one restart attempt's counters into the running total.

    Additive counters sum, high-water marks take the max, and the
    wrapper-owned fields (``solutions``/``restarts``/``elapsed``) are
    left to the caller.  Guarded: a ``SearchStats`` field not covered by
    exactly one merge group raises immediately, so pre-restart attempts
    can never silently drop a counter again.
    """
    names = {f.name for f in fields(SearchStats)}
    covered = set(_MERGE_SUM) | set(_MERGE_MAX) | set(_MERGE_OWNED)
    if names != covered:
        raise AssertionError(
            f"SearchStats fields not covered by the restart merge: "
            f"{sorted(names ^ covered)}"
        )
    for name in _MERGE_SUM:
        setattr(total, name, getattr(total, name) + getattr(run, name))
    for name in _MERGE_MAX:
        setattr(total, name, max(getattr(total, name), getattr(run, name)))


@dataclass
class SolveOutcome:
    """Result of :meth:`Solver.solve` / :meth:`Solver.solve_all`."""

    status: Status
    solution: dict[Variable, int] | None
    stats: SearchStats
    solutions: list[dict[Variable, int]] = field(default_factory=list)

    @property
    def is_sat(self) -> bool:
        return self.status is Status.SAT

    def value(self, var: Variable) -> int:
        """Value of ``var`` in the (first) solution."""
        if self.solution is None:
            raise ValueError(f"no solution available (status={self.status.name})")
        return self.solution[var]


class _Timeout(Exception):
    """Internal: budget expired inside the propagation fixpoint."""


class Solver:
    """Backtracking solver for a :class:`Model`.

    Parameters
    ----------
    model:
        The CSP to solve.
    var_order:
        Variable-ordering heuristic ``(state, ctx) -> Variable | None``;
        default: min-domain (fail-first).
    value_order:
        Value-ordering heuristic ``(state, var) -> list[int]``;
        default: ascending.
    seed:
        When given, a ``random.Random(seed)`` is exposed to heuristics via
        the search context (random tie-breaking / orders).  The search is
        fully deterministic for a fixed seed.
    restart_nodes:
        When set, the search restarts from the root after this many nodes,
        doubling the cutoff each time (geometric restarts, the classic
        companion of randomized heuristics in solvers like Choco).  The
        procedure stays complete: UNSAT is only reported when a run
        exhausts the space *without* hitting its cutoff, and the growing
        cutoff guarantees some run eventually does.  Pointless without a
        randomized heuristic (every run would explore the same prefix) —
        unless learning is on, where the persistent nogood store makes
        every run after a restart strictly better informed.
    learn:
        Opt into conflict-directed search: implication-trail recording,
        1-UIP nogood learning, conflict-driven backjumping, and a
        bounded watched-literal nogood store (see the module docstring).
        Default off — the default configuration is byte-identical to the
        chronological engine.
    nogood_limit:
        Soft capacity of the learned-nogood store (learning only);
        exceeding it forgets the lowest-activity half.
    phase_saving:
        Wrap the value order so each variable retries the value it last
        held first (adaptive value ordering; most useful with learning
        or restarts).

    The chronological engine batches the counting propagators' tier-0
    rows through :class:`repro.kernels.fixpoint.CountingKernel`; the
    learning engine runs them unbatched through their ``on_event``
    hooks: batching reorders the propagation queue, and learned nogoods
    depend on which propagator wrote each event.  Search decisions are
    pinned by ``tests/test_engine_regression.py``.
    """

    def __init__(
        self,
        model: Model,
        var_order=None,
        value_order=None,
        seed: int | None = None,
        restart_nodes: int | None = None,
        learn: bool = False,
        nogood_limit: int = 10_000,
        phase_saving: bool = False,
    ) -> None:
        self.model = model
        self.var_order = var_order or var_order_min_domain
        self.value_order = value_order or value_order_ascending
        if restart_nodes is not None and restart_nodes < 1:
            raise ValueError(f"restart_nodes must be >= 1, got {restart_nodes}")
        self.restart_nodes = restart_nodes
        self.learn = bool(learn)
        if nogood_limit < 1:
            raise ValueError(f"nogood_limit must be >= 1, got {nogood_limit}")
        self.nogood_limit = nogood_limit
        self._store: NogoodStore | None = None
        # Event-driven propagation wiring, compiled once per Solver in
        # one pass over the constraints (see repro.csp.wiring): counting
        # rows move out of the watcher lists into the batched kernel
        # (non-learning search only), whose per-event bookkeeping runs
        # inline in _fixpoint instead of through on_event calls.
        wiring = compile_wiring(model, batching=not self.learn)
        self.ctx = SearchContext(
            degrees=wiring.degrees,
            rng=None if seed is None else random.Random(seed),
        )
        if phase_saving:
            self.ctx.phases = {}
            self.value_order = make_value_order_phase_saving(
                self.value_order, self.ctx.phases
            )
        self._props = wiring.props
        self._prop_fns = wiring.fns
        self._tiers = wiring.tiers
        self._watchers = wiring.watchers
        self._resets = wiring.resets
        self._kernel = wiring.kernel
        self._ktab = wiring.ktab
        self._kmask = wiring.kmask
        #: input order keeps a per-descent scan hint: with chronological
        #: branching the first-open index only moves forward within a
        #: descent and pop_level's mask restore re-opens exactly the
        #: branch variable, so the search can set
        #: ``ctx.first_unassigned_hint`` to the branch index + 1 before
        #: each selection — O(1) amortized
        self._hint_input = self.var_order is var_order_input
        self._queues: tuple[deque[int], ...] = tuple(
            deque() for _ in range(N_TIERS)
        )
        self._on_queue = [False] * len(self._props)
        #: per-propagator liveness; entailment flips a slot to False with
        #: a trail record, so backtracking reactivates the propagator
        self._active = [True] * len(self._props)
        self._deadline: Deadline | None = None
        self._prop_budget_check = 0
        self._cutoff_hit = False
        self.stats = SearchStats()

    # -- propagation -----------------------------------------------------------
    def _enqueue_all(self) -> None:
        queues = self._queues
        tiers = self._tiers
        on_queue = self._on_queue
        for pid, is_active in enumerate(self._active):
            if is_active and not on_queue[pid]:
                on_queue[pid] = True
                queues[tiers[pid]].append(pid)

    def _reset_queue(self, state: DomainState) -> None:
        on_queue = self._on_queue
        for queue in self._queues:
            while queue:
                on_queue[queue.popleft()] = False
        # undispatched events belong to the failed/abandoned level; the
        # caller's pop_level truncates them (root-level callers return)

    def _reset_propagators(self, state: DomainState) -> None:
        """Fresh run: reactivate everything, rebuild owned counters.

        Only the ``reset`` hooks the wiring lists run: batched counting
        rows are excluded, since the kernel recomputes all their
        aggregates in one pass over the stacked row matrix (and
        re-points each ``_c`` at the kernel-owned list), and so are
        tally-on-wake propagators and inherited no-op hooks."""
        active = self._active
        for pid in range(len(active)):
            active[pid] = True
        self._reset_queue(state)
        for reset in self._resets:
            reset(state)
        if self._kernel is not None:
            self._kernel.reset(state)

    def _make_fixpoint(self, state: DomainState):
        """Build this search's fixpoint runner: dispatch pending events
        and run woken propagators to a fixpoint; the returned closure
        yields False on conflict.

        The runner is rebuilt once per search and binds every hot
        reference as a default argument, so each of the tens of
        thousands of per-node calls starts with C-speed local setup
        instead of an attribute-load prologue (on small instances that
        prologue dominated the whole fixpoint).

        Event dispatch (inlined in the closure — this is the hottest
        loop in the repo): for every typed event, each watching
        propagator whose wake mask matches gets its ``on_event``
        counter update exactly once (queued or not), then is enqueued
        on its priority tier.  Deactivated (entailed) propagators are
        skipped entirely — their counters are trail-consistent with the
        domains at entailment time, see propagators.py.  Queue tiers
        drain cheapest-first: a tier-1 propagator only runs when tier 0
        is empty, tier 2 when 0 and 1 are.

        Batched counting rows (see :mod:`repro.kernels.fixpoint`) are
        handled inline right here: each event's removed/assigned bits
        index the kernel's per-variable buckets, the shared aggregates
        are updated (with the same once-per-node undo snapshot the
        scalar hooks take) and the row is enqueued only when its bounds
        say propagation could act — the exact condition under which the
        scalar ``on_event`` would not have returned False.  A row whose
        bounds become *unsatisfiable* fails the fixpoint immediately:
        its ``propagate`` is guaranteed to return FAIL later this node
        (within a node ``c0`` only grows and ``c0 + c1`` only shrinks),
        so the short-circuit changes no pinned statistic.  Queue order
        and propagation counts can differ from the unbatched engine,
        but the per-node fixpoint is confluent (all propagators are
        monotone and contracting), so failures, final domains and hence
        every search decision are byte-identical."""
        queues = self._queues
        deadline = self._deadline

        def fixpoint(
            *,
            solver=self,
            state=state,
            q0=queues[0],
            q1=queues[1],
            q2=queues[2],
            prop_fns=self._prop_fns,
            active=self._active,
            on_queue=self._on_queue,
            watchers=self._watchers,
            queues=queues,
            tiers=self._tiers,
            stats=self.stats,
            events=state.events,
            ktab=self._ktab,
            kmask=self._kmask,
            undo=state._undo,
            reset_queue=self._reset_queue,
            # an unlimited deadline can never expire: skip its poll counter
            timed=deadline is not None and deadline._end is not None,
            deadline=deadline,
        ) -> bool:
            node_stamp = state._stamp
            while True:
                # -- dispatch everything that happened since the last pop
                i = state.dispatched
                n = len(events)
                if i < n:
                    stats.events += n - i
                    while i < n:
                        idx, old, new, event_mask = events[i]
                        i += 1
                        for pid, handler, relevance, dedup in watchers[idx][event_mask]:
                            if not active[pid]:
                                continue
                            if relevance is not None and not (
                                relevance & (old ^ new)
                                or event_mask & _EVT_ASSIGN and relevance & new
                            ):
                                continue  # event can't affect this propagator
                            if handler is not None:
                                if dedup and on_queue[pid]:
                                    continue  # pure filter + already queued
                                if handler(state, idx, old, new) is False:
                                    continue  # counters updated; wake a no-op
                            if not on_queue[pid]:
                                on_queue[pid] = True
                                queues[tiers[pid]].append(pid)
                        # counting-row buckets: the event's removed bits jump
                        # straight to the rows losing a candidate, the
                        # assigned bit to the rows gaining a fixed one —
                        # entries are (pid, c, st, total, coef, w3, cmax).
                        # A row driven impossible (c0 > total or c0+c1 <
                        # total) fails the node right here: its propagate is
                        # guaranteed to return FAIL this fixpoint (the
                        # aggregates only march further past the bound
                        # within a node), so skipping the remaining drain
                        # and the O(row) scan changes no search decision.
                        km = kmask[idx]
                        if km:
                            kt = ktab[idx]
                            removed = old & ~new & km
                            while removed:
                                b = removed & -removed
                                removed -= b
                                for pid, c, st, total, coef, w3, cmax in kt[b]:
                                    if not active[pid]:
                                        continue
                                    if st[0] != node_stamp:
                                        st[0] = node_stamp
                                        undo.append((c, None, tuple(c)))
                                    c[1] -= coef
                                    if w3:  # 3-slot weighted row
                                        c[2] -= 1
                                        lb = c[0]
                                        fs = c[1]
                                        if lb + fs < total:
                                            reset_queue(state)
                                            state.dispatched = i
                                            return False
                                        if (
                                            c[2]
                                            and cmax <= total - lb
                                            and cmax <= lb + fs - total
                                        ):
                                            continue
                                    else:
                                        s0 = c[0]
                                        if s0 + c[1] < total:
                                            reset_queue(state)
                                            state.dispatched = i
                                            return False
                                        if s0 < total < s0 + c[1]:
                                            continue
                                    if not on_queue[pid]:
                                        on_queue[pid] = True
                                        q0.append(pid)
                            if event_mask == 7 and new & km:
                                # candidate became fixed
                                for pid, c, st, total, coef, w3, cmax in kt[new]:
                                    if not active[pid]:
                                        continue
                                    if st[0] != node_stamp:
                                        st[0] = node_stamp
                                        undo.append((c, None, tuple(c)))
                                    c[0] += coef
                                    c[1] -= coef
                                    if w3:  # 3-slot weighted row
                                        c[2] -= 1
                                        lb = c[0]
                                        if lb > total:
                                            reset_queue(state)
                                            state.dispatched = i
                                            return False
                                        if (
                                            c[2]
                                            and cmax <= total - lb
                                            and cmax <= lb + c[1] - total
                                        ):
                                            continue
                                    else:
                                        if c[0] > total:
                                            reset_queue(state)
                                            state.dispatched = i
                                            return False
                                        if c[0] < total < c[0] + c[1]:
                                            continue
                                    if not on_queue[pid]:
                                        on_queue[pid] = True
                                        q0.append(pid)
                    state.dispatched = i
                # -- run the cheapest woken propagator
                if q0:
                    pid = q0.popleft()
                elif q1:
                    pid = q1.popleft()
                elif q2:
                    pid = q2.popleft()
                else:
                    return True
                on_queue[pid] = False
                if not active[pid]:
                    continue
                stats.propagations += 1
                if timed:
                    solver._prop_budget_check += 1
                    if solver._prop_budget_check >= 1024:
                        solver._prop_budget_check = 0
                        if deadline.expired():
                            reset_queue(state)
                            raise _Timeout
                verdict = prop_fns[pid](state)
                if not verdict:
                    reset_queue(state)
                    return False
                if verdict == PROP_ENTAILED:
                    undo.append((active, pid, True))  # state.save, inlined
                    active[pid] = False
                    stats.entailments += 1

        return fixpoint

    # -- search -------------------------------------------------------------------
    def solve(
        self,
        time_limit: float | None = None,
        node_limit: int | None = None,
    ) -> SolveOutcome:
        """Find one solution (or prove none exists, or run out of budget)."""
        if self.learn:
            # one store per solve, shared by every restart attempt: the
            # learned refutations survive the geometric restarts
            self._store = NogoodStore(self.nogood_limit)
        if self.restart_nodes is None:
            return self._search(time_limit, node_limit, max_solutions=1)
        return self._solve_with_restarts(time_limit, node_limit)

    def _solve_with_restarts(
        self, time_limit: float | None, node_limit: int | None
    ) -> SolveOutcome:
        """Geometric-restart wrapper around :meth:`_search`."""
        deadline = Deadline(time_limit)
        cutoff = self.restart_nodes
        total = SearchStats()
        while True:
            remaining_nodes = None
            if node_limit is not None:
                remaining_nodes = node_limit - total.nodes
                if remaining_nodes <= 0:
                    total.elapsed = deadline.elapsed()
                    return SolveOutcome(Status.UNKNOWN, None, total)
            run_budget = deadline.remaining() if time_limit is not None else None
            self._cutoff_hit = False
            out = self._search(
                run_budget, remaining_nodes, max_solutions=1, node_cutoff=cutoff
            )
            _merge_restart_stats(total, out.stats)
            total.solutions = out.stats.solutions
            total.elapsed = deadline.elapsed()
            if out.status is not Status.UNKNOWN or not self._cutoff_hit:
                # decided, or a *real* budget exhaustion — final either way
                out.stats = total
                return out
            total.restarts += 1
            cutoff *= 2  # restart with a doubled cutoff (keeps completeness)

    def solve_all(
        self,
        max_solutions: int | None = None,
        time_limit: float | None = None,
        node_limit: int | None = None,
    ) -> SolveOutcome:
        """Enumerate solutions (up to ``max_solutions``).

        Status is SAT if at least one solution was found *and* either the
        cap was reached or the space was exhausted; UNSAT when exhausted
        with none; UNKNOWN on budget exhaustion (solutions found so far are
        still reported).  Incompatible with restarts (re-running from the
        root would revisit solutions).
        """
        if self.restart_nodes is not None:
            raise ValueError("solve_all cannot be combined with restart_nodes")
        if self.learn:
            raise ValueError(
                "solve_all cannot be combined with learn=True (backjumping "
                "abandons the value iterators enumeration relies on)"
            )
        cap = max_solutions if max_solutions is not None else float("inf")
        return self._search(time_limit, node_limit, max_solutions=cap)

    def _search(
        self,
        time_limit: float | None,
        node_limit: int | None,
        max_solutions: float,
        node_cutoff: int | None = None,
    ) -> SolveOutcome:
        if self.learn:
            if max_solutions > 1:
                raise ValueError("the learning search finds one solution")
            return self._search_learning(time_limit, node_limit, node_cutoff)
        self.stats = SearchStats()
        stats = self.stats
        state = DomainState(self.model)
        self._reset_propagators(state)
        self._deadline = deadline = Deadline(time_limit)
        solutions: list[dict[Variable, int]] = []

        def outcome(status: Status) -> SolveOutcome:
            stats.elapsed = deadline.elapsed()
            stats.solutions = len(solutions)
            return SolveOutcome(
                status=status,
                solution=solutions[0] if solutions else None,
                stats=stats,
                solutions=solutions,
            )

        # root propagation
        fixpoint = self._make_fixpoint(state)
        push_level, pop_level = state.make_trail_ops()
        self._enqueue_all()
        try:
            if not fixpoint():
                return outcome(Status.UNSAT)
        except _Timeout:
            return outcome(Status.UNKNOWN)

        ctx = self.ctx
        hint_input = self._hint_input
        if hint_input:
            ctx.first_unassigned_hint = 0
        first = self.var_order(state, ctx)
        if first is None:
            solutions.append(state.solution())
            return outcome(Status.SAT)

        stack: list[tuple[Variable, object]] = [
            (first, iter(self.value_order(state, first)))
        ]
        check_time = time_limit is not None
        check_nodes = node_limit is not None
        check_cutoff = node_cutoff is not None
        phases = self.ctx.phases
        while stack:
            if (check_time and deadline.expired()) or (
                check_nodes and stats.nodes >= node_limit
            ):
                return outcome(Status.UNKNOWN)
            if check_cutoff and stats.nodes >= node_cutoff:
                self._cutoff_hit = True
                return outcome(Status.UNKNOWN)
            var, it = stack[-1]
            val = next(it, None)
            if val is None:
                # every value of this entry failed: unwind to the parent
                stack.pop()
                if stack:
                    pop_level()
                continue
            stats.nodes += 1
            if len(stack) > stats.max_depth:
                stats.max_depth = len(stack)
            if phases is not None:
                phases[var.index] = val
            push_level()
            try:
                ok = state.assign(var, val) and fixpoint()
            except _Timeout:
                return outcome(Status.UNKNOWN)
            if not ok:
                stats.fails += 1
                pop_level()
                continue
            if hint_input:
                # everything before the branch variable is assigned, and
                # so (now) is the branch variable itself: input-order
                # selection never needs to rescan the assigned prefix
                ctx.first_unassigned_hint = var.index + 1
            nxt = self.var_order(state, ctx)
            if nxt is None:
                solutions.append(state.solution())
                if len(solutions) >= max_solutions:
                    return outcome(Status.SAT)
                pop_level()  # keep enumerating from this entry
                continue
            stack.append((nxt, iter(self.value_order(state, nxt))))

        # space exhausted
        return outcome(Status.SAT if solutions else Status.UNSAT)

    # -- conflict-directed search ---------------------------------------------
    def _fixpoint_learning(self, state: DomainState, trail: Trail, store):
        """The learning twin of :meth:`_fixpoint`.

        Same event dispatch and priority-tiered queue, with three
        additions: every propagator run is bracketed by
        :attr:`DomainState.cause` so its events land on the implication
        trail; newly-true literals (drained through the trail's log) are
        unit-propagated through the nogood store *before* any propagator
        runs (watched-literal checks are the cheapest tier of all); and
        a failure is returned as its conflict reason — ``(literals,
        failing_pid)`` where ``literals`` is the propagator's
        explanation, the violated nogood's literals, or ``None`` for
        "use the decision-prefix fallback".  Returns ``None`` at a
        conflict-free fixpoint."""
        q0, q1, q2 = self._queues
        props = self._props
        active = self._active
        on_queue = self._on_queue
        watchers = self._watchers
        queues = self._queues
        tiers = self._tiers
        stats = self.stats
        events = state.events
        log = trail.log
        while True:
            # -- dispatch everything that happened since the last pop
            i = state.dispatched
            n = len(events)
            if i < n:
                stats.events += n - i
                while i < n:
                    idx, old, new, event_mask = events[i]
                    i += 1
                    for pid, handler, relevance, dedup in watchers[idx][event_mask]:
                        if not active[pid]:
                            continue
                        if relevance is not None and not (
                            relevance & (old ^ new)
                            or event_mask & _EVT_ASSIGN and relevance & new
                        ):
                            continue
                        if handler is not None:
                            if dedup and on_queue[pid]:
                                continue  # pure filter + already queued
                            if handler(state, idx, old, new) is False:
                                continue
                        if not on_queue[pid]:
                            on_queue[pid] = True
                            queues[tiers[pid]].append(pid)
                state.dispatched = i
            # -- unit-propagate learned nogoods on newly-true literals
            trail.sync()
            if store.seen < len(log):
                lit = log[store.seen]
                store.seen += 1
                violated = store.on_true(lit, state)
                if violated is not None:
                    store.bump(violated)  # it conflicted: keep it around
                    self._reset_queue(state)
                    return (list(violated.lits), None)
                continue
            # -- run the cheapest woken propagator
            if q0:
                pid = q0.popleft()
            elif q1:
                pid = q1.popleft()
            elif q2:
                pid = q2.popleft()
            else:
                return None
            on_queue[pid] = False
            if not active[pid]:
                continue
            stats.propagations += 1
            self._prop_budget_check += 1
            if self._prop_budget_check >= 1024:
                self._prop_budget_check = 0
                if self._deadline is not None and self._deadline.expired():
                    self._reset_queue(state)
                    raise _Timeout
            state.cause = pid
            verdict = props[pid].propagate(state)
            state.cause = CAUSE_DECISION
            if not verdict:
                self._reset_queue(state)
                trail.sync()  # index the failing run's partial pruning
                return (props[pid].explain_failure(state, trail), pid)
            if verdict == PROP_ENTAILED:
                state.save(active, pid)
                active[pid] = False
                stats.entailments += 1

    def _search_learning(
        self,
        time_limit: float | None,
        node_limit: int | None,
        node_cutoff: int | None = None,
    ) -> SolveOutcome:
        """Conflict-directed search: decide, propagate, learn, backjump.

        CDCL-style control loop — there is no per-node value iterator:
        a refuted decision is captured by the learned asserting nogood,
        whose forced UIP negation (applied right after the backjump)
        plays the role of the "next value" while also pruning every
        other subtree the conflict did not depend on.  Completeness
        follows from the assertion step strictly growing the trail at
        the backjump level; UNSAT is reported when a conflict resolves
        to the root."""
        self.stats = stats = SearchStats()
        state = DomainState(self.model, record_causes=True)
        self._reset_propagators(state)
        self._deadline = deadline = Deadline(time_limit)
        trail = Trail(state)
        store = self._store
        if store is None:  # direct _search calls (tests); solve() presets it
            store = self._store = NogoodStore(self.nogood_limit)
        store.seen = 0
        ctx = self.ctx
        if ctx.weights is None:
            ctx.weights = [0.0] * len(self.model.variables)
        props = self._props
        decisions: list[tuple[int, int, bool]] = []  # canonical literal/level
        solutions: list[dict[Variable, int]] = []

        def outcome(status: Status) -> SolveOutcome:
            stats.elapsed = deadline.elapsed()
            stats.solutions = len(solutions)
            return SolveOutcome(
                status=status,
                solution=solutions[0] if solutions else None,
                stats=stats,
                solutions=solutions,
            )

        # unary nogoods from a previous restart run are root facts of this
        # one: re-assert them before the root fixpoint
        for ng in store.by_id.values():
            if len(ng.lits) == 1:
                state.cause = -2 - ng.id
                ok = apply_negation(state, ng.lits[0])
                state.cause = CAUSE_DECISION
                if not ok:
                    return outcome(Status.UNSAT)

        self._enqueue_all()
        try:
            conflict = self._fixpoint_learning(state, trail, store)
        except _Timeout:
            return outcome(Status.UNKNOWN)
        if conflict is not None:
            return outcome(Status.UNSAT)

        check_time = time_limit is not None
        check_nodes = node_limit is not None
        check_cutoff = node_cutoff is not None
        phases = ctx.phases
        while True:
            if (check_time and deadline.expired()) or (
                check_nodes and stats.nodes >= node_limit
            ):
                return outcome(Status.UNKNOWN)
            if check_cutoff and stats.nodes >= node_cutoff:
                self._cutoff_hit = True
                return outcome(Status.UNKNOWN)
            var = self.var_order(state, ctx)
            if var is None:
                solutions.append(state.solution())
                return outcome(Status.SAT)
            val = self.value_order(state, var)[0]
            stats.nodes += 1
            if len(decisions) + 1 > stats.max_depth:
                stats.max_depth = len(decisions) + 1
            if phases is not None:
                phases[var.index] = val
            state.push_level()
            trail.push_mark()
            decisions.append((var.index, val, True))
            state.cause = CAUSE_DECISION
            if not state.assign(var, val):
                # no iterator to fall back on here (the chronological
                # twin just tries the next value): a first value outside
                # the domain violates the value-order contract and would
                # spin this loop forever — fail loudly instead
                raise ValueError(
                    f"value_order returned {val}, which is not in the "
                    f"domain of {var.name}"
                )
            try:
                conflict = self._fixpoint_learning(state, trail, store)
            except _Timeout:
                return outcome(Status.UNKNOWN)
            while conflict is not None:
                stats.fails += 1
                stats.conflicts += 1
                lits, pid = conflict
                # adaptive-heuristic feedback: weigh the failing
                # constraint's variables, remember the culprit decision
                if pid is not None:
                    weights = ctx.weights
                    for v in props[pid].vars:
                        weights[v.index] += 1.0
                if decisions:
                    culprit = decisions[-1][0]
                    lc = ctx.last_conflicts
                    if culprit in lc:
                        lc.remove(culprit)
                    lc.insert(0, culprit)
                    del lc[2:]
                if not decisions:
                    return outcome(Status.UNSAT)
                store.decay()
                if lits is None:
                    lits = list(decisions)  # decision-prefix fallback
                trail.sync()
                result = analyze_conflict(
                    lits, state, trail, props, store, decisions
                )
                if result is None:
                    return outcome(Status.UNSAT)
                nogood, uip, backjump_level = result
                jumped = len(decisions) - backjump_level
                if jumped > 1:
                    stats.backjumps += 1
                    if jumped > stats.max_backjump:
                        stats.max_backjump = jumped
                # nogood forcings recorded inside the levels about to be
                # popped must be re-examined after the jump: unwinding
                # makes no literal newly true, so the watched-literal
                # scheme alone would never re-derive them
                if backjump_level < len(trail.marks):
                    mark = trail.marks[backjump_level]
                    recheck = sorted(
                        {-2 - c for c in state.causes[mark:] if c <= -2}
                    )
                else:
                    recheck = ()
                while state.level > backjump_level:
                    state.pop_level()
                state.refresh_stamp()  # post-backjump deltas must re-trail
                del decisions[backjump_level:]
                trail.pop_marks(backjump_level)
                trail.truncate()
                if store.seen > len(trail.log):
                    store.seen = len(trail.log)
                ng = store.add(
                    [uip] + [l for l in nogood if l != uip], state, trail
                )
                stats.learned += 1
                if len(store) > store.capacity:
                    stats.forgotten += store.reduce(state)
                # assert the UIP's negation at the backjump level; the
                # strict domain reduction here is what guarantees progress
                state.cause = -2 - ng.id
                ok = apply_negation(state, uip)
                state.cause = CAUSE_DECISION
                if not ok:
                    store.bump(ng)  # asserting it already conflicts
                    conflict = (list(ng.lits), None)
                    continue
                # re-derive the forcings the backjump undid (see above)
                for nid in recheck:
                    old = store.by_id.get(nid)
                    if old is None or old is ng:
                        continue
                    violated = store.reexamine(old, state)
                    if violated is not None:
                        store.bump(violated)
                        conflict = (list(violated.lits), None)
                        break
                else:
                    try:
                        conflict = self._fixpoint_learning(
                            state, trail, store
                        )
                    except _Timeout:
                        return outcome(Status.UNKNOWN)
