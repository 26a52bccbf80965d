"""The paper's dedicated CSP2 search (Section V-C), reimplemented.

Chronological backtracking: decisions advance slot by slot (``t = 0..T-1``);
within a slot the search picks *which tasks run*.  The paper's three search
rules are all here:

1. **Variable ordering** — time first, then processor id (Section V-C-1).
2. **Value ordering** — candidate tasks tried in RM / DM / (T-C) / (D-C)
   order, or task-index order for plain CSP2 (Section V-C-2).
3. **Added rules** (Section V-C-3):
   * *idle rule*: a processor idles only when no available task remains —
     sound on identical processors by an exchange argument (docs/
     ARCHITECTURE.md, "Design notes"), so each slot schedules exactly
     ``min(m, #available)`` tasks;
   * *symmetry breaking* (10): per slot only task *sets* are enumerated
     (ascending on ascending processor ids), dividing the branching by up
     to ``m!``.

On top of these, two prunings:

* *demand pruning* (on by default): a window with ``rem`` units left and
  ``a`` scan-slots left (including the current one) is dead when
  ``rem > a``, and *forces* its task into the current slot when
  ``rem == a`` — the "most constrained first" grouping of Section III-B;
  with it off, only the window-end exactness check (constraint (9) itself)
  remains.
* *energetic pruning* (off by default, an extension): total remaining
  demand must fit in ``m * (T - t)`` remaining processor-slots.

Heterogeneous/uniform platforms (Section VI-A) switch to per-processor
decisions: processors are visited least-capable-first (quality measure
``Q(P_j)``), value order prefers tasks runnable on few processors, the
idle rule is dropped (idling can beat running on a slow processor, so the
exchange argument fails), and symmetry rule (13) applies within maximal
groups of identical processors only.

Slot ``t``'s open windows follow from ``t`` by arithmetic over one row
per task, built once: with ``o = (t - phase) mod P``, task ``i`` is
closed at ``t`` when ``o >= D``, and otherwise its window was released
at ``start = t - o``.  A window wrapping past ``T - 1`` is scanned as
its tail at the start of the cycle (``start < 0``, slots left ``D - t``:
the rest of the tail plus the whole head) and its head at the end
(``start + D > T``, slots left ``T - t``); any other window is job
``(t - phase) // P`` with ``D - o`` slots left, slot ``t`` included.
Nothing is tabled per slot: besides the per-depth stacks below, a dive
holds O(n) window data however deep it goes.

The search state is one int list ``done`` of length ``2n``:
``done[i]`` counts the units task ``i``'s in-scan windows have run so
far (in rate units on a non-identical platform), and ``done[n + i]``
those of its wrapped window.  A window's ``r`` is ``i`` or ``n + i``
accordingly, and its ``target`` is ``(job + 1) * wcet`` or ``wcet``, so
its window's remaining demand is ``target - done[r]``.

The search keeps no node objects: it holds flat per-depth stacks of the
choice applied at each depth and of what is left to try there, and
undoes a choice by arithmetic (each chosen window's ``done`` cell gives
back the units it took).  Everything a deep dive keeps alive is a few
tuples of ints per depth, which the cyclic GC stops tracking.

Every window that ended before slot ``t`` is complete, so ``t`` and
``done`` fix every window's remaining demand and ``(t, *done)`` is the
search state itself.  A depth that runs out of choices records that key
(plus the tasks already running in the slot on a non-identical
platform) in a per-solve set of failed states, and the search refuses a
state it finds there, up to :data:`MEMO_CELLS` stored key cells.
docs/ARCHITECTURE.md ("Design notes") has the argument and the
measurements.
"""

from __future__ import annotations

from itertools import chain, combinations, permutations, repeat

import numpy as np

from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.schedule.schedule import IDLE, Schedule
from repro.solvers.base import Feasibility, SolveResult, SolverStats
from repro.solvers.generic_engine import csp2_engine, reject_nogood_limit
from repro.solvers.ordering import HEURISTIC_ALIASES, task_order
from repro.solvers.registry import EXACT, PROVES_INFEASIBILITY, register_solver
from repro.util.timer import Deadline

__all__ = ["Csp2DedicatedSolver"]

#: int cells the failed-state memo of one solve may store, summed over
#: its keys (``2n + 1`` cells each, plus the running tasks on a
#: non-identical platform).  At the cap the memo stops growing; it only
#: prunes, so the search stays exact.
MEMO_CELLS = 1_000_000


class Csp2DedicatedSolver:
    """Hand-rolled chronological solver for CSP2 (identical & heterogeneous).

    Parameters
    ----------
    heuristic:
        None (task-index order), ``rm``, ``dm``, ``tc`` or ``dc``.
    symmetry_breaking:
        Paper rule (10)/(13).  Turning it off enumerates task *tuples*
        instead of sets on identical platforms (ablation).
    idle_rule:
        Paper's "no idle while work is available" rule (identical
        platforms only; ignored otherwise).
    demand_pruning:
        Window lookahead ``rem <= slots_left`` with forced tasks.
    energetic_pruning:
        Aggregate capacity check (extension, default off).
    """

    def __init__(
        self,
        system: TaskSystem,
        platform: Platform,
        heuristic: str | None = None,
        symmetry_breaking: bool = True,
        idle_rule: bool = True,
        demand_pruning: bool = True,
        energetic_pruning: bool = False,
    ) -> None:
        if not system.is_constrained:
            raise ValueError(
                "the dedicated CSP2 solver needs a constrained-deadline system; "
                "apply clone_for_arbitrary_deadlines() first (Section VI-B)"
            )
        self.system = system
        self.platform = platform
        self.heuristic = heuristic
        self.symmetry_breaking = symmetry_breaking
        self.idle_rule = idle_rule
        self.demand_pruning = demand_pruning
        self.energetic_pruning = energetic_pruning
        self.name = f"csp2{'+' + heuristic if heuristic else ''}"

        n = system.n
        self._T = system.hyperperiod
        self._m = platform.m
        #: ``(i, phase, period, deadline, wcet)`` per task with work to
        #: place (the windows of the others never matter): slot ``t``'s
        #: windows follow from these by arithmetic (:meth:`_windows`)
        self._rows = [
            (i, task.phase, task.period, task.deadline, task.wcet)
            for i, task in enumerate(system) if task.wcet > 0
        ]
        # heuristic rank: lower = try first
        order = task_order(system, heuristic)
        rank = [0] * n
        for pos, i in enumerate(order):
            rank[i] = pos
        rates = platform.rate_matrix(n)
        max_rate = [int(r) for r in rates.max(axis=1)]
        #: loose per-slot platform capacity for the energetic check
        self._slot_capacity = int(rates.max(axis=0).sum())
        self._identical = platform.is_identical
        if not self._identical:
            #: ``_rate_cols[j][r]``: task ``r % n``'s rate on processor ``j``
            self._rate_cols = [col + col for col in rates.T.tolist()]
            # processor visit order: least capable first, groups adjacent
            quality = platform.quality(system)
            self._proc_order = sorted(
                range(self._m),
                key=lambda j: (quality[j], rates[:, j].tobytes(), j),
            )
            # previous processor in visit order iff identical rate column
            self._same_as_prev = [False] * self._m
            for pos in range(1, self._m):
                a, b = self._proc_order[pos - 1], self._proc_order[pos]
                self._same_as_prev[b] = bool(
                    np.array_equal(rates[:, a], rates[:, b])
                )
            # tasks runnable on few processors get priority (Section VI-A)
            eligible_count = (rates > 0).sum(axis=1)
            rank = [(int(eligible_count[i]), rank[i]) for i in range(n)]
        # indexed by a window's r: task r % n's rank and best rate
        self._rank = rank + rank
        self._max_rate = max_rate + max_rate

    # -- the windows open at a slot, by arithmetic ----------------------------
    def _windows(self, t: int) -> list[tuple[int, int, int]]:
        """``(r, target, slots left)`` of every window open at slot ``t``,
        in task order; slots left counts ``t`` and the scan slots after
        it (a wrapped window's tail also counts its head).

        ``_search_identical`` inlines this loop.
        """
        n, T = self.system.n, self._T
        windows = []
        for i, phase, period, deadline, wcet in self._rows:
            o = (t - phase) % period  # slots since the window's release
            if o < deadline:
                if t < o:  # the wrapped window's tail
                    windows.append((n + i, wcet, deadline - t))
                elif deadline - o > T - t:  # its head
                    windows.append((n + i, wcet, T - t))
                else:
                    job = (t - phase) // period
                    windows.append((i, (job + 1) * wcet, deadline - o))
        return windows

    # -- public API -----------------------------------------------------------
    def solve(
        self, time_limit: float | None = None, node_limit: int | None = None
    ) -> SolveResult:
        """Chronological slot-by-slot search (Section V) under the budgets.

        Returns FEASIBLE with a validated cyclic schedule, INFEASIBLE if
        the space is exhausted, or UNKNOWN (the paper's overrun) when a
        budget expires first.  ``stats.extra`` carries the memo's
        ``memo_hits`` (states refused as known failures) and
        ``memo_states`` (failed states stored).
        """
        deadline = Deadline(time_limit)
        stats = SolverStats()

        def result(
            status: Feasibility,
            schedule: Schedule | None = None,
            memo_hits: int = 0,
            memo_states: int = 0,
        ) -> SolveResult:
            stats.elapsed = deadline.elapsed()
            stats.extra["memo_hits"] = memo_hits
            stats.extra["memo_states"] = memo_states
            return SolveResult(
                status=status, schedule=schedule, stats=stats, solver_name=self.name
            )

        # cheap necessary conditions (identical: one unit per slot max)
        for i, task in enumerate(self.system):
            if task.wcet > task.deadline * self._max_rate[i]:
                return result(Feasibility.INFEASIBLE)

        if self._identical:
            return self._search_identical(deadline, stats, node_limit, result)
        return self._search_general(deadline, stats, node_limit, result)

    # -- identical platforms: one depth per slot, choices are task sets --------
    def _selections(self, required: list[int], optional: list[int]):
        """A lazy iterator of what a slot can run when its scan leaves
        more than one selection (the dive takes a single selection itself):
        every required window plus as many optional ones as processors
        are free, or also fewer without the idle rule.

        With symmetry breaking a selection is a set of windows ``r``, in
        no particular order (the schedule puts it on processors in
        ascending task order); without it, every processor order of each
        set in turn, from ascending task order on.
        """
        optional = sorted(optional, key=self._rank.__getitem__)
        take = min(self._m - len(required), len(optional))
        if self.idle_rule:
            combos = combinations(optional, take)
        else:
            combos = chain.from_iterable(
                map(combinations, repeat(optional), range(take, -1, -1))
            )
        sets = map(tuple(required).__add__, combos)
        if self.symmetry_breaking:
            return sets
        n = self.system.n
        return chain.from_iterable(
            permutations(sorted(s, key=lambda r: r % n)) for s in sets
        )

    def _search_identical(self, deadline, stats, node_limit, result) -> SolveResult:
        n = self.system.n
        T = self._T
        m = self._m
        rows = self._rows
        pruning = self.demand_pruning
        symmetric = self.symmetry_breaking
        fill = symmetric and self.idle_rule  # all optional windows fit: one choice
        energetic = self.energetic_pruning
        done = [0] * (2 * n)
        total_rem = self.system.total_demand()
        path: list = []     # the selection applied at slot d, or None
        pending: list = []  # what slot d has left to try (a tuple, an
        # iterator from _selections, or None once nothing is left)
        failed: set[tuple] = set()  # keys (t, *done) of failed slot entries
        room = MEMO_CELLS // (len(done) + 1)  # keys the memo may still take
        hits = 0
        reached = 0  # slots below this one have had a state pushed
        check_tick = 0
        t = 0  # the slot to expand
        while True:
            ok = False
            if t < reached and (t, *done) in failed:
                hits += 1
            elif not (energetic and total_rem > m * (T - t)):
                # the scan: slot t's windows as in _windows, each with
                # rem units left and `left` slots left (t included)
                required = []
                optional = []
                for i, phase, period, dl, wcet in rows:
                    o = (t - phase) % period
                    if o < dl:
                        left = dl - o
                        if t < o:  # a wrapped window's tail
                            r = n + i
                            rem = wcet - done[r]
                            left = dl - t
                        elif left > T - t:  # its head
                            r = n + i
                            rem = wcet - done[r]
                            left = T - t
                        else:
                            r = i
                            rem = (t - phase) // period * wcet + wcet - done[i]
                        if rem:
                            if rem < left or not (pruning or left == 1):
                                # without demand pruning only the window's
                                # last slot decides (constraint (9) itself)
                                optional.append(r)
                            elif rem == left:
                                required.append(r)
                            else:
                                break
                else:
                    ok = True
            if ok:
                if t == reached:
                    reached += 1
                free = m - len(required)
                if free < 0:
                    # more required tasks than processors: a dead end too,
                    # pushed all the same so the memo records its state
                    todo = None
                    if path:
                        stats.fails += 1
                elif symmetric and (free == 0 or not optional):
                    todo = tuple(required)
                elif fill and free >= len(optional):
                    todo = tuple(required + optional)
                else:
                    todo = self._selections(required, optional)
                path.append(None)
                pending.append(todo)
            elif path:
                stats.fails += 1
            # take the next choice at the deepest slot that has one
            while path:
                check_tick += 1
                if check_tick >= 64:
                    check_tick = 0
                    if deadline.expired() or (
                        node_limit is not None and stats.nodes >= node_limit
                    ):
                        return result(Feasibility.UNKNOWN, None, hits, len(failed))
                top = len(path) - 1
                applied = path[top]
                if applied is not None:
                    for r in applied:
                        done[r] -= 1
                    total_rem += len(applied)
                todo = pending[top]
                if todo.__class__ is tuple:
                    choice = todo
                    pending[top] = None
                else:
                    choice = None if todo is None else next(todo, None)
                if choice is None:
                    # done is slot top's entry state again, and it failed
                    path.pop()
                    pending.pop()
                    if room:
                        failed.add((top, *done))
                        room -= 1
                    continue
                stats.nodes += 1
                if top >= stats.max_depth:
                    stats.max_depth = top + 1
                for r in choice:
                    done[r] += 1
                total_rem -= len(choice)
                path[top] = choice
                t = top + 1
                if t == T:
                    schedule = self._build_identical(path)
                    return result(Feasibility.FEASIBLE, schedule, hits, len(failed))
                break
            else:
                return result(Feasibility.INFEASIBLE, None, hits, len(failed))

    def _build_identical(self, path: list[tuple]) -> Schedule:
        n = self.system.n
        table = np.full((self._m, self._T), IDLE, dtype=np.int32)
        for t, chosen in enumerate(path):
            tasks = [r % n for r in chosen]
            if self.symmetry_breaking:
                tasks.sort()
            table[: len(tasks), t] = tasks
        return Schedule(self.system, self.platform, table)

    # -- uniform/heterogeneous: one depth per (slot, processor) ----------------
    def _proc_candidates(
        self, windows: list, j: int, done: list[int], running,
        prev_val: int | None,
    ) -> list[int]:
        """Values to try for processor ``j`` at the slot whose
        :meth:`_windows` are ``windows``, in value order, idle (``2n``)
        last; a value below ``2n`` is a window ``r``, and ``running``
        holds the values already on a processor in the slot."""
        n = self.system.n
        idle = 2 * n
        # symmetry rule (13): within an identical group, ascending task ids
        # (idle ranks last); prev_val == idle means the previous proc idled.
        if prev_val is None:
            prev_val = -1
        elif prev_val == idle:
            return [idle]
        else:
            prev_val %= n
        rate = self._rate_cols[j]
        cands = [
            r for r, target, _left in windows
            # exactness: never overshoot the window's remaining demand
            if r % n > prev_val and 0 < rate[r] <= target - done[r]
            and r not in running
        ]
        cands.sort(key=self._rank.__getitem__)
        cands.append(idle)  # always tried last (no idle rule here)
        return cands

    def _slot_entry_ok(self, ended: list, windows: list, done: list[int]) -> bool:
        """Pruning checks when the search reaches a slot: ``windows`` are
        its :meth:`_windows`, ``ended`` those of the slot before it."""
        if not self._ends_complete(ended, done):
            return False  # a window that ended in the slot before is incomplete
        if self.demand_pruning:
            max_rate = self._max_rate
            for r, target, left in windows:
                if target - done[r] > left * max_rate[r]:
                    return False
        return True

    def _search_general(self, deadline, stats, node_limit, result) -> SolveResult:
        T = self._T
        m = self._m
        idle = 2 * self.system.n
        proc_order = self._proc_order
        rate_cols = self._rate_cols
        done = [0] * idle
        total_rem = self.system.total_demand()
        # depth d is processor proc_order[d % m] at slot d // m
        path: list = []     # the value applied there (idle = 2n), or None
        pending: list = []  # the values left to try there, last first
        # keys (d, *done, *values already running in the slot) of failed
        # depths; the last running value is the symmetry rule's prev_val
        failed: set[tuple] = set()
        room = MEMO_CELLS // (idle + m)  # keys the memo may still take
        hits = 0
        reached = 0  # depths below this one have had a state pushed
        check_tick = 0
        win_t = -1  # the slot whose windows `windows` holds
        windows: list = []
        d = 0  # the depth to expand
        while True:
            t, pos = divmod(d, m)
            if t != win_t:
                # entering slot t checks slot t - 1's windows, and its
                # processors' candidates come from slot t's
                if win_t == t - 1:
                    ended = windows
                else:
                    ended = self._windows(t - 1) if t else []
                windows = self._windows(t)
                win_t = t
            ok = True
            if pos == 0:
                ok = self._slot_entry_ok(ended, windows, done) and not (
                    self.energetic_pruning
                    and total_rem > self._slot_capacity * (T - t)
                )
            if ok and d < reached and (d, *done, *path[d - pos:d]) in failed:
                hits += 1
                ok = False
            if ok:
                if d == reached:
                    reached += 1
                j = proc_order[pos]
                prev_val = None
                if self.symmetry_breaking and pos > 0 and self._same_as_prev[j]:
                    prev_val = path[d - 1]
                cands = self._proc_candidates(
                    windows, j, done, path[d - pos:d], prev_val
                )
                cands.reverse()
                path.append(None)
                pending.append(cands)
            elif path:
                stats.fails += 1
            # take the next value at the deepest depth that has one
            while path:
                check_tick += 1
                if check_tick >= 64:
                    check_tick = 0
                    if deadline.expired() or (
                        node_limit is not None and stats.nodes >= node_limit
                    ):
                        return result(Feasibility.UNKNOWN, None, hits, len(failed))
                top = len(path) - 1
                pos = top % m
                rate = rate_cols[proc_order[pos]]
                val = path[top]
                if val is not None and val < idle:
                    done[val] -= rate[val]
                    total_rem += rate[val]
                todo = pending[top]
                if not todo:
                    # done is depth top's entry state again, and it failed
                    path.pop()
                    pending.pop()
                    if room:
                        failed.add((top, *done, *path[top - pos:top]))
                        room -= 1
                    continue
                val = path[top] = todo.pop()
                stats.nodes += 1
                if top >= stats.max_depth:
                    stats.max_depth = top + 1
                if val < idle:
                    done[val] += rate[val]
                    total_rem -= rate[val]
                d = top + 1
                if d < T * m:
                    break
                # all slots assigned: windows ending at T-1 must be complete
                # (earlier windows were checked at their own end slot)
                if self._ends_complete(self._windows(T - 1), done):
                    schedule = self._build_general(path)
                    return result(Feasibility.FEASIBLE, schedule, hits, len(failed))
                stats.fails += 1
            else:
                return result(Feasibility.INFEASIBLE, None, hits, len(failed))

    def _ends_complete(self, windows: list, done: list[int]) -> bool:
        """Every window among a slot's ``windows`` that ends there must be
        complete.

        Checked as the search leaves each slot, and after slot T-1; with
        per-window accounting this means all demand is met.
        """
        return all(done[r] == target for r, target, left in windows if left == 1)

    def _build_general(self, path: list[int]) -> Schedule:
        n = self.system.n
        m = self._m
        table = np.full((m, self._T), IDLE, dtype=np.int32)
        for d, val in enumerate(path):
            if val < 2 * n:
                t, pos = divmod(d, m)
                table[self._proc_order[pos], t] = val % n
        return Schedule(self.system, self.platform, table)


@register_solver(
    "csp2",
    description=(
        "The paper's dedicated chronological slot-by-slot solver (idle "
        "rule, per-slot symmetry breaking, demand pruning)"
    ),
    paper_section="V",
    pick_when="A strong exact default; +dc is the paper's best performer",
    capabilities=(PROVES_INFEASIBILITY, EXACT),
    suffixes={
        "rm": "Dedicated solver, rate-monotonic value order (smallest T first)",
        "dm": "Dedicated solver, deadline-monotonic order (smallest D first)",
        "tc": "Dedicated solver, largest-laxity-last order (smallest T-C first)",
        "dc": "Dedicated solver, smallest D-C first — the experimental "
        "winner (fewest overruns, Table I) and this repo's fastest exact solver",
        "learn": "Encoding #2 on the conflict-directed engine: 1-UIP nogood "
        "learning + backjumping over the (D-C)-ordered chronological search "
        "— the strongest exact option on UNSAT-heavy boundary instances",
    },
    options=(
        "symmetry_breaking", "idle_rule", "demand_pruning", "energetic_pruning",
        "nogood_limit",
    ),
    platforms=("identical", "uniform", "heterogeneous"),
    hidden_suffixes=HEURISTIC_ALIASES,
)
def _build_csp2(system, platform, spec, seed, **options):
    """Registry factory: ``csp2[+heuristic|+learn]`` (suffix = value order,
    or the conflict-directed learning variant on the generic engine)."""
    reject_nogood_limit(spec, options)
    if spec.suffix == "learn":
        for opt in ("idle_rule", "demand_pruning", "energetic_pruning"):
            if opt in options:
                raise ValueError(
                    f"option {opt!r} belongs to the dedicated chronological "
                    "solver; 'csp2+learn' runs encoding #2 on the learning "
                    "engine and accepts symmetry_breaking/nogood_limit"
                )
        return csp2_engine(
            system, platform, "csp2+learn", "dc", learn=True, **options
        )
    return Csp2DedicatedSolver(system, platform, heuristic=spec.suffix, **options)
