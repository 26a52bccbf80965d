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

The active windows are stepped by release events into a slot table,
``_slots[t] = (t, frags)``.  ``frags`` holds the window *fragments*
active at ``t`` as ``(r, target, fragment end, slots in later
fragments)``; a window wrapping past ``T - 1`` is two fragments, its
tail at the start of the scan and then its head.  Slot ``t + 1`` is slot
``t`` minus the fragments that ended plus those a release calendar books
at ``t + 1``; "slots left" is one subtraction.  The table grows by a
slot when the search first reaches its end and is kept for later solves.

The search state is one int list ``done`` of length ``2n``:
``done[i]`` counts the units task ``i``'s in-scan windows have run so
far (in rate units on a non-identical platform), and ``done[n + i]``
those of its wrapped window.  A fragment's ``r`` is ``i`` or ``n + i``
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
from repro.solvers.ordering import task_order
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
        self._phase = [t.phase for t in system]
        self._period = [t.period for t in system]
        self._deadline = [t.deadline for t in system]
        self._wcet = [t.wcet for t in system]
        #: tasks with work to place; windows of the others never matter
        self._busy = [i for i in range(n) if self._wcet[i] > 0]
        #: the slots built so far, and the release calendar (slot ->
        #: tasks releasing there) of the slots not built yet
        self._slots: list[tuple] = []
        self._calendar: dict[int, list[int]] = {}
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
        # indexed by a fragment's r: task r % n's rank and best rate
        self._rank = rank + rank
        self._max_rate = max_rate + max_rate

    # -- window fragments, stepped by release events ----------------------------
    def _grow_slots(self) -> None:
        """Append the next slot to the table.

        Slot 0 holds the tails of the wrapped windows; every slot then
        keeps the previous one's open fragments and adds the heads of the
        windows released there, booking each releasing task's next
        release in the calendar.
        """
        slots = self._slots
        t = len(slots)
        n = self.system.n
        T = self._T
        period, phase = self._period, self._phase
        deadline, wcet = self._deadline, self._wcet
        calendar = self._calendar
        if t == 0:
            frags = []
            for i in self._busy:
                calendar.setdefault(phase[i], []).append(i)
                release = phase[i] + (T // period[i] - 1) * period[i]
                end = release + deadline[i] - 1
                if end >= T:
                    frags.append((n + i, wcet[i], end - T, T - release))
        else:
            frags = [f for f in slots[t - 1][1] if f[2] >= t]
        for i in calendar.pop(t, ()):
            if t + period[i] < T:
                calendar.setdefault(t + period[i], []).append(i)
            end = t + deadline[i] - 1
            if end < T:
                job = (t - phase[i]) // period[i]
                frags.append((i, (job + 1) * wcet[i], end, 0))
            else:  # the head of the wrapped window
                frags.append((n + i, wcet[i], T - 1, 0))
        slots.append((t, tuple(frags)))

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
        for i in range(self.system.n):
            if self._wcet[i] > self._deadline[i] * self._max_rate[i]:
                return result(Feasibility.INFEASIBLE)

        if self._identical:
            return self._search_identical(deadline, stats, node_limit, result)
        return self._search_general(deadline, stats, node_limit, result)

    # -- identical platforms: one depth per slot, choices are task sets --------
    def _scan(self, t: int, done: list[int]) -> tuple[list[int], list[int]] | None:
        """(required, optional) windows ``r`` at slot ``t``, from one pass
        over its fragments; None = dead end."""
        pruning = self.demand_pruning
        required: list[int] = []
        optional: list[int] = []
        for r, target, end, later in self._slots[t][1]:
            rem = target - done[r]
            if rem:
                left = end - t + 1 + later  # includes slot t
                if rem < left or not (pruning or left == 1):
                    # without demand pruning only the window's last slot
                    # decides (constraint (9) itself)
                    optional.append(r)
                elif rem == left:
                    required.append(r)
                else:
                    return None
        return required, optional

    def _selections(self, required: list[int], optional: list[int]):
        """What a slot with this scan can run: None if nothing (more
        required tasks than processors), the one selection as a tuple when
        there is only one, else a lazy iterator of selections.

        With symmetry breaking a selection is a set of windows ``r``, in
        no particular order (the schedule puts it on processors in
        ascending task order); without it, every processor order of each
        set in turn, from ascending task order on.
        """
        free = self._m - len(required)
        if free < 0:
            return None
        if self.symmetry_breaking:
            if free == 0 or not optional:
                return tuple(required)
            if self.idle_rule and free >= len(optional):
                return tuple(required + optional)
        optional = sorted(optional, key=self._rank.__getitem__)
        take = min(free, len(optional))
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
        T = self._T
        m = self._m
        slots = self._slots
        energetic = self.energetic_pruning
        done = [0] * (2 * self.system.n)
        total_rem = self.system.total_demand()
        path: list = []     # the selection applied at slot d, or None
        pending: list = []  # what slot d has left to try (see _selections)
        failed: set[tuple] = set()  # keys (t, *done) of failed slot entries
        room = MEMO_CELLS // (len(done) + 1)  # keys the memo may still take
        hits = 0
        reached = 0  # slots below this one have had a state pushed
        check_tick = 0
        t = 0  # the slot to expand
        while True:
            if t == len(slots):
                self._grow_slots()
            if t < reached and (t, *done) in failed:
                hits += 1
                scan = None
            elif energetic and total_rem > m * (T - t):
                scan = None
            else:
                scan = self._scan(t, done)
            if scan is not None:
                if t == reached:
                    reached += 1
                todo = self._selections(*scan)
                if todo is None and path:
                    # more required tasks than processors: a dead end too,
                    # pushed all the same so the memo records its state
                    stats.fails += 1
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
        self, t: int, j: int, done: list[int], running, prev_val: int | None,
    ) -> list[int]:
        """Values to try for processor ``j`` at slot ``t``, in value
        order, idle (``2n``) last; a value below ``2n`` is a window ``r``,
        and ``running`` holds the values already on a processor at ``t``."""
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
            r for r, target, _end, _later in self._slots[t][1]
            # exactness: never overshoot the window's remaining demand
            if r % n > prev_val and 0 < rate[r] <= target - done[r]
            and r not in running
        ]
        cands.sort(key=self._rank.__getitem__)
        cands.append(idle)  # always tried last (no idle rule here)
        return cands

    def _slot_entry_ok(self, t: int, done: list[int]) -> bool:
        """Pruning checks when the search reaches slot ``t``."""
        if t > 0 and not self._ends_complete(t - 1, done):
            return False  # a window that ended at t-1 is incomplete
        if self.demand_pruning:
            max_rate = self._max_rate
            for r, target, end, later in self._slots[t][1]:
                if target - done[r] > (end - t + 1 + later) * max_rate[r]:
                    return False
        return True

    def _search_general(self, deadline, stats, node_limit, result) -> SolveResult:
        T = self._T
        m = self._m
        idle = 2 * self.system.n
        slots = self._slots
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
        d = 0  # the depth to expand
        while True:
            t, pos = divmod(d, m)
            ok = True
            if pos == 0:
                if t == len(slots):
                    self._grow_slots()
                ok = self._slot_entry_ok(t, done) and not (
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
                    t, j, done, path[d - pos:d], prev_val
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
                if self._ends_complete(T - 1, done):
                    schedule = self._build_general(path)
                    return result(Feasibility.FEASIBLE, schedule, hits, len(failed))
                stats.fails += 1
            else:
                return result(Feasibility.INFEASIBLE, None, hits, len(failed))

    def _ends_complete(self, t: int, done: list[int]) -> bool:
        """Every window whose last slot is ``t`` must be complete.

        Checked as the search leaves each slot, and after slot T-1; with
        per-window accounting this means all demand is met.
        """
        return all(
            done[r] == target
            for r, target, end, later in self._slots[t][1]
            if end == t and later == 0
        )

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
    hidden_suffixes=("t-c", "(t-c)", "d-c", "(d-c)", "none"),
)
def _build_csp2(system, platform, spec, seed, **options):
    """Registry factory: ``csp2[+heuristic|+learn]`` (suffix = value order,
    or the conflict-directed learning variant on the generic engine)."""
    if spec.suffix == "learn":
        from repro.solvers.csp2_generic import Csp2GenericSolver

        for opt in ("idle_rule", "demand_pruning", "energetic_pruning"):
            if opt in options:
                raise ValueError(
                    f"option {opt!r} belongs to the dedicated chronological "
                    "solver; 'csp2+learn' runs encoding #2 on the learning "
                    "engine and accepts symmetry_breaking/nogood_limit"
                )
        solver = Csp2GenericSolver(
            system, platform, heuristic="dc", learn=True, **options
        )
        solver.name = "csp2+learn"
        return solver
    if "nogood_limit" in options:
        raise ValueError(
            "nogood_limit only applies to the learning variant; use 'csp2+learn'"
        )
    heuristic = _checked_heuristic(spec.suffix) if spec.suffix else None
    return Csp2DedicatedSolver(system, platform, heuristic=heuristic, **options)


def _checked_heuristic(suffix):
    """Validate a value-ordering suffix (raises ValueError on a bad name)."""
    from repro.solvers.ordering import heuristic_key

    heuristic_key(suffix)  # validates / raises
    return suffix
