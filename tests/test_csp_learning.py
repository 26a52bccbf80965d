"""Tests for conflict-directed search: implication trail, explanations,
1-UIP learning, backjumping, the bounded nogood store, and the registry
``+learn`` variants."""

import itertools
import json
import random

import pytest

from repro.csp import Model, Solver, Status
from repro.csp.learning import (
    NogoodStore,
    Trail,
    apply_negation,
    lit_is_false,
    lit_is_true,
)
from repro.csp.propagators import (
    AllDifferentExceptValue,
    AtMostOneTrue,
    CountEq,
    ExactSumBool,
    NonDecreasing,
    Table,
    WeightedCountEq,
    WeightedExactSumBool,
)
from repro.csp.search import SearchStats, _merge_restart_stats
from repro.csp.state import CAUSE_DECISION, DomainState
from repro.generator import GeneratorConfig, generate_instance
from repro.model.platform import Platform
from repro.solvers.problem import Problem, SolveReport, solve_problem
from repro.solvers.registry import available_solvers, create_solver


def pigeonhole(n_pigeons, n_holes):
    m = Model()
    vs = [m.int_var(0, n_holes - 1, f"p{i}") for i in range(n_pigeons)]
    m.add_all_different_except(vs, None)
    return m, vs


# -- state layer: the implication trail --------------------------------------

class TestImplicationTrail:
    def test_causes_off_by_default(self):
        m = Model()
        x = m.int_var(0, 3, "x")
        s = DomainState(m)
        s.assign(x, 1)
        assert s.causes is None

    def test_causes_recorded_and_truncated(self):
        m = Model()
        x = m.int_var(0, 3, "x")
        y = m.int_var(0, 3, "y")
        s = DomainState(m, record_causes=True)
        s.cause = CAUSE_DECISION
        s.remove_value(x, 0)
        s.push_level()
        s.cause = 7  # pretend propagator 7 wrote the next events
        s.remove_value(y, 2)
        s.assign(x, 1)
        assert s.causes == [CAUSE_DECISION, 7, 7]
        s.pop_level()
        assert s.causes == [CAUSE_DECISION]
        assert len(s.causes) == len(s.events)

    def test_refresh_stamp_monotone(self):
        m = Model()
        m.int_var(0, 1, "x")
        s = DomainState(m)
        s.push_level()
        before = s.stamp
        s.pop_level()
        assert s.stamp == before  # pop never reuses
        s.refresh_stamp()
        assert s.stamp == before + 1

    def test_trail_positions_levels_truncation(self):
        m = Model()
        x = m.int_var(0, 2, "x")
        y = m.int_var(0, 2, "y")
        s = DomainState(m, record_causes=True)
        t = Trail(s)
        s.push_level()
        t.push_mark()
        s.assign(x, 1)
        t.sync()
        assert t.pos_of[(x.index, 1, True)] == 0
        assert t.pos_of[(x.index, 0, False)] == 0
        assert t.level_of(0) == 1
        s.push_level()
        t.push_mark()
        s.remove_value(y, 2)
        t.sync()
        p = t.pos_of[(y.index, 2, False)]
        assert t.level_of(p) == 2
        s.pop_level()
        t.pop_marks(1)
        t.truncate()
        assert (y.index, 2, False) not in t.pos_of
        assert (x.index, 1, True) in t.pos_of


# -- literal helpers ---------------------------------------------------------

class TestLiterals:
    def test_truth_and_falsity(self):
        m = Model()
        x = m.int_var(0, 2, "x")
        s = DomainState(m)
        eq1 = (x.index, 1, True)
        ne1 = (x.index, 1, False)
        assert not lit_is_true(s, eq1) and not lit_is_false(s, eq1)
        assert not lit_is_true(s, ne1) and not lit_is_false(s, ne1)
        s.assign(x, 1)
        assert lit_is_true(s, eq1) and lit_is_false(s, ne1)
        s2 = DomainState(m)
        s2.remove_value(x, 1)
        assert lit_is_false(s2, eq1) and lit_is_true(s2, ne1)

    def test_apply_negation(self):
        m = Model()
        x = m.int_var(0, 2, "x")
        s = DomainState(m)
        assert apply_negation(s, (x.index, 1, True))  # remove 1
        assert not s.contains(x, 1)
        assert apply_negation(s, (x.index, 2, False))  # assign 2
        assert s.value(x) == 2


# -- propagator explanations -------------------------------------------------

def _trailed(model):
    """A cause-recording state with a synced trail and one open level."""
    s = DomainState(model, record_causes=True)
    t = Trail(s)
    s.push_level()
    t.push_mark()
    return s, t


class TestExplanations:
    def test_at_most_one_blames_the_true_var(self):
        m = Model()
        a, b, c = (m.bool_var(n) for n in "abc")
        prop = AtMostOneTrue([a, b, c])
        m.add(prop)
        s, t = _trailed(m)
        s.assign(a, 1)
        t.sync()
        s.cause = 0
        prop.reset(s)
        assert prop.propagate(s)
        t.sync()
        pos = t.pos_of[(b.index, 0, True)]
        assert prop.explain_event(s, t, pos) == [(a.index, 1, True)]

    def test_exact_sum_tight_blames_false_set(self):
        m = Model()
        bools = [m.bool_var(f"b{i}") for i in range(4)]
        prop = ExactSumBool(bools, 2)
        m.add(prop)
        s, t = _trailed(m)
        s.assign(bools[0], 0)
        s.assign(bools[1], 0)
        t.sync()
        prop.reset(s)
        s.cause = 0
        assert prop.propagate(s)  # tight: b2, b3 forced to 1
        t.sync()
        pos = t.pos_of[(bools[2].index, 1, True)]
        reason = prop.explain_event(s, t, pos)
        assert sorted(reason) == sorted(
            [(bools[0].index, 0, True), (bools[1].index, 0, True)]
        )
        for lit in reason:
            assert t.pos_of[lit] < pos

    def test_exact_sum_failure_blames_true_set(self):
        m = Model()
        bools = [m.bool_var(f"b{i}") for i in range(4)]
        prop = ExactSumBool(bools, 1)
        m.add(prop)
        s, t = _trailed(m)
        s.assign(bools[0], 1)
        s.assign(bools[1], 1)
        t.sync()
        prop.reset(s)
        reason = prop.explain_failure(s, t)
        assert sorted(reason) == sorted(
            [(bools[0].index, 1, True), (bools[1].index, 1, True)]
        )

    def test_weighted_sum_explanations(self):
        m = Model()
        bools = [m.bool_var(f"b{i}") for i in range(3)]
        prop = WeightedExactSumBool(bools, [2, 3, 4], 6)
        m.add(prop)
        s, t = _trailed(m)
        s.assign(bools[2], 1)  # lb=4; b1 (coef 3) would overshoot
        t.sync()
        prop.reset(s)
        s.cause = 0
        assert prop.propagate(s)
        t.sync()
        pos = t.pos_of[(bools[1].index, 0, True)]
        assert prop.explain_event(s, t, pos) == [(bools[2].index, 1, True)]

    def test_count_eq_saturated_blames_fixed_set(self):
        m = Model()
        vs = [m.int_var(0, 2, f"x{i}") for i in range(3)]
        prop = CountEq(vs, 1, 1)
        m.add(prop)
        s, t = _trailed(m)
        s.assign(vs[0], 1)
        t.sync()
        prop.reset(s)
        s.cause = 0
        assert prop.propagate(s)  # saturated: value 1 removed elsewhere
        t.sync()
        pos = t.pos_of[(vs[1].index, 1, False)]
        assert prop.explain_event(s, t, pos) == [(vs[0].index, 1, True)]

    def test_count_eq_tight_blames_lost_set(self):
        m = Model()
        vs = [m.int_var(0, 2, f"x{i}") for i in range(3)]
        prop = CountEq(vs, 2, 2)
        m.add(prop)
        s, t = _trailed(m)
        s.remove_value(vs[0], 2)
        t.sync()
        prop.reset(s)
        s.cause = 0
        assert prop.propagate(s)  # tight: vs[1], vs[2] forced to 2
        t.sync()
        pos = t.pos_of[(vs[1].index, 2, True)]
        assert prop.explain_event(s, t, pos) == [(vs[0].index, 2, False)]

    def test_weighted_count_explanations(self):
        m = Model()
        vs = [m.int_var(0, 2, f"x{i}") for i in range(3)]
        prop = WeightedCountEq(vs, [2, 2, 3], 1, 4)
        m.add(prop)
        s, t = _trailed(m)
        s.assign(vs[0], 1)  # lb=2; x2 (coef 3) would overshoot
        t.sync()
        prop.reset(s)
        s.cause = 0
        assert prop.propagate(s)
        t.sync()
        pos = t.pos_of[(vs[2].index, 1, False)]
        assert prop.explain_event(s, t, pos) == [(vs[0].index, 1, True)]

    def test_alldifferent_blames_the_taker(self):
        m = Model()
        vs = [m.int_var(0, 2, f"x{i}") for i in range(3)]
        prop = AllDifferentExceptValue(vs, None)
        m.add(prop)
        s, t = _trailed(m)
        s.assign(vs[0], 1)
        t.sync()
        s.cause = 0
        assert prop.propagate(s)
        t.sync()
        pos = t.pos_of[(vs[1].index, 1, False)]
        assert prop.explain_event(s, t, pos) == [(vs[0].index, 1, True)]

    def test_alldifferent_failure_blames_the_pair(self):
        m = Model()
        vs = [m.int_var(0, 2, f"x{i}") for i in range(2)]
        prop = AllDifferentExceptValue(vs, None)
        m.add(prop)
        s, t = _trailed(m)
        s.assign(vs[0], 1)
        s.assign(vs[1], 1)
        t.sync()
        reason = prop.explain_failure(s, t)
        assert sorted(reason) == sorted(
            [(vs[0].index, 1, True), (vs[1].index, 1, True)]
        )

    def test_nondecreasing_blames_left_neighbour_removals(self):
        m = Model()
        a = m.int_var(0, 3, "a")
        b = m.int_var(0, 3, "b")
        prop = NonDecreasing([a, b])
        m.add(prop)
        s, t = _trailed(m)
        s.remove_value(a, 0)
        s.remove_value(a, 1)  # min(a) = 2
        t.sync()
        s.cause = 0
        assert prop.propagate(s)  # b loses 0 and 1
        t.sync()
        pos = t.pos_of[(b.index, 0, False)]
        reason = prop.explain_event(s, t, pos)
        assert sorted(reason) == sorted(
            [(a.index, 0, False), (a.index, 1, False)]
        )

    def test_table_blames_mentioned_removals(self):
        m = Model()
        x = m.int_var(0, 2, "x")
        y = m.int_var(0, 2, "y")
        prop = Table([x, y], [(0, 0), (1, 1), (2, 2)])
        m.add(prop)
        s, t = _trailed(m)
        s.remove_value(x, 0)
        t.sync()
        prop.reset(s)
        prop.on_event(s, x.index, 0b111, 0b110)
        s.cause = 0
        assert prop.propagate(s)  # y loses 0
        t.sync()
        pos = t.pos_of[(y.index, 0, False)]
        assert prop.explain_event(s, t, pos) == [(x.index, 0, False)]

    def test_explanations_default_to_none(self):
        m = Model()
        vs = [m.int_var(0, 2, f"x{i}") for i in range(2)]
        prop = NonDecreasing(vs)
        s, t = _trailed(m)
        # an event this propagator did not cause yields no explanation
        s.assign(vs[0], 1)
        t.sync()
        base = super(NonDecreasing, prop)
        assert base.explain_event(s, t, 0) is None
        assert base.explain_failure(s, t) is None


# -- the learning search ------------------------------------------------------

class TestLearningSearch:
    def test_pigeonhole_sat(self):
        m, vs = pigeonhole(5, 5)
        out = Solver(m, learn=True).solve()
        assert out.status is Status.SAT
        assert len({out.value(v) for v in vs}) == 5

    def test_pigeonhole_unsat_with_fewer_nodes(self):
        m, _ = pigeonhole(7, 6)
        plain = Solver(m).solve()
        m2, _ = pigeonhole(7, 6)
        learned = Solver(m2, learn=True).solve()
        assert plain.status is Status.UNSAT
        assert learned.status is Status.UNSAT
        assert learned.stats.nodes < plain.stats.nodes
        assert learned.stats.conflicts > 0
        assert learned.stats.learned > 0

    def test_learning_counters_zero_without_learning(self):
        m, _ = pigeonhole(5, 4)
        out = Solver(m).solve()
        assert out.stats.conflicts == 0
        assert out.stats.learned == 0
        assert out.stats.forgotten == 0
        assert out.stats.backjumps == 0

    def test_budget_unknown(self):
        m, _ = pigeonhole(9, 8)
        out = Solver(m, learn=True).solve(node_limit=5)
        assert out.status is Status.UNKNOWN

    def test_time_limit(self):
        m, _ = pigeonhole(9, 8)
        out = Solver(m, learn=True).solve(time_limit=0.0)
        assert out.status is Status.UNKNOWN

    def test_solve_all_rejected(self):
        m, _ = pigeonhole(3, 3)
        with pytest.raises(ValueError, match="solve_all"):
            Solver(m, learn=True).solve_all()

    def test_bad_nogood_limit(self):
        m, _ = pigeonhole(3, 3)
        with pytest.raises(ValueError, match="nogood_limit"):
            Solver(m, learn=True, nogood_limit=0)

    def test_forgetting_is_bounded_and_counted(self):
        from repro.csp.heuristics import value_order_custom, var_order_input
        from repro.encodings.csp2 import encode_csp2
        from repro.solvers.ordering import task_order

        inst = generate_instance(GeneratorConfig(n=5, tmax=5, m=2), 14)
        enc = encode_csp2(inst.system, Platform.identical(inst.m), True)
        order = task_order(inst.system, "dc")
        order.append(enc.idle_value)
        solver = Solver(
            enc.model,
            var_order=var_order_input,
            value_order=value_order_custom(order),
            learn=True,
            nogood_limit=30,
        )
        out = solver.solve(node_limit=100_000)
        assert out.status is Status.UNSAT
        assert out.stats.forgotten > 0
        # the store stays bounded near its capacity (short and locked
        # nogoods are exempt, so a small overhang is expected)
        assert len(solver._store) <= 60

    def test_restarts_keep_the_store(self):
        m, _ = pigeonhole(7, 6)
        solver = Solver(m, learn=True, restart_nodes=8)
        out = solver.solve()
        assert out.status is Status.UNSAT
        assert out.stats.restarts > 0
        # nogoods survived at least one restart: total learned exceeds
        # what the final run alone could have produced only if the store
        # was never cleared — and the store still holds them
        assert len(solver._store) > 0

    def test_seeded_learning_deterministic(self):
        results = []
        for _ in range(2):
            m, _ = pigeonhole(6, 5)
            out = Solver(m, learn=True, seed=11).solve()
            results.append((out.status, out.stats.nodes, out.stats.conflicts))
        assert results[0] == results[1]


# -- randomized soundness vs brute force --------------------------------------

def _semantics(c, vals):
    if isinstance(c, AtMostOneTrue):
        return sum(vals[v.index] for v in c.vars) <= 1
    # ExactSumBool and CountEq are the unit-coefficient weighted classes
    if isinstance(c, WeightedExactSumBool):
        return sum(k * vals[v.index] for v, k in zip(c.vars, c.coefs)) == c.total
    if isinstance(c, WeightedCountEq):
        return sum(
            k for v, k in zip(c.vars, c.coefs) if vals[v.index] == c.value
        ) == c.total
    if isinstance(c, AllDifferentExceptValue):
        seen = set()
        for v in c.vars:
            x = vals[v.index]
            if x == c.except_value:
                continue
            if x in seen:
                return False
            seen.add(x)
        return True
    if isinstance(c, NonDecreasing):
        xs = [vals[v.index] for v in c.vars]
        return all(a <= b for a, b in zip(xs, xs[1:]))
    if isinstance(c, Table):
        return tuple(vals[v.index] for v in c.vars) in set(c.tuples)
    raise AssertionError(type(c))


def _random_model(rng):
    m = Model()
    nv = rng.randint(2, 5)
    vs = [m.int_var(0, rng.randint(1, 3), f"x{i}") for i in range(nv)]
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(
            ["amo", "sum", "count", "alldiff", "nondec", "table"]
        )
        sub = rng.sample(vs, rng.randint(2, nv))
        bools = [v for v in sub if v.initial_mask == 0b11]
        try:
            if kind == "amo" and len(bools) >= 2:
                m.add_at_most_one_true(bools)
            elif kind == "sum" and len(bools) >= 2:
                m.add_exact_sum_bool(bools, rng.randint(0, len(bools)))
            elif kind == "count":
                m.add_count_eq(sub, rng.randint(0, 3), rng.randint(0, len(sub)))
            elif kind == "alldiff":
                m.add_all_different_except(sub, rng.choice([None, 0]))
            elif kind == "nondec":
                m.add_non_decreasing(sub)
            elif kind == "table":
                doms = [v.initial_values() for v in sub]
                m.add_table(
                    sub,
                    [tuple(rng.choice(d) for d in doms)
                     for _ in range(rng.randint(1, 6))],
                )
        except ValueError:
            continue
    return m


def test_learning_agrees_with_brute_force():
    """300 random models: learning statuses match brute-force truth and
    every reported solution satisfies every constraint — with a tiny
    store too, so forgetting is exercised."""
    rng = random.Random(7)
    for _ in range(300):
        m = _random_model(rng)
        doms = [v.initial_values() for v in m.variables]
        expect = any(
            all(_semantics(c, dict(enumerate(combo))) for c in m.constraints)
            for combo in itertools.product(*doms)
        )
        out = Solver(m, learn=True, nogood_limit=rng.choice([2, 5000])).solve(
            node_limit=50_000
        )
        assert out.status is not Status.UNKNOWN
        assert (out.status is Status.SAT) == expect
        if out.status is Status.SAT:
            vals = {v.index: val for v, val in out.solution.items()}
            assert all(_semantics(c, vals) for c in m.constraints)


# -- multi-valued soundness: singleton-collapse resolution --------------------

class TestMultiValuedResolution:
    """1-UIP resolution on multi-valued domains: a removal that collapses
    a domain to a singleton is canonicalized into the assignment literal,
    whose reason must include *every* earlier removal on the variable —
    not just the collapsing event's own explanation."""

    def test_pinned_collapse_model_stays_sat(self):
        """Regression: this SAT model (alldifferent + nondecreasing over
        mixed-width domains) was reported UNSAT when assignment literals
        were resolved through the collapsing event's explanation alone."""

        def build():
            m = Model()
            x0 = m.int_var(0, 2, "x0")
            x1 = m.int_var(0, 2, "x1")
            x2 = m.int_var(0, 3, "x2")
            x3 = m.int_var(0, 2, "x3")
            x4 = m.int_var(0, 3, "x4")
            m.add_all_different_except([x2, x1, x3, x4], None)
            m.add_all_different_except([x0, x4, x1, x2], None)
            m.add_non_decreasing([x2, x3, x1])
            return m

        assert Solver(build()).solve().status is Status.SAT
        out = Solver(build(), learn=True).solve()
        assert out.status is Status.SAT
        vals = {v.index: val for v, val in out.solution.items()}
        assert all(_semantics(c, vals) for c in build().constraints)

    def test_differential_learn_vs_plain_multivalued(self):
        """Randomized differential: learn=True and learn=False must agree
        on small all-multi-valued models (CountEq, AllDifferentExceptValue,
        NonDecreasing, Table) — the shape that exposed the unsound
        collapse resolution, which Boolean-heavy grids never catch."""
        rng = random.Random(84)
        checked = 0
        for _ in range(150):
            m = Model()
            vs = [m.int_var(0, rng.randint(2, 4), f"x{i}") for i in range(5)]
            for _ in range(rng.randint(2, 4)):
                kind = rng.choice(["count", "alldiff", "nondec", "table"])
                sub = rng.sample(vs, rng.randint(2, 5))
                try:
                    if kind == "count":
                        m.add_count_eq(
                            sub, rng.randint(0, 4), rng.randint(0, len(sub))
                        )
                    elif kind == "alldiff":
                        m.add_all_different_except(sub, rng.choice([None, 0]))
                    elif kind == "nondec":
                        m.add_non_decreasing(sub)
                    else:
                        doms = [v.initial_values() for v in sub]
                        m.add_table(
                            sub,
                            [tuple(rng.choice(d) for d in doms)
                             for _ in range(rng.randint(1, 6))],
                        )
                except ValueError:
                    continue
            plain = Solver(m).solve(node_limit=50_000)
            learned = Solver(
                m, learn=True, nogood_limit=rng.choice([2, 5000])
            ).solve(node_limit=50_000)
            if Status.UNKNOWN in (plain.status, learned.status):
                continue
            assert learned.status is plain.status
            if learned.status is Status.SAT:
                vals = {v.index: val for v, val in learned.solution.items()}
                assert all(_semantics(c, vals) for c in m.constraints)
            checked += 1
        assert checked > 100  # the grid genuinely exercises both engines


# -- agreement with the non-learning engine on paper encodings ----------------

@pytest.mark.parametrize("learner,reference", [
    ("csp1+learn", "csp1"),
    ("csp2+learn", "csp2-generic+dc"),
    ("csp2-generic+learn", "csp2-generic"),
])
def test_seeded_agreement_grid(learner, reference):
    """Learning variants never flip a SAT/UNSAT verdict vs the
    chronological engine on a seeded instance grid (UNKNOWN cells — a
    budget artifact — may be *decided* by the stronger search)."""
    for seed in range(8):
        inst = generate_instance(GeneratorConfig(n=4, tmax=4, m=2), seed)
        problem = Problem.of(inst.system, m=inst.m, node_limit=30_000, seed=1)
        a = solve_problem(problem, reference)
        b = solve_problem(problem, learner)
        if "unknown" in (a.status_label, b.status_label):
            continue
        assert a.status_label == b.status_label, (learner, seed)


#: UNSAT-heavy boundary cells (utilization near m, d-first generator):
#: (reference, learner, (n, tmax, m, seed)) -> the pinned (status, nodes)
#: of each engine under a 20,000-node budget.
BOUNDARY_GRID = {
    ("csp2-generic+dc", "csp2+learn", (4, 4, 2, 16)):
        (("infeasible", 4414), ("infeasible", 418)),
    ("csp2-generic+dc", "csp2+learn", (4, 4, 2, 27)):
        (("infeasible", 4118), ("infeasible", 92)),
    ("csp1", "csp1+learn", (4, 4, 2, 16)):
        (("unknown", 20_000), ("infeasible", 364)),
}


def test_boundary_grid_learning_pins():
    """Conflict-directed learning on the boundary grid: every status and
    node count is pinned exactly, no SAT/UNSAT verdict flips against the
    chronological engine (the budget-bound csp1 cell is *decided* by
    learning), and the aggregate node ratio clears 1.3x by far
    (28,532 -> 874 nodes)."""

    def run(solver, spec):
        n, tmax, m, seed = spec
        inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
        result = create_solver(
            solver, inst.system, Platform.identical(inst.m)
        ).solve(node_limit=20_000)
        return result.status.value, result.stats.nodes

    observed = {
        key: (run(key[0], key[2]), run(key[1], key[2]))
        for key in BOUNDARY_GRID
    }
    assert observed == BOUNDARY_GRID
    # the gate itself, which must survive any deliberate re-capture of
    # the pins above
    for (before_status, _), (after_status, _) in observed.values():
        if "unknown" not in (before_status, after_status):
            assert before_status == after_status
    before = sum(b[1] for b, _ in observed.values())
    after = sum(a[1] for _, a in observed.values())
    assert before >= 1.3 * after


# -- restart stats merging (satellite) ----------------------------------------

class TestRestartStatsMerge:
    def test_every_field_covered(self):
        """The merge groups partition SearchStats — adding a counter
        without classifying it fails here (and at runtime)."""
        _merge_restart_stats(SearchStats(), SearchStats())  # no raise

    def test_uncovered_field_raises(self, monkeypatch):
        import repro.csp.search as search_mod

        monkeypatch.setattr(
            search_mod, "_MERGE_SUM", tuple(search_mod._MERGE_SUM[:-1])
        )
        with pytest.raises(AssertionError, match="not covered"):
            _merge_restart_stats(SearchStats(), SearchStats())

    def test_pre_restart_counters_accumulate(self):
        """events/entailments/propagations of pre-restart attempts land
        in the final stats: the total equals the sum over every attempt."""
        from repro.csp import var_order_random

        m, _ = pigeonhole(6, 5)
        solver = Solver(m, var_order=var_order_random, seed=3, restart_nodes=2)
        per_run = []
        orig = type(solver)._search

        def spy(self, *args, **kwargs):
            out = orig(self, *args, **kwargs)
            per_run.append(out.stats)
            return out

        type(solver)._search = spy
        try:
            final = solver.solve()
        finally:
            type(solver)._search = orig
        assert final.stats.restarts == len(per_run) - 1 > 0
        for field in ("nodes", "fails", "propagations", "events",
                      "entailments", "conflicts", "learned"):
            assert getattr(final.stats, field) == sum(
                getattr(s, field) for s in per_run
            ), field
        assert final.stats.max_depth == max(s.max_depth for s in per_run)


# -- registry / front-door integration ---------------------------------------

class TestLearnRegistry:
    def test_names_advertised(self):
        names = available_solvers()
        for name in ("csp1+learn", "csp2+learn", "csp2-generic+learn"):
            assert name in names

    def test_counters_round_trip_jsonl(self):
        inst = generate_instance(GeneratorConfig(n=5, tmax=5, m=2), 14)
        problem = Problem.of(inst.system, m=inst.m, node_limit=30_000)
        report = solve_problem(problem, "csp2+learn")
        assert report.status_label == "infeasible"
        extra = report.stats.extra
        assert extra["conflicts"] > 0 and extra["learned"] > 0
        assert "backjumps" in extra and "forgotten" in extra
        back = SolveReport.from_dict(json.loads(json.dumps(report.to_dict())))
        assert back.stats.extra == extra
        assert back.winner == "csp2+learn"

    def test_composes_with_screen_and_portfolio(self):
        inst = generate_instance(GeneratorConfig(n=4, tmax=4, m=2), 12)
        problem = Problem.of(inst.system, m=inst.m, node_limit=30_000)
        screened = solve_problem(problem, "screen+csp2+learn")
        assert screened.status_label in ("feasible", "infeasible")
        raced = solve_problem(problem, "portfolio:csp2+learn,csp2+dc")
        assert raced.status_label in ("feasible", "infeasible")

    def test_nogood_limit_option_validated(self):
        inst = generate_instance(GeneratorConfig(n=4, tmax=4, m=2), 11)
        plat = Platform.identical(inst.m)
        engine = create_solver(
            "csp2+learn", inst.system, plat, nogood_limit=64
        )
        assert engine.solve(node_limit=10_000).status is not None
        with pytest.raises(ValueError, match="learn"):
            create_solver("csp2", inst.system, plat, nogood_limit=64)
        with pytest.raises(ValueError, match="learn"):
            create_solver("csp1", inst.system, plat, nogood_limit=64)
        with pytest.raises(ValueError, match="learn"):
            create_solver("csp2-generic+dc", inst.system, plat, nogood_limit=64)
        with pytest.raises(ValueError, match="dedicated"):
            create_solver("csp2+learn", inst.system, plat, idle_rule=False)

    def test_learn_solution_validates(self):
        inst = generate_instance(GeneratorConfig(n=4, tmax=4, m=2), 12)
        problem = Problem.of(inst.system, m=inst.m, node_limit=30_000)
        report = solve_problem(problem, "csp2+learn")  # check=True validates
        assert report.status_label == "feasible"
        assert report.schedule is not None


# -- store internals ----------------------------------------------------------

class TestNogoodStore:
    def test_reduce_keeps_short_and_locked(self):
        m = Model()
        vs = [m.int_var(0, 3, f"x{i}") for i in range(4)]
        s = DomainState(m, record_causes=True)
        t = Trail(s)
        store = NogoodStore(capacity=2)
        short = store.add(
            [(0, 0, True), (1, 1, True)], s, t
        )
        long_ones = [
            store.add([(0, i % 4, True), (1, 2, True), (2, 3, True)], s, t)
            for i in range(4)
        ]
        long_ones[0].activity = 99.0
        dropped = store.reduce(s)
        assert dropped > 0
        assert short.id in store.by_id  # <= 2 literals: never forgotten
        assert long_ones[0].id in store.by_id  # highest activity survives

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            NogoodStore(capacity=0)

    def test_reexamine_forces_violates_or_stays_inert(self):
        """Post-backjump re-examination: all-but-one-true forces the open
        literal (attributed to the nogood), all-true reports violation,
        a false or second open literal leaves the state untouched."""
        m = Model()
        x = m.int_var(0, 2, "x")
        y = m.int_var(0, 2, "y")
        z = m.int_var(0, 2, "z")
        s = DomainState(m, record_causes=True)
        t = Trail(s)
        store = NogoodStore()
        ng = store.add(
            [(x.index, 1, True), (y.index, 1, True), (z.index, 2, False)],
            s, t,
        )
        # two open literals: nothing to do
        s.assign(x, 1)
        assert store.reexamine(ng, s) is None
        assert s.contains(z, 2)
        # all but one true: the open literal's negation is forced
        s.assign(y, 1)
        assert store.reexamine(ng, s) is None
        assert s.contains(z, 2)  # forced ¬(z!=2) i.e. z := 2
        assert s.value(z) == 2
        assert s.causes[-1] == -2 - ng.id
        # a false literal makes it inert
        s2 = DomainState(m, record_causes=True)
        s2.assign(x, 1)
        s2.assign(y, 2)  # falsifies (y, 1, True)
        s2.remove_value(z, 2)
        assert store.reexamine(ng, s2) is None
        # every literal true: violated
        s3 = DomainState(m, record_causes=True)
        s3.assign(x, 1)
        s3.assign(y, 1)
        s3.remove_value(z, 2)
        assert store.reexamine(ng, s3) is ng

    def test_violated_nogoods_get_bumped(self):
        """A nogood reported violated by watched-literal propagation is
        bumped on the spot, so frequent culprits are not forgotten first."""

        class SpyStore(NogoodStore):
            def __init__(self):
                super().__init__()
                self.log = []

            def on_true(self, lit, state):
                out = super().on_true(lit, state)
                if out is not None:
                    self.log.append(("violated", out.id))
                return out

            def bump(self, ng):
                self.log.append(("bumped", ng.id))
                super().bump(ng)

        from repro.csp.heuristics import value_order_custom, var_order_input
        from repro.encodings.csp2 import encode_csp2
        from repro.solvers.ordering import task_order

        inst = generate_instance(GeneratorConfig(n=5, tmax=5, m=2), 14)
        enc = encode_csp2(inst.system, Platform.identical(inst.m), True)
        order = task_order(inst.system, "dc")
        order.append(enc.idle_value)
        solver = Solver(
            enc.model,
            var_order=var_order_input,
            value_order=value_order_custom(order),
            learn=True,
        )
        solver._store = store = SpyStore()
        out = solver._search(None, None, max_solutions=1)
        assert out.status is Status.UNSAT
        hits = [i for i, (kind, _) in enumerate(store.log)
                if kind == "violated"]
        assert hits  # the run exercised direct watched-literal conflicts
        for i in hits:  # ... and each one was bumped immediately
            assert store.log[i + 1] == ("bumped", store.log[i][1])
