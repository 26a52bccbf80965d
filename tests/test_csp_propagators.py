"""Unit tests for each propagator, plus a brute-force semantics oracle.

Propagators are incremental: the engine calls ``reset(state)`` once per
search and keeps owned counters current by feeding ``on_event`` deltas.
Direct (engine-less) use must therefore rebuild the counters after any
out-of-band domain mutation — the :func:`run` helper below is that
contract in one place, and :class:`TestIncrementalCounters` checks that
delta-fed counters always agree with a fresh ``reset``.
"""

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.csp import (
    EVT_ASSIGN,
    EVT_BOUNDS,
    EVT_REMOVE,
    PROP_ENTAILED,
    PROP_FAIL,
    PROP_OK,
    AllDifferentExceptValue,
    AtMostOneTrue,
    CountEq,
    ExactSumBool,
    Model,
    NonDecreasing,
    Table,
    WeightedCountEq,
    WeightedExactSumBool,
)
from repro.csp.state import DomainState


def run(constraint, state):
    """Direct-use contract: rebuild owned counters, then propagate."""
    constraint.reset(state)
    return constraint.propagate(state)


def satisfies(constraint, values: dict) -> bool:
    """Ground-truth semantics of every propagator (used across test files)."""
    vals = [values[v] for v in constraint.vars]
    if isinstance(constraint, AtMostOneTrue):
        return sum(vals) <= 1
    # ExactSumBool and CountEq are the unit-coefficient weighted classes
    if isinstance(constraint, WeightedExactSumBool):
        return sum(c * x for c, x in zip(constraint.coefs, vals)) == constraint.total
    if isinstance(constraint, WeightedCountEq):
        return (
            sum(c for c, x in zip(constraint.coefs, vals) if x == constraint.value)
            == constraint.total
        )
    if isinstance(constraint, AllDifferentExceptValue):
        seen = set()
        for x in vals:
            if x == constraint.except_value:
                continue
            if x in seen:
                return False
            seen.add(x)
        return True
    if isinstance(constraint, NonDecreasing):
        return all(a <= b for a, b in zip(vals, vals[1:]))
    if isinstance(constraint, Table):
        return tuple(vals) in constraint.tuples
    raise TypeError(f"no oracle for {type(constraint).__name__}")


def assert_prunes_alike(model, constraint, reference):
    """``constraint`` and ``reference`` give the same verdict and domains
    from every box of sub-domains of ``model``'s (at most 3) values."""
    vs = model.variables
    boxes = [
        [mask for mask in range(1, v.initial_mask + 1) if not mask & ~v.initial_mask]
        for v in vs
    ]
    for box in itertools.product(*boxes):
        outcomes = []
        for c in (constraint, reference):
            s = DomainState(model)
            for v, mask in zip(vs, box):
                s.intersect_mask(v, mask)
            outcomes.append((bool(run(c, s)), [s.mask(v) for v in vs]))
        assert outcomes[0] == outcomes[1], box


class TestAtMostOneTrue:
    def test_second_true_fails(self):
        m = Model()
        a, b = m.bool_var("a"), m.bool_var("b")
        p = AtMostOneTrue([a, b])
        s = DomainState(m)
        s.assign(a, 1)
        s.assign(b, 1)
        assert not run(p, s)

    def test_one_true_forces_zeros(self):
        m = Model()
        a, b, c = (m.bool_var(x) for x in "abc")
        p = AtMostOneTrue([a, b, c])
        s = DomainState(m)
        s.assign(b, 1)
        assert run(p, s)
        assert s.value(a) == 0 and s.value(c) == 0

    def test_no_true_no_pruning(self):
        m = Model()
        a, b = m.bool_var("a"), m.bool_var("b")
        s = DomainState(m)
        assert run(AtMostOneTrue([a, b]), s)
        assert s.size(a) == 2 and s.size(b) == 2

    def test_rejects_non_bool(self):
        m = Model()
        with pytest.raises(ValueError):
            AtMostOneTrue([m.int_var(0, 2)])

    def test_entailed_after_forcing(self):
        m = Model()
        a, b, c = (m.bool_var(x) for x in "abc")
        p = AtMostOneTrue([a, b, c])
        s = DomainState(m)
        s.assign(b, 1)
        assert run(p, s) == PROP_ENTAILED

    def test_entailed_with_one_open_var(self):
        m = Model()
        a, b = m.bool_var("a"), m.bool_var("b")
        p = AtMostOneTrue([a, b])
        s = DomainState(m)
        s.assign(a, 0)
        assert run(p, s) == PROP_ENTAILED  # a single free bool can't violate


class TestExactSumBool:
    def test_saturated_forces_zeros(self):
        m = Model()
        vs = [m.bool_var() for _ in range(4)]
        s = DomainState(m)
        s.assign(vs[0], 1)
        s.assign(vs[1], 1)
        assert run(ExactSumBool(vs, 2), s)
        assert s.value(vs[2]) == 0 and s.value(vs[3]) == 0

    def test_tight_forces_ones(self):
        m = Model()
        vs = [m.bool_var() for _ in range(3)]
        s = DomainState(m)
        s.assign(vs[0], 0)
        assert run(ExactSumBool(vs, 2), s)
        assert s.value(vs[1]) == 1 and s.value(vs[2]) == 1

    def test_overshoot_fails(self):
        m = Model()
        vs = [m.bool_var() for _ in range(2)]
        s = DomainState(m)
        s.assign(vs[0], 1)
        s.assign(vs[1], 1)
        assert not run(ExactSumBool(vs, 1), s)

    def test_undershoot_fails(self):
        m = Model()
        vs = [m.bool_var() for _ in range(2)]
        s = DomainState(m)
        s.assign(vs[0], 0)
        s.assign(vs[1], 0)
        assert not run(ExactSumBool(vs, 1), s)

    def test_rejects_negative_total(self):
        m = Model()
        with pytest.raises(ValueError):
            ExactSumBool([m.bool_var()], -1)

    def test_entailed_when_forced(self):
        m = Model()
        vs = [m.bool_var() for _ in range(3)]
        s = DomainState(m)
        s.assign(vs[0], 1)
        assert run(ExactSumBool(vs, 1), s) == PROP_ENTAILED
        assert s.value(vs[1]) == 0 and s.value(vs[2]) == 0

    def test_open_returns_ok(self):
        m = Model()
        vs = [m.bool_var() for _ in range(3)]
        s = DomainState(m)
        assert run(ExactSumBool(vs, 1), s) == PROP_OK


class TestWeightedExactSumBool:
    def test_coefficient_overshoot_pruned(self):
        # 3a + 2b == 2  ->  a must be 0, b must be 1
        m = Model()
        a, b = m.bool_var("a"), m.bool_var("b")
        s = DomainState(m)
        assert run(WeightedExactSumBool([a, b], [3, 2], 2), s)
        assert s.value(a) == 0 and s.value(b) == 1

    def test_needed_var_forced(self):
        # 2a + 1b == 3 -> both required
        m = Model()
        a, b = m.bool_var("a"), m.bool_var("b")
        s = DomainState(m)
        assert run(WeightedExactSumBool([a, b], [2, 1], 3), s)
        assert s.value(a) == 1 and s.value(b) == 1

    def test_unreachable_total_fails(self):
        m = Model()
        a = m.bool_var("a")
        s = DomainState(m)
        assert not run(WeightedExactSumBool([a], [2], 3), s)

    def test_validation(self):
        m = Model()
        a = m.bool_var()
        with pytest.raises(ValueError):
            WeightedExactSumBool([a], [0], 1)
        with pytest.raises(ValueError):
            WeightedExactSumBool([a], [1, 2], 1)
        with pytest.raises(ValueError):
            WeightedExactSumBool([a], [1], -2)

    def test_repeated_variable_merges(self):
        # a, a, b with 1, 2, 1 is 3a + b == 3, from every partial assignment
        m = Model()
        a, b = m.bool_var("a"), m.bool_var("b")
        merged = WeightedExactSumBool([a, a, b], [1, 2, 1], 3)
        assert merged.vars == (a, b) and merged.coefs == (3, 1)
        assert [sub[0] for sub in merged.watches()] == [a, b]
        assert_prunes_alike(m, merged, WeightedExactSumBool([a, b], [3, 1], 3))

    def test_unit_repeat_counts_each_occurrence(self):
        m = Model()
        a = m.bool_var("a")
        s = DomainState(m)
        assert run(ExactSumBool([a, a], 2), s) == PROP_ENTAILED
        assert s.value(a) == 1

    def test_fully_decided_entailed(self):
        m = Model()
        a, b = m.bool_var("a"), m.bool_var("b")
        s = DomainState(m)
        assert run(WeightedExactSumBool([a, b], [3, 2], 2), s) == PROP_ENTAILED

    def test_no_forcing_possible_returns_ok(self):
        # 2a + 2b + 2c == 4: every coefficient fits both slacks
        m = Model()
        vs = [m.bool_var() for _ in range(3)]
        s = DomainState(m)
        assert run(WeightedExactSumBool(vs, [2, 2, 2], 4), s) == PROP_OK


class TestCountEq:
    def test_saturated_removes_value(self):
        m = Model()
        vs = [m.int_var(0, 2) for _ in range(3)]
        s = DomainState(m)
        s.assign(vs[0], 1)
        assert run(CountEq(vs, 1, 1), s)
        assert s.values(vs[1]) == [0, 2]
        assert s.values(vs[2]) == [0, 2]

    def test_tight_assigns_value(self):
        m = Model()
        vs = [m.int_var(0, 2) for _ in range(3)]
        s = DomainState(m)
        s.remove_value(vs[0], 1)
        assert run(CountEq(vs, 1, 2), s)
        assert s.value(vs[1]) == 1 and s.value(vs[2]) == 1

    def test_value_not_in_any_domain_with_positive_total_fails(self):
        m = Model()
        vs = [m.int_var(0, 2) for _ in range(2)]
        s = DomainState(m)
        assert not run(CountEq(vs, 7, 1), s)

    def test_total_zero_removes_everywhere(self):
        m = Model()
        vs = [m.int_var(0, 2) for _ in range(2)]
        s = DomainState(m)
        assert run(CountEq(vs, 1, 0), s)
        assert s.values(vs[0]) == [0, 2]

    def test_offset_domains(self):
        m = Model()
        vs = [m.int_var(5, 7), m.int_var(3, 5)]
        s = DomainState(m)
        s.assign(vs[0], 5)
        assert run(CountEq(vs, 5, 1), s)
        assert s.values(vs[1]) == [3, 4]

    def test_saturation_entails(self):
        m = Model()
        vs = [m.int_var(0, 2) for _ in range(3)]
        s = DomainState(m)
        s.assign(vs[0], 1)
        assert run(CountEq(vs, 1, 1), s) == PROP_ENTAILED

    def test_open_returns_ok(self):
        m = Model()
        vs = [m.int_var(0, 2) for _ in range(3)]
        s = DomainState(m)
        assert run(CountEq(vs, 1, 1), s) == PROP_OK


class TestWeightedCountEq:
    def test_weights_respected(self):
        # coef 2 on v0: if v0==value it contributes 2
        m = Model()
        vs = [m.int_var(0, 1), m.int_var(0, 1)]
        s = DomainState(m)
        s.assign(vs[0], 1)
        # total=2 already reached: remove value 1 from v1
        assert run(WeightedCountEq(vs, [2, 1], 1, 2), s)
        assert s.value(vs[1]) == 0

    def test_overshooting_candidate_loses_value(self):
        # total 1 cannot absorb the coef-2 candidate
        m = Model()
        vs = [m.int_var(0, 1), m.int_var(0, 1)]
        s = DomainState(m)
        assert run(WeightedCountEq(vs, [2, 1], 1, 1), s)
        assert s.values(vs[0]) == [0]
        assert s.value(vs[1]) == 1  # forced: only way to reach 1

    def test_unreachable_fails(self):
        m = Model()
        vs = [m.int_var(0, 1)]
        s = DomainState(m)
        assert not run(WeightedCountEq(vs, [2], 1, 3), s)

    def test_repeated_variable_merges(self):
        # v, v, w with 1, 2, 1 counts 3 per v == 1 and 1 per w == 1
        m = Model()
        v, w = m.int_var(0, 2, "v"), m.int_var(0, 2, "w")
        merged = WeightedCountEq([v, w, v], [1, 1, 2], 1, 3)
        assert merged.vars == (v, w) and merged.coefs == (3, 1)
        assert [sub[0] for sub in merged.watches()] == [v, w]
        assert_prunes_alike(m, merged, WeightedCountEq([v, w], [3, 1], 1, 3))

    def test_unit_repeat_counts_each_occurrence(self):
        m = Model()
        v = m.int_var(0, 2)
        s = DomainState(m)
        assert run(CountEq([v, v], 1, 2), s) == PROP_ENTAILED
        assert s.value(v) == 1


class TestAllDifferentExceptValue:
    def test_duplicate_fails(self):
        m = Model()
        a, b = m.int_var(0, 3), m.int_var(0, 3)
        s = DomainState(m)
        s.assign(a, 2)
        s.assign(b, 2)
        assert not run(AllDifferentExceptValue([a, b], None), s)

    def test_exception_value_may_repeat(self):
        m = Model()
        a, b = m.int_var(0, 3), m.int_var(0, 3)
        s = DomainState(m)
        s.assign(a, 3)
        s.assign(b, 3)
        assert run(AllDifferentExceptValue([a, b], 3), s)

    def test_assigned_value_removed_from_others(self):
        m = Model()
        a, b, c = (m.int_var(0, 3) for _ in range(3))
        s = DomainState(m)
        s.assign(a, 1)
        assert run(AllDifferentExceptValue([a, b, c], 3), s)
        assert 1 not in s.values(b) and 1 not in s.values(c)

    def test_needs_two_vars(self):
        m = Model()
        with pytest.raises(ValueError):
            AllDifferentExceptValue([m.int_var(0, 1)], None)

    def test_entailed_when_one_var_open_and_clean(self):
        m = Model()
        a, b = m.int_var(0, 3), m.int_var(0, 3)
        p = AllDifferentExceptValue([a, b], None)
        s = DomainState(m)
        s.assign(a, 1)
        assert run(p, s) == PROP_OK  # pruning call: removed 1 from b
        assert run(p, s) == PROP_ENTAILED  # clean call: one open var left


class TestNonDecreasing:
    def test_bounds_ripple(self):
        m = Model()
        a, b, c = m.int_var(0, 9), m.int_var(3, 5), m.int_var(0, 9)
        s = DomainState(m)
        assert run(NonDecreasing([a, b, c]), s)
        assert s.max_value(a) == 5  # a <= max(b)
        assert s.min_value(c) == 3  # c >= min(b)

    def test_conflict(self):
        m = Model()
        a, b = m.int_var(5, 9), m.int_var(0, 3)
        s = DomainState(m)
        assert not run(NonDecreasing([a, b]), s)

    def test_chain_transitive(self):
        m = Model()
        vs = [m.int_var(0, 9) for _ in range(4)]
        s = DomainState(m)
        s.assign(vs[0], 6)
        s.assign(vs[3], 7)
        assert run(NonDecreasing(vs), s)
        assert s.min_value(vs[1]) == 6 and s.max_value(vs[1]) == 7
        assert s.min_value(vs[2]) == 6 and s.max_value(vs[2]) == 7

    def test_entailed_when_bounds_separate(self):
        m = Model()
        a, b = m.int_var(0, 2), m.int_var(2, 5)
        s = DomainState(m)
        assert run(NonDecreasing([a, b]), s) == PROP_ENTAILED

    def test_overlapping_bounds_stay_active(self):
        m = Model()
        a, b = m.int_var(0, 5), m.int_var(0, 5)
        s = DomainState(m)
        assert run(NonDecreasing([a, b]), s) == PROP_OK


class TestTable:
    def test_filters_to_supports(self):
        m = Model()
        a, b = m.int_var(0, 2), m.int_var(0, 2)
        s = DomainState(m)
        t = Table([a, b], [(0, 1), (1, 2)])
        assert run(t, s)
        assert s.values(a) == [0, 1]
        assert s.values(b) == [1, 2]

    def test_no_support_fails(self):
        m = Model()
        a, b = m.int_var(0, 1), m.int_var(0, 1)
        s = DomainState(m)
        s.assign(a, 1)
        s.assign(b, 1)
        assert not run(Table([a, b], [(0, 0), (0, 1)]), s)

    def test_arity_checked(self):
        m = Model()
        with pytest.raises(ValueError):
            Table([m.int_var(0, 1)], [(0, 1)])

    def test_single_tuple_assigns_and_entails(self):
        m = Model()
        a, b = m.int_var(0, 2), m.int_var(0, 2)
        s = DomainState(m)
        assert run(Table([a, b], [(2, 1)]), s) == PROP_ENTAILED
        assert s.value(a) == 2 and s.value(b) == 1

    def test_incremental_validity_tracks_removals(self):
        m = Model()
        a, b = m.int_var(0, 2), m.int_var(0, 2)
        t = Table([a, b], [(0, 1), (1, 2), (2, 0)])
        s = DomainState(m)
        t.reset(s)
        assert t.propagate(s) == PROP_OK
        # engine contract: feed the delta, then re-propagate
        old = s.mask(a)
        s.remove_value(a, 0)
        t.on_event(s, a.index, old, s.mask(a))
        assert t.propagate(s) == PROP_OK
        assert s.values(b) == [0, 2]  # tuple (0,1) no longer supports b=1


class TestIncrementalCounters:
    """Delta-fed counters must always agree with a from-scratch reset."""

    def _drive(self, constraint, state, ops):
        """Apply (var, value) removals, feeding deltas like the engine:
        once per subscription, so a repeated variable is fed twice."""
        constraint.incremental = True  # force delta mode below the threshold
        constraint.reset(state)
        subs = [sub[0].index for sub in constraint.watches()]
        for var, value in ops:
            old = state.mask(var)
            if not state.remove_value(var, value):
                return False
            new = state.mask(var)
            if old != new:
                for _ in range(subs.count(var.index)):
                    constraint.on_event(state, var.index, old, new)
        return True

    @given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 1)), max_size=10))
    def test_exact_sum_counters_match_reset(self, ops):
        m = Model()
        vs = [m.bool_var() for _ in range(5)]
        row = vs + [vs[0]]  # a repeated boolean counts once per occurrence
        inc = ExactSumBool(row, 2)
        ref = ExactSumBool(row, 2)
        s = DomainState(m)
        if not self._drive(inc, s, [(vs[i], val) for i, val in ops]):
            return
        ref.reset(s)
        assert inc._c == ref._c

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
    def test_counteq_counters_match_reset(self, ops):
        m = Model()
        vs = [m.int_var(0, 3) for _ in range(4)]
        inc = CountEq(vs, 2, 2)
        ref = CountEq(vs, 2, 2)
        s = DomainState(m)
        if not self._drive(inc, s, [(vs[i], val) for i, val in ops]):
            return  # a removal wiped a domain; search would backtrack here
        ref.reset(s)
        assert inc._c == ref._c

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=8))
    def test_weighted_sum_counters_match_reset(self, ops):
        m = Model()
        vs = [m.bool_var() for _ in range(4)]
        inc = WeightedExactSumBool(vs, [1, 2, 3, 4], 5)
        ref = WeightedExactSumBool(vs, [1, 2, 3, 4], 5)
        s = DomainState(m)
        if not self._drive(inc, s, [(vs[i], val) for i, val in ops]):
            return
        ref.reset(s)
        assert inc._c == ref._c

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=8))
    def test_weighted_sum_repeated_counters_match_reset(self, ops):
        m = Model()
        vs = [m.bool_var() for _ in range(4)]
        row = vs + [vs[1], vs[1]]  # v1 three times: one entry, coefficient 2+4+1
        inc = WeightedExactSumBool(row, [1, 2, 3, 4, 4, 1], 9)
        ref = WeightedExactSumBool(vs, [1, 7, 3, 4], 9)
        s = DomainState(m)
        if not self._drive(inc, s, [(vs[i], val) for i, val in ops]):
            return
        ref.reset(s)
        assert inc._c == ref._c

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
    def test_weighted_count_repeated_counters_match_reset(self, ops):
        m = Model()
        vs = [m.int_var(0, 3) for _ in range(3)] + [m.int_var(3, 5)]
        row = [vs[2], vs[0], vs[3], vs[2], vs[1], vs[3]]  # v2 and v3 twice
        inc = WeightedCountEq(row, [1, 2, 3, 4, 2, 1], 2, 5)
        ref = WeightedCountEq(vs[:3], [2, 2, 5], 2, 5)
        s = DomainState(m)
        if not self._drive(inc, s, [(vs[i], val) for i, val in ops]):
            return
        ref.reset(s)
        assert inc._c == ref._c

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
    def test_weighted_count_counters_match_reset(self, ops):
        m = Model()
        vs = [m.int_var(0, 3) for _ in range(3)] + [m.int_var(3, 5)]
        # the last variable can never take the value: it is not watched
        inc = WeightedCountEq(vs, [1, 2, 3, 4], 2, 3)
        ref = WeightedCountEq(vs, [1, 2, 3, 4], 2, 3)
        s = DomainState(m)
        if not self._drive(inc, s, [(vs[i], val) for i, val in ops]):
            return
        ref.reset(s)
        assert inc._c == ref._c


def test_pruning_never_removes_solutions():
    """Propagator soundness: any full assignment satisfying the constraint
    survives one propagate() call from any sub-domain containing it."""
    m = Model()
    vs = [m.int_var(0, 2) for _ in range(3)]
    constraints = [
        CountEq(vs, 1, 2),
        AllDifferentExceptValue(vs, 2),
        NonDecreasing(vs),
        WeightedCountEq(vs, [2, 1, 1], 0, 2),
        Table(vs, [(0, 1, 2), (2, 2, 2), (1, 1, 0)]),
    ]
    for constraint in constraints:
        for full in itertools.product([0, 1, 2], repeat=3):
            values = dict(zip(vs, full))
            if not satisfies(constraint, values):
                continue
            s = DomainState(m)
            # restrict each var to {value, value+something} supersets
            for v, val in values.items():
                s.intersect_mask(v, (1 << (val - v.offset)) | s.mask(v))
            assert run(constraint, s), (constraint, full)
            for v, val in values.items():
                assert s.contains(v, val), (constraint, full, v.name)


def test_event_masks_classify_mutations():
    """The typed event log tags ASSIGN / BOUNDS / REMOVE correctly."""
    m = Model()
    x = m.int_var(0, 5, "x")
    s = DomainState(m)
    s.remove_value(x, 3)  # interior removal: REMOVE only
    s.remove_value(x, 5)  # upper bound moves: REMOVE|BOUNDS
    s.assign(x, 1)  # singleton: all three
    kinds = [e[3] for e in s.events]
    assert kinds[0] == EVT_REMOVE
    assert kinds[1] == EVT_REMOVE | EVT_BOUNDS
    assert kinds[2] == EVT_REMOVE | EVT_BOUNDS | EVT_ASSIGN


def test_propagate_verdict_constants_are_truthy_consistent():
    """Legacy bool returns and the tri-state verdicts must agree."""
    assert not PROP_FAIL
    assert PROP_OK and PROP_ENTAILED
    assert PROP_FAIL == False  # noqa: E712 - the legacy contract, spelled out
    assert PROP_OK == True  # noqa: E712
