"""Unit tests for the CSP Model/Variable layer (repro.csp.core)."""

import pytest

from repro.csp import Model, Variable, propagators
from repro.csp.propagators import CountEq, NonDecreasing


class TestVariable:
    def test_contiguous_domain(self):
        m = Model()
        v = m.int_var(3, 6, "v")
        assert v.initial_values() == [3, 4, 5, 6]
        assert v.initial_size == 4
        assert v.offset == 3

    def test_sparse_domain(self):
        m = Model()
        v = m.int_var_from([7, 2, 5, 2])
        assert v.initial_values() == [2, 5, 7]
        assert v.initial_size == 3

    def test_bool_var(self):
        m = Model()
        b = m.bool_var("b")
        assert b.initial_values() == [0, 1]

    def test_constant(self):
        m = Model()
        c = m.constant(9)
        assert c.initial_values() == [9]

    def test_negative_values_supported(self):
        m = Model()
        v = m.int_var(-3, -1)
        assert v.initial_values() == [-3, -2, -1]
        assert v.offset == -3

    def test_empty_domains_rejected(self):
        m = Model()
        with pytest.raises(ValueError):
            m.int_var(5, 4)
        with pytest.raises(ValueError):
            m.int_var_from([])

    def test_auto_names_sequential(self):
        m = Model()
        a, b = m.int_var(0, 1), m.int_var(0, 1)
        assert a.name == "v0" and b.name == "v1"
        assert a.index == 0 and b.index == 1

    def test_repr(self):
        m = Model()
        v = m.int_var(0, 1, "x")
        assert "x" in repr(v) and "[0, 1]" in repr(v)

    def test_direct_empty_variable_rejected(self):
        with pytest.raises(ValueError):
            Variable(0, "bad", 0, 0)


class TestModel:
    def test_counts(self):
        m = Model()
        vs = [m.int_var(0, 2) for _ in range(3)]
        m.add_count_eq(vs, 1, 1)
        m.add_non_decreasing(vs)
        assert m.n_variables == 3
        assert m.n_constraints == 2
        assert "vars=3" in repr(m)

    def test_degrees(self):
        m = Model()
        a, b, c = (m.int_var(0, 2) for _ in range(3))
        m.add_non_decreasing([a, b])
        m.add_count_eq([a, b, c], 0, 1)
        assert m.degrees() == [2, 2, 1]

    def test_wrapper_methods_build_right_types(self):
        """Each wrapper posts its propagator class over exactly the
        variables it was given."""
        m = Model()
        vs = [m.int_var(0, 3) for _ in range(3)]
        bs = [m.bool_var() for _ in range(3)]
        m.add_at_most_one_true(bs)
        m.add_exact_sum_bool(bs, 1)
        m.add_weighted_exact_sum_bool(bs, [1, 2, 3], 3)
        m.add_count_eq(vs, 1, 1)
        m.add_weighted_count_eq(vs, [1, 1, 2], 2, 2)
        m.add_all_different_except(vs, 3)
        m.add_non_decreasing(vs)
        m.add_table(vs[:2], [(0, 1)])
        expected = [
            (propagators.AtMostOneTrue, bs),
            (propagators.ExactSumBool, bs),
            (propagators.WeightedExactSumBool, bs),
            (propagators.CountEq, vs),
            (propagators.WeightedCountEq, vs),
            (propagators.AllDifferentExceptValue, vs),
            (propagators.NonDecreasing, vs),
            (propagators.Table, vs[:2]),
        ]
        assert len(m.constraints) == len(expected)
        for c, (cls, over) in zip(m.constraints, expected):
            assert type(c) is cls
            assert list(c.vars) == over

    def test_constraint_repr_truncates(self):
        m = Model()
        vs = [m.int_var(0, 1, f"q{i}") for i in range(8)]
        r = repr(NonDecreasing(vs))
        assert "..8" in r

    def test_count_eq_validation(self):
        m = Model()
        with pytest.raises(ValueError):
            CountEq([], 0, 1)
        with pytest.raises(ValueError):
            CountEq([m.int_var(0, 1)], 0, -1)
