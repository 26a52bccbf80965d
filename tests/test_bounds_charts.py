"""Tests for sufficient bounds (analysis.bounds)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import density_bound, gfb_utilization_bound
from repro.baselines import global_edf
from repro.model import Platform, Task, TaskSystem
from repro.solvers import create_solver


class TestGfbBound:
    def test_fires_on_light_system(self):
        s = TaskSystem.from_tuples([(0, 1, 4, 4), (0, 1, 4, 4)])
        v = gfb_utilization_bound(s, 2)
        assert v.schedulable and bool(v)

    def test_inconclusive_on_heavy(self):
        s = TaskSystem.from_tuples([(0, 3, 4, 4), (0, 3, 4, 4), (0, 3, 4, 4)])
        v = gfb_utilization_bound(s, 2)
        assert not v.schedulable
        assert ">" in v.detail

    def test_rejects_constrained(self):
        s = TaskSystem.from_tuples([(0, 1, 2, 4)])
        with pytest.raises(ValueError, match="implicit"):
            gfb_utilization_bound(s, 2)

    def test_rejects_bad_m(self):
        s = TaskSystem.from_tuples([(0, 1, 4, 4)])
        with pytest.raises(ValueError):
            gfb_utilization_bound(s, 0)

    def test_m1_reduces_to_u_le_1(self):
        s = TaskSystem.from_tuples([(0, 2, 4, 4), (0, 2, 4, 4)])
        assert gfb_utilization_bound(s, 1).schedulable  # U = 1 <= 1
        s2 = TaskSystem.from_tuples([(0, 3, 4, 4), (0, 2, 4, 4)])
        assert not gfb_utilization_bound(s2, 1).schedulable


class TestDensityBound:
    def test_fires_on_light(self):
        s = TaskSystem.from_tuples([(0, 1, 3, 4), (0, 1, 3, 4)])
        assert density_bound(s, 2).schedulable

    def test_rejects_arbitrary(self):
        s = TaskSystem.from_tuples([(0, 1, 5, 3)])
        with pytest.raises(ValueError, match="constrained"):
            density_bound(s, 2)

    def test_density_stricter_than_gfb(self):
        # on implicit-deadline systems the two coincide
        s = TaskSystem.from_tuples([(0, 1, 4, 4), (0, 2, 4, 4)])
        assert density_bound(s, 2).schedulable == gfb_utilization_bound(s, 2).schedulable


def small_implicit_systems():
    def build(params):
        return TaskSystem([Task(o % t, min(c, t), t, t) for o, t, c in params])

    return st.builds(
        build,
        st.lists(
            st.tuples(st.integers(0, 4), st.sampled_from([2, 3, 4, 6]), st.integers(1, 6)),
            min_size=1,
            max_size=4,
        ),
    )


@settings(deadline=None, max_examples=40)
@given(small_implicit_systems(), st.integers(1, 3))
def test_gfb_bound_is_sound(system, m):
    """GFB fires => global EDF really schedules it (exact simulation)."""
    v = gfb_utilization_bound(system, m)
    if v.schedulable:
        sim = global_edf(system, m)
        assert sim.schedulable is True, (system, m, v.detail)


def constrained_systems():
    def build(params):
        out = []
        for o, t, d, c in params:
            d = min(d, t)
            out.append(Task(o % t, min(c, d), d, t))
        return TaskSystem(out)

    return st.builds(
        build,
        st.lists(
            st.tuples(
                st.integers(0, 4),
                st.sampled_from([2, 3, 4, 6]),
                st.integers(1, 6),
                st.integers(1, 6),
            ),
            min_size=1,
            max_size=4,
        ),
    )


@settings(deadline=None, max_examples=40)
@given(constrained_systems(), st.integers(1, 3))
def test_density_bound_is_sound(system, m):
    """Density bound fires => G-EDF schedulable => CSP-feasible."""
    v = density_bound(system, m)
    if v.schedulable:
        sim = global_edf(system, m)
        assert sim.schedulable is True, (system, m, v.detail)
        exact = create_solver("csp2+dc", system, Platform.identical(m)).solve(
            time_limit=20
        )
        assert exact.is_feasible
