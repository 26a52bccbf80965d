"""Tests for the necessary-condition certificates: the utilization
filter, the interval demand witness, and their soundness against the
exact solver."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    demand_over_capacity_witness,
    interval_load_certificate,
    necessary_certificates,
    prove_infeasible,
    utilization_certificate,
    wcet_slack_certificate,
)
from repro.model import Platform, Task, TaskSystem
from repro.solvers import create_solver

from tests.helpers import running_example


class TestUtilizationFilter:
    def test_running_example_passes_m2(self):
        assert not utilization_certificate(running_example(), 2).proves_infeasible

    def test_running_example_fails_m1(self):
        # U = 23/12 > 1
        assert utilization_certificate(running_example(), 1).proves_infeasible

    def test_boundary_exact_one(self):
        s = TaskSystem.from_tuples([(0, 1, 1, 1)])
        assert not utilization_certificate(s, 1).proves_infeasible


class TestDemandWitness:
    def test_clean_system_no_witness(self):
        assert demand_over_capacity_witness(running_example(), 2) is None

    def test_full_cycle_witness(self):
        s = TaskSystem.from_tuples([(0, 2, 2, 2), (0, 2, 2, 2)])
        w = demand_over_capacity_witness(s, 1)
        assert w is not None
        a, b, demand = w
        assert demand > (b - a + 1)

    def test_local_witness_with_global_slack(self):
        """U <= m but a short interval is over-demanded: the interval check
        catches what the utilization filter misses."""
        # two tasks with D=1 at the same slot on m=1: demand 2 in 1 slot,
        # but long periods keep U = 2/8 <= 1
        s = TaskSystem.from_tuples([(0, 1, 1, 8), (0, 1, 1, 8)])
        assert not utilization_certificate(s, 1).proves_infeasible
        w = demand_over_capacity_witness(s, 1)
        assert w is not None
        assert w[0] == 0 and w[1] == 0 and w[2] == 2

    def test_rejects_bad_m(self):
        with pytest.raises(ValueError):
            demand_over_capacity_witness(running_example(), 0)

    def test_zero_wcet_ignored(self):
        s = TaskSystem.from_tuples([(0, 0, 1, 1)])
        assert demand_over_capacity_witness(s, 1) is None


class TestNecessaryConditions:
    def test_all_pass_on_feasible(self):
        certs = necessary_certificates(running_example(), 2)
        assert not any(c.proves_infeasible for c in certs)
        assert {c.test_name for c in certs} == {
            "necessary:utilization", "necessary:wcet-slack",
            "necessary:all-jobs", "necessary:interval-load",
            "necessary:forced-demand",
        }

    def test_utilization_fail(self):
        cert = prove_infeasible(running_example(), 1)
        assert cert.test_name == "necessary:utilization"

    def test_cd_fail(self):
        s = TaskSystem.from_tuples([(0, 3, 2, 4)])
        cert = wcet_slack_certificate(s, 1)
        assert cert.proves_infeasible
        assert "C = 3 > D = 2" in cert.detail

    def test_str_format(self):
        assert str(utilization_certificate(running_example(), 1)).startswith(
            "[infeasible] necessary:utilization: U = 1.917 > m = 1"
        )
        assert str(interval_load_certificate(running_example(), 2)).startswith(
            "[abstain] necessary:interval-load"
        )


def small_systems():
    def build(params):
        tasks = []
        for o, t, d, c in params:
            d = min(d, t)
            tasks.append(Task(o % t, min(c, d), d, t))
        return TaskSystem(tasks)

    period = st.sampled_from([1, 2, 3, 4, 6])
    return st.builds(
        build,
        st.lists(
            st.tuples(st.integers(0, 5), period, st.integers(1, 6), st.integers(0, 4)),
            min_size=1,
            max_size=4,
        ),
    )


@settings(deadline=None, max_examples=40)
@given(small_systems(), st.integers(1, 3))
def test_necessary_conditions_are_necessary(system, m):
    """If any necessary test proves infeasibility, the exact solver must
    agree (soundness of the necessary conditions)."""
    cert = prove_infeasible(system, m)
    if cert is None:
        return
    r = create_solver("csp2+dc", system, Platform.identical(m)).solve(time_limit=20)
    assert not r.is_feasible, (system, m, str(cert))


@settings(deadline=None, max_examples=40)
@given(small_systems(), st.integers(1, 3))
def test_certificates_never_contradict_exact(system, m):
    """Certificate soundness both ways: an infeasibility certificate
    must match an exact INFEASIBLE, a feasibility certificate an exact
    FEASIBLE (the cascade may abstain, never lie)."""
    from repro.analysis import prove_feasible, prove_infeasible
    from repro.solvers import Feasibility

    infeasible_cert = prove_infeasible(system, m)
    feasible_cert = prove_feasible(system, m)
    if infeasible_cert is None and feasible_cert is None:
        return
    assert infeasible_cert is None or feasible_cert is None, (
        "contradictory certificates",
        str(infeasible_cert),
        str(feasible_cert),
    )
    r = create_solver("csp2+dc", system, Platform.identical(m)).solve(
        time_limit=20
    )
    assert r.status is not Feasibility.UNKNOWN
    if infeasible_cert is not None:
        assert r.status is Feasibility.INFEASIBLE, (
            system, m, str(infeasible_cert),
        )
    else:
        assert r.status is Feasibility.FEASIBLE, (
            system, m, str(feasible_cert),
        )
