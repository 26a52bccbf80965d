"""Kernel parity suite: each kernel must match its reference exactly.

Three kernels in :mod:`repro.kernels` still have a second
implementation to agree with, observation for observation:

* the block-stepping simulator vs the slot-by-slot simulator loop;
* the numpy demand tables vs their pure-Python references
  (``repro.kernels.demand._*_reference``), called directly;
* the batched counting rows vs the counting propagators' own
  ``on_event`` / ``reset`` bookkeeping, which the learning engine
  still runs.

"Byte-identical" is literal: same SimulationResult fields including the
extracted cyclic schedule, same cascade certificates witness-for-witness,
same engine status/nodes/fails on the pinned regression grid, same
counting-row aggregates.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import necessary
from repro.baselines import global_edf, global_fixed_priority
from repro.baselines.simulator import simulate_priority_policy
from repro.csp.propagators import (
    CountEq,
    ExactSumBool,
    WeightedCountEq,
    WeightedExactSumBool,
)
from repro.generator import GeneratorConfig, generate_instance
from repro.generator.named import running_example, running_example_platform
from repro.generator.random_systems import generate_system
from repro.kernels import demand as demand_kernel
from repro.model import Platform, TaskSystem
from repro.solvers.registry import create_solver

SEED = 2009


def _random_system(seed: int, n=None, tmax=None) -> TaskSystem:
    rng = random.Random(seed)
    n = n or rng.randint(2, 5)
    tmax = tmax or rng.choice([4, 5, 6, 8])
    return generate_system(rng, n, tmax)


def _sim_equal(a, b):
    assert a.schedulable == b.schedulable
    assert a.missed == b.missed
    assert a.cycles_simulated == b.cycles_simulated
    if a.schedule is None or b.schedule is None:
        assert a.schedule is None and b.schedule is None
    else:
        assert a.schedule.table.tolist() == b.schedule.table.tolist()


# ---------------------------------------------------------------------------
# simulator: block-stepping kernel vs the scalar slot-by-slot loop
# ---------------------------------------------------------------------------

class TestSimulatorParity:
    """``static_key`` routing must not change a single observation."""

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_edf_grid(self, seed, m):
        system = _random_system(seed)
        kernel = global_edf(system, m)
        scalar = simulate_priority_policy(
            system, m, priority=lambda i, rel, dl, rem: (dl, i)
        )
        _sim_equal(kernel, scalar)

    @pytest.mark.parametrize("seed", range(20))
    def test_fixed_priority_grid(self, seed):
        system = _random_system(seed)
        rng = random.Random(seed * 7 + 1)
        order = list(range(system.n))
        rng.shuffle(order)
        rank = [0] * system.n
        for pos, i in enumerate(order):
            rank[i] = pos
        m = rng.randint(1, 3)
        kernel = global_fixed_priority(system, m, order)
        scalar = simulate_priority_policy(
            system, m, priority=lambda i, rel, dl, rem: (rank[i], i)
        )
        _sim_equal(kernel, scalar)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        tuples=st.lists(
            st.tuples(
                st.integers(0, 3),   # offset
                st.integers(0, 3),   # wcet
                st.integers(1, 6),   # deadline (>= wcet enforced below)
                st.integers(1, 6),   # period  (>= deadline enforced below)
            ),
            min_size=1,
            max_size=4,
        ),
        m=st.integers(1, 3),
    )
    def test_edf_hypothesis(self, tuples, m):
        tasks = [
            (o, min(c, d), d, max(d, t)) for o, c, d, t in tuples
        ]
        system = TaskSystem.from_tuples(tasks)
        kernel = global_edf(system, m)
        scalar = simulate_priority_policy(
            system, m, priority=lambda i, rel, dl, rem: (dl, i)
        )
        _sim_equal(kernel, scalar)

    def test_running_example(self):
        system = running_example()
        _sim_equal(
            global_edf(system, 2),
            simulate_priority_policy(
                system, 2, priority=lambda i, rel, dl, rem: (dl, i)
            ),
        )


# ---------------------------------------------------------------------------
# demand kernels: numpy table vs pure-Python references
# ---------------------------------------------------------------------------

_DEMAND_REFERENCES = {
    "enclosed_excess_witness": demand_kernel._enclosed_excess_witness_reference,
    "interval_min_processors": demand_kernel._interval_min_processors_reference,
    "forced_demand_witness": demand_kernel._forced_demand_witness_reference,
}


class TestDemandParity:
    """Certificates (witnesses included) agree with the references."""

    def _certs(self, system, m):
        return [
            (c.verdict.value, c.test_name, c.witness, c.detail)
            for c in necessary.necessary_certificates(system, m)
        ]

    @pytest.mark.parametrize("seed", range(25))
    def test_certificate_grid(self, seed, monkeypatch):
        system = _random_system(seed)
        with_np = [self._certs(system, m) for m in (1, 2, 3)]
        bound_np = necessary.processor_lower_bound(system)
        wit_np = necessary.demand_over_capacity_witness(system, 2)
        for name, reference in _DEMAND_REFERENCES.items():
            monkeypatch.setattr(demand_kernel, name, reference)
        without = [self._certs(system, m) for m in (1, 2, 3)]
        assert with_np == without
        assert bound_np == necessary.processor_lower_bound(system)
        assert wit_np == necessary.demand_over_capacity_witness(system, 2)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 4)),
            max_size=8,
        ),
        m=st.integers(1, 3),
    )
    def test_excess_witness_paths_agree(self, spans, m):
        """The tie-break (np.argmax first occurrence) is pinned exactly."""
        T = 8
        spans = [(min(s, e), max(s, e), c) for s, e, c in spans]
        assert demand_kernel.enclosed_excess_witness(
            spans, T, m, 10_000
        ) == demand_kernel._enclosed_excess_witness_reference(
            spans, T, m, 10_000
        )
        assert demand_kernel.interval_min_processors(
            spans, T, 10_000
        ) == demand_kernel._interval_min_processors_reference(spans, T, 10_000)


# ---------------------------------------------------------------------------
# engine: batched counting rows vs the propagators' own hooks
# ---------------------------------------------------------------------------

ENGINE_SPECS = [None, (4, 4, 2, 11), (4, 4, 2, 12), (5, 4, 2, 23),
                (5, 5, 2, 31)]

#: the propagators whose rows the chronological engine batches
COUNTING = (ExactSumBool, WeightedExactSumBool, CountEq, WeightedCountEq)


def _instance(spec):
    if spec is None:
        return running_example(), running_example_platform()
    n, tmax, m, seed = spec
    inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
    return inst.system, Platform.identical(inst.m)


class TestEngineParity:
    """Inline batched rows and ``on_event`` hooks decide alike."""

    @pytest.mark.parametrize("solver_name", ["csp1", "csp2-generic",
                                             "csp2-generic+dc"])
    @pytest.mark.parametrize("spec", ENGINE_SPECS, ids=str)
    def test_vec_vs_scalar_counters(self, solver_name, spec, monkeypatch):
        system, plat = _instance(spec)

        def run():
            solver = create_solver(solver_name, system, plat, seed=SEED)
            out = solver.solve(node_limit=20_000)
            return out.status.value, out.stats.nodes, out.stats.fails

        batched = run()
        # without batch_row the engine wires every counting propagator
        # through its on_event hook, as the learning engine does
        for cls in COUNTING:
            monkeypatch.delattr(cls, "batch_row")
        assert run() == batched


# ---------------------------------------------------------------------------
# CountingKernel: reset sweep vs each propagator's own reset
# ---------------------------------------------------------------------------

class TestCountingKernelReset:
    def test_reset_matches_evaluate(self):
        """Kernel aggregates equal the ``_c`` counters every batched
        propagator computes for itself, on a partly assigned state."""
        from repro.csp.search import Solver
        from repro.csp.state import DomainState
        from repro.encodings.csp2 import encode_csp2

        system, plat = running_example(), running_example_platform()
        enc = encode_csp2(system, plat, True)
        kernel = Solver(enc.model)._kernel
        assert kernel is not None, "csp2 should batch counting rows"
        state = DomainState(enc.model)
        for var in enc.model.variables[::3]:
            state.assign(var, state.min_value(var))
        kernel.reset(state)
        after_reset = [list(row.c) for row in kernel.rows]
        assert after_reset == kernel.evaluate(state)
        own = []
        for row in kernel.rows:
            row.prop.reset(state)
            own.append(list(row.prop._c))
        assert after_reset == own
