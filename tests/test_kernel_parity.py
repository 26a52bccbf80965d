"""Kernel parity suite: each kernel must match its reference exactly.

Both kernels in :mod:`repro.kernels` have a second implementation to
agree with, observation for observation:

* the block-stepping simulator vs the slot-by-slot simulator loop, and
  either run for its verdict alone vs the full run;
* the numpy demand tables vs their pure-Python references
  (``repro.kernels.demand._*_reference``), called directly.

"Byte-identical" is literal: same SimulationResult fields including the
extracted cyclic schedule, same cascade certificates witness-for-witness.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import necessary
from repro.baselines import global_edf, global_fixed_priority
from repro.baselines.simulator import simulate_priority_policy
from repro.generator.named import running_example
from repro.generator.random_systems import generate_system
from repro.kernels import demand as demand_kernel
from repro.model import TaskSystem


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

    @pytest.mark.parametrize("seed", range(40))
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_verdict_only_edf_grid(self, seed, m):
        """Without a schedule to keep (the partitioned bin test), both
        loops reach the full run's verdict, miss and cycle count."""
        system = _random_system(seed)
        full = global_edf(system, m)
        runs = [
            global_edf(system, m, keep_schedule=False),
            simulate_priority_policy(
                system, m, priority=lambda i, rel, dl, rem: (dl, i),
                keep_schedule=False,
            ),
        ]
        for run in runs:
            assert (run.schedulable, run.missed, run.cycles_simulated) == (
                full.schedulable, full.missed, full.cycles_simulated
            )
            assert run.schedule is None

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
    "first_excess_pair": demand_kernel._first_excess_pair_reference,
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

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        T=st.integers(1, 60),
        raw=st.lists(
            st.tuples(st.integers(0, 59), st.integers(0, 59),
                      st.integers(1, 5)),
            max_size=20,
        ),
        m=st.integers(1, 4),
    )
    def test_rolling_sweeps_match_references(self, T, raw, m):
        """Every sweep equals its every-slot-pair reference, T <= 60,
        in one block, in blocks of a few rows and in one row per block."""
        spans = [(min(s, e) % T, max(s, e) % T, c) for s, e, c in raw]
        spans = [(s, e, c) for s, e, c in spans if s <= e]
        for block, (kernel, reference, args) in itertools.product(
            (1, 40, demand_kernel._BLOCK_CELLS), [
            ("enclosed_excess_witness", "_enclosed_excess_witness_reference",
             (spans, T, m, 10_000)),
            ("interval_min_processors", "_interval_min_processors_reference",
             (spans, T, 10_000)),
            ("first_excess_pair", "_first_excess_pair_reference",
             (spans, m)),
        ]):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(demand_kernel, "_BLOCK_CELLS", block)
                got = getattr(demand_kernel, kernel)(*args)
            assert got == getattr(demand_kernel, reference)(*args), kernel

    @pytest.mark.parametrize("block", [1, 4, 1 << 16])
    def test_blocks_carry_the_later_windows(self, block, monkeypatch):
        """Nested windows: each row's demand includes every window that
        starts later, whichever block that start fell in."""
        monkeypatch.setattr(demand_kernel, "_BLOCK_CELLS", block)
        spans = [(a, 9, 5) for a in range(6)]
        assert demand_kernel.enclosed_excess_witness(
            spans, 10, 2, 10_000
        ) == ((0, 9, 30), True)
        assert demand_kernel.interval_min_processors(spans, 10, 10_000) == 3
        assert demand_kernel.first_excess_pair(spans, 2) == (0, 9, 30)

    @pytest.mark.parametrize("spans,m,witness", [
        # equal excess 1 in rows 3 and 7: the smaller start wins
        ([(3, 3, 2), (7, 7, 2)], 1, (3, 3, 2)),
        # equal excess 1 at (2, 2) and (2, 4) in one row: the smaller end
        ([(2, 2, 2), (2, 4, 2)], 1, (2, 2, 2)),
        # the later row holds the strict maximum: it wins over row 0
        ([(0, 0, 2), (5, 6, 5)], 1, (5, 6, 5)),
        # excess 0 everywhere at best: no witness
        ([(1, 2, 2), (4, 4, 1)], 1, None),
    ])
    @pytest.mark.parametrize("block", [1, 4, 1 << 16])
    def test_ties_keep_the_row_major_first(
        self, spans, m, witness, block, monkeypatch
    ):
        """Within a block and across blocks (one row each, or a few)."""
        monkeypatch.setattr(demand_kernel, "_BLOCK_CELLS", block)
        T = 10
        got = demand_kernel.enclosed_excess_witness(spans, T, m, 10_000)
        assert got == (witness, True)
        assert got == demand_kernel._enclosed_excess_witness_reference(
            spans, T, m, 10_000
        )
