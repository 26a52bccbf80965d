"""The compiled dispatch wiring against a reference builder.

:func:`repro.csp.wiring.compile_wiring` builds the engine's watcher
tables, tiers, degrees and counting-kernel tables in one pass.  The
reference below builds the same structures the straightforward way —
one raw subscription list per variable, filtered per event class, and
each kernel row's cells merged per variable — so every variable and
event class must list the same subscriptions in the same order (the
dispatch order, and hence nodes, fails and propagations, depend on it),
and every kernel bucket the same entries.
"""

import pytest

from repro.csp import Model
from repro.csp.propagators import (
    CountEq,
    ExactSumBool,
    NonDecreasing,
    Propagator,
    Table,
    WeightedCountEq,
)
from repro.csp.search import Solver
from repro.csp.state import EVT_ANY, EVT_BOUNDS, EVT_REMOVE
from repro.csp.wiring import compile_wiring
from repro.generator import GeneratorConfig, generate_instance
from repro.generator.named import running_example
from repro.model import Platform
from repro.solvers import generic_engine
from repro.solvers.registry import create_solver

#: the event classes an event mask can be
EVENT_CLASSES = (1, 3, 7)
_TRUE = 0b10


def reference_wiring(model, batching):
    """``(tiers, watchers, table, bitmask, batched)`` built directly:
    ``watchers[idx][event_class]`` lists ``(pid, handler, relevance,
    dedup)``, ``table[idx][bit]`` lists ``(pid, total, coef, w3, cmax)``."""
    raw = [[] for _ in model.variables]
    tiers = []
    rows = []
    for pid, prop in enumerate(model.constraints):
        tier = min(2, max(0, getattr(prop, "priority", 1)))
        tiers.append(tier)
        if batching and tier == 0 and hasattr(prop, "batch_row"):
            rows.append((pid, prop.batch_row()))
            continue
        handler = getattr(prop, "on_event", None)
        if handler is not None and not getattr(prop, "incremental", True):
            handler = None
        dedup = handler is not None and getattr(prop, "stateless_filter", False)
        watches = getattr(prop, "watches", None)
        subs = (
            watches() if watches is not None
            else [(v, EVT_ANY, None) for v in prop.vars]
        )
        for sub in subs:
            var, wake_mask, relevance = sub if len(sub) == 3 else (*sub, None)
            raw[var.index].append((pid, wake_mask, handler, relevance, dedup))
    watchers = [
        {
            ec: [(pid, h, rel, dd) for pid, wm, h, rel, dd in subs if wm & ec]
            for ec in EVENT_CLASSES
        }
        for subs in raw
    ]
    table = [{} for _ in model.variables]
    for pid, (kind, slots, cells, total, cmax) in rows:
        merged = {}
        bit_of = {}
        for vi, bit, coef in cells:
            merged[vi] = merged.get(vi, 0) + coef
            bit_of[vi] = bit
        for vi, coef in merged.items():
            bit = bit_of[vi] if kind == "count" else _TRUE
            table[vi].setdefault(bit, []).append(
                (pid, total, coef, slots == 3, cmax)
            )
    bitmask = []
    for buckets in table:
        mask = 0
        for bit in buckets:
            mask |= bit
        bitmask.append(mask)
    return tiers, watchers, table, bitmask, [pid for pid, _ in rows]


def assert_same_wiring(model, batching):
    wiring = compile_wiring(model, batching)
    tiers, watchers, table, bitmask, batched = reference_wiring(model, batching)
    assert wiring.props == model.constraints
    assert wiring.tiers == tiers
    assert wiring.degrees == model.degrees()
    assert wiring.fns == [p.propagate for p in model.constraints]
    for idx, jump in enumerate(wiring.watchers):
        assert len(jump) == 8
        for ec in range(8):
            want = watchers[idx][ec] if ec in EVENT_CLASSES else []
            assert list(jump[ec]) == want, (idx, ec)
        # nested classes holding the same entries share one tuple
        if len(jump[1]) == len(jump[3]):
            assert jump[1] is jump[3]
        if len(jump[3]) == len(jump[7]):
            assert jump[3] is jump[7]
    kernel = wiring.kernel
    if not batched:
        assert kernel is None
        assert all(t is None for t in wiring.ktab)
        assert not any(wiring.kmask)
        return wiring
    assert [row.pid for row in kernel.rows] == batched
    row_of = {row.pid: row for row in kernel.rows}
    assert wiring.kmask == bitmask
    for idx, buckets in enumerate(wiring.ktab):
        got = {
            bit: [(pid, total, coef, w3, cmax)
                  for pid, _c, _st, total, coef, w3, cmax in entries]
            for bit, entries in (buckets or {}).items()
        }
        assert got == table[idx], idx
        for entries in (buckets or {}).values():
            for pid, c, st, *_ in entries:
                assert c is row_of[pid].c and st is row_of[pid].st
    # batched rows are reset by the kernel, tally-mode ones by nobody
    resets = [r.__self__ for r in wiring.resets]
    assert not {id(p) for p in resets} & {id(row.prop) for row in kernel.rows}
    return wiring


def _systems():
    yield running_example(), Platform.identical(2)
    for n, tmax, m, seed in [(4, 4, 2, 11), (5, 5, 2, 31), (6, 6, 3, 7)]:
        inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
        yield inst.system, Platform.identical(inst.m)
    inst = generate_instance(GeneratorConfig(n=5, tmax=4, m=3), 8)
    yield inst.system, Platform.uniform([2, 1, 1])
    rates = [[(i + j) % 3 or 1 for j in range(3)] for i in range(inst.system.n)]
    rates[0][1] = 0
    yield inst.system, Platform.heterogeneous(rates)


SOLVERS = ["csp1", "csp1+learn", "csp2-generic", "csp2-generic+dc",
           "csp2-generic+learn"]


@pytest.mark.parametrize("name", SOLVERS)
@pytest.mark.parametrize("case", range(6))
def test_solver_binds_the_compiled_wiring(name, case, monkeypatch):
    """The engine each generic solver builds is wired exactly like the
    reference, and binds the compiled tables as they are."""
    system, platform = list(_systems())[case]
    built = []

    class Spy(Solver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(generic_engine, "Solver", Spy)
    solver = create_solver(name, system, platform, seed=1)
    solver.solve(node_limit=1)
    (engine,) = built
    assert engine.learn == name.endswith("+learn")
    wiring = assert_same_wiring(engine.model, batching=not engine.learn)
    assert engine._watchers == wiring.watchers
    assert engine._tiers == wiring.tiers
    assert engine.ctx.degrees == wiring.degrees
    if engine.learn:
        assert engine._kernel is None  # the learning search wires no kernel
    else:
        assert engine._kernel is not None
        assert engine._kmask == wiring.kmask


class _Legacy(Propagator):
    """Subscribes with legacy ``(var, wake_mask)`` pairs, one per mask."""

    __slots__ = ()

    def __init__(self, vars):
        self.vars = tuple(vars)

    def watches(self):
        masks = (EVT_REMOVE, EVT_BOUNDS, 0, EVT_ANY)
        return [(v, masks[k % 4]) for k, v in enumerate(self.vars)]

    def propagate(self, state):
        return True


class _Bare:
    """Not a Propagator: no watches, no priority (tier 1, EVT_ANY)."""

    def __init__(self, vars):
        self.vars = tuple(vars)

    def propagate(self, state):
        return True


@pytest.mark.parametrize("batching", [True, False])
def test_every_subscription_form(batching):
    """Default and custom watches, legacy pairs, bare objects, repeated
    variables in count rows and weighted rows, interleaved so each
    variable mixes event classes."""
    m = Model()
    xs = [m.int_var(0, 3, f"x{k}") for k in range(6)]
    bs = [m.bool_var(f"b{k}") for k in range(4)]
    m.add_count_eq([xs[0], xs[1], xs[0], xs[2]], 1, 2)  # x0 twice: coef 2
    m.add(NonDecreasing(xs[:3]))
    m.add(Table([xs[1], xs[3]], [(0, 1), (1, 2), (2, 3)]))
    m.add(_Legacy(xs))
    m.add(_Bare(xs[2:5]))
    m.add(WeightedCountEq(xs[3:], [2, 1, 3], 2, 3))
    m.add(ExactSumBool([bs[0], bs[1], bs[0]], 1))  # b0 twice
    m.add_weighted_exact_sum_bool(bs, [1, 2, 1, 3], 4)
    m.add_at_most_one_true(bs[1:])
    m.add_all_different_except(xs[3:], except_value=0)
    m.add(CountEq(xs[4:], 3, 1))
    wiring = assert_same_wiring(m, batching)
    assert any(jump[1] and jump[3] is not jump[1] for jump in wiring.watchers)
    assert any(jump[3] and jump[7] is not jump[3] for jump in wiring.watchers)
    if batching:
        # the repeated occurrences merged into one entry each
        assert [e[4] for e in wiring.ktab[xs[0].index][1 << 1]] == [2]
        assert [e[4] for e in wiring.ktab[bs[0].index][_TRUE]] == [2, 1]
