"""The compiled dispatch wiring against a reference builder.

:func:`repro.csp.wiring.compile_wiring` builds the engine's watcher
tables, tiers, degrees and reset hooks in one pass.  The reference
below builds the same structures the straightforward way — one raw
subscription list per variable, filtered per event class — so every
variable and event class must list the same subscriptions in the same
order (the dispatch order, and hence nodes, fails and propagations,
depend on it).  The chronological and the learning search bind the
same wiring.
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


def reference_wiring(model):
    """``(tiers, watchers)`` built directly: ``watchers[idx][event_class]``
    lists ``(pid, handler, relevance, dedup)``."""
    raw = [[] for _ in model.variables]
    tiers = []
    for pid, prop in enumerate(model.constraints):
        tier = min(2, max(0, getattr(prop, "priority", 1)))
        tiers.append(tier)
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
    return tiers, watchers


def assert_same_wiring(model):
    wiring = compile_wiring(model)
    tiers, watchers = reference_wiring(model)
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
    # tally-mode propagators and inherited no-op hooks are reset by nobody
    assert wiring.resets == [
        p.reset for p in model.constraints
        if getattr(p, "incremental", True)
        and getattr(type(p), "reset", Propagator.reset) is not Propagator.reset
    ]
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


def _built_engine(name, case, monkeypatch):
    """The one ``Solver`` the generic solver ``name`` builds on case ``case``."""
    system, platform = list(_systems())[case]
    built = []

    class Spy(Solver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(generic_engine, "Solver", Spy)
    create_solver(name, system, platform, seed=1).solve(node_limit=1)
    (engine,) = built
    return engine


@pytest.mark.parametrize("name", SOLVERS)
@pytest.mark.parametrize("case", range(6))
def test_solver_binds_the_compiled_wiring(name, case, monkeypatch):
    """The engine each generic solver builds is wired exactly like the
    reference, and binds the compiled tables as they are."""
    engine = _built_engine(name, case, monkeypatch)
    assert engine.learn == name.endswith("+learn")
    wiring = assert_same_wiring(engine.model)
    assert engine._watchers == wiring.watchers
    assert engine._tiers == wiring.tiers
    assert engine._resets == wiring.resets
    assert engine.ctx.degrees == wiring.degrees


@pytest.mark.parametrize("name", ["csp1", "csp2-generic", "csp2-generic+dc"])
@pytest.mark.parametrize("case", range(6))
def test_both_searches_bind_one_wiring(name, case, monkeypatch):
    """The chronological and the learning search over one model bind
    identical watcher, tier and reset tables: the counting rows run
    through their ``on_event`` hooks in both."""
    model = _built_engine(name, case, monkeypatch).model
    chrono = Solver(model)
    learning = Solver(model, learn=True)
    assert chrono._watchers == learning._watchers
    assert chrono._tiers == learning._tiers
    assert chrono._resets == learning._resets


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


@pytest.mark.parametrize("learn", [True, False])
def test_every_subscription_form(learn):
    """Default and custom watches, legacy pairs, bare objects, repeated
    variables in count rows and weighted rows, interleaved so each
    variable mixes event classes; the chronological and the learning
    search both bind the compiled tables."""
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
    wiring = assert_same_wiring(m)
    assert any(jump[1] and jump[3] is not jump[1] for jump in wiring.watchers)
    assert any(jump[3] and jump[7] is not jump[3] for jump in wiring.watchers)
    engine = Solver(m, learn=learn)
    assert engine._watchers == wiring.watchers
    assert engine._tiers == wiring.tiers
    assert engine._resets == wiring.resets
