"""Direct unit tests for the CSP search heuristics."""

import random

import pytest

from repro.csp import Model, Solver
from repro.csp.heuristics import (
    SearchContext,
    make_value_order_phase_saving,
    make_value_order_random,
    make_var_order_last_conflict,
    value_order_ascending,
    value_order_custom,
    value_order_descending,
    var_order_dom_deg,
    var_order_dom_wdeg,
    var_order_input,
    var_order_min_domain,
)
from repro.csp.state import DomainState
from repro.encodings.csp1 import encode_csp1
from repro.encodings.csp2 import encode_csp2
from repro.generator import GeneratorConfig, generate_instance
from repro.generator.named import running_example, running_example_platform
from repro.model.platform import Platform


@pytest.fixture
def setup():
    m = Model()
    a = m.int_var(0, 4, "a")          # size 5
    b = m.int_var(0, 1, "b")          # size 2
    c = m.int_var_from([1, 3, 9], "c")  # size 3
    m.add_non_decreasing([a, b])
    m.add_non_decreasing([a, c])
    ctx = SearchContext(degrees=m.degrees())
    return m, (a, b, c), ctx


class TestVarOrders:
    def test_input_order(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        assert var_order_input(s, ctx) is a
        s.assign(a, 0)
        assert var_order_input(s, ctx) is b

    def test_input_none_when_done(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        for v, val in ((a, 1), (b, 1), (c, 3)):
            s.assign(v, val)
        assert var_order_input(s, ctx) is None

    def test_min_domain(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        assert var_order_min_domain(s, ctx) is b  # size 2
        s.assign(b, 0)
        assert var_order_min_domain(s, ctx) is c  # size 3

    def test_min_domain_random_tiebreak_seeded(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        s.remove_value(c, 9)  # now b and c both size 2
        ctx.rng = random.Random(0)
        picks = {var_order_min_domain(s, ctx).name for _ in range(20)}
        assert picks == {"b", "c"}  # both get picked across draws

    def test_dom_deg(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        # a: 5/2 = 2.5, b: 2/1 = 2.0, c: 3/1 = 3.0 -> b
        assert var_order_dom_deg(s, ctx) is b
        s.assign(b, 1)
        # a: 2.5 vs c: 3.0 -> a
        assert var_order_dom_deg(s, ctx) is a

    def test_dom_deg_handles_degree_zero(self):
        m = Model()
        x = m.int_var(0, 1, "x")  # no constraints at all
        ctx = SearchContext(degrees=m.degrees())
        assert var_order_dom_deg(DomainState(m), ctx) is x


class TestAdaptiveOrders:
    def test_dom_wdeg_matches_dom_deg_before_conflicts(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        assert var_order_dom_wdeg(s, ctx) is var_order_dom_deg(s, ctx)
        assert ctx.weights is not None  # lazily initialized

    def test_dom_wdeg_prefers_conflict_heavy_vars(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        ctx.weights = [0.0] * m.n_variables
        ctx.weights[c.index] = 50.0  # c keeps conflicting
        assert var_order_dom_wdeg(s, ctx) is c

    def test_last_conflict_retries_culprit_first(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        order = make_var_order_last_conflict(var_order_min_domain)
        assert order(s, ctx) is b  # no conflicts yet: base order
        ctx.last_conflicts[:] = [c.index]
        assert order(s, ctx) is c
        s.assign(c, 3)  # culprit assigned: fall back to base
        assert order(s, ctx) is b

    def test_phase_saving_reorders_to_saved_value(self, setup):
        m, (a, b, c), _ = setup
        s = DomainState(m)
        phases = {}
        order = make_value_order_phase_saving(value_order_ascending, phases)
        assert order(s, c) == [1, 3, 9]  # nothing saved: base order
        phases[c.index] = 3
        assert order(s, c) == [3, 1, 9]
        s.remove_value(c, 3)  # saved value gone: base order again
        assert order(s, c) == [1, 9]


class TestValueOrders:
    def test_ascending_descending(self, setup):
        m, (a, b, c), _ = setup
        s = DomainState(m)
        assert value_order_ascending(s, c) == [1, 3, 9]
        assert value_order_descending(s, c) == [9, 3, 1]

    def test_random_covers_domain(self, setup):
        m, (a, b, c), _ = setup
        s = DomainState(m)
        order = make_value_order_random(random.Random(1))
        vals = order(s, c)
        assert sorted(vals) == [1, 3, 9]

    def test_custom_per_var(self, setup):
        m, (a, b, c), _ = setup
        s = DomainState(m)
        order = value_order_custom({c.index: [9, 1]})
        assert order(s, c) == [9, 1, 3]  # leftovers appended ascending
        assert order(s, a) == [0, 1, 2, 3, 4]  # unmapped var: ascending

    def test_custom_global(self, setup):
        m, (a, b, c), _ = setup
        s = DomainState(m)
        order = value_order_custom([3, 0])
        assert order(s, a) == [3, 0, 1, 2, 4]
        assert order(s, c) == [3, 1, 9]

    def test_custom_ignores_absent_values(self, setup):
        m, (a, b, c), _ = setup
        s = DomainState(m)
        s.remove_value(c, 9)
        order = value_order_custom([9, 3])
        assert order(s, c) == [3, 1]


# -- incremental min-domain order vs the full scan it replaced ---------------

def _reference_min_domain(state, ctx):
    """Full-scan min-domain order: one pass over every variable, ties in
    index order, one ``rng.choice`` when there is more than one tie."""
    best_size = 1 << 62
    ties = []
    for i, m in enumerate(state.masks):
        if not m & (m - 1):
            continue  # assigned
        s = m.bit_count()
        if s < best_size:
            best_size = s
            ties = [i]
        elif s == best_size:
            ties.append(i)
    if not ties:
        return None
    if ctx.rng is not None and len(ties) > 1:
        return state.model.variables[ctx.rng.choice(ties)]
    return state.model.variables[ties[0]]


def _checked_order(order, reference, counts):
    """Var order running ``order`` and asserting, at every node, that it
    picks what ``reference`` picks on a private copy of the rng and of
    the conflict history, and that both rngs end in the same state."""

    def check(state, ctx):
        ref_rng = None
        if ctx.rng is not None:
            ref_rng = random.Random()
            ref_rng.setstate(ctx.rng.getstate())
        ref_ctx = SearchContext(
            degrees=ctx.degrees,
            rng=ref_rng,
            last_conflicts=list(ctx.last_conflicts),
        )
        expected = reference(state, ref_ctx)
        got = order(state, ctx)
        assert got is expected
        if ref_rng is not None:
            assert ctx.rng.getstate() == ref_rng.getstate()
        binary = any(m.bit_count() == 2 for m in state.masks)
        counts["binary" if binary else "fallback"] += 1
        return got

    return check


def _parity_model(encoding, spec):
    if spec is None:
        system, platform = running_example(), running_example_platform()
    else:
        n, tmax, m, seed = spec
        inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
        system, platform = inst.system, Platform.identical(inst.m)
    encode = encode_csp1 if encoding == "csp1" else encode_csp2
    return encode(system, platform).model


class TestIncrementalMinDomainParity:
    """The binary-domain index must reproduce the full scan node for node:
    same variable, same rng draws, under every search that backtracks."""

    @pytest.mark.parametrize("seed", [None, 7])
    @pytest.mark.parametrize("spec", [None, (4, 4, 2, 11), (5, 5, 2, 31)])
    def test_csp1_chronological(self, spec, seed):
        counts = {"binary": 0, "fallback": 0}
        order = _checked_order(
            var_order_min_domain, _reference_min_domain, counts
        )
        model = _parity_model("csp1", spec)
        Solver(model, var_order=order, seed=seed).solve(node_limit=1500)
        assert counts["binary"] > 0

    @pytest.mark.parametrize("seed", [None, 3])
    def test_csp2_integer_domains_reach_fallback(self, seed):
        counts = {"binary": 0, "fallback": 0}
        order = _checked_order(
            var_order_min_domain, _reference_min_domain, counts
        )
        model = _parity_model("csp2", (5, 5, 2, 31))
        Solver(model, var_order=order, seed=seed).solve(node_limit=1500)
        assert counts["fallback"] > 0

    @pytest.mark.parametrize("last_conflict", [False, True])
    def test_learning_with_restarts(self, last_conflict):
        counts = {"binary": 0, "fallback": 0}
        order, reference = var_order_min_domain, _reference_min_domain
        if last_conflict:
            order = make_var_order_last_conflict(order)
            reference = make_var_order_last_conflict(reference)
        model = _parity_model("csp1", (4, 4, 2, 11))
        solver = Solver(
            model,
            var_order=_checked_order(order, reference, counts),
            seed=5,
            learn=True,
            restart_nodes=16,
        )
        out = solver.solve(node_limit=1500)
        assert out.stats.backjumps > 0
        assert out.stats.restarts > 0
        assert counts["binary"] > 0

    def test_last_conflict_chronological(self):
        counts = {"binary": 0, "fallback": 0}
        order = _checked_order(
            make_var_order_last_conflict(var_order_min_domain),
            make_var_order_last_conflict(_reference_min_domain),
            counts,
        )
        model = _parity_model("csp1", None)
        Solver(model, var_order=order, seed=11).solve(node_limit=1500)
        assert counts["binary"] > 0

    @pytest.mark.parametrize("seed", [None, 2])
    @pytest.mark.parametrize(
        "encoding,spec", [("csp1", (4, 4, 2, 12)), ("csp2", None)]
    )
    def test_solve_all_enumeration(self, encoding, spec, seed):
        counts = {"binary": 0, "fallback": 0}
        order = _checked_order(
            var_order_min_domain, _reference_min_domain, counts
        )
        model = _parity_model(encoding, spec)
        out = Solver(model, var_order=order, seed=seed).solve_all(
            node_limit=3000, max_solutions=40
        )
        assert len(out.solutions) > 1
        assert counts["binary"] + counts["fallback"] > len(out.solutions)

    def test_index_rebuilt_for_a_fresh_state(self, setup):
        m, (a, b, c), ctx = setup
        s1 = DomainState(m)
        assert var_order_min_domain(s1, ctx) is b
        index = ctx.binary
        s2 = DomainState(m)
        s2.assign(b, 0)
        assert var_order_min_domain(s2, ctx) is c
        assert ctx.binary is not index and ctx.binary.state is s2

    def test_index_follows_backtracking(self, setup):
        m, (a, b, c), ctx = setup
        s = DomainState(m)
        assert var_order_min_domain(s, ctx) is b
        s.push_level()
        s.assign(b, 1)
        s.remove_value(c, 9)  # c becomes binary
        assert var_order_min_domain(s, ctx) is c
        s.pop_level()
        s.push_level()
        s.remove_value(a, 0)  # same log length, different tuples
        s.remove_value(a, 1)
        assert var_order_min_domain(s, ctx) is b
        assert ctx.binary.ids == [b.index]
