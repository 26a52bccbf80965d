"""Cyclic-GC traffic of the dedicated csp2 search on a deep dive.

The search keeps flat per-depth stacks of int tuples and undoes a choice
by arithmetic, so what a long dive keeps alive is a few objects per
slot.  The young-generation collector runs once per ``threshold0`` net
container allocations, so young collections per node measure how much
the search retains per node; a search that kept a node object, a choice
generator and an undo list per depth needed about three times as many
(one young collection per ~29 nodes on this dive, against one per ~84).
"""

import gc

import pytest

from repro.generator import GeneratorConfig, generate_instance
from repro.model import Platform
from repro.solvers.csp2_dedicated import Csp2DedicatedSolver

#: generator seed of a feasible n=12, m=5 system (T = 27 720) whose
#: csp2+dc search dives to a schedule with one node per slot
SEED = 14
#: net container allocations per node the search may retain, as young
#: collections x ``threshold0`` / nodes (about 8 here, 24 for node
#: objects with generators and undo lists)
MAX_RETAINED_PER_NODE = 14
#: full collections over the whole solve (2 here, 6 with node objects)
MAX_FULL = 3


def test_deep_dive_keeps_the_gc_quiet():
    inst = generate_instance(GeneratorConfig(n=12, tmax=12, m="min"), SEED)
    solver = Csp2DedicatedSolver(
        inst.system, Platform.identical(inst.m), heuristic="dc"
    )
    collections = [0, 0, 0]

    def count(phase, info):
        if phase == "start":
            collections[info["generation"]] += 1

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(count)
    try:
        result = solver.solve(node_limit=40_000)
    finally:
        gc.callbacks.remove(count)
    nodes = result.stats.nodes
    assert result.status.value == "feasible"
    assert nodes >= 20_000
    young, _, full = collections
    assert young * gc.get_threshold()[0] <= MAX_RETAINED_PER_NODE * nodes, (
        f"{young} young collections in {nodes} nodes"
    )
    assert full <= MAX_FULL, f"{full} full collections"


def container_sizes(solver):
    """Length of every list, dict and set attribute of ``solver``."""
    return {
        name: len(value)
        for name, value in vars(solver).items()
        if isinstance(value, (list, dict, set))
    }


@pytest.mark.parametrize("kind", ["identical", "general"])
def test_a_deep_solve_grows_no_solver_container(kind):
    """The search tables nothing per slot: a 5 000-node dive leaves every
    container the solver holds as long as it was, so what a solve keeps
    beyond its per-depth stacks is O(n)."""
    inst = generate_instance(GeneratorConfig(n=12, tmax=12, m="min"), SEED)
    if kind == "identical":
        platform = Platform.identical(inst.m)
    else:  # unit rates on the per-processor search
        platform = Platform.heterogeneous([[1] * inst.m] * inst.system.n)
    solver = Csp2DedicatedSolver(inst.system, platform, heuristic="dc")
    before = container_sizes(solver)
    result = solver.solve(node_limit=5_000)
    assert result.stats.nodes >= 5_000
    assert container_sizes(solver) == before
