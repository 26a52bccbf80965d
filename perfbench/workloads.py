"""Seeded inputs of the three workloads.

Every problem carries a node budget and an explicit solver seed, and
either no wall budget or one that never binds, so a run's verdicts and
search counters depend on its inputs alone, never on how fast the host
happens to be.

``engine`` and ``screen`` solve a fixed corpus of instances, drawn once
from :data:`CORPUS_SEED` with the paper's generator over a fixed grid of
sizes; the run's ``--seed`` draws the orders in which the corpus is
solved, a new one for every pass.  Their cost per item spans three
orders of magnitude (a fall-through search on a large hyperperiod takes
a second, a cascade certificate a millisecond), so drawing new
instances for every seed moved the screen p90 by 16% and its
throughput by 12% between seeds of one program, more than the changes
the benchmark has to catch.  With
one corpus every run does the same work and reaches the same verdicts.
A new order per pass matters for memory: ``screen``'s peak resident set
moved by about 12% with the one order a run used to solve in.

``serve`` draws its whole request stream from ``--seed``: its problems
are small and alike, so new problems per seed cost no steadiness.

Each list is one ``random.Random`` stream drawn in order, so a shorter
list is always a prefix of a longer one.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace

from repro.generator.random_systems import GeneratorConfig, generate_instance
from repro.solvers.problem import Problem

__all__ = [
    "DEFAULT_SEED",
    "Item",
    "Workload",
    "WORKLOADS",
    "build_items",
    "pass_order",
    "warmup_items",
    "digest",
]

#: the seed the checked-in ``serve`` reference verdicts were computed for
DEFAULT_SEED = 1
#: the seed the ``engine`` and ``screen`` corpora are drawn from
CORPUS_SEED = 2009

ENGINE_SOLVERS = ("csp1", "csp2-generic+dc")
ENGINE_NODES = 1000
SCREEN_SOLVER = "screen+csp2+dc"
SCREEN_NODES = 2000
#: screen instances with a longer hyperperiod are redrawn: each took over
#: a second, so a handful of them set the whole tail
SCREEN_MAX_HYPERPERIOD = 100_000
SERVE_SOLVER = "csp2+dc"
SERVE_NODES = 5000
#: the service caps wall budgets at 30 s; tiny problems never reach it
SERVE_WALL = 30.0
#: share of serve requests that repeat an earlier problem
SERVE_REPEAT = 0.25


@dataclass(frozen=True)
class Item:
    """One unit of work: a problem, the solver to answer it with, and
    bookkeeping the checks need."""

    index: int
    problem: Problem
    solver: str
    #: engine: the instance both cells share (their verdicts must agree)
    group: int | None = None
    #: serve: index of the earlier request this one repeats, else None
    repeat_of: int | None = None


@dataclass(frozen=True)
class Workload:
    """A named input list and how much of it each kind of run covers.

    ``size`` is the list length.  An untraced corpus run solves the list
    in whole passes for the measured seconds; ``serve`` never cycles (a
    second pass would be all cache hits), so its list is longer than a
    run can send.  The traced run covers the first ``traced`` items.
    """

    name: str
    size: int
    traced: int
    corpus: bool
    draw: Callable[[random.Random], Iterator[Item]]


def _stream(name: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{name}:{seed}")


def _engine_items(rng: random.Random) -> Iterator[Item]:
    """Two cells per instance, one per solver; ``n`` and ``Tmax`` cycle
    over the grid n 5-7, Tmax 5-7, and m ~ U(1..n-1) as in the paper."""
    for group in itertools.count():
        config = GeneratorConfig(n=5 + group % 3, tmax=5 + (group // 3) % 3, m="uniform")
        inst = generate_instance(config, rng.randrange(2**62))
        solver_seed = rng.randrange(2**31)
        for k, solver in enumerate(ENGINE_SOLVERS):
            index = group * len(ENGINE_SOLVERS) + k
            problem = Problem.of(
                inst.system, m=inst.m, node_limit=ENGINE_NODES, seed=solver_seed,
                label=f"engine-{index}",
            )
            yield Item(index=index, problem=problem, solver=solver, group=group)


def _screen_items(rng: random.Random) -> Iterator[Item]:
    """Table IV-style instances: n 8-12, Tmax 10-15, m = ceil(U), with
    the hyperperiod at most :data:`SCREEN_MAX_HYPERPERIOD`."""
    for index in itertools.count():
        config = GeneratorConfig(n=8 + index % 5, tmax=10 + (index // 5) % 6, m="min")
        while True:
            inst = generate_instance(config, rng.randrange(2**62))
            if inst.system.hyperperiod <= SCREEN_MAX_HYPERPERIOD:
                break
        problem = Problem.of(
            inst.system, m=inst.m, node_limit=SCREEN_NODES,
            seed=rng.randrange(2**31), label=f"screen-{index}",
        )
        yield Item(index=index, problem=problem, solver=SCREEN_SOLVER)


def _serve_problem(rng: random.Random, n: int, label: str) -> Problem:
    inst = generate_instance(GeneratorConfig(n=n, tmax=4, m=2), rng.randrange(2**62))
    return Problem.of(
        inst.system, m=2, node_limit=SERVE_NODES, time_limit=SERVE_WALL,
        seed=rng.randrange(2**31), label=label,
    )


def _serve_items(rng: random.Random) -> Iterator[Item]:
    """Distinct four-task problems, a quarter of the requests repeating
    an earlier one (drawn uniformly among those sent before)."""
    distinct: list[Item] = []
    seen: set[tuple] = set()
    for index in itertools.count():
        label = f"serve-{index}"
        if distinct and rng.random() < SERVE_REPEAT:
            first = distinct[rng.randrange(len(distinct))]
            problem = replace(first.problem, label=label)
            yield Item(index=index, problem=problem, solver=SERVE_SOLVER,
                       repeat_of=first.index)
            continue
        while True:
            # redraw accidental duplicates: only the planned repeats may
            # hit the daemon's memo
            problem = _serve_problem(rng, 4, label)
            tasks = tuple(t.as_tuple() for t in problem.system)
            if tasks not in seen:
                break
        seen.add(tasks)
        item = Item(index=index, problem=problem, solver=SERVE_SOLVER)
        distinct.append(item)
        yield item


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="engine",
            size=64,
            traced=64,
            corpus=True,
            draw=_engine_items,
        ),
        Workload(
            name="screen",
            size=60,
            traced=60,
            corpus=True,
            draw=_screen_items,
        ),
        Workload(
            name="serve",
            size=8000,
            traced=1500,
            corpus=False,
            draw=_serve_items,
        ),
    )
}


def build_items(name: str, seed: int, size: int | None = None) -> list[Item]:
    """A workload's items for ``seed``: the first ``size`` of the list
    (default: all of it), a corpus shuffled into the seed's order."""
    workload = WORKLOADS[name]
    count = workload.size if size is None else size
    if not workload.corpus:
        return list(itertools.islice(workload.draw(_stream(name, seed)), count))
    items = list(itertools.islice(workload.draw(_stream(name, CORPUS_SEED)), count))
    _stream(name + ":order", seed).shuffle(items)
    return items


def pass_order(items: list[Item], name: str, seed: int, k: int) -> list[Item]:
    """The items of pass ``k`` of a corpus run: pass 0 keeps the list's
    order, every later pass solves them in another order drawn from
    ``seed``, so one run averages over several orders."""
    if k == 0:
        return items
    out = list(items)
    _stream(f"{name}:order:{k}", seed).shuffle(out)
    return out


def warmup_items(name: str) -> list[Item]:
    """A few items from a separate fixed stream, run untimed before
    measuring.  They are the same for every seed, so every run's set-up
    does the same work.

    ``serve`` warm-up problems have five tasks, so they can never share
    a memo key with a measured four-task request.
    """
    rng = _stream(name + ":warmup", CORPUS_SEED)
    if name == "serve":
        return [
            Item(index=-1 - k, problem=_serve_problem(rng, 5, f"warmup-{k}"),
                 solver=SERVE_SOLVER)
            for k in range(3)
        ]
    return list(itertools.islice(WORKLOADS[name].draw(rng), 2))


def digest(items: list[Item]) -> str:
    """sha256 over every item's solver, repeat link and problem."""
    h = hashlib.sha256()
    for item in items:
        line = json.dumps(
            [item.solver, item.repeat_of, item.problem.to_dict()],
            sort_keys=True, separators=(",", ":"),
        )
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()
