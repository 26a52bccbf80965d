"""Deterministic regression pins for the dedicated CSP2 search and the
screening cascade's interval arguments.

Two grids, both captured from the implementation that stepped every
task's window with per-slot modular arithmetic and built the analysis
spans in per-job Python loops:

* ``EXPECTED_SEARCH`` — ``(status, nodes, fails, max_depth)`` of
  :class:`~repro.solvers.csp2_dedicated.Csp2DedicatedSolver` for every
  value order (``csp2`` / ``csp2+dc`` / ``csp2+rm``) x option set
  (defaults, each pruning or rule switched off, energetic pruning on) x
  platform kind (identical, uniform, heterogeneous).  The instances
  include windows that wrap past the hyperperiod (``phase + D > T_i``).
  Re-captured when the search gained its failed-state memo: exactly the
  cells where the memo refuses a state moved (a status only from
  ``unknown`` to decided), and every other cell held.  Re-captured
  again when the identical-platform search began counting a slot that
  requires more tasks than processors as a fail: 33 identical cells
  moved, in ``fails`` only.
* ``EXPECTED_CERTIFICATES`` — ``(test, verdict, witness, detail)`` of
  every certificate the full cascade and the five necessary tests
  produce, on a grid that reaches both interval-load strategies (the
  all-pairs table and the candidate-pair fallback past
  ``MAX_TABLE_CELLS``) and both forced-demand outcomes (a witness, and
  an abstention on the ``MAX_FORCED_PAIRS`` budget).  Re-captured when
  the all-jobs cut joined the necessary tests (one new row per list;
  ``gen-4-4-min-2``'s cascade is now decided by the cut, 35 > 34, where
  forced demand decided it before) and the partition witness gained
  ``sim_work`` and ``bins_simulated`` (no assignment or ``bins_tried``
  moved).

A change that moves any of these on purpose must re-capture the values
and say so; a silent diff means the search or a certificate changed.
"""

import random

import pytest

from repro.analysis import necessary
from repro.analysis.cascade import run_cascade
from repro.generator import GeneratorConfig, generate_instance
from repro.generator.named import running_example
from repro.model import Platform, TaskSystem
from repro.solvers.csp2_dedicated import Csp2DedicatedSolver

NODE_LIMIT = 5_000

SOLVERS = {"csp2": None, "csp2+dc": "dc", "csp2+rm": "rm"}

#: option-set name -> constructor options
OPTIONS = {
    "default": {},
    "no-demand": {"demand_pruning": False},
    "no-symmetry": {"symmetry_breaking": False},
    "no-idle": {"idle_rule": False},
    "energetic": {"energetic_pruning": True},
}

#: instance grid per platform kind: None = the paper's running example
#: (its second task wraps), else generator ``(n, tmax, m, seed)``
SEARCH_SPECS = {
    "identical": [None, (4, 4, 2, 11), (5, 4, 2, 23), (5, 5, 2, 31),
                  (6, 6, 3, 7), (8, 8, "min", 1), (10, 10, "min", 3)],
    "uniform": [None, (4, 4, 2, 12), (6, 5, 3, 2), (7, 6, 3, 3)],
    "heterogeneous": [(4, 4, 2, 5), (5, 4, 2, 8), (6, 5, 3, 5),
                      (7, 6, 3, 6)],
}


def _system(spec) -> tuple[TaskSystem, int]:
    if spec is None:
        return running_example(), 2
    n, tmax, m, seed = spec
    inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
    return inst.system, inst.m


def _platform(kind: str, spec, n: int, m: int) -> Platform:
    if kind == "identical":
        return Platform.identical(m)
    if kind == "uniform":
        return Platform.uniform([2] + [1] * (m - 1))
    rng = random.Random(repr(spec))
    rates = []
    for _ in range(n):
        row = [rng.choice((0, 1, 1, 2)) for _ in range(m)]
        if not any(row):
            row[rng.randrange(m)] = 1
        rates.append(row)
    return Platform.heterogeneous(rates)


def search_cells():
    """Every ``(solver, option set, platform kind, spec)`` cell."""
    return [
        (solver, opt, kind, spec)
        for kind, specs in SEARCH_SPECS.items()
        for spec in specs
        for solver in SOLVERS
        for opt in OPTIONS
    ]


def search_counters(solver, opt, kind, spec):
    """``(status, nodes, fails, max_depth)`` of one cell."""
    system, m = _system(spec)
    platform = _platform(kind, spec, system.n, m)
    result = Csp2DedicatedSolver(
        system, platform, heuristic=SOLVERS[solver], **OPTIONS[opt]
    ).solve(node_limit=NODE_LIMIT)
    s = result.stats
    return (result.status.value, s.nodes, s.fails, s.max_depth)


#: name -> ((O, C, D, T) tuples, m): hand-built systems reaching the
#: branches generated instances rarely hit — a hyperperiod of 2100, past
#: the interval table, with few enough windows for the pair fallback
#: (with and without an over-demanded interval, and with a wrapped
#: window), and one of 46189 slots past both interval-load budgets
HANDMADE = {
    "pairs-witness": ([(0, 2, 2, 2100), (0, 2, 2, 2100), (5, 3, 7, 300)], 1),
    "pairs-clear": ([(0, 2, 4, 2100), (3, 1, 5, 700), (0, 2, 9, 420)], 1),
    "pairs-wrap": ([(2099, 2, 3, 2100), (1, 1, 2, 300), (0, 1, 1, 2100)], 1),
    "pairs-over-budget": ([(0, 1, 3, 11), (0, 1, 4, 13), (1, 1, 5, 17),
                           (2, 1, 2, 19)], 1),
}

#: name -> generator ``(n, tmax, m, seed)``: small hyperperiods decide in
#: the table, forced demand finds witnesses (the m = 1 rows among them)
#: or abstains on its pair budget (hyperperiods in the hundreds)
GENERATED = {
    f"gen-{n}-{tmax}-{m}-{seed}": (n, tmax, m, seed)
    for n, tmax, m, seed in [
        (4, 4, "min", 2), (5, 5, "min", 0), (6, 8, 1, 3), (6, 8, 1, 7),
        (6, 8, "min", 0), (8, 10, "min", 2), (8, 12, "min", 6),
        (6, 8, "min", 9), (4, 4, 2, 11),
    ]
}


def cert_cases():
    """Every certificate-grid case name."""
    return sorted(HANDMADE) + sorted(GENERATED)


def _cert_instance(case) -> tuple[TaskSystem, int]:
    if case in HANDMADE:
        tuples, m = HANDMADE[case]
        return TaskSystem.from_tuples(tuples), m
    n, tmax, m, seed = GENERATED[case]
    inst = generate_instance(GeneratorConfig(n=n, tmax=tmax, m=m), seed)
    return inst.system, inst.m


def _cert_rows(certs):
    return [
        (c.test_name, c.verdict.value, c.witness, c.detail) for c in certs
    ]


def certificate_record(case):
    """The cascade's certificates, the five necessary certificates, the
    processor lower bound and the enclosed-demand witness of one case."""
    system, m = _cert_instance(case)
    return {
        "cascade": _cert_rows(run_cascade(system, m).certificates),
        "necessary": _cert_rows(necessary.necessary_certificates(system, m)),
        "lower_bound": necessary.processor_lower_bound(system),
        "witness": necessary.demand_over_capacity_witness(system, m),
    }


#: cell -> (status, nodes, fails, max_depth)
EXPECTED_SEARCH = {
    ('csp2', 'default', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2', 'no-demand', 'identical', None): ('feasible', 15, 3, 12),
    ('csp2', 'no-symmetry', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2', 'no-idle', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2', 'energetic', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2+dc', 'default', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2+dc', 'no-demand', 'identical', None): ('feasible', 13, 1, 12),
    ('csp2+dc', 'no-symmetry', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2+dc', 'no-idle', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2+dc', 'energetic', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2+rm', 'default', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2+rm', 'no-demand', 'identical', None): ('feasible', 13, 1, 12),
    ('csp2+rm', 'no-symmetry', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2+rm', 'no-idle', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2+rm', 'energetic', 'identical', None): ('feasible', 12, 0, 12),
    ('csp2', 'default', 'identical', (4, 4, 2, 11)): ('infeasible', 3, 1, 3),
    ('csp2', 'no-demand', 'identical', (4, 4, 2, 11)): ('infeasible', 4, 1, 4),
    ('csp2', 'no-symmetry', 'identical', (4, 4, 2, 11)): ('infeasible', 6, 4, 3),
    ('csp2', 'no-idle', 'identical', (4, 4, 2, 11)): ('infeasible', 3, 1, 3),
    ('csp2', 'energetic', 'identical', (4, 4, 2, 11)): ('infeasible', 0, 0, 0),
    ('csp2+dc', 'default', 'identical', (4, 4, 2, 11)): ('infeasible', 3, 1, 3),
    ('csp2+dc', 'no-demand', 'identical', (4, 4, 2, 11)): ('infeasible', 4, 1, 4),
    ('csp2+dc', 'no-symmetry', 'identical', (4, 4, 2, 11)): ('infeasible', 6, 4, 3),
    ('csp2+dc', 'no-idle', 'identical', (4, 4, 2, 11)): ('infeasible', 3, 1, 3),
    ('csp2+dc', 'energetic', 'identical', (4, 4, 2, 11)): ('infeasible', 0, 0, 0),
    ('csp2+rm', 'default', 'identical', (4, 4, 2, 11)): ('infeasible', 3, 1, 3),
    ('csp2+rm', 'no-demand', 'identical', (4, 4, 2, 11)): ('infeasible', 4, 1, 4),
    ('csp2+rm', 'no-symmetry', 'identical', (4, 4, 2, 11)): ('infeasible', 6, 4, 3),
    ('csp2+rm', 'no-idle', 'identical', (4, 4, 2, 11)): ('infeasible', 3, 1, 3),
    ('csp2+rm', 'energetic', 'identical', (4, 4, 2, 11)): ('infeasible', 0, 0, 0),
    ('csp2', 'default', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2', 'no-demand', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2', 'no-symmetry', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2', 'no-idle', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2', 'energetic', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+dc', 'default', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+dc', 'no-demand', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+dc', 'no-symmetry', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+dc', 'no-idle', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+dc', 'energetic', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+rm', 'default', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+rm', 'no-demand', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+rm', 'no-symmetry', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+rm', 'no-idle', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2+rm', 'energetic', 'identical', (5, 4, 2, 23)): ('feasible', 12, 0, 12),
    ('csp2', 'default', 'identical', (5, 5, 2, 31)): ('infeasible', 2, 1, 2),
    ('csp2', 'no-demand', 'identical', (5, 5, 2, 31)): ('infeasible', 7, 3, 5),
    ('csp2', 'no-symmetry', 'identical', (5, 5, 2, 31)): ('infeasible', 4, 3, 2),
    ('csp2', 'no-idle', 'identical', (5, 5, 2, 31)): ('infeasible', 2, 1, 2),
    ('csp2', 'energetic', 'identical', (5, 5, 2, 31)): ('infeasible', 0, 0, 0),
    ('csp2+dc', 'default', 'identical', (5, 5, 2, 31)): ('infeasible', 2, 1, 2),
    ('csp2+dc', 'no-demand', 'identical', (5, 5, 2, 31)): ('infeasible', 7, 3, 5),
    ('csp2+dc', 'no-symmetry', 'identical', (5, 5, 2, 31)): ('infeasible', 4, 3, 2),
    ('csp2+dc', 'no-idle', 'identical', (5, 5, 2, 31)): ('infeasible', 2, 1, 2),
    ('csp2+dc', 'energetic', 'identical', (5, 5, 2, 31)): ('infeasible', 0, 0, 0),
    ('csp2+rm', 'default', 'identical', (5, 5, 2, 31)): ('infeasible', 2, 1, 2),
    ('csp2+rm', 'no-demand', 'identical', (5, 5, 2, 31)): ('infeasible', 7, 3, 5),
    ('csp2+rm', 'no-symmetry', 'identical', (5, 5, 2, 31)): ('infeasible', 4, 3, 2),
    ('csp2+rm', 'no-idle', 'identical', (5, 5, 2, 31)): ('infeasible', 2, 1, 2),
    ('csp2+rm', 'energetic', 'identical', (5, 5, 2, 31)): ('infeasible', 0, 0, 0),
    ('csp2', 'default', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2', 'no-demand', 'identical', (6, 6, 3, 7)): ('feasible', 368, 143, 60),
    ('csp2', 'no-symmetry', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2', 'no-idle', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2', 'energetic', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+dc', 'default', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+dc', 'no-demand', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+dc', 'no-symmetry', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+dc', 'no-idle', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+dc', 'energetic', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+rm', 'default', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+rm', 'no-demand', 'identical', (6, 6, 3, 7)): ('feasible', 359, 138, 60),
    ('csp2+rm', 'no-symmetry', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+rm', 'no-idle', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2+rm', 'energetic', 'identical', (6, 6, 3, 7)): ('feasible', 60, 0, 60),
    ('csp2', 'default', 'identical', (8, 8, 'min', 1)): ('infeasible', 79, 7, 31),
    ('csp2', 'no-demand', 'identical', (8, 8, 'min', 1)): ('infeasible', 282, 83, 33),
    ('csp2', 'no-symmetry', 'identical', (8, 8, 'min', 1)): ('unknown', 5059, 4989, 31),
    ('csp2', 'no-idle', 'identical', (8, 8, 'min', 1)): ('infeasible', 613, 291, 31),
    ('csp2', 'energetic', 'identical', (8, 8, 'min', 1)): ('infeasible', 79, 7, 31),
    ('csp2+dc', 'default', 'identical', (8, 8, 'min', 1)): ('infeasible', 79, 7, 31),
    ('csp2+dc', 'no-demand', 'identical', (8, 8, 'min', 1)): ('infeasible', 282, 83, 33),
    ('csp2+dc', 'no-symmetry', 'identical', (8, 8, 'min', 1)): ('unknown', 5059, 4989, 31),
    ('csp2+dc', 'no-idle', 'identical', (8, 8, 'min', 1)): ('infeasible', 613, 291, 31),
    ('csp2+dc', 'energetic', 'identical', (8, 8, 'min', 1)): ('infeasible', 79, 7, 31),
    ('csp2+rm', 'default', 'identical', (8, 8, 'min', 1)): ('infeasible', 79, 7, 31),
    ('csp2+rm', 'no-demand', 'identical', (8, 8, 'min', 1)): ('infeasible', 282, 83, 33),
    ('csp2+rm', 'no-symmetry', 'identical', (8, 8, 'min', 1)): ('unknown', 5059, 4989, 31),
    ('csp2+rm', 'no-idle', 'identical', (8, 8, 'min', 1)): ('infeasible', 613, 291, 31),
    ('csp2+rm', 'energetic', 'identical', (8, 8, 'min', 1)): ('infeasible', 79, 7, 31),
    ('csp2', 'default', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2', 'no-demand', 'identical', (10, 10, 'min', 3)): ('unknown', 5044, 3692, 359),
    ('csp2', 'no-symmetry', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2', 'no-idle', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2', 'energetic', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2+dc', 'default', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2+dc', 'no-demand', 'identical', (10, 10, 'min', 3)): ('feasible', 398, 35, 360),
    ('csp2+dc', 'no-symmetry', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2+dc', 'no-idle', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2+dc', 'energetic', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2+rm', 'default', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2+rm', 'no-demand', 'identical', (10, 10, 'min', 3)): ('unknown', 5030, 3730, 359),
    ('csp2+rm', 'no-symmetry', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2+rm', 'no-idle', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2+rm', 'energetic', 'identical', (10, 10, 'min', 3)): ('feasible', 360, 0, 360),
    ('csp2', 'default', 'uniform', None): ('feasible', 26, 1, 24),
    ('csp2', 'no-demand', 'uniform', None): ('feasible', 26, 1, 24),
    ('csp2', 'no-symmetry', 'uniform', None): ('feasible', 26, 1, 24),
    ('csp2', 'no-idle', 'uniform', None): ('feasible', 26, 1, 24),
    ('csp2', 'energetic', 'uniform', None): ('feasible', 26, 1, 24),
    ('csp2+dc', 'default', 'uniform', None): ('feasible', 87, 31, 24),
    ('csp2+dc', 'no-demand', 'uniform', None): ('feasible', 95, 35, 24),
    ('csp2+dc', 'no-symmetry', 'uniform', None): ('feasible', 87, 31, 24),
    ('csp2+dc', 'no-idle', 'uniform', None): ('feasible', 87, 31, 24),
    ('csp2+dc', 'energetic', 'uniform', None): ('feasible', 87, 31, 24),
    ('csp2+rm', 'default', 'uniform', None): ('feasible', 54, 14, 24),
    ('csp2+rm', 'no-demand', 'uniform', None): ('feasible', 62, 18, 24),
    ('csp2+rm', 'no-symmetry', 'uniform', None): ('feasible', 54, 14, 24),
    ('csp2+rm', 'no-idle', 'uniform', None): ('feasible', 54, 14, 24),
    ('csp2+rm', 'energetic', 'uniform', None): ('feasible', 54, 14, 24),
    ('csp2', 'default', 'uniform', (4, 4, 2, 12)): ('feasible', 45, 18, 8),
    ('csp2', 'no-demand', 'uniform', (4, 4, 2, 12)): ('feasible', 56, 24, 8),
    ('csp2', 'no-symmetry', 'uniform', (4, 4, 2, 12)): ('feasible', 45, 18, 8),
    ('csp2', 'no-idle', 'uniform', (4, 4, 2, 12)): ('feasible', 45, 18, 8),
    ('csp2', 'energetic', 'uniform', (4, 4, 2, 12)): ('feasible', 45, 18, 8),
    ('csp2+dc', 'default', 'uniform', (4, 4, 2, 12)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'no-demand', 'uniform', (4, 4, 2, 12)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'no-symmetry', 'uniform', (4, 4, 2, 12)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'no-idle', 'uniform', (4, 4, 2, 12)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'energetic', 'uniform', (4, 4, 2, 12)): ('feasible', 10, 1, 8),
    ('csp2+rm', 'default', 'uniform', (4, 4, 2, 12)): ('feasible', 45, 18, 8),
    ('csp2+rm', 'no-demand', 'uniform', (4, 4, 2, 12)): ('feasible', 56, 24, 8),
    ('csp2+rm', 'no-symmetry', 'uniform', (4, 4, 2, 12)): ('feasible', 45, 18, 8),
    ('csp2+rm', 'no-idle', 'uniform', (4, 4, 2, 12)): ('feasible', 45, 18, 8),
    ('csp2+rm', 'energetic', 'uniform', (4, 4, 2, 12)): ('feasible', 45, 18, 8),
    ('csp2', 'default', 'uniform', (6, 5, 3, 2)): ('unknown', 5035, 2544, 180),
    ('csp2', 'no-demand', 'uniform', (6, 5, 3, 2)): ('unknown', 5010, 2701, 156),
    ('csp2', 'no-symmetry', 'uniform', (6, 5, 3, 2)): ('unknown', 5029, 2766, 129),
    ('csp2', 'no-idle', 'uniform', (6, 5, 3, 2)): ('unknown', 5035, 2544, 180),
    ('csp2', 'energetic', 'uniform', (6, 5, 3, 2)): ('unknown', 5035, 2544, 180),
    ('csp2+dc', 'default', 'uniform', (6, 5, 3, 2)): ('unknown', 5008, 2551, 174),
    ('csp2+dc', 'no-demand', 'uniform', (6, 5, 3, 2)): ('unknown', 5024, 2692, 129),
    ('csp2+dc', 'no-symmetry', 'uniform', (6, 5, 3, 2)): ('unknown', 5039, 2722, 129),
    ('csp2+dc', 'no-idle', 'uniform', (6, 5, 3, 2)): ('unknown', 5008, 2551, 174),
    ('csp2+dc', 'energetic', 'uniform', (6, 5, 3, 2)): ('unknown', 5008, 2551, 174),
    ('csp2+rm', 'default', 'uniform', (6, 5, 3, 2)): ('feasible', 2508, 1170, 180),
    ('csp2+rm', 'no-demand', 'uniform', (6, 5, 3, 2)): ('feasible', 3494, 1727, 180),
    ('csp2+rm', 'no-symmetry', 'uniform', (6, 5, 3, 2)): ('feasible', 4336, 2278, 180),
    ('csp2+rm', 'no-idle', 'uniform', (6, 5, 3, 2)): ('feasible', 2508, 1170, 180),
    ('csp2+rm', 'energetic', 'uniform', (6, 5, 3, 2)): ('feasible', 2388, 1096, 180),
    ('csp2', 'default', 'uniform', (7, 6, 3, 3)): ('unknown', 5013, 2561, 180),
    ('csp2', 'no-demand', 'uniform', (7, 6, 3, 3)): ('unknown', 5018, 2504, 180),
    ('csp2', 'no-symmetry', 'uniform', (7, 6, 3, 3)): ('unknown', 5013, 2628, 180),
    ('csp2', 'no-idle', 'uniform', (7, 6, 3, 3)): ('unknown', 5013, 2561, 180),
    ('csp2', 'energetic', 'uniform', (7, 6, 3, 3)): ('unknown', 5013, 2561, 180),
    ('csp2+dc', 'default', 'uniform', (7, 6, 3, 3)): ('unknown', 5036, 2417, 180),
    ('csp2+dc', 'no-demand', 'uniform', (7, 6, 3, 3)): ('unknown', 5019, 2384, 180),
    ('csp2+dc', 'no-symmetry', 'uniform', (7, 6, 3, 3)): ('unknown', 5011, 2624, 180),
    ('csp2+dc', 'no-idle', 'uniform', (7, 6, 3, 3)): ('unknown', 5036, 2417, 180),
    ('csp2+dc', 'energetic', 'uniform', (7, 6, 3, 3)): ('unknown', 5036, 2417, 180),
    ('csp2+rm', 'default', 'uniform', (7, 6, 3, 3)): ('unknown', 5016, 2375, 180),
    ('csp2+rm', 'no-demand', 'uniform', (7, 6, 3, 3)): ('unknown', 5002, 2348, 180),
    ('csp2+rm', 'no-symmetry', 'uniform', (7, 6, 3, 3)): ('unknown', 5033, 2473, 180),
    ('csp2+rm', 'no-idle', 'uniform', (7, 6, 3, 3)): ('unknown', 5016, 2375, 180),
    ('csp2+rm', 'energetic', 'uniform', (7, 6, 3, 3)): ('unknown', 5017, 2378, 177),
    ('csp2', 'default', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2', 'no-demand', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2', 'no-symmetry', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2', 'no-idle', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2', 'energetic', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'default', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'no-demand', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'no-symmetry', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'no-idle', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+dc', 'energetic', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+rm', 'default', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+rm', 'no-demand', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+rm', 'no-symmetry', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+rm', 'no-idle', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2+rm', 'energetic', 'heterogeneous', (4, 4, 2, 5)): ('feasible', 10, 1, 8),
    ('csp2', 'default', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2', 'no-demand', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 543, 400, 8),
    ('csp2', 'no-symmetry', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2', 'no-idle', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2', 'energetic', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2+dc', 'default', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2+dc', 'no-demand', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 543, 400, 8),
    ('csp2+dc', 'no-symmetry', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2+dc', 'no-idle', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2+dc', 'energetic', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2+rm', 'default', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2+rm', 'no-demand', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 543, 400, 8),
    ('csp2+rm', 'no-symmetry', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2+rm', 'no-idle', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2+rm', 'energetic', 'heterogeneous', (5, 4, 2, 8)): ('infeasible', 458, 343, 8),
    ('csp2', 'default', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 365, 117, 180),
    ('csp2', 'no-demand', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 365, 117, 180),
    ('csp2', 'no-symmetry', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 365, 117, 180),
    ('csp2', 'no-idle', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 365, 117, 180),
    ('csp2', 'energetic', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 365, 117, 180),
    ('csp2+dc', 'default', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+dc', 'no-demand', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+dc', 'no-symmetry', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+dc', 'no-idle', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+dc', 'energetic', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+rm', 'default', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+rm', 'no-demand', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+rm', 'no-symmetry', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+rm', 'no-idle', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2+rm', 'energetic', 'heterogeneous', (6, 5, 3, 5)): ('feasible', 430, 163, 180),
    ('csp2', 'default', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2', 'no-demand', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5018, 3237, 18),
    ('csp2', 'no-symmetry', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2', 'no-idle', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2', 'energetic', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2+dc', 'default', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2+dc', 'no-demand', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5018, 3237, 18),
    ('csp2+dc', 'no-symmetry', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2+dc', 'no-idle', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2+dc', 'energetic', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2+rm', 'default', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2+rm', 'no-demand', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5018, 3237, 18),
    ('csp2+rm', 'no-symmetry', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2+rm', 'no-idle', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
    ('csp2+rm', 'energetic', 'heterogeneous', (7, 6, 3, 6)): ('unknown', 5023, 3253, 18),
}

#: case -> certificate_record(case)
EXPECTED_CERTIFICATES = {
    'pairs-clear': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.007 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'feasible', {'bound': 'delta_sum = 0.922 <= m - (m-1)*delta_max = 1.000', 'm': 1}, 'delta_sum = 0.922 <= m - (m-1)*delta_max = 1.000'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.007 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 15 <= capacity 55'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, 'no over-forced interval'),
        ],
        'lower_bound': 1,
        'witness': None,
    },
    'pairs-over-budget': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.279 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 1.283 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'feasible', {'cycles': 2}, 'uniprocessor EDF schedule repeats with no miss (EDF is optimal on m = 1)'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.279 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 12900 <= capacity 31501'),
            ('necessary:interval-load', 'unknown', {}, 'hyperperiod 46189 past the interval-table and candidate-pair budgets'),
            ('necessary:forced-demand', 'unknown', {}, '11629x11629 candidate intervals past the pair budget 4096'),
        ],
        'lower_bound': 1,
        'witness': None,
    },
    'pairs-witness': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.012 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 2.429 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'infeasible', {'missed': {'task': 1, 'release': 0, 'deadline': 2}}, "EDF (optimal on m = 1) misses task 1's deadline 2 for the job released at 0"),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.012 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 25 <= capacity 51'),
            ('necessary:interval-load', 'infeasible', {'interval': [0, 1], 'demand': 4, 'capacity': 2}, 'slots [0, 1] enclose demand 4 > capacity 2'),
            ('necessary:forced-demand', 'infeasible', {'interval': [0, 1], 'demand': 4, 'capacity': 2}, 'slots [0, 1] force demand 4 > capacity 2'),
        ],
        'lower_bound': 1,
        'witness': (0, 1, 4),
    },
    'pairs-wrap': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.005 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 2.167 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'feasible', {'cycles': 2}, 'uniprocessor EDF schedule repeats with no miss (EDF is optimal on m = 1)'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.005 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 10 <= capacity 16'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, 'no over-forced interval'),
        ],
        'lower_bound': 1,
        'witness': None,
    },
    'gen-4-4-2-11': {
        'cascade': [
            ('necessary:utilization', 'infeasible', {'utilization': '25/12', 'm': 2, 'ratio': 1.0416666666666667}, 'U = 2.083 > m = 2 (r = 1.042)'),
        ],
        'necessary': [
            ('necessary:utilization', 'infeasible', {'utilization': '25/12', 'm': 2, 'ratio': 1.0416666666666667}, 'U = 2.083 > m = 2 (r = 1.042)'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'infeasible', {'demand': 25, 'capacity': 22}, 'all jobs demand 25 > capacity 22 of min(m, active jobs) per slot'),
            ('necessary:interval-load', 'infeasible', {'interval': [0, 11], 'demand': 25, 'capacity': 24}, 'slots [0, 11] enclose demand 25 > capacity 24'),
            ('necessary:forced-demand', 'infeasible', {'interval': [0, 3], 'demand': 9, 'capacity': 8}, 'slots [0, 3] force demand 9 > capacity 8'),
        ],
        'lower_bound': 3,
        'witness': (0, 11, 25),
    },
    'gen-4-4-min-2': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.972 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 3.500 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'unknown', {}, 'applies to m = 1 only'),
            ('sufficient:partitioned-ff', 'unknown', {}, 'first-fit found no partition'),
            ('sufficient:edf-sim', 'unknown', {}, 'EDF missed a deadline (not an infeasibility proof)'),
            ('necessary:all-jobs', 'infeasible', {'demand': 35, 'capacity': 34}, 'all jobs demand 35 > capacity 34 of min(m, active jobs) per slot'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.972 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'infeasible', {'demand': 35, 'capacity': 34}, 'all jobs demand 35 > capacity 34 of min(m, active jobs) per slot'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'infeasible', {'interval': [5, 6], 'demand': 7, 'capacity': 6}, 'slots [5, 6] force demand 7 > capacity 6'),
        ],
        'lower_bound': 3,
        'witness': None,
    },
    'gen-5-5-min-0': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.871 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 3.883 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'unknown', {}, 'applies to m = 1 only'),
            ('sufficient:partitioned-ff', 'unknown', {}, 'first-fit found no partition'),
            ('sufficient:edf-sim', 'unknown', {}, 'EDF missed a deadline (not an infeasibility proof)'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 209 <= capacity 240'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, 'no over-forced interval'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.871 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 209 <= capacity 240'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, 'no over-forced interval'),
        ],
        'lower_bound': 4,
        'witness': None,
    },
    'gen-6-8-1-3': {
        'cascade': [
            ('necessary:utilization', 'infeasible', {'utilization': '3', 'm': 1, 'ratio': 3.0}, 'U = 3.000 > m = 1 (r = 3.000)'),
        ],
        'necessary': [
            ('necessary:utilization', 'infeasible', {'utilization': '3', 'm': 1, 'ratio': 3.0}, 'U = 3.000 > m = 1 (r = 3.000)'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'infeasible', {'demand': 72, 'capacity': 24}, 'all jobs demand 72 > capacity 24 of min(m, active jobs) per slot'),
            ('necessary:interval-load', 'infeasible', {'interval': [0, 23], 'demand': 72, 'capacity': 24}, 'slots [0, 23] enclose demand 72 > capacity 24'),
            ('necessary:forced-demand', 'infeasible', {'interval': [0, 1], 'demand': 3, 'capacity': 2}, 'slots [0, 1] force demand 3 > capacity 2'),
        ],
        'lower_bound': 3,
        'witness': (0, 23, 72),
    },
    'gen-6-8-1-7': {
        'cascade': [
            ('necessary:utilization', 'infeasible', {'utilization': '195/56', 'm': 1, 'ratio': 3.482142857142857}, 'U = 3.482 > m = 1 (r = 3.482)'),
        ],
        'necessary': [
            ('necessary:utilization', 'infeasible', {'utilization': '195/56', 'm': 1, 'ratio': 3.482142857142857}, 'U = 3.482 > m = 1 (r = 3.482)'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'infeasible', {'demand': 195, 'capacity': 56}, 'all jobs demand 195 > capacity 56 of min(m, active jobs) per slot'),
            ('necessary:interval-load', 'infeasible', {'interval': [0, 55], 'demand': 195, 'capacity': 56}, 'slots [0, 55] enclose demand 195 > capacity 56'),
            ('necessary:forced-demand', 'infeasible', {'interval': [0, 0], 'demand': 2, 'capacity': 1}, 'slots [0, 0] force demand 2 > capacity 1'),
        ],
        'lower_bound': 4,
        'witness': (0, 55, 195),
    },
    'gen-6-8-min-0': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.851 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 4.967 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'unknown', {}, 'applies to m = 1 only'),
            ('sufficient:partitioned-ff', 'unknown', {}, 'first-fit found no partition'),
            ('sufficient:edf-sim', 'unknown', {}, 'EDF missed a deadline (not an infeasibility proof)'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 572 <= capacity 648'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, '120x109 candidate intervals past the pair budget 4096'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.851 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 572 <= capacity 648'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, '120x109 candidate intervals past the pair budget 4096'),
        ],
        'lower_bound': 4,
        'witness': None,
    },
    'gen-6-8-min-9': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.889 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 3.119 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'unknown', {}, 'applies to m = 1 only'),
            ('sufficient:partitioned-ff', 'feasible', {'assignment': [1, 0, 2, 2, 2, 1], 'bins_tried': 14, 'sim_work': 48, 'bins_simulated': 1}, 'first-fit partition onto 3 processor(s): [1, 0, 2, 2, 2, 1]'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.889 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 64 <= capacity 72'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, 'no over-forced interval'),
        ],
        'lower_bound': 3,
        'witness': None,
    },
    'gen-8-10-min-2': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.827 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 5.183 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'unknown', {}, 'applies to m = 1 only'),
            ('sufficient:partitioned-ff', 'feasible', {'assignment': [1, 0, 0, 3, 2, 2, 3, 1], 'bins_tried': 20, 'sim_work': 618, 'bins_simulated': 9}, 'first-fit partition onto 4 processor(s): [1, 0, 0, 3, 2, 2, 3, 1]'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.827 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 2083 <= capacity 2500'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, '487x522 candidate intervals past the pair budget 4096'),
        ],
        'lower_bound': 4,
        'witness': None,
    },
    'gen-8-12-min-6': {
        'cascade': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.834 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('sufficient:gfb', 'unknown', {}, 'deadlines not implicit (D != T)'),
            ('sufficient:density', 'unknown', {}, 'delta_sum = 4.071 > m - (m-1)*delta_max = 1.000'),
            ('sufficient:uniproc-edf', 'unknown', {}, 'applies to m = 1 only'),
            ('sufficient:partitioned-ff', 'feasible', {'assignment': [1, 1, 2, 1, 0, 1, 0, 1], 'bins_tried': 15, 'sim_work': 2685, 'bins_simulated': 8}, 'first-fit partition onto 3 processor(s): [1, 1, 2, 1, 0, 1, 0, 1]'),
        ],
        'necessary': [
            ('necessary:utilization', 'unknown', {}, 'r = U/m = 0.834 <= 1'),
            ('necessary:wcet-slack', 'unknown', {}, 'every task has C <= D'),
            ('necessary:all-jobs', 'unknown', {}, 'all jobs demand 1982 <= capacity 2376'),
            ('necessary:interval-load', 'unknown', {}, 'no over-demanded scan interval'),
            ('necessary:forced-demand', 'unknown', {}, '523x468 candidate intervals past the pair budget 4096'),
        ],
        'lower_bound': 3,
        'witness': None,
    },
}


@pytest.mark.parametrize("cell", search_cells(), ids=str)
def test_pinned_search_counters(cell):
    """Status / nodes / fails / depth are identical to the recorded search."""
    assert search_counters(*cell) == EXPECTED_SEARCH[cell]


def test_search_grid_covers_every_platform_and_wrap():
    """Each platform kind keeps feasible and budget-cut or infeasible
    cells, and every kind searches a system with a wrapped window."""
    assert set(EXPECTED_SEARCH) == set(search_cells())
    for kind, specs in SEARCH_SPECS.items():
        statuses = {
            v[0] for k, v in EXPECTED_SEARCH.items() if k[2] == kind
        }
        assert "feasible" in statuses and len(statuses) >= 2, kind
        assert any(
            t.phase + t.deadline > t.period
            for spec in specs
            for t in _system(spec)[0]
        ), kind


#: node budget of the Table IV-scale pins
TABLE_IV_NODES = 2_000

#: ``(status, nodes, fails, max_depth)`` of csp2+dc on the generator's
#: Table IV scale (``n = 256``, ``tmax = 15``, ``m = "min"``; T = 360 360)
#: per seed, captured from the search that tabled every slot it reached
EXPECTED_TABLE_IV = {
    0: ("unknown", 2047, 0, 2047),
    1: ("unknown", 2047, 0, 2047),
}


@pytest.mark.parametrize("seed", sorted(EXPECTED_TABLE_IV))
def test_pinned_search_at_table_iv_scale(seed):
    """The slot windows' arithmetic at the paper's largest hyperperiod."""
    inst = generate_instance(GeneratorConfig(n=256, tmax=15, m="min"), seed)
    assert inst.system.hyperperiod == 360_360
    solver = Csp2DedicatedSolver(
        inst.system, Platform.identical(inst.m), heuristic="dc"
    )
    result = solver.solve(node_limit=TABLE_IV_NODES)
    stats = result.stats
    assert (
        result.status.value, stats.nodes, stats.fails, stats.max_depth
    ) == EXPECTED_TABLE_IV[seed]


@pytest.mark.parametrize("case", cert_cases())
def test_pinned_certificates(case):
    """Every certificate (verdict, witness, detail) is unchanged."""
    got = certificate_record(case)
    want = EXPECTED_CERTIFICATES[case]
    assert [list(r) for r in got["cascade"]] == [
        list(r) for r in want["cascade"]
    ]
    assert [list(r) for r in got["necessary"]] == [
        list(r) for r in want["necessary"]
    ]
    assert got["lower_bound"] == want["lower_bound"]
    assert got["witness"] == want["witness"]


def _necessary(case, test_name):
    rows = EXPECTED_CERTIFICATES[case]["necessary"]
    return next(r for r in rows if r[0] == test_name)


def test_certificate_grid_reaches_every_branch():
    """Both interval-load strategies and both forced-demand outcomes."""
    table_cut = int(necessary.MAX_TABLE_CELLS ** 0.5)
    by_strategy = {"table": set(), "pairs": set()}
    for case in cert_cases():
        system, m = _cert_instance(case)
        _, verdict, _, detail = _necessary(case, "necessary:interval-load")
        if "budgets" in detail:
            continue
        strategy = "table" if system.hyperperiod <= table_cut else "pairs"
        by_strategy[strategy].add(verdict)
    assert by_strategy["table"] == {"infeasible", "unknown"}
    assert by_strategy["pairs"] == {"infeasible", "unknown"}
    forced = [_necessary(c, "necessary:forced-demand") for c in cert_cases()]
    assert any(r[1] == "infeasible" for r in forced)
    assert any("pair budget" in r[3] for r in forced)
    assert any(r[3] == "no over-forced interval" for r in forced)
