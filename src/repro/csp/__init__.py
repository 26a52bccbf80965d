"""A from-scratch finite-domain CSP engine.

This is the substrate the paper delegates to Choco [10]: variables over
finite integer domains, constraint propagation to a fixpoint, and
depth-first backtracking search with pluggable variable/value ordering
heuristics (paper Section III-B lists exactly these ingredients:
propagation, variable ordering, value ordering, added constraints).

Design notes (see also docs/ARCHITECTURE.md): domains are Python-int bitmasks —
``bit v`` set iff value ``v + offset`` is still possible — with a generic
trail for O(changed) backtracking of domains *and* propagator-owned
counters.  Propagation is incremental and event-driven: every mutation is
a typed event (ASSIGN / BOUNDS / REMOVE), propagators subscribe per event
type and absorb deltas through ``on_event`` in O(1), report entailment to
be deactivated for the rest of the subtree, and drain through a
priority-tiered queue (cheap counter checks before linear passes before
table filtering).  ``Solver(learn=True)`` switches to conflict-directed
search: an implication trail, propagator-supplied explanations, 1-UIP
nogood learning with backjumping, and adaptive (dom/wdeg, last-conflict,
phase-saving) heuristics — see :mod:`repro.csp.learning`.

Example
-------
>>> from repro.csp import Model, Solver
>>> m = Model()
>>> x = m.int_var(0, 2, "x")
>>> y = m.int_var(0, 2, "y")
>>> m.add_all_different_except([x, y], except_value=None)
>>> m.add_non_decreasing([x, y])
>>> out = Solver(m).solve()
>>> out.status.name
'SAT'
"""

from repro.csp.core import Model, Variable
from repro.csp.state import (
    CAUSE_DECISION,
    EVT_ANY,
    EVT_ASSIGN,
    EVT_BOUNDS,
    EVT_REMOVE,
    DomainState,
)
from repro.csp.learning import (
    NogoodStore,
    Trail,
    analyze_conflict,
)
from repro.csp.propagators import (
    PROP_ENTAILED,
    PROP_FAIL,
    PROP_OK,
    AllDifferentExceptValue,
    AtMostOneTrue,
    CountEq,
    ExactSumBool,
    NonDecreasing,
    Propagator,
    Table,
    WeightedCountEq,
    WeightedExactSumBool,
)
from repro.csp.heuristics import (
    make_value_order_phase_saving,
    make_var_order_last_conflict,
    value_order_ascending,
    value_order_custom,
    value_order_descending,
    value_order_random,
    var_order_dom_deg,
    var_order_dom_wdeg,
    var_order_input,
    var_order_min_domain,
    var_order_random,
)
from repro.csp.search import (
    SearchStats,
    Solver,
    SolveOutcome,
    Status,
)

__all__ = [
    "Model",
    "Variable",
    "DomainState",
    "EVT_REMOVE",
    "EVT_BOUNDS",
    "EVT_ASSIGN",
    "EVT_ANY",
    "PROP_FAIL",
    "PROP_OK",
    "PROP_ENTAILED",
    "Propagator",
    "AtMostOneTrue",
    "ExactSumBool",
    "WeightedExactSumBool",
    "CountEq",
    "WeightedCountEq",
    "AllDifferentExceptValue",
    "NonDecreasing",
    "Table",
    "Solver",
    "SolveOutcome",
    "SearchStats",
    "Status",
    "CAUSE_DECISION",
    "NogoodStore",
    "Trail",
    "analyze_conflict",
    "var_order_input",
    "var_order_min_domain",
    "var_order_dom_deg",
    "var_order_dom_wdeg",
    "var_order_random",
    "make_var_order_last_conflict",
    "value_order_ascending",
    "value_order_descending",
    "value_order_random",
    "value_order_custom",
    "make_value_order_phase_saving",
]
