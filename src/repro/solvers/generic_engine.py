"""CSP1 and CSP2 on the generic engine, behind one adapter.

The paper hands CSP1 to a state-of-the-art generic solver with its default
(randomized) search strategy and observes run-to-run variance (Section
VII-B).  Here the generic engine plays Choco's role: min-domain variable
ordering with seeded random tie-breaking reproduces both the behaviour
and the variance; other heuristics are exposed for ablations.

The paper solves CSP2 with a dedicated search
(:mod:`repro.solvers.csp2_dedicated` is that reproduction); ``csp2-generic``
runs the *same encoding* on the generic engine, the ablation separating
"better encoding" from "better search": chronological (input-order)
branching over slot-major variables, the RM/DM/(T-C)/(D-C) task value
orders with idle ranked last, and the symmetry chains posted as real
constraints.

Every ``+learn`` name switches to conflict-directed search: 1-UIP nogood
learning with backjumping, last-conflict variable ordering over the
family's base order (dom/wdeg for CSP1, the chronological order for
CSP2) and phase-saved values (see docs/ARCHITECTURE.md,
"Conflict-directed search").  The registry serves CSP2's learning engine
as ``csp2-generic+learn`` and, with the (D-C) value order the paper found
strongest, as ``csp2+learn``.

One class, :class:`GenericEngineSolver`, runs all of them: a name, a built
encoding, a variable order, a value order, a seed and the learning choice.
"""

from __future__ import annotations

from repro.csp.heuristics import (
    make_var_order_last_conflict,
    value_order_ascending,
    value_order_custom,
    var_order_dom_deg,
    var_order_dom_wdeg,
    var_order_input,
    var_order_min_domain,
)
from repro.csp.search import Solver, Status
from repro.encodings.csp1 import encode_csp1
from repro.encodings.csp2 import encode_csp2
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.solvers.base import Feasibility, SolveResult, SolverStats
from repro.solvers.ordering import HEURISTIC_ALIASES, task_order
from repro.solvers.registry import EXACT, PROVES_INFEASIBILITY, register_solver
from repro.solvers.spec import SolverSpec

__all__ = [
    "GenericEngineSolver",
    "csp2_engine",
    "reject_nogood_limit",
    "learning_extra_stats",
]

_CSP1_VAR_ORDERS = {
    "min_dom": var_order_min_domain,
    "dom_deg": var_order_dom_deg,
    "input": var_order_input,
}

_STATUS_MAP = {
    Status.SAT: Feasibility.FEASIBLE,
    Status.UNSAT: Feasibility.INFEASIBLE,
    Status.UNKNOWN: Feasibility.UNKNOWN,
}


def learning_extra_stats(stats) -> dict:
    """Learning counters of a ``SearchStats``, as ``SolverStats.extra``
    entries, so conflict/nogood provenance round-trips through
    ``SolveReport`` JSONL."""
    return {
        "conflicts": stats.conflicts,
        "learned": stats.learned,
        "forgotten": stats.forgotten,
        "backjumps": stats.backjumps,
        "max_backjump": stats.max_backjump,
    }


class GenericEngineSolver:
    """One built encoding, solved by backtracking + propagation.

    Parameters
    ----------
    name:
        The registry name reported as ``SolveResult.solver_name``.
    encoding:
        A built CSP encoding (``model``, ``n_variables``, ``decode``);
        the factory builds it, so model construction counts as setup.
    var_order, value_order:
        The engine's orderings; with ``learn`` the variable order is the
        base that last-conflict reasoning falls back to.
    seed:
        When set, ties in the variable order break uniformly at random.
    learn:
        Run the conflict-directed engine: nogood learning, backjumping,
        last-conflict variable order and phase-saved values.
    nogood_limit:
        Learned-nogood store capacity.
    """

    def __init__(
        self,
        name: str,
        encoding,
        var_order,
        value_order,
        seed: int | None = None,
        learn: bool = False,
        nogood_limit: int = 10_000,
    ) -> None:
        self.name = name
        self.encoding = encoding
        self.var_order = var_order
        self.value_order = value_order
        self.seed = seed
        self.learn = learn
        self.nogood_limit = nogood_limit

    def solve(
        self, time_limit: float | None = None, node_limit: int | None = None
    ) -> SolveResult:
        """Run the generic engine on the encoding under the given budgets."""
        engine = Solver(
            self.encoding.model,
            var_order=(
                make_var_order_last_conflict(self.var_order)
                if self.learn else self.var_order
            ),
            value_order=self.value_order,
            seed=self.seed,
            learn=self.learn,
            nogood_limit=self.nogood_limit,
            phase_saving=self.learn,
        )
        out = engine.solve(time_limit=time_limit, node_limit=node_limit)
        extra = {"variables": self.encoding.n_variables}
        if self.learn:
            extra.update(learning_extra_stats(out.stats))
        stats = SolverStats(
            nodes=out.stats.nodes,
            fails=out.stats.fails,
            propagations=out.stats.propagations,
            max_depth=out.stats.max_depth,
            elapsed=out.stats.elapsed,
            extra=extra,
        )
        schedule = (
            self.encoding.decode(out.solution) if out.status is Status.SAT else None
        )
        return SolveResult(
            status=_STATUS_MAP[out.status],
            schedule=schedule,
            stats=stats,
            solver_name=self.name,
        )


def reject_nogood_limit(spec: SolverSpec, options: dict) -> None:
    """Refuse ``nogood_limit`` on a name that does not learn."""
    if spec.suffix != "learn" and "nogood_limit" in options:
        raise ValueError(
            "nogood_limit only applies to the learning variant; "
            f"use '{spec.base}+learn'"
        )


def csp2_engine(
    system: TaskSystem,
    platform: Platform,
    name: str,
    heuristic: str | None,
    learn: bool,
    symmetry_breaking: bool = True,
    chronological: bool = True,
    nogood_limit: int = 10_000,
) -> GenericEngineSolver:
    """Encoding #2 on the generic engine.

    ``heuristic`` is the task value order (None = task index; idle is
    always tried last), ``symmetry_breaking`` posts the NonDecreasing
    chains (paper rule (10)/(13)), and ``chronological`` branches in
    slot-major creation order (min-domain when False, an ablation).
    """
    encoding = encode_csp2(system, platform, symmetry_breaking)
    order = task_order(system, heuristic)
    order.append(encoding.idle_value)  # idle last
    return GenericEngineSolver(
        name,
        encoding,
        var_order_input if chronological else var_order_min_domain,
        value_order_custom(order),
        learn=learn,
        nogood_limit=nogood_limit,
    )


@register_solver(
    "csp1",
    description=(
        "Encoding #1 (a variable per in-window (task, processor, slot)) on "
        "the generic CSP engine, min-domain ordering with seeded random "
        "tie-breaking — the paper's Choco setup"
    ),
    paper_section="IV, VII-B",
    pick_when=(
        "Reproducing the paper's generic-solver columns; never for "
        "performance — it overruns and exhausts memory first (Tables I, IV)"
    ),
    capabilities=(PROVES_INFEASIBILITY, EXACT),
    suffixes={
        "dom_deg": "Same encoding, dom/deg variable ordering (ablation)",
        "input": "Same encoding, input-order variables (ablation; close to "
        "naive chronological enumeration)",
        "learn": "Same encoding on the conflict-directed engine: 1-UIP "
        "nogood learning, backjumping, dom/wdeg + last-conflict ordering, "
        "phase saving — the infeasibility prover of the family",
    },
    options=("nogood_limit",),
    platforms=("identical", "uniform", "heterogeneous"),
    memory_bound=True,
    hidden_suffixes=("min_dom",),
)
def _build_csp1(system, platform, spec, seed, **options):
    """Registry factory: ``csp1[+var_heuristic|+learn]``."""
    reject_nogood_limit(spec, options)
    learn = spec.suffix == "learn"
    return GenericEngineSolver(
        "csp1+learn" if learn else "csp1",
        encode_csp1(system, platform),
        var_order_dom_wdeg if learn else _CSP1_VAR_ORDERS[spec.suffix or "min_dom"],
        value_order_ascending,
        seed=seed,
        learn=learn,
        **options,
    )


@register_solver(
    "csp2-generic",
    description=(
        "Encoding #2 on the *generic* engine with the same RM/DM/(T-C)/"
        "(D-C) value orders as the dedicated solver"
    ),
    paper_section="V",
    pick_when=(
        "Isolating how much the dedicated machinery (idle rule, symmetry, "
        "prunings) buys over the bare encoding"
    ),
    capabilities=(PROVES_INFEASIBILITY, EXACT),
    suffixes={
        "rm": "Generic engine on encoding #2, rate-monotonic value order",
        "dm": "Generic engine on encoding #2, deadline-monotonic value order",
        "tc": "Generic engine on encoding #2, smallest T-C value order",
        "dc": "Generic engine on encoding #2, smallest D-C value order",
        "learn": "Encoding #2 on the conflict-directed engine (task-index "
        "value order); see csp2+learn for the (D-C)-ordered variant",
    },
    options=("symmetry_breaking", "chronological", "nogood_limit"),
    platforms=("identical", "uniform", "heterogeneous"),
    memory_bound=True,
    hidden_suffixes=HEURISTIC_ALIASES,
)
def _build_csp2_generic(system, platform, spec, seed, **options):
    """Registry factory: ``csp2-generic[+heuristic|+learn]``."""
    reject_nogood_limit(spec, options)
    learn = spec.suffix == "learn"
    return csp2_engine(
        system, platform, spec.canonical, None if learn else spec.suffix,
        learn=learn, **options,
    )
