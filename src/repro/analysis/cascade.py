"""The screening cascade: cheap tests first, exact search only if needed.

The paper decides every instance by exhaustive search, yet its own
Table II shows a trivial necessary condition (``r > 1``) already settles
a large share.  This module generalizes that observation into a
meta-solver: run the polynomial-time certificates of
:mod:`repro.analysis.necessary` and :mod:`repro.analysis.sufficient`
*cheapest first*, stop at the first proof, and only fall through to an
exact engine when every test abstains.

Two entry points:

* :func:`run_cascade` — the bare analysis: an ordered list of
  :class:`~repro.analysis.certificates.Certificate` with per-test wall
  times and the deciding certificate (if any);
* the registered ``screen`` solver — ``screen`` alone answers
  FEASIBLE/INFEASIBLE/UNKNOWN from the cascade; ``screen+csp2+dc``
  (or ``screen+portfolio:csp2+dc,sat``) forwards abstentions to the
  wrapped engine with the remaining budget, so ``solve``, ``solve_iter``,
  ``batch`` campaigns and racing portfolios all compose with screening
  transparently.  The answer's ``decided_by`` records the deciding test
  (``"necessary:utilization"``, ...) or the inner engine.

Soundness contract (enforced by the test suite's agreement grid): a
cascade verdict may *abstain* but never contradicts the exact solvers —
every INFEASIBLE certificate is a proof, every FEASIBLE certificate
either carries a validated schedule or fires a bound that implies one
exists.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

from repro.analysis import necessary, sufficient
from repro.analysis.certificates import Certificate
from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.solvers.base import Feasibility, SolveResult, SolverStats
from repro.solvers.registry import (
    PROVES_INFEASIBILITY,
    register_solver,
    solver_info,
)
from repro.solvers.spec import SolverSpec

__all__ = ["CascadeOutcome", "default_tests", "run_cascade", "ScreenSolver"]

#: a cascade test: ``fn(system, m) -> Certificate``
CascadeTest = Callable[[TaskSystem, int], Certificate]


def default_tests(
    simulate: bool = True,
    max_cycles: int = 64,
    state_limit: int = sufficient.DEFAULT_STATE_LIMIT,
) -> "list[CascadeTest]":
    """The standard test order: cheapest-per-decision first.

    O(n) arithmetic bounds open, the simulation witnesses follow — on
    the paper's generator grid they decide the bulk of the feasible
    instances at ~2 ms apiece — and the necessary interval arguments
    close, mopping up infeasible instances the utilization filter
    missed: the all-jobs cut (one pass over the cycle) first, then the
    quadratic interval load and forced demand.  ``state_limit`` bounds
    the simulation tier's work in slot-tasks: the whole-system tests
    abstain when ``hyperperiod x n x m`` is past it, while the partition
    witness spends it bin by bin on the bins it actually simulates.
    ``simulate=False`` drops the simulation tier entirely for a pure
    closed-form screen.
    """
    tests: list[CascadeTest] = [
        necessary.utilization_certificate,
        necessary.wcet_slack_certificate,
        sufficient.gfb_certificate,
        sufficient.density_certificate,
    ]
    if simulate:
        def _gated(fn):
            def test(system, m):
                return fn(
                    system, m, max_cycles=max_cycles, state_limit=state_limit
                )
            test.__name__ = fn.__name__
            return test

        tests += [
            _gated(sufficient.uniprocessor_edf_certificate),
            _gated(sufficient.partitioned_certificate),
            _gated(sufficient.edf_simulation_certificate),
        ]
    tests += [
        necessary.all_jobs_cut_certificate,
        necessary.interval_load_certificate,
        necessary.forced_demand_certificate,
    ]
    return tests


@dataclass
class CascadeOutcome:
    """What one cascade run learned.

    ``certificates`` lists every test that ran, in order (the deciding
    one last); ``decided`` is that final certificate when it settled the
    instance, None when every test abstained (or the budget cut the
    cascade short); ``timings`` maps test name to its wall time.
    """

    certificates: list[Certificate] = field(default_factory=list)
    decided: Certificate | None = None
    elapsed: float = 0.0
    timings: dict[str, float] = field(default_factory=dict)

    @property
    def verdict(self) -> Feasibility:
        """FEASIBLE/INFEASIBLE when decided, UNKNOWN otherwise."""
        if self.decided is None:
            return Feasibility.UNKNOWN
        return self.decided.verdict

    def to_dict(self) -> dict:
        """JSON-able summary (CLI ``analyze --json``, bench records)."""
        return {
            "verdict": self.verdict.value,
            "decided_by": None if self.decided is None else self.decided.test_name,
            "elapsed": self.elapsed,
            "certificates": [c.to_dict() for c in self.certificates],
        }


def run_cascade(
    system: TaskSystem,
    m: int,
    tests: "Sequence[CascadeTest] | None" = None,
    time_limit: float | None = None,
    **test_options,
) -> CascadeOutcome:
    """Run the screening tests in order, stopping at the first proof.

    ``system`` may have arbitrary deadlines (each test clones as
    needed); ``m`` counts identical processors.  ``test_options``
    (``simulate=``, ``max_cycles=``, ``state_limit=``) configure
    :func:`default_tests` and are rejected when ``tests`` is given
    explicitly.
    """
    if tests is None:
        tests = default_tests(**test_options)
    elif test_options:
        raise ValueError(
            f"test options {sorted(test_options)} only apply to the "
            "default test list"
        )
    outcome = CascadeOutcome()
    t0 = time.monotonic()
    for test in tests:
        if time_limit is not None and time.monotonic() - t0 >= time_limit:
            break
        t_test = time.monotonic()
        cert = test(system, m)
        outcome.timings[cert.test_name] = time.monotonic() - t_test
        outcome.certificates.append(cert)
        if cert.decided:
            outcome.decided = cert
            break
    outcome.elapsed = time.monotonic() - t0
    return outcome


class ScreenSolver:
    """The ``screen`` meta-solver: cascade first, inner engine on abstain.

    Parameters
    ----------
    inner:
        Fall-through solver spec (None = bare cascade, which answers
        UNKNOWN when every test abstains).  Built lazily — a decided
        cascade never constructs the inner model at all, which is the
        whole point.
    simulate, max_cycles, state_limit:
        Cascade knobs, see :func:`default_tests`.

    Non-identical platforms skip the cascade (its certificates argue
    about identical processors) and delegate to the inner engine
    directly.  An inner INFEASIBLE is passed through only when the inner
    family proves infeasibility — same downgrade rule as the portfolio —
    so the ``screen`` family's own ``proves_infeasibility`` capability
    stays sound for any composition.
    """

    def __init__(
        self,
        system: TaskSystem,
        platform: Platform,
        inner: "SolverSpec | str | None" = None,
        seed: int | None = None,
        simulate: bool = True,
        max_cycles: int = 64,
        state_limit: int = sufficient.DEFAULT_STATE_LIMIT,
    ) -> None:
        self.system = system
        self.platform = platform
        self.inner = None if inner is None else SolverSpec.parse(inner)
        self.seed = seed
        self.simulate = simulate
        self.max_cycles = max_cycles
        self.state_limit = state_limit
        #: fail fast on unknown inner names (mirrors the portfolio)
        self._inner_info = None if self.inner is None else solver_info(self.inner)
        self.name = "screen" + (
            f"+{self.inner.canonical}" if self.inner is not None else ""
        )

    def _screen_meta(self, outcome: "CascadeOutcome | None") -> dict:
        """The ``stats.extra['screen']`` payload."""
        if outcome is None:
            return {"tests": [], "decided_by": None, "elapsed": 0.0,
                    "skipped": "non-identical platform"}
        return {
            "tests": [
                {
                    "name": c.test_name,
                    "verdict": c.verdict.value if c.decided else "abstain",
                    "elapsed": outcome.timings.get(c.test_name, 0.0),
                }
                for c in outcome.certificates
            ],
            "decided_by": None
            if outcome.decided is None
            else outcome.decided.test_name,
            "elapsed": outcome.elapsed,
        }

    def solve(
        self, time_limit: float | None = None, node_limit: int | None = None
    ) -> SolveResult:
        """Cascade, then (only on abstention) the inner engine."""
        t0 = time.monotonic()
        outcome = None
        if self.platform.is_identical:
            outcome = run_cascade(
                self.system,
                self.platform.m,
                time_limit=time_limit,
                simulate=self.simulate,
                max_cycles=self.max_cycles,
                state_limit=self.state_limit,
            )
            if outcome.decided is not None:
                cert = outcome.decided
                stats = SolverStats(
                    elapsed=time.monotonic() - t0,
                    extra={"screen": self._screen_meta(outcome)},
                )
                return SolveResult(
                    status=cert.verdict,
                    schedule=cert.schedule,
                    stats=stats,
                    solver_name="screen",
                    decided_by=cert.test_name,
                )
        if self.inner is None:
            return SolveResult(
                status=Feasibility.UNKNOWN,
                schedule=None,
                stats=SolverStats(
                    elapsed=time.monotonic() - t0,
                    extra={"screen": self._screen_meta(outcome)},
                ),
                solver_name="screen",
            )
        from repro.solvers.registry import create_solver

        engine = create_solver(
            self.inner, self.system, self.platform, seed=self.seed
        )
        remaining = time_limit
        if remaining is not None:
            remaining = max(0.0, remaining - (time.monotonic() - t0))
        result = engine.solve(time_limit=remaining, node_limit=node_limit)
        status = result.status
        if (
            status is Feasibility.INFEASIBLE
            and not self._inner_info.proves_infeasibility
        ):
            status = Feasibility.UNKNOWN
        stats = result.stats
        stats.elapsed = time.monotonic() - t0  # screening time included
        stats.extra = dict(stats.extra, screen=self._screen_meta(outcome))
        return SolveResult(
            status=status,
            schedule=result.schedule,
            stats=stats,
            solver_name=result.solver_name,
            decided_by=result.decided_by or result.solver_name,
        )


@register_solver(
    "screen",
    description=(
        "Screening-cascade meta-solver: certified polynomial-time "
        "necessary/sufficient tests run cheapest-first; screen+NAME falls "
        "through to NAME only when every test abstains"
    ),
    paper_section="VII-B (Table II's r > 1 filter, generalized)",
    pick_when=(
        "Large campaigns: most instances are decided in microseconds by a "
        "certificate and the exact engine only sees the hard core"
    ),
    capabilities=(PROVES_INFEASIBILITY,),
    suffixes={},
    options=("simulate", "max_cycles", "state_limit"),
    platforms=("identical", "uniform", "heterogeneous"),
)
def _build_screen(system, platform, spec, seed, **options):
    """Registry factory: ``screen`` / ``screen+NAME`` / ``screen+portfolio:...``."""
    return ScreenSolver(
        system, platform, inner=spec.screened, seed=seed, **options
    )
