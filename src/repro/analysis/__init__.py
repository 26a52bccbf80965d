"""Polynomial-time schedulability analysis: certificates and screening.

Three layers, cheapest on top:

* :mod:`repro.analysis.necessary` — infeasibility certificates (the
  paper's ``r > 1`` filter plus per-task slack, the all-jobs cut,
  interval-load and forced-demand arguments) and :func:`processor_lower_bound`;
* :mod:`repro.analysis.sufficient` — feasibility certificates (GFB and
  density bounds, the exact ``m = 1`` EDF decision, first-fit packing
  and hyperperiod-simulation witnesses);
* :mod:`repro.analysis.cascade` — the ``screen`` meta-solver chaining
  them cheapest-first in front of (or instead of) exact search.

:mod:`repro.analysis.bounds` holds the raw closed-form bound formulas,
kept for direct use.
"""

from repro.analysis.bounds import BoundVerdict, density_bound, gfb_utilization_bound
from repro.analysis.cascade import (
    CascadeOutcome,
    ScreenSolver,
    default_tests,
    run_cascade,
)
from repro.analysis.certificates import Certificate
from repro.analysis.necessary import (
    all_jobs_cut_certificate,
    demand_over_capacity_witness,
    forced_demand_certificate,
    interval_load_certificate,
    necessary_certificates,
    processor_lower_bound,
    prove_infeasible,
    utilization_certificate,
    utilization_exceeds,
    wcet_slack_certificate,
)
from repro.analysis.sufficient import (
    density_certificate,
    edf_simulation_certificate,
    gfb_certificate,
    partitioned_certificate,
    prove_feasible,
    sufficient_certificates,
    uniprocessor_edf_certificate,
)

__all__ = [
    "Certificate",
    "CascadeOutcome",
    "ScreenSolver",
    "default_tests",
    "run_cascade",
    "utilization_exceeds",
    "utilization_certificate",
    "wcet_slack_certificate",
    "all_jobs_cut_certificate",
    "interval_load_certificate",
    "forced_demand_certificate",
    "necessary_certificates",
    "prove_infeasible",
    "processor_lower_bound",
    "demand_over_capacity_witness",
    "gfb_certificate",
    "density_certificate",
    "uniprocessor_edf_certificate",
    "partitioned_certificate",
    "edf_simulation_certificate",
    "sufficient_certificates",
    "prove_feasible",
    "BoundVerdict",
    "density_bound",
    "gfb_utilization_bound",
]
