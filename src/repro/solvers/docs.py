"""docs/SOLVERS.md, generated from the registry.

The solver table used to be hand-maintained and drifted whenever a
solver was added or its metadata changed.  Now the registry is the
single source of truth: :func:`render_solvers_md` renders the document
from :func:`repro.solvers.registry.iter_solver_info`, and
``scripts/solvers_md.py`` (wired into ``make solvers-check`` and CI)
fails the build when the checked-in file differs from the rendering.

Only genuinely hand-written prose (the intro, the related-entry-points
section, the rules of thumb) lives here as literals; every solver row,
capability flag, platform column and option list comes from the
``@register_solver`` declarations next to the solver code.
"""

from __future__ import annotations

from repro.solvers.registry import SolverInfo, iter_solver_info

__all__ = ["render_solvers_md"]

_PLATFORM_KINDS = ("identical", "uniform", "heterogeneous")

_INTRO = """\
# Choosing a solver

<!-- GENERATED FILE - do not edit by hand.
     Source: the @register_solver declarations (see repro/solvers/docs.py).
     Regenerate: python scripts/solvers_md.py --write
     CI guard:   make solvers-check -->

Every name below is accepted by `repro.solve(..., solver=NAME)`,
`repro.create_solver(NAME, ...)`, the CLI's `--solver`, and the
`batch --solvers` list. `repro.available_solvers()` returns the
canonical list at runtime, and `repro-mgrts solvers` prints this
catalog from the live registry.

Two meta names compose any of them. `portfolio:csp2+dc,sat` races the
members concurrently in worker processes and keeps the first definitive
answer (an incomplete member such as `csp2-local` can win a FEASIBLE
race but never decides INFEASIBLE). `screen+csp2+dc` runs the certified
polynomial-time screening cascade first — utilization and density
bounds, interval-load arguments, packing and simulation witnesses — and
only hands the instance to the wrapped engine when every test abstains;
the answer's `decided_by` records which test or engine settled it.

## Registered solvers
"""

_OUTRO = """\
Arbitrary-deadline systems are handled one layer up:
`repro.solve` clones them into constrained-deadline systems first
(Section VI-B) and merges the schedule back for display.

## Related entry points (not registry names)

* `repro.analysis.run_cascade` — the bare screening cascade behind the
  `screen` name: an ordered list of certificates with per-test timings;
  CLI: `repro-mgrts analyze`.
* `repro.solvers.min_processors.find_min_processors` — incrementally
  searches the smallest sufficient `m` (Section VIII), starting from the
  analysis lower bound and letting certificates exclude hopeless counts
  without search; CLI: `solve --min-processors`.
* `repro.baselines.partitioned` — partitioned scheduling (first-fit and
  exact partitioning), the paradigm the paper argues against (Section I).
* `repro.baselines.simulator` + `priorities` — the machinery behind the
  registered `edf`/`fp` names, usable directly for richer simulation
  results.
* `repro.baselines.priority_search` — exhaustive/heuristic/Audsley
  search over priority assignments (the paper's future-work item).

## Rules of thumb

1. Want an answer? `csp2+dc`.
2. Many instances? `screen+csp2+dc` — the cascade decides most of them
   in microseconds-to-milliseconds and only the hard core reaches the
   exact engine (perfbench's `screen` workload tracks how many).
3. Mixed or unknown workload? `portfolio:csp2+dc,sat,csp2-local` — each
   instance finishes at about the speed of its best member.
4. Want a proof the paper's comparisons hold on your machine?
   `python -m repro.cli experiment table1`.
5. Huge and probably feasible? `csp2-local`, fall back to `csp2+dc`.
6. Doubt a verdict? Cross-check with `sat` (identical platforms), or
   run `repro-mgrts analyze` for a certificate-level second opinion.
7. Publishing numbers? Run the matrix through `repro batch --jobs N`
   with a `--cache-dir` so re-runs are free.
"""


def _escape(text: str) -> str:
    return text.replace("|", "\\|")


def _family_rows(info: SolverInfo) -> list[tuple[str, str]]:
    """(name, description) rows for one family, base first."""
    rows = [(info.base, info.description)]
    rows += [(f"{info.base}+{s}", desc) for s, desc in info.suffixes.items()]
    return rows


def render_solvers_md() -> str:
    """The full docs/SOLVERS.md content, derived from the registry."""
    infos = [i for i in iter_solver_info() if i.advertise]
    lines: list[str] = [_INTRO]
    lines.append("| Name | What it is | Paper section | Pick it when |")
    lines.append("|---|---|---|---|")
    for info in infos:
        for name, desc in _family_rows(info):
            lines.append(
                f"| `{name}` | {_escape(desc)} | {_escape(info.paper_section) or '—'} "
                f"| {_escape(info.pick_when) or '—'} |"
            )
    lines.append("")
    lines.append("## Capabilities and platform support")
    lines.append("")
    lines.append(
        "| Family | proves infeasibility | exact (complete search) | "
        + " | ".join(_PLATFORM_KINDS)
        + " | options |"
    )
    lines.append("|---|---|---|" + "---|" * len(_PLATFORM_KINDS) + "---|")
    for info in infos:
        marks = [
            "yes" if kind in info.platforms else "no" for kind in _PLATFORM_KINDS
        ]
        options = ", ".join(f"`{o}=`" for o in info.options) or "—"
        lines.append(
            f"| `{info.base}*` "
            f"| {'yes' if info.proves_infeasibility else 'no'} "
            f"| {'yes' if info.is_exact else 'no'} "
            f"| " + " | ".join(marks) + f" | {options} |"
        )
    lines.append("")
    lines.append(
        "Suffix rules: `csp1+X` picks the variable heuristic, `csp2*+X` and "
        "`fp+X` the task-ordering heuristic, `sat+X` the at-most-one "
        "encoding, and `screen+NAME` wraps any other name (portfolios "
        "included) behind the screening cascade.  Unknown keyword options "
        "raise a `ValueError` naming the accepted ones (no silent "
        "swallowing)."
    )
    lines.append("")
    lines.append(_OUTRO)
    return "\n".join(lines)
