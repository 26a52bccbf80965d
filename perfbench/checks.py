"""Output correctness gate: every answer is checked after the timed loop.

An execution fails when it raised, came back as a ``fault:*`` report or
an error line, returned a schedule that breaks C1-C4, or reached a
verdict that contradicts another answer to the same question: the
checked-in reference verdict, the other engine on
the same instance (``engine``), or an earlier execution of the same item.
FEASIBLE against INFEASIBLE is a contradiction; UNKNOWN against a
verdict is not (it only moves ``decided_ratio``).  On ``serve`` every
cache hit must equal the computed report for the same problem, apart
from ``elapsed`` and ``label``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.model.transform import clone_for_arbitrary_deadlines
from repro.schedule.schedule import Schedule
from repro.schedule.validate import validate

__all__ = [
    "Execution",
    "CheckReport",
    "check_executions",
    "load_reference",
    "verdict_code",
    "REFERENCE_DIR",
]

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: one character per verdict in a reference file
_CODES = {"feasible": "F", "infeasible": "I", "unknown": "U"}


def verdict_code(status: str) -> str:
    """``F``/``I``/``U`` for a status label; ``X`` for anything else."""
    return _CODES.get(status, "X")


@dataclass
class Execution:
    """One timed execution of one item, as the client saw it.

    ``doc`` is the report's ``to_dict`` form (``None`` when the call
    raised or the service answered with an error line, ``error`` then
    says why); ``cached`` and ``key`` come from a service response;
    ``counted`` marks the fixed set ``decided_ratio`` is taken over.
    """

    item: object
    latency: float
    doc: dict | None = None
    error: str | None = None
    cached: bool = False
    key: str | None = None
    counted: bool = True

    @property
    def status(self) -> str:
        return "error" if self.doc is None else self.doc["status"]


@dataclass
class CheckReport:
    """What the gate found."""

    failed: int = 0
    reasons: dict[str, int] = field(default_factory=dict)
    examples: list[str] = field(default_factory=list)

    def fail(self, execution: Execution, reason: str, detail: str = "") -> None:
        self.failed += 1
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        if len(self.examples) < 5:
            self.examples.append(
                f"item {execution.item.index}: {reason} {detail}".strip()
            )


def load_reference(workload: str) -> dict | None:
    """The reference document for ``workload`` (``None`` when absent)."""
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _schedule_ok(execution: Execution) -> bool:
    table = execution.doc["schedule"]
    if table is None:
        return True
    problem = execution.item.problem
    cloned, _cmap = clone_for_arbitrary_deadlines(problem.system)
    return validate(Schedule(cloned, problem.platform, table)).ok


def _contradicts(a: str, b: str) -> bool:
    return {a, b} == {"F", "I"}


def _hit_form(doc: dict) -> dict:
    """A report doc without the fields a cache hit may change."""
    out = dict(doc, elapsed=None, problem=dict(doc["problem"], label=None))
    out["stats"] = dict(doc["stats"], elapsed=None)
    return out


def check_executions(
    executions: list[Execution], seed: int, reference: dict | None
) -> CheckReport:
    """Run every check over every execution."""
    report = CheckReport()
    ref = None
    if reference is not None and reference["seed"] in (None, seed):
        ref = reference["verdicts"]
    first: dict[int, str] = {}
    groups: dict[int, set[str]] = {}
    computed: dict[str, dict] = {}
    for ex in executions:
        if ex.doc is not None and not ex.cached and ex.key is not None:
            computed.setdefault(ex.key, _hit_form(ex.doc))
    for ex in executions:
        index = ex.item.index
        if ex.doc is None:
            last = ex.error.strip().splitlines()[-1] if ex.error else ""
            report.fail(ex, "error", last)
            continue
        code = verdict_code(ex.status)
        if code == "X":
            report.fail(ex, "fault", ex.status)
            continue
        if not _schedule_ok(ex):
            report.fail(ex, "invalid-schedule")
            continue
        if ref is not None and index < len(ref) and _contradicts(code, ref[index]):
            report.fail(ex, "contradicts-reference", f"{code} vs {ref[index]}")
            continue
        if first.setdefault(index, code) != code:
            report.fail(ex, "verdict-changed", f"{code} vs {first[index]}")
            continue
        if ex.cached:
            original = computed.get(ex.key)
            if original is None or original != _hit_form(ex.doc):
                report.fail(ex, "cache-hit-differs")
                continue
        if ex.item.group is not None:
            groups.setdefault(ex.item.group, set()).add(code)
    # the engine cells of one instance must not disagree
    for ex in executions:
        if ex.item.group is not None and groups.get(ex.item.group, set()) >= {"F", "I"}:
            report.fail(ex, "engines-disagree")
    return report
