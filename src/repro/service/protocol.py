"""The solver service wire protocol: JSONL envelopes, caps, cache keys.

One JSON object per line, both directions.  The server speaks first with
a ``hello`` line advertising the protocol version, the solver names it
can run, its budget caps and its admission window; after that the client
streams request lines and the server streams response lines, each tagged
with the request's ``id``, so responses may interleave freely with
requests (and with each other — completion order is not request order).

A request line may be at most ``max_line_bytes`` long (advertised in
hello, :data:`MAX_LINE_BYTES`); a longer one is answered ``bad-request``
and the server resumes reading at the next newline.  A line that does
not decode (bad JSON, bad UTF-8, nesting deeper than the decoder's
stack), is not an object, or carries an ``id`` that is not a scalar
(string, number, boolean or null) is answered ``bad-request`` with
``"id": null``.

Request lines (client -> server)::

    {"id": <scalar>, "type": "solve", "problem": {Problem.to_dict...},
     "solver": "<SolverSpec string>", "options": {...}}
    {"id": <scalar>, "type": "stats"}
    {"id": <scalar>, "type": "shutdown"}

Response lines (server -> client)::

    {"id": ..., "type": "report", "key": "<cell key>", "cached": bool,
     "report": {SolveReport.to_dict...}}
    {"id": ..., "type": "stats", "stats": {...counters...}}
    {"id": ..., "type": "ok"}                       (shutdown ack)
    {"id": ..., "type": "error", "code": "...", "detail": "..."}

Error codes: ``busy`` (admission window full — resubmit later),
``bad-request`` (malformed line, bad problem payload, non-positive or
non-identical-platform request), ``unknown-solver`` (name does not parse
or resolve), ``internal`` (a server-side bug; the connection survives).

Per-request budgets ride the problem payload — ``time_limit`` (wall),
``node_limit`` (search nodes) and ``variable_limit`` (the memory guard)
— and are validated server-side, then clamped to the server's
:class:`ServiceCaps` by :func:`clamp_problem`: a missing wall budget
gets the server default, an over-cap budget is reduced, a non-positive
budget is rejected.  :func:`request_cell` maps the clamped request onto
the batch layer's content-addressed key space
(:func:`~repro.batch.cells.cell_key`), which is what lets the service
serve identical cells from the shared memo cache without re-solving.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from typing import Any

from repro.batch.cells import DEFAULT_VARIABLE_LIMIT, Cell, cell_key
from repro.solvers.problem import Problem
from repro.solvers.registry import is_solver_name, solver_info
from repro.solvers.spec import SolverSpec

__all__ = [
    "PROTOCOL",
    "MAX_LINE_BYTES",
    "ERR_BUSY",
    "ERR_BAD_REQUEST",
    "ERR_UNKNOWN_SOLVER",
    "ERR_INTERNAL",
    "ProtocolError",
    "ServiceCaps",
    "clamp_problem",
    "parse_solve_request",
    "request_cell",
    "encode",
    "hello_line",
    "report_line",
    "stats_line",
    "ok_line",
    "error_line",
]

#: protocol identifier sent in the hello line; bump on breaking changes
PROTOCOL = "repro-service/v1"

#: longest request line the server reads, newline included (advertised
#: in hello); a longer line is answered ``bad-request`` and skipped
MAX_LINE_BYTES = 1 << 20

#: admission window full; the request was not enqueued — resubmit later
ERR_BUSY = "busy"
#: malformed or invalid request (bad JSON, bad payload, bad budgets)
ERR_BAD_REQUEST = "bad-request"
#: solver name does not parse or resolve in the registry
ERR_UNKNOWN_SOLVER = "unknown-solver"
#: server-side failure outside the supervised solve path
ERR_INTERNAL = "internal"


class ProtocolError(ValueError):
    """A request the server rejects with a structured error line."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


@dataclass(frozen=True)
class ServiceCaps:
    """Server-side budget ceilings applied to every request.

    Attributes
    ----------
    max_time_limit:
        Hard wall-budget ceiling in seconds (the paper ran 30 s budgets;
        that is the default ceiling).
    default_time_limit:
        Wall budget granted to requests that carry none — the service
        never runs an unbounded search.
    max_node_limit:
        Ceiling on per-request node budgets; ``None`` leaves node
        budgets uncapped (a wall budget still applies).
    max_variable_limit:
        Ceiling on the memory-guard budget; requests carrying none get
        this value, so memory-bound encodings are always guarded.
    """

    max_time_limit: float = 30.0
    default_time_limit: float = 5.0
    max_node_limit: int | None = None
    max_variable_limit: int = DEFAULT_VARIABLE_LIMIT

    def to_dict(self) -> dict[str, Any]:
        """JSON form advertised in the hello line."""
        return {
            "max_time_limit": self.max_time_limit,
            "default_time_limit": self.default_time_limit,
            "max_node_limit": self.max_node_limit,
            "max_variable_limit": self.max_variable_limit,
        }


def clamp_problem(problem: Problem, caps: ServiceCaps) -> Problem:
    """``problem`` with its budgets validated and clamped to the caps.

    A missing wall budget becomes the server default; budgets above a
    ceiling are reduced to it; a non-positive budget is a
    ``bad-request`` (zero means "no work", which a client should not
    ask a server to pretend to do).  The returned problem is what the
    service actually solves *and* what its response reports, so clamping
    is always visible to the client.
    """
    time_limit = problem.time_limit
    if time_limit is None:
        time_limit = caps.default_time_limit
    elif time_limit <= 0:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"time_limit must be > 0, got {time_limit}"
        )
    time_limit = min(time_limit, caps.max_time_limit)
    node_limit = problem.node_limit
    if node_limit is not None:
        if node_limit <= 0:
            raise ProtocolError(
                ERR_BAD_REQUEST, f"node_limit must be > 0, got {node_limit}"
            )
        if caps.max_node_limit is not None:
            node_limit = min(node_limit, caps.max_node_limit)
    variable_limit = problem.variable_limit
    if variable_limit is None:
        variable_limit = caps.max_variable_limit
    elif variable_limit <= 0:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"variable_limit must be > 0, got {variable_limit}",
        )
    else:
        variable_limit = min(variable_limit, caps.max_variable_limit)
    return replace(
        problem,
        time_limit=time_limit,
        node_limit=node_limit,
        variable_limit=variable_limit,
    )


@dataclass(frozen=True)
class SolveRequest:
    """One admitted, validated, clamped solve request."""

    id: Any
    problem: Problem
    solver: str
    options: dict[str, Any]
    key: str


def parse_solve_request(
    entry: dict, caps: ServiceCaps
) -> SolveRequest:
    """Validate one decoded ``solve`` envelope into a :class:`SolveRequest`.

    Raises :class:`ProtocolError` (``bad-request`` / ``unknown-solver``)
    on anything the server should refuse: missing fields, a problem
    payload that does not decode, a solver name that does not resolve,
    options the solver does not accept, bad budgets, or a platform the
    service's cache-key space cannot address.
    """
    if "problem" not in entry:
        raise ProtocolError(ERR_BAD_REQUEST, "solve request has no 'problem'")
    solver = entry.get("solver")
    if not isinstance(solver, str) or not solver.strip():
        raise ProtocolError(
            ERR_BAD_REQUEST, "solve request needs a 'solver' name string"
        )
    if not is_solver_name(solver):
        raise ProtocolError(
            ERR_UNKNOWN_SOLVER, f"unknown solver {solver!r}"
        )
    spec = SolverSpec.parse(solver)
    options = entry.get("options") or {}
    if not isinstance(options, dict):
        raise ProtocolError(ERR_BAD_REQUEST, "'options' must be an object")
    unknown = sorted(set(options) - set(solver_info(spec).options))
    if unknown:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            f"unknown option(s) {unknown} for solver {spec.canonical!r}",
        )
    try:
        problem = Problem.from_dict(entry["problem"])
    except ProtocolError:
        raise
    except Exception as exc:
        raise ProtocolError(
            ERR_BAD_REQUEST, f"bad problem payload: {exc}"
        ) from exc
    problem = clamp_problem(problem, caps)
    key, _cell = request_cell(problem, spec.canonical)
    return SolveRequest(
        id=entry.get("id"),
        problem=problem,
        solver=spec.canonical,
        options=dict(options),
        key=key,
    )


def request_cell(problem: Problem, solver: str) -> tuple[str, Cell]:
    """Map a clamped request onto the batch layer's cache-key space.

    The memo layer is addressed by :func:`~repro.batch.cells.cell_key`,
    which keys identical-platform cells by content (system, m, solver,
    budgets, seed) — request-scoped bookkeeping (``label``) is
    deliberately outside the key, so two clients asking the same
    question share one cache entry.  Non-identical platforms have no
    cell form yet and are refused as ``bad-request``.
    """
    if not problem.platform.is_identical:
        raise ProtocolError(
            ERR_BAD_REQUEST,
            "the solver service only accepts identical platforms "
            f"(got {problem.platform.kind})",
        )
    cell = Cell(
        tasks=tuple(t.as_tuple() for t in problem.system),
        m=problem.platform.m,
        solver=solver,
        time_limit=problem.time_limit,
        csp1_variable_limit=problem.variable_limit,
        seed=problem.seed,
        node_limit=problem.node_limit,
    )
    return cell_key(cell), cell


# -- envelope builders ------------------------------------------------------

def encode(doc: dict) -> str:
    """One compact JSONL line (newline included)."""
    return json.dumps(doc, separators=(",", ":")) + "\n"


def hello_line(
    solvers: list[str], caps: ServiceCaps, max_pending: int
) -> str:
    """The server's first line on every connection."""
    return encode(
        {
            "type": "hello",
            "protocol": PROTOCOL,
            "solvers": list(solvers),
            "caps": caps.to_dict(),
            "max_pending": max_pending,
            "max_line_bytes": MAX_LINE_BYTES,
        }
    )


def report_line(request_id: Any, key: str, report, cached: bool) -> str:
    """A completed solve: the full ``SolveReport`` document."""
    return encode(
        {
            "id": request_id,
            "type": "report",
            "key": key,
            "cached": cached,
            "report": report.to_dict(),
        }
    )


def stats_line(request_id: Any, stats: dict) -> str:
    """The server's counters, answered in-line (never queued)."""
    return encode({"id": request_id, "type": "stats", "stats": dict(stats)})


def ok_line(request_id: Any) -> str:
    """Plain acknowledgment (shutdown)."""
    return encode({"id": request_id, "type": "ok"})


def error_line(request_id: Any, code: str, detail: str) -> str:
    """A structured refusal; the connection stays open."""
    return encode(
        {"id": request_id, "type": "error", "code": code, "detail": detail}
    )
