"""Solver-service throughput benchmark: cold solves vs warm memo serves.

Boots the daemon in-process (:class:`~repro.service.server.ServiceHandle`,
production configuration: supervised children, reused across solves)
and pushes a
pinned seeded grid through a pipelined :class:`ServiceClient` at
``jobs`` in {1, 4}:

* **cold** — empty memo cache, every request executes on the transport;
  the headline number is problems/s through the full admission ->
  warm supervised worker -> journal -> response path;
* **warm** — the same grid resubmitted against the now-populated cache;
  every response must be a cache hit (the run *fails* otherwise), so
  the number isolates the service's non-solving overhead.

Statuses must be identical across ``jobs`` values — concurrency is an
execution detail, never an answer change.

Usage::

    python benchmarks/bench_service.py --out BENCH_service.json
    python benchmarks/bench_service.py --smoke --out /tmp/smoke.json
    python benchmarks/bench_service.py --check-schema BENCH_service.json
"""

from __future__ import annotations

import argparse
import json
import platform as py_platform
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

from repro.generator import GeneratorConfig, generate_instances
from repro.service import ServiceClient, ServiceConfig, ServiceHandle
from repro.solvers.problem import Problem

SCHEMA = "bench-service/v1"
SOLVER = "csp2+dc"
JOBS = (1, 4)

REQUIRED_TOP_KEYS = ("schema", "scale", "python", "grid", "scenarios")
REQUIRED_SCENARIO_KEYS = ("jobs", "cold", "warm", "statuses")
REQUIRED_PASS_KEYS = ("wall_time_s", "problems_per_s", "cache_hits")


def _grid(smoke: bool) -> dict:
    """The pinned request grid (tiny problems stress per-request cost)."""
    if smoke:
        return {"count": 10, "n": 3, "tmax": 3, "seed": 2009,
                "time_limit": 2.0}
    return {"count": 40, "n": 4, "tmax": 4, "seed": 2009,
            "time_limit": 5.0}


def _problems(grid: dict) -> list[Problem]:
    instances = generate_instances(
        GeneratorConfig(n=grid["n"], m=2, tmax=grid["tmax"]),
        grid["count"], seed=grid["seed"],
    )
    return [
        Problem.of(
            inst.system, m=inst.m, time_limit=grid["time_limit"],
            label=f"seed:{inst.seed}",
        )
        for inst in instances
    ]


def _timed_pass(client: ServiceClient, problems: list[Problem]) -> dict:
    """One pipelined sweep of the grid -> summary dict."""
    hits = []
    t0 = time.monotonic()
    reports = client.solve_many(
        problems, SOLVER, on_response=lambda i, r, c: hits.append(c)
    )
    wall = time.monotonic() - t0
    return {
        "wall_time_s": round(wall, 3),
        "problems_per_s": round(len(problems) / wall, 2) if wall > 0 else None,
        "cache_hits": sum(hits),
        "statuses": dict(Counter(r.status_label for r in reports)),
    }


def _scenario(jobs: int, problems: list[Problem]) -> dict:
    """Cold + warm sweeps against one fresh daemon at this concurrency."""
    with tempfile.TemporaryDirectory() as tmp:
        config = ServiceConfig(
            jobs=jobs, cache_dir=str(Path(tmp) / "cache"), supervised=True,
        )
        with ServiceHandle(config) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                cold = _timed_pass(client, problems)
                warm = _timed_pass(client, problems)
    statuses = cold.pop("statuses")
    warm_statuses = warm.pop("statuses")
    if warm_statuses != statuses:
        raise AssertionError(
            f"jobs={jobs}: warm statuses diverge from cold"
        )
    return {"jobs": jobs, "cold": cold, "warm": warm, "statuses": statuses}


def check_schema(path: str) -> list[str]:
    """Validate a BENCH_service.json document; return problems (empty = ok)."""
    problems: list[str] = []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as exc:
        return [f"cannot read {path}: {exc}"]
    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    scenarios = doc.get("scenarios", [])
    if not scenarios:
        problems.append("no scenarios recorded")
    for i, sc in enumerate(scenarios):
        for key in REQUIRED_SCENARIO_KEYS:
            if key not in sc:
                problems.append(f"scenario {i} missing key {key!r}")
        for phase in ("cold", "warm"):
            for key in REQUIRED_PASS_KEYS:
                if key not in sc.get(phase, {}):
                    problems.append(f"scenario {i} {phase} missing {key!r}")
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_service.json")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid for CI latency")
    parser.add_argument("--check-schema", metavar="PATH",
                        help="validate an existing JSON file instead")
    args = parser.parse_args(argv)

    if args.check_schema:
        problems = check_schema(args.check_schema)
        for p in problems:
            print(f"bench-service schema: {p}", file=sys.stderr)
        if not problems:
            print(f"{args.check_schema}: schema ok ({SCHEMA})")
        return 1 if problems else 0

    grid = _grid(args.smoke)
    problems = _problems(grid)
    scenarios = [_scenario(jobs, problems) for jobs in JOBS]

    if any(sc["cold"]["cache_hits"] for sc in scenarios):
        print("FAIL: a cold pass was served from an empty cache")
        return 1
    if any(sc["warm"]["cache_hits"] != len(problems) for sc in scenarios):
        print("FAIL: a warm pass missed the memo cache")
        return 1
    if any(sc["statuses"] != scenarios[0]["statuses"] for sc in scenarios):
        print("FAIL: statuses diverge across jobs values")
        return 1

    doc = {
        "schema": SCHEMA,
        "scale": "smoke" if args.smoke else "full",
        "python": py_platform.python_version(),
        "grid": grid,
        "scenarios": scenarios,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    for sc in scenarios:
        print(
            f"bench_service: jobs={sc['jobs']} cold "
            f"{sc['cold']['problems_per_s']}/s, warm "
            f"{sc['warm']['problems_per_s']}/s "
            f"({len(problems)} problems)"
        )
    print(f"-> {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
