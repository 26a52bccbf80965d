"""Supervision-overhead benchmark: watched children vs in-process solving.

Measures what fault tolerance costs on a pinned seeded grid of tiny
cells, where per-cell solve time is small and the per-cell overhead of
supervised execution is at its *worst*:

* ``plain``      — ``run_batch`` on the default in-process path;
* ``supervised`` — the same campaign with ``supervised=True`` (watched
  children reused across cells: a pipe round trip and sentinel wait per
  cell, a fork only per worker, after a fault or after a fixed number
  of cells);
* ``chaos``      — supervised plus deterministic fault injection at the
  default smoke rate, counting faults and retries.

Statuses must be identical between plain and supervised (supervision is
semantically transparent); only wall-clock fields move between machines.

Usage::

    python benchmarks/bench_supervise.py --out supervise.json
    python benchmarks/bench_supervise.py --smoke --out /tmp/smoke.json
"""

from __future__ import annotations

import argparse
import json
import platform as py_platform
import sys
import time

from repro.batch import ChaosConfig, cells_for_matrix, run_batch
from repro.generator import GeneratorConfig, generate_instances

SCHEMA = "bench-supervise/v1"


def _grid(smoke: bool) -> dict:
    """The pinned campaign grid (tiny cells stress per-cell overhead)."""
    if smoke:
        return {"count": 10, "n": 3, "tmax": 3, "seed": 2009,
                "time_limit": 2.0}
    return {"count": 40, "n": 4, "tmax": 4, "seed": 2009,
            "time_limit": 5.0}


def _campaign(cells, **kw) -> dict:
    """One timed run_batch pass -> summary dict."""
    t0 = time.monotonic()
    report = run_batch(cells, **kw)
    wall = time.monotonic() - t0
    statuses: dict[str, int] = {}
    for r in report.records:
        statuses[r.status] = statuses.get(r.status, 0) + 1
    return {
        "cells": report.total,
        "statuses": statuses,
        "faults": report.faults,
        "retried": report.retried,
        "wall_time_s": round(wall, 3),
        "cells_per_s": round(report.total / wall, 2) if wall > 0 else None,
    }


def main(argv=None) -> int:
    """Run the benchmark and write the JSON snapshot."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid for CI latency")
    parser.add_argument("--out", default="supervise.json")
    args = parser.parse_args(argv)

    grid = _grid(args.smoke)
    instances = generate_instances(
        GeneratorConfig(n=grid["n"], m=2, tmax=grid["tmax"]),
        grid["count"], seed=grid["seed"],
    )
    cells = cells_for_matrix(instances, ["csp2+dc"], grid["time_limit"])

    plain = _campaign(cells)
    supervised = _campaign(cells, supervised=True)
    chaos = _campaign(
        cells, chaos=ChaosConfig(seed=grid["seed"], rate=0.3),
        retries=1, grace=0.5,
    )
    if plain["statuses"] != supervised["statuses"]:
        print("FAIL: supervised statuses diverge from plain execution")
        return 1

    overhead = None
    if plain["wall_time_s"] > 0:
        overhead = round(
            supervised["wall_time_s"] / plain["wall_time_s"], 2
        )
    doc = {
        "schema": SCHEMA,
        "scale": "smoke" if args.smoke else "full",
        "python": py_platform.python_version(),
        "grid": grid,
        "plain": plain,
        "supervised": supervised,
        "chaos": chaos,
        "supervision_overhead_x": overhead,
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    print(
        f"bench_supervise: plain {plain['wall_time_s']}s, supervised "
        f"{supervised['wall_time_s']}s ({overhead}x), chaos "
        f"{chaos['wall_time_s']}s with {chaos['faults']} faults / "
        f"{chaos['retried']} retried -> {args.out}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
