"""Regenerate the reference verdicts checked in under perfbench/reference.

    python3 perfbench/make_reference.py [--workload NAME ...]

Solves every item of each workload's full list in-process (``serve``
problems, drawn for the default seed, clamped exactly as the daemon
clamps them) and writes ``reference/<workload>.json``: the seed it
holds for (``null``: every seed, since the corpus is fixed), the input
digest and one character per item in list order, ``F`` feasible, ``I``
infeasible, ``U`` unknown.  Node budgets make these verdicts independent of the
host, so the file only changes when the program's answers do.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=("engine", "screen", "serve"))
    args = parser.parse_args(argv)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.checks import REFERENCE_DIR, verdict_code
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, build_items, digest
    from repro.service.protocol import ServiceCaps, clamp_problem
    from repro.solvers.problem import solve_problem

    REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in args.workload or ["engine", "screen", "serve"]:
        items = sorted(build_items(workload, DEFAULT_SEED), key=lambda i: i.index)
        seed = None if WORKLOADS[workload].corpus else DEFAULT_SEED
        codes = []
        for item in items:
            problem = item.problem
            if workload == "serve":
                problem = clamp_problem(problem, ServiceCaps())
            codes.append(verdict_code(solve_problem(problem, item.solver).status.value))
        doc = {"seed": seed, "digest": digest(items), "verdicts": "".join(codes)}
        path = REFERENCE_DIR / f"{workload}.json"
        path.write_text(json.dumps(doc) + "\n")
        print(f"{path.relative_to(ROOT)}: {len(codes)} verdicts, "
              f"{sum(c != 'U' for c in codes)} decided")
    return 0


if __name__ == "__main__":
    sys.exit(main())
