"""Steadiness report: repeat workloads and show how much each metric moves.

    python3 perfbench/steady.py [--workload NAME ...] [--runs K]
        [--first-seed S] [--same-seed] [--seconds N] [--trace 0|1]

Runs ``perfbench/run.py`` K times per workload, one run at a time, each
with the next seed (or K times with one seed under ``--same-seed``), and
prints every metric with its unit, median, quartiles and relative
spread: the distance between the quartiles as a share of the median,
the figure the acceptance rule compares with the metric's bound in
BENCHMARK.json.  A spread above its bound is flagged ``OVER``, one above
a third of it ``near``.  ``failed_ratio`` and the latency sample count
come from each run's diagnostics line.  Under ``--same-seed`` every
metric that must repeat exactly (the decided ratio and the per-layer
counts) is flagged ``NOT EXACT`` if any run differs.

With ``--runs 1`` this is the one command that prints every end-to-end
metric of every workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"

#: metrics that depend only on the inputs, never on timing
EXACT_UNITS = ("count", "ratio")
NOT_EXACT = ("trace.overhead_ratio",)


def _bounds() -> dict[str, float]:
    path = ROOT / "BENCHMARK.json"
    if not path.exists():
        return {}
    doc = json.loads(path.read_text())
    return {m["name"]: m["bound"] for m in doc.get("end_to_end", [])}


def _run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def _spread(values: list[float]) -> tuple[float, float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else 0.0


def report(workload: str, runs: list[tuple[dict, dict]], bounds: dict,
           same_seed: bool) -> int:
    """Print one workload's table; returns the number of flags raised."""
    flags = 0
    print(f"\n== {workload}: {len(runs)} run(s), seeds "
          f"{[d['seed'] for d, _ in runs]}")
    for diag, result in runs:
        loop = diag["host_loop_ms"]
        print(f"   seed {diag['seed']}: correct={result['correct']} "
              f"attempted={result['attempted']} samples={diag['samples']} "
              f"failed_ratio={diag['failed_ratio']:.4f} "
              f"host loop {loop['before']:.2f}->{loop['after']:.2f} ms"
              + (f" fails={diag['fail_reasons']}" if diag["fail_reasons"] else ""))
        flags += not result["correct"]
    print(f"   {'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>7s} {'bound':>6s}")
    names = list(runs[0][1]["metrics"])
    failed = [d["failed_ratio"] for d, _ in runs]
    for name in names + ["failed_ratio"]:
        if name == "failed_ratio":
            values, unit = failed, "ratio"
        else:
            values = [r["metrics"][name]["value"] for _, r in runs]
            unit = runs[0][1]["metrics"][name]["unit"]
        q1, med, q3, spread = _spread(values)
        bound = bounds.get(name)
        flag = ""
        if bound is not None and spread > bound:
            flag = "OVER"
        elif bound is not None and spread > bound / 3:
            flag = "near"
        exact = unit in EXACT_UNITS and name not in NOT_EXACT
        if same_seed and exact and len(set(values)) > 1:
            flag += " NOT EXACT"
        flags += "OVER" in flag or "EXACT" in flag
        print(f"   {name:28s} {unit:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{spread:7.3f} {'' if bound is None else bound:>6} {flag}")
    return flags


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append",
                        choices=("engine", "screen", "serve"))
    parser.add_argument("--runs", type=int, default=5)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--same-seed", action="store_true")
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json, else 30")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        path = ROOT / "BENCHMARK.json"
        seconds = json.loads(path.read_text())["run_seconds"] if path.exists() else 30
    bounds = _bounds()
    flags = 0
    for workload in args.workload or ["engine", "screen", "serve"]:
        runs = []
        for k in range(args.runs):
            seed = args.first_seed + (0 if args.same_seed else k)
            runs.append(_run(workload, seed, seconds, args.trace))
        flags += report(workload, runs, bounds, args.same_seed)
    print(f"\n{flags} flag(s)")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
