"""Vectorised-kernel benchmark: kernel vs scalar paths, parity enforced.

Times the two hot paths that :mod:`repro.kernels` replaced against the
scalar references they must stay byte-identical to:

* **simulator** — the block-stepping kernel
  (:func:`repro.kernels.simulate.simulate_static`, reached through
  ``static_key``) vs the slot-by-slot loop of
  :func:`repro.baselines.simulator.simulate_priority_policy`, for
  global EDF and global fixed priority on a pinned seeded grid;
* **demand** — the numpy interval-load kernels of
  :mod:`repro.kernels.demand` (prefix-sum table, forced-demand scan) vs
  their pure-Python references (``_*_reference``), called directly on
  the inputs the necessary-condition tests build.

Every cell *asserts* result equality before recording a time, so the
benchmark doubles as a coarse parity check: a speedup obtained by
diverging is a crash, not a number.  Statuses and verdicts are
machine-independent; only the wall-clock fields may move across runs.

Usage::

    python benchmarks/bench_kernels.py --out BENCH_kernels.json
    python benchmarks/bench_kernels.py --smoke --out /tmp/smoke.json
    python benchmarks/bench_kernels.py --check-schema BENCH_kernels.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

from repro.analysis import necessary
from repro.baselines.simulator import simulate_priority_policy
from repro.generator.random_systems import generate_system
from repro.kernels import demand

SCHEMA = "bench-kernels/v1"

#: top-level keys every BENCH_kernels.json must carry (CI schema guard)
REQUIRED_TOP_KEYS = ("schema", "scale", "python", "numpy", "sections", "totals")
#: per-section keys (CI schema guard)
REQUIRED_SECTION_KEYS = (
    "name",
    "instances",
    "kernel_s",
    "scalar_s",
    "speedup",
)


def _systems(count: int, tmax_choices=(5, 6, 8, 10)):
    out = []
    for seed in range(count):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        out.append((generate_system(rng, n, rng.choice(tmax_choices)),
                    rng.randint(1, 3)))
    return out


def _sim_obs(res):
    table = None if res.schedule is None else res.schedule.table.tolist()
    return (res.schedulable, res.missed, res.cycles_simulated, table)


def _bench_simulator(count: int) -> dict:
    """EDF + fixed-priority: block-stepping kernel vs slot-by-slot loop."""
    cases = []
    # longer periods -> longer hyperperiods, where block stepping pays
    for system, m in _systems(count, tmax_choices=(8, 10, 12, 15)):
        rng = random.Random(system.hyperperiod * 31 + m)
        order = list(range(system.n))
        rng.shuffle(order)
        rank = [0] * system.n
        for pos, i in enumerate(order):
            rank[i] = pos
        cases.append((system, m, rank))

    def edf_key(i, rel, dl, rem):
        return (dl, i)

    kernel_s = scalar_s = 0.0
    for system, m, rank in cases:
        t0 = time.perf_counter()
        k_edf = simulate_priority_policy(
            system, m, priority=edf_key, static_key=("edf", None)
        )
        k_fp = simulate_priority_policy(
            system, m, priority=lambda i, r, d, x: (rank[i], i),
            static_key=("rank", rank),
        )
        kernel_s += time.perf_counter() - t0
        t0 = time.perf_counter()
        s_edf = simulate_priority_policy(system, m, priority=edf_key)
        s_fp = simulate_priority_policy(
            system, m, priority=lambda i, r, d, x: (rank[i], i)
        )
        scalar_s += time.perf_counter() - t0
        assert _sim_obs(k_edf) == _sim_obs(s_edf), "EDF kernel diverged"
        assert _sim_obs(k_fp) == _sim_obs(s_fp), "FP kernel diverged"
    return {
        "name": "simulator",
        "instances": len(cases) * 2,
        "kernel_s": round(kernel_s, 6),
        "scalar_s": round(scalar_s, 6),
        "speedup": round(scalar_s / kernel_s, 3) if kernel_s else None,
    }


def _demand_inputs(system, m):
    """The kernel arguments the necessary-condition tests would pass."""
    system = necessary._constrained(system)
    T = system.hyperperiod
    spans = necessary._window_spans(system)
    frags = necessary._job_fragments(system)
    starts, ends = sorted(set(frags[0])), sorted(set(frags[1]))
    if not frags[3] or len(starts) * len(ends) > necessary.MAX_FORCED_PAIRS:
        forced = None
    else:
        forced = (*frags, starts, ends, m)
    return spans, T, m, forced


def _demand_obs(inputs, enclosed, min_procs, forced_witness):
    spans, T, m, forced = inputs
    cells = necessary.MAX_TABLE_CELLS
    return (
        enclosed(spans, T, m, cells),
        min_procs(spans, T, cells),
        None if forced is None else forced_witness(*forced),
    )


def _bench_demand(count: int) -> dict:
    """Interval-load kernels: numpy vs the pure-Python references."""
    cases = [_demand_inputs(s, m) for s, m in _systems(count)]
    t0 = time.perf_counter()
    with_np = [
        _demand_obs(c, demand.enclosed_excess_witness,
                    demand.interval_min_processors,
                    demand.forced_demand_witness)
        for c in cases
    ]
    kernel_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    reference = [
        _demand_obs(c, demand._enclosed_excess_witness_reference,
                    demand._interval_min_processors_reference,
                    demand._forced_demand_witness_reference)
        for c in cases
    ]
    scalar_s = time.perf_counter() - t0
    assert with_np == reference, "demand kernel diverged from its reference"
    return {
        "name": "demand",
        "instances": len(cases),
        "kernel_s": round(kernel_s, 6),
        "scalar_s": round(scalar_s, 6),
        "speedup": round(scalar_s / kernel_s, 3) if kernel_s else None,
    }


def run_grid(smoke: bool = False) -> dict:
    """The full benchmark document (tiny grid under ``--smoke``)."""
    sim_count = 12 if smoke else 120
    demand_count = 10 if smoke else 80
    sections = [_bench_simulator(sim_count), _bench_demand(demand_count)]
    totals = {
        "kernel_s": round(sum(s["kernel_s"] for s in sections), 6),
        "scalar_s": round(sum(s["scalar_s"] for s in sections), 6),
    }
    return {
        "schema": SCHEMA,
        "scale": "smoke" if smoke else "default",
        "python": sys.version.split()[0],
        "numpy": True,
        "sections": sections,
        "totals": totals,
    }


def check_schema(path: str) -> list[str]:
    """Schema violations in a BENCH_kernels.json file (empty = OK)."""
    with open(path) as fh:
        doc = json.load(fh)
    problems = []
    for key in REQUIRED_TOP_KEYS:
        if key not in doc:
            problems.append(f"missing top-level key {key!r}")
    if doc.get("schema") != SCHEMA:
        problems.append(f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    for section in doc.get("sections", []):
        for key in REQUIRED_SECTION_KEYS:
            if key not in section:
                problems.append(
                    f"section {section.get('name')!r} missing {key!r}"
                )
    return problems


def main(argv: list[str] | None = None) -> int:
    """CLI: run the grid or check a snapshot's schema."""
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=None, help="write the JSON document here")
    ap.add_argument(
        "--smoke", action="store_true", help="tiny grid for CI (seconds)"
    )
    ap.add_argument(
        "--check-schema", metavar="PATH",
        help="validate an existing snapshot instead of running",
    )
    args = ap.parse_args(argv)
    if args.check_schema:
        problems = check_schema(args.check_schema)
        for p in problems:
            print(f"schema: {p}", file=sys.stderr)
        return 1 if problems else 0
    doc = run_grid(smoke=args.smoke)
    text = json.dumps(doc, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
