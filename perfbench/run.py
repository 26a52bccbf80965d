"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload engine|screen|serve --seed N \\
        --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with nothing installed;
``--trace 1`` is the separate traced run that yields the per-layer
metrics.  Either way every answer is checked after the timed loop, and
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it carries diagnostics that are not metrics: the sample count, the
failure reasons, the input digest and the host-speed control loop.

Run it from the repository root; it needs ``src/repro`` there and exits
with status 2 without a result when that is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: end-to-end metric -> unit (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "decided_ratio": "ratio",
    "peak_rss_mb": "MB",
}

#: per-layer metric -> unit (``--trace 1``)
PER_LAYER = {
    "generator.generate_s": "s",
    "model.clone_s": "s",
    "encodings.build_s": "s",
    "encodings.variables": "count",
    "csp.search_s": "s",
    "csp.nodes": "count",
    "csp.fails": "count",
    "csp.propagations": "count",
    "csp.nodes_per_s": "1/s",
    "analysis.cascade_s": "s",
    "analysis.decided_ratio": "ratio",
    "analysis.tests_run": "count",
    "kernels.demand_s": "s",
    "kernels.demand_calls": "count",
    "kernels.simulate_s": "s",
    "kernels.simulate_calls": "count",
    "solvers.fallthrough_s": "s",
    "solvers.fallthrough_nodes": "count",
    "solvers.self_s": "s",
    "schedule.validate_s": "s",
    "schedule.serialise_s": "s",
    "batch.cache_hit_ratio": "ratio",
    "batch.cache_get_s": "s",
    "batch.cache_put_s": "s",
    "batch.transport_s": "s",
    "batch.spawn_ipc_s": "s",
    "service.hit_latency_p50_s": "s",
    "service.miss_latency_p50_s": "s",
    "service.self_s": "s",
    "service.start_s": "s",
    "trace.overhead_ratio": "ratio",
}

#: fresh processes timed for ``setup_s``, which is their median
SETUP_REPEATS = 3

#: items per traced/untraced chunk of a traced run
CHUNK = {"engine": 8, "screen": 6, "serve": 25}

#: daemon-side spans a served request's latency is split into; every
#: ``SolveReport.to_dict`` is the schedule layer's, so the one the journal
#: line makes counts in ``schedule.serialise_s``, not in ``service.self_s``
SERVICE_SPANS = (
    "batch.cache_get", "batch.cache_put", "batch.transport", "schedule.serialise",
)


def _require_sources() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {ROOT}; nothing to measure",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]


def _pin_to_one_cpu() -> None:
    """Run this process, and every process it starts, on one CPU.

    Every workload keeps one item in flight, so its work is serial
    anyway.  Unpinned, the ``serve`` client, daemon and per-request child
    woke each other across the two vCPUs of the reference host, and
    interleaved 20 s runs moved p90 between 12 and 27 ms; pinned, between
    11.3 and 12.6 ms.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


# -- set-up -------------------------------------------------------------------

class Session:
    """Everything a run needs before its first timed item: the inputs, a
    finished warm-up and, for ``serve``, a connected daemon."""

    def __init__(self, workload: str, seed: int, size: int | None,
                 daemon_factory=None) -> None:
        from perfbench import workloads

        start = time.perf_counter()
        self.items = workloads.build_items(workload, seed, size)
        self.generate_s = time.perf_counter() - start
        self.spec = workloads.WORKLOADS[workload]
        self.seed = seed
        self.daemon = self.client = self.workdir = None
        warmup = workloads.warmup_items(workload)
        if self.spec.corpus:
            for item in warmup:
                execute(item)
            return
        from perfbench.serving import send_all
        from repro.service import ServiceClient

        OUT.mkdir(parents=True, exist_ok=True)
        self.workdir = Path(tempfile.mkdtemp(prefix="serve-", dir=OUT))
        try:
            self.daemon = daemon_factory(self.workdir)
            self.client = ServiceClient.connect(*self.daemon.address)
            send_all(self.client, warmup)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the daemon (if any) and remove its directory."""
        try:
            if self.daemon is not None:
                self.daemon.close(self.client)
        finally:
            if self.client is not None:
                self.client.close()
            if self.workdir is not None:
                shutil.rmtree(self.workdir, ignore_errors=True)


def _subprocess_daemon(workdir: Path):
    from perfbench.serving import Daemon

    return Daemon(ROOT, workdir)


def setup_probe(args) -> int:
    """Child side of a set-up measurement: set up, say so, tear down."""
    session = Session(args.workload, args.seed, args.items, _subprocess_daemon)
    try:
        print("ready", flush=True)
    finally:
        session.close()
    return 0


def measure_setup(args) -> list[float]:
    """Seconds from process start to "ready", once per fresh process."""
    samples = []
    for _ in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--setup-probe"]
        if args.items is not None:
            cmd += ["--items", str(args.items)]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}, said {line!r})")
    return samples


# -- timed loops --------------------------------------------------------------

def execute(item, tracer=None):
    """One in-process item: ``solve_problem`` and the report's dict form."""
    from perfbench.checks import Execution

    problem_module = sys.modules["repro.solvers.problem"]
    if tracer is not None:
        tracer.item = item.index
    start = time.perf_counter()
    try:
        doc = problem_module.solve_problem(item.problem, item.solver).to_dict()
    except Exception:
        return Execution(item, time.perf_counter() - start,
                         error=traceback.format_exc())
    return Execution(item, time.perf_counter() - start, doc=doc)


def run_untraced(session: Session, seconds: float):
    """Closed loop for about ``seconds``; returns a list of
    ``(executions, wall)`` per segment.

    A corpus is solved in whole passes, one segment each and each in
    its own order, so the run times every item equally often: another
    pass starts while it would end nearer the deadline than stopping now
    does, and there is always at least one.  ``serve`` sends its stream
    once, as one segment, until the deadline; its ``decided_ratio`` is
    taken over the first ``traced`` requests, which every run sends.
    """
    items = session.items
    start = time.perf_counter()
    if session.client is not None:
        from perfbench.serving import send_all

        done = send_all(session.client, items, start + seconds)
        for ex in done:
            ex.counted = ex.item.index < session.spec.traced
        return [(done, time.perf_counter() - start)]
    from perfbench.workloads import pass_order

    segments = []
    while True:
        began = time.perf_counter()
        order = pass_order(items, session.spec.name, session.seed, len(segments))
        done = [execute(item) for item in order]
        for ex in done:
            ex.counted = not segments
        segments.append((done, time.perf_counter() - began))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(segments) / 2 >= seconds:
            return segments


def run_traced(session: Session, tracer, chunk: int):
    """Alternate untraced and traced chunks over the traced items.

    In-process, each chunk runs both ways (the order flips every chunk)
    so traced and untraced time the same work; ``serve`` alternates
    chunks along its request sequence, since a repeat must stay a repeat.
    Returns every execution and the untraced/traced ones separately.
    """
    items = session.items
    executions = []
    plain, timed = [], []
    walls = {False: 0.0, True: 0.0}
    for c, first in enumerate(range(0, len(items), chunk)):
        part = items[first:first + chunk]
        if session.client is None:
            modes = (False, True) if c % 2 == 0 else (True, False)
        else:
            modes = (c % 2 == 1,)
        for traced in modes:
            start = time.perf_counter()
            if traced:
                with tracer.installed():
                    done = _run_part(session, part, tracer)
            else:
                done = _run_part(session, part, None)
            walls[traced] += time.perf_counter() - start
            (timed if traced else plain).extend(done)
            executions.extend(done)
    overhead = (len(timed) / walls[True]) / (len(plain) / walls[False])
    return executions, plain, timed, overhead


def _run_part(session: Session, part, tracer):
    if session.client is None:
        return [execute(item, tracer) for item in part]
    from perfbench.serving import send_all

    session.daemon.traced(tracer is not None)
    try:
        return send_all(session.client, part, tracer=tracer)
    finally:
        session.daemon.traced(False)


# -- metrics --------------------------------------------------------------------

def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8]


def _decided(status: str) -> bool:
    return status in ("feasible", "infeasible")


def end_to_end_metrics(segments, setup_s: float, rss_mb: float) -> dict:
    """Every execution of the run counts, each once: throughput is items
    completed over the timed wall, p50 and p90 are over every latency."""
    executions = [e for done, _wall in segments for e in done]
    latencies = [e.latency for e in executions]
    counted = [e for e in executions if e.counted]
    return {
        "setup_s": setup_s,
        "throughput_per_s": len(executions) / sum(wall for _done, wall in segments),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": _p90(latencies) if len(latencies) > 1 else latencies[0],
        "decided_ratio": sum(_decided(e.status) for e in counted) / len(counted),
        "peak_rss_mb": rss_mb,
    }


def per_layer_metrics(tracer, session: Session, plain, timed, overhead: float,
                      start_s: float) -> dict:
    n = len(timed)
    self_times = tracer.self_times()
    counts = tracer.counts

    def per_item(name: str) -> float:
        return self_times.get(name, 0.0) / n

    def count_per_item(name: str) -> float:
        return counts.get(name, 0) / n

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts.get(den) else 0.0

    search_s = self_times.get("csp.search", 0.0)
    served = session.client is not None
    if served:
        roots = tracer.root_time_by_item(SERVICE_SPANS)
        service_self = statistics.fmean(e.latency - roots[e.item.index] for e in timed)
        hits = [e.latency for e in plain if e.cached]
        misses = [e for e in plain if not e.cached and e.doc is not None]
        everything = plain + timed
        hit_ratio = sum(e.cached for e in everything) / len(everything)
    return {
        "generator.generate_s": session.generate_s,
        "model.clone_s": per_item("model.clone"),
        "encodings.build_s": per_item("encodings.build"),
        "encodings.variables": ratio("encodings.variables", "encodings.builds"),
        "csp.search_s": per_item("csp.search"),
        "csp.nodes": count_per_item("csp.nodes"),
        "csp.fails": count_per_item("csp.fails"),
        "csp.propagations": count_per_item("csp.propagations"),
        "csp.nodes_per_s": counts.get("csp.nodes", 0) / search_s if search_s else 0.0,
        "analysis.cascade_s": per_item("analysis.cascade"),
        "analysis.decided_ratio": ratio("analysis.decided", "analysis.cascades"),
        "analysis.tests_run": count_per_item("analysis.tests_run"),
        "kernels.demand_s": per_item("kernels.demand"),
        "kernels.demand_calls": count_per_item("kernels.demand_calls"),
        "kernels.simulate_s": per_item("kernels.simulate"),
        "kernels.simulate_calls": count_per_item("kernels.simulate_calls"),
        "solvers.fallthrough_s": per_item("solvers.fallthrough"),
        "solvers.fallthrough_nodes": count_per_item("solvers.fallthrough.nodes"),
        "solvers.self_s": per_item("solvers.solve"),
        "schedule.validate_s": per_item("schedule.validate"),
        "schedule.serialise_s": per_item("schedule.serialise"),
        "batch.cache_hit_ratio": hit_ratio if served else 0.0,
        "batch.cache_get_s": per_item("batch.cache_get"),
        "batch.cache_put_s": per_item("batch.cache_put"),
        "batch.transport_s": per_item("batch.transport"),
        "batch.spawn_ipc_s": statistics.median(
            e.latency - e.doc["elapsed"] for e in misses) if served else 0.0,
        "service.hit_latency_p50_s": statistics.median(hits) if served else 0.0,
        "service.miss_latency_p50_s": statistics.median(
            e.latency for e in misses) if served else 0.0,
        "service.self_s": service_self if served else 0.0,
        "service.start_s": start_s,
        "trace.overhead_ratio": overhead,
    }


# -- one run --------------------------------------------------------------------

def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(args) -> dict:
    from perfbench import checks, hostnoise, workloads
    from perfbench.serving import InProcessDaemon
    from perfbench.tracing import Tracer

    loop_before = hostnoise.loop_ms()
    workload = workloads.WORKLOADS[args.workload]
    setup_samples = [] if args.trace else measure_setup(args)
    tracer = Tracer()
    if args.trace:
        size = workload.traced if args.items is None else args.items
        session = Session(args.workload, args.seed, size,
                          lambda d: InProcessDaemon(d, tracer))
    else:
        session = Session(args.workload, args.seed, args.items, _subprocess_daemon)
    try:
        if args.trace:
            chunk = max(1, min(CHUNK[args.workload], len(session.items) // 2))
            executions, plain, timed, overhead = run_traced(session, tracer, chunk)
            start_s = session.daemon.start_s if session.daemon is not None else 0.0
            metrics = per_layer_metrics(tracer, session, plain, timed, overhead, start_s)
            units = PER_LAYER
        else:
            segments = run_untraced(session, args.seconds)
            executions = [e for done, _wall in segments for e in done]
            rss = (session.daemon.peak_rss_mb() if session.daemon is not None
                   else _peak_rss_mb())
            metrics = end_to_end_metrics(segments, statistics.median(setup_samples), rss)
            units = END_TO_END
    finally:
        session.close()
    reference = checks.load_reference(args.workload)
    if (reference is not None and reference["seed"] in (None, args.seed)
            and args.items is None and not args.trace
            and reference["digest"] != workloads.digest(
                sorted(session.items, key=lambda item: item.index))):
        raise RuntimeError(
            f"reference for {args.workload} was made from other inputs; "
            "regenerate it with perfbench/make_reference.py")
    gate = checks.check_executions(executions, args.seed, reference)
    if args.trace:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
    diagnostics = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": len(executions),
        "segments": [] if args.trace else [
            {"samples": len(done), "wall_s": wall} for done, wall in segments],
        "failed_ratio": gate.failed / len(executions),
        "fail_reasons": gate.reasons,
        "fail_examples": gate.examples,
        "setup_samples_s": setup_samples,
        "input_digest": workloads.digest(session.items),
        "host_loop_ms": {"before": loop_before, "after": hostnoise.loop_ms()},
    }
    print(json.dumps({"diagnostics": diagnostics}))
    return {
        "correct": gate.failed == 0,
        "attempted": len(executions),
        "failed": gate.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("engine", "screen", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--items", type=int, default=None,
                        help="use only the first N items (quick checks)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_sources()
    _pin_to_one_cpu()
    if args.setup_probe:
        return setup_probe(args)
    print(json.dumps(run(args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
