#!/usr/bin/env python
"""Service smoke gate: the daemon must answer exactly like solve_iter.

Boots the real ``repro-mgrts serve`` daemon on localhost and holds it to
the library baseline on a seeded 40-problem grid:

* **cold equivalence** — every report streamed back over TCP must match
  the in-process ``solve_iter`` answer byte-for-byte (canonical JSON,
  elapsed zeroed — wall clock is the one sanctioned difference);
* **warm memo** — resubmitting the same grid must serve every response
  from the shared cache (``"cached": true``), computing nothing;
* **warm workers** — the cold pass must start fewer supervised children
  than it solved problems (``workers_spawned`` from ``stats``), and no
  child may outlive the daemon after ``shutdown``;
* **journal sharding** — splitting the grid across two daemon runs with
  separate shard journals, then ``merge_journals``-ing them, must
  reproduce the single-daemon journal modulo elapsed.
* **every platform kind** — the first problems of the grid recast on a
  uniform and on a heterogeneous platform must be served byte-equal to
  ``solve_iter`` too, and a solver that does not run on the platform
  (``sat`` on a uniform one) must be refused ``bad-request`` at
  admission, before any worker starts.

Usage: ``python scripts/serve_smoke.py`` (from the repo root; exits
non-zero on any divergence).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.batch.journal import merge_journals
from repro.generator.random_systems import GeneratorConfig, generate_instances
from repro.model.platform import Platform
from repro.service.client import ServiceClient, ServiceError
from repro.solvers.problem import Problem, solve_iter

SOLVER = "csp2+dc"
TIME_LIMIT = 5.0
VARIABLE_LIMIT = 2_000_000  # matches the server cap: clamping is identity


def make_problems(count, seed):
    """The seeded smoke grid, budgets explicit so clamping changes nothing."""
    instances = generate_instances(
        GeneratorConfig(n=3, m=2, tmax=3), count, seed=seed
    )
    return [
        Problem.of(
            inst.system, m=inst.m, time_limit=TIME_LIMIT,
            variable_limit=VARIABLE_LIMIT, label=f"seed:{inst.seed}",
        )
        for inst in instances
    ]


def recast(problems):
    """Each problem again on a uniform and on a heterogeneous platform."""
    out = []
    for problem in problems:
        rates = [[1 + (i + j) % 2 for j in range(2)]
                 for i in range(problem.system.n)]
        for platform in (Platform.uniform([2, 1]),
                         Platform.heterogeneous(rates)):
            out.append(Problem(
                problem.system, platform, time_limit=TIME_LIMIT,
                variable_limit=VARIABLE_LIMIT, label=problem.label,
            ))
    return out


def canonical(report_dict):
    """A report document with wall-clock fields zeroed, in stable bytes."""
    doc = json.loads(json.dumps(report_dict))  # deep copy
    doc["elapsed"] = 0.0
    if doc.get("stats"):
        doc["stats"]["elapsed"] = 0.0
    # matrix position in solve_iter, always 0 for per-request serving:
    # ordering bookkeeping, not solve content
    doc["index"] = 0
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def canonical_journal(path):
    """key -> canonical report bytes, plus the key order, for one journal."""
    order, content = [], {}
    for line in Path(path).read_text().splitlines():
        entry = json.loads(line)
        if entry["key"] not in content:
            order.append(entry["key"])
        content[entry["key"]] = canonical(entry["report"])
    return order, content


def _stat_fields(pid):
    """``/proc/<pid>/stat`` fields after the command name, or ``None``."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return stat.rsplit(")", 1)[1].split()


def child_pids(pid):
    """Live child processes of ``pid`` (Linux ``/proc``)."""
    children = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(entry)
            if fields and fields[1] == str(pid) and fields[0] != "Z":
                children.append(int(entry))
    return children


def alive(pid):
    """True iff ``pid`` is a running (not zombie) process."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"


class Daemon:
    """One ``repro-mgrts serve`` subprocess on an ephemeral port.

    Supervised, as deployed: each solve runs in a watched child that is
    reused for the next request.  ``jobs=1`` on purpose: solves then
    complete in admission order, so the journal's key order is
    deterministic and the shard-merge comparison below can be
    byte-for-byte rather than set-wise.
    """

    def __init__(self, journal, cache_dir, jobs=1):
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--jobs", str(jobs),
                "--cache-dir", str(cache_dir), "--journal", str(journal),
            ],
            stdout=subprocess.PIPE,
            text=True,
            cwd=str(Path(__file__).resolve().parent.parent),
            env={"PYTHONPATH": "src"},
        )
        listening = json.loads(self.proc.stdout.readline())
        assert listening["type"] == "listening", listening
        self.host, self.port = listening["host"], listening["port"]

    def client(self):
        return ServiceClient.connect(self.host, self.port)

    def shutdown(self):
        """Stop the daemon; returns ``(exit code, children left alive)``."""
        workers = child_pids(self.proc.pid)
        with self.client() as client:
            client.shutdown()
        code = self.proc.wait(timeout=60.0)
        deadline = time.monotonic() + 5.0
        while any(alive(p) for p in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        return code, [p for p in workers if alive(p)]


def main(argv=None):
    """Run the service smoke gate; return a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=40)
    parser.add_argument("--seed", type=int, default=2009)
    args = parser.parse_args(argv)

    problems = make_problems(args.count, args.seed)
    baseline = [
        canonical(r.to_dict()) for r in solve_iter(problems, SOLVER)
    ]

    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        # -- one daemon, the whole grid: cold equivalence + warm memo -------
        daemon = Daemon(tmp / "full.jsonl", tmp / "cache-full")
        with daemon.client() as client:
            cold_flags, warm_flags = [], []
            cold = client.solve_many(
                problems, SOLVER,
                on_response=lambda i, r, c: cold_flags.append(c),
            )
            cold_stats = client.stats()
            client.solve_many(
                problems, SOLVER,
                on_response=lambda i, r, c: warm_flags.append(c),
            )
            stats = client.stats()
        divergent = [
            i for i, (report, want) in enumerate(zip(cold, baseline))
            if canonical(report.to_dict()) != want
        ]
        if divergent:
            print(f"FAIL: {len(divergent)} of {len(problems)} served reports "
                  f"diverge from the solve_iter baseline (first: problem "
                  f"{divergent[0]})")
            return 1
        if any(cold_flags):
            print(f"FAIL: {sum(cold_flags)} cold responses claimed "
                  "to be cached against an empty cache")
            return 1
        if not all(warm_flags):
            print(f"FAIL: only {sum(warm_flags)} of {len(problems)} warm "
                  "responses were cache hits")
            return 1
        if stats["computed"] != len(problems):
            print(f"FAIL: server computed {stats['computed']} solves, "
                  f"expected {len(problems)}")
            return 1
        if cold_stats["workers_spawned"] >= cold_stats["computed"]:
            print(f"FAIL: the cold pass spawned "
                  f"{cold_stats['workers_spawned']} workers for "
                  f"{cold_stats['computed']} solves (no reuse)")
            return 1
        code, orphans = daemon.shutdown()
        if code != 0:
            print("FAIL: daemon exited non-zero after shutdown")
            return 1
        if orphans:
            print(f"FAIL: {len(orphans)} worker process(es) outlived the "
                  f"daemon: {orphans}")
            return 1

        # -- two daemons, half the grid each: shard-merge equivalence -------
        half = len(problems) // 2
        for name, part in (("a", problems[:half]), ("b", problems[half:])):
            daemon = Daemon(tmp / f"shard-{name}.jsonl", tmp / "cache-shards")
            with daemon.client() as client:
                client.solve_many(part, SOLVER)
            if daemon.shutdown() != (0, []):
                print(f"FAIL: shard daemon {name!r} exited non-zero "
                      "or left workers behind")
                return 1
        merge_journals(
            [tmp / "shard-a.jsonl", tmp / "shard-b.jsonl"],
            tmp / "merged.jsonl",
        )
        if canonical_journal(tmp / "merged.jsonl") \
                != canonical_journal(tmp / "full.jsonl"):
            print("FAIL: merged shard journals diverge from the "
                  "single-daemon journal (modulo elapsed)")
            return 1

        # -- uniform and heterogeneous platforms: served, or refused ------
        recast_problems = recast(problems[:8])
        want = [
            canonical(r.to_dict())
            for r in solve_iter(recast_problems, SOLVER)
        ]
        daemon = Daemon(tmp / "platforms.jsonl", tmp / "cache-platforms")
        with daemon.client() as client:
            served = client.solve_many(recast_problems, SOLVER)
            try:
                client.solve(recast_problems[0], "sat")
                refused = None
            except ServiceError as exc:
                refused = exc.code
            platform_stats = client.stats()
        if [canonical(r.to_dict()) for r in served] != want:
            print("FAIL: uniform/heterogeneous reports diverge from the "
                  "solve_iter baseline")
            return 1
        if refused != "bad-request" or platform_stats["computed"] != len(
            recast_problems
        ):
            print(f"FAIL: sat on a uniform platform was answered "
                  f"{refused!r} (want bad-request) with "
                  f"{platform_stats['computed']} solves computed")
            return 1
        if daemon.shutdown() != (0, []):
            print("FAIL: platforms daemon exited non-zero or left workers")
            return 1

    print(
        f"serve smoke OK: {len(problems)} problems cold-equivalent to "
        f"solve_iter on {cold_stats['workers_spawned']} warm worker(s), "
        f"{len(problems)} warm cache hits, 2-shard merge matches the "
        f"single-daemon journal, {len(recast_problems)} uniform/"
        "heterogeneous problems served like solve_iter and sat-on-uniform "
        "refused, no worker outlived its daemon"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
