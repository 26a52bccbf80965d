"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

Tiny runs (a handful of items, a fraction of a second) of every workload
in both modes, plus the input, correctness-gate and tracing contracts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import checks, tracing, workloads  # noqa: E402
from perfbench import run as bench  # noqa: E402

WORKLOADS = ("engine", "screen", "serve")


def _run(*args: str) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--seed", "1",
         "--seconds", "0.2", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["diagnostics"], json.loads(lines[-1])


def test_metric_tables_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_untraced_run_reports_every_end_to_end_metric(workload):
    diag, result = _run("--workload", workload, "--trace", "0", "--items", "8")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.END_TO_END
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1 and diag["failed_ratio"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_reports_every_layer_and_isolates_them(workload):
    _diag, result = _run("--workload", workload, "--trace", "1", "--items", "8")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == bench.PER_LAYER
    assert result["correct"]
    assert metrics["trace.overhead_ratio"] > 0
    if workload == "engine":
        assert metrics["csp.search_s"] > 0 and metrics["csp.propagations"] > 0
        assert metrics["analysis.cascade_s"] == 0
    else:
        assert metrics["csp.search_s"] == 0
    if workload == "screen":
        assert metrics["analysis.cascade_s"] > 0 and metrics["kernels.simulate_calls"] > 0
    if workload == "serve":
        assert metrics["batch.spawn_ipc_s"] > 0 and metrics["batch.transport_s"] > 0
    else:
        assert metrics["batch.spawn_ipc_s"] == 0 and metrics["batch.transport_s"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_inputs(workload):
    first = workloads.digest(workloads.build_items(workload, 5, 30))
    assert first == workloads.digest(workloads.build_items(workload, 5, 30))
    assert first != workloads.digest(workloads.build_items(workload, 6, 30))


def test_every_pass_solves_the_same_corpus_in_a_seeded_order():
    items = workloads.build_items("screen", 5, 30)
    assert workloads.pass_order(items, "screen", 5, 0) is items
    second = workloads.pass_order(items, "screen", 5, 1)
    assert second == workloads.pass_order(items, "screen", 5, 1)
    assert second != items and second != workloads.pass_order(items, "screen", 6, 1)
    assert sorted(i.index for i in second) == sorted(i.index for i in items)


def test_serve_stream_repeats_only_where_planned():
    items = workloads.build_items("serve", 3, 400)
    keys = [tuple(t.as_tuple() for t in i.problem.system) for i in items]
    seen = set()
    for item, key in zip(items, keys):
        assert (key in seen) == (item.repeat_of is not None)
        seen.add(key)
    assert 0.15 < sum(i.repeat_of is not None for i in items) / len(items) < 0.35


def test_contradicting_reference_counts_as_failed():
    ref = checks.load_reference("engine")
    flipped = dict(ref, verdicts=ref["verdicts"].translate(str.maketrans("FI", "IF")))
    session = bench.Session("engine", 1, 24)
    [(executions, _wall)] = bench.run_untraced(session, 0.0)
    assert checks.check_executions(executions, 1, ref).failed == 0
    gate = checks.check_executions(executions, 1, flipped)
    assert gate.failed > 0
    assert "contradicts-reference" in gate.reasons


def _originals() -> dict:
    return {(owner, attr): getattr(owner, attr)
            for owner, attr, _make in tracing.patch_targets()}


def test_untraced_mode_leaves_every_wrapped_function_alone(monkeypatch):
    originals = _originals()
    seen = []
    real_execute = bench.execute

    def spy(item, tracer=None):
        seen.append(all(getattr(o, a) is f for (o, a), f in originals.items()))
        return real_execute(item, tracer)

    monkeypatch.setattr(bench, "execute", spy)
    session = bench.Session("engine", 1, 6)
    [(executions, _wall)] = bench.run_untraced(session, 0.0)
    assert len(executions) == 6
    assert seen and all(seen)


def test_tracer_installs_wrappers_and_restores_originals():
    originals = _originals()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert all(getattr(o, a) is not f for (o, a), f in originals.items())
    assert all(getattr(o, a) is f for (o, a), f in originals.items())


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert outer.self_time == pytest.approx(outer.duration - inner.duration)
    assert inner.parent is outer and outer.parent is None
