#!/bin/sh
# Minimal CI: contract lint first (fastest, most specific), then the
# docstring guard, registry-docs drift guard, the paper-table benchmarks'
# import check, the pinned kernel and engine grids, the smokes, the repo
# benchmark's own tests, the one-path guards (process manager, outcome
# builders, memo log, compatibility) and the tier-1 test suite.
# Usage: sh scripts/ci.sh   (from the repo root; no install required)
set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== lint: contract-aware static analysis must be clean =="
python -m repro.cli lint

echo "== ruff: style gate (skipped when ruff is not installed) =="
if python -m ruff --version >/dev/null 2>&1; then
    python -m ruff check src/repro scripts
else
    echo "ruff not installed; skipping (configured in pyproject.toml)"
fi

echo "== mypy: typed-core gate (skipped when mypy is not installed) =="
if python -m mypy --version >/dev/null 2>&1; then
    python -m mypy src/repro/solvers/spec.py src/repro/solvers/registry.py src/repro/solvers/problem.py
else
    echo "mypy not installed; skipping (configured in pyproject.toml)"
fi

echo "== docs-check: public modules and callables must be documented =="
python -m pytest -q tests/test_docstrings.py

echo "== solvers-check: docs/SOLVERS.md must match the solver registry =="
python scripts/solvers_md.py --check

echo "== bench-collect: the paper-table benchmarks still import and collect =="
python -m pytest -q --collect-only benchmarks/bench_*.py

echo "== kernel-parity: kernels byte-identical to their references, engine wiring equal to its reference builder, engine, csp2 and certificate pins hold, bin tests equal simulation, csp2 search stacks, GC traffic and failed-state memo =="
python -m pytest -q tests/test_kernel_parity.py tests/test_engine_wiring.py tests/test_engine_regression.py \
    tests/test_csp2_regression.py tests/test_partitioned.py tests/test_csp2_dedicated_unit.py tests/test_csp2_gc.py tests/test_csp2_memo.py

echo "== difftest-smoke: solvers must agree on the seeded grid (exact oracle cross-check) =="
python -m repro.cli difftest --seed 0 --instances 15 --time-limit 5 --quiet

echo "== chaos-smoke: fault-injected campaign must lose no cell, deterministically =="
python scripts/chaos_smoke.py

echo "== serve-smoke: daemon byte-equivalent to solve_iter on every platform kind, unsolvable pairs refused, warm cache hits, shard merge canonical =="
python scripts/serve_smoke.py

echo "== perfbench: repo benchmark harness tests (outside tier-1's testpaths) =="
python -m pytest -q perfbench/tests

echo "== one-path guards: warm watched children are the one parallel path, only batch/supervise.py creates processes, each outcome has one builder, each memo is one append-only log, and artifacts of earlier versions still resume, hit and answer =="
python -m pytest -q tests/test_transport.py tests/test_supervise.py tests/test_racing.py tests/test_process_manager.py \
    tests/test_outcome_builders.py tests/test_memo_log.py tests/test_outcome_compat.py

echo "== tier-1: full test suite =="
python -m pytest -x -q
