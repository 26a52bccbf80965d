# Developer entry points.  Everything runs from the repo root with the
# in-tree sources on PYTHONPATH (no install needed).

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint docs-check solvers-check solvers-md bench bench-portfolio difftest difftest-smoke chaos-smoke serve-smoke ci

## tier-1 test suite (the bar every PR must keep green)
test:
	$(PYTHON) -m pytest -x -q

## contract-aware static analysis (determinism, explain contract,
## registry coherence, pickle and trail safety); suppressions with
## justifications live in lint-baseline.txt
lint:
	$(PYTHON) -m repro.cli lint

## fail if any public module/callable lacks a docstring
docs-check:
	$(PYTHON) -m pytest -q tests/test_docstrings.py

## fail if docs/SOLVERS.md drifted from the solver registry
solvers-check:
	$(PYTHON) scripts/solvers_md.py --check

## regenerate docs/SOLVERS.md from the registry
solvers-md:
	$(PYTHON) scripts/solvers_md.py --write

## pytest-benchmark suite (REPRO_JOBS=N parallelizes the run matrices);
## the files are named explicitly because bench_*.py does not match
## pytest's default python_files
bench:
	$(PYTHON) -m pytest -q benchmarks/bench_*.py

## portfolio-vs-best-single wall-clock comparison
bench-portfolio:
	$(PYTHON) -m pytest benchmarks/bench_portfolio.py -q

## differential-testing campaign: cross-check every complete solver
## (+ the edf-exact oracle) on the seeded grid; non-zero exit on any
## disagreement, JSONL trail in difftest-artifacts.jsonl
difftest:
	$(PYTHON) -m repro.cli difftest --seed 0 --instances 200 \
	  --artifacts difftest-artifacts.jsonl

## small seeded difftest (what CI runs); fails CI on any disagreement
difftest-smoke:
	$(PYTHON) -m repro.cli difftest --seed 0 --instances 15 \
	  --time-limit 5 --quiet

## seeded chaos campaign: fault-injected run must lose no cell and
## journal byte-identically on re-run; non-zero exit otherwise
chaos-smoke:
	$(PYTHON) scripts/chaos_smoke.py

## solver-service gate: daemon answers byte-equivalent to solve_iter
## (modulo elapsed), warm re-run all cache hits, shard merge canonical
serve-smoke:
	$(PYTHON) scripts/serve_smoke.py

## what CI runs, stage for stage (scripts/ci.sh: lint, style and type
## gates, doc guards, pinned grids, smokes, perfbench's own tests, tier-1)
ci:
	sh scripts/ci.sh
