"""Reproduction harness for the paper's experiments (Section VII).

One module per table/figure, all sharing :mod:`repro.experiments.runner`:

* :mod:`repro.experiments.figure1` — availability-interval chart of the
  running example;
* :mod:`repro.experiments.table1`  — overrun counts per solver, solved vs
  unsolved instances (500 problems, m=5, n=10, Tmax=7);
* :mod:`repro.experiments.table2`  — unsolved instances split by the
  ``r > 1`` utilization filter;
* :mod:`repro.experiments.table3`  — instance distribution and mean
  resolution time per utilization-ratio bin;
* :mod:`repro.experiments.table4`  — scaling n with m = ceil(U), Tmax=15.

Budgets are scaled down by default (pure Python vs the paper's 2009 C++/
Java; see docs/ARCHITECTURE.md) — ``paper_scale=True`` or the CLI's
``--paper`` restores the original 500 instances x 30 s.

Execution is delegated to :mod:`repro.batch`: every table runner accepts
``jobs=`` (worker processes) and ``cache_dir=`` (content-addressed result
cache), and the ``repro batch`` CLI runs ad-hoc campaigns with streaming
JSONL output and crash-safe resume.
"""

from repro.experiments.runner import (
    ExperimentRun,
    RunRecord,
    run_instances,
)
from repro.experiments.figure1 import figure1
from repro.experiments.table1 import Table1Config, Table1Result, run_table1
from repro.experiments.table2 import Table2Result, run_table2
from repro.experiments.table3 import Table3Result, run_table3
from repro.experiments.table4 import Table4Config, Table4Result, run_table4

__all__ = [
    "ExperimentRun",
    "RunRecord",
    "run_instances",
    "figure1",
    "Table1Config",
    "Table1Result",
    "run_table1",
    "Table2Result",
    "run_table2",
    "Table3Result",
    "run_table3",
    "Table4Config",
    "Table4Result",
    "run_table4",
]
