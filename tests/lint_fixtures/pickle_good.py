"""Good examples for the R4 pickle-safety rules (lint fixture, never imported).

Module-level worker, plain-data payloads: clean under every rule.
"""

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import Process

from repro.batch.transport import WorkItem


def solve_one(payload):
    """Module-level worker: pickles by qualified name."""
    return payload


def run_good(items):
    """Ship only module-level callables and plain data to workers."""
    with ProcessPoolExecutor() as pool:
        results = list(pool.map(solve_one, items))
    proc = Process(target=solve_one, args=(items,))
    work = WorkItem("k", solve_one, items)
    return results, proc, work
