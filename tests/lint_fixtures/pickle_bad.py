"""Bad examples for the R4 pickle-safety rules (lint fixture, never imported).

Expected findings: 4x R4.process-callable (submit lambda, map local
function, Process target lambda, WorkItem fn lambda), 1x
R4.process-payload (lambda inside Process args).
"""

from concurrent.futures import ProcessPoolExecutor
from multiprocessing import Process

from repro.batch.transport import WorkItem


def run_bad(items):
    """Everything shipped to a worker here fails to pickle."""
    with ProcessPoolExecutor() as pool:
        handles = [pool.submit(lambda x: x + 1, item) for item in items]

    def local_worker(payload):
        return payload

    with ProcessPoolExecutor() as pool:
        results = list(pool.map(local_worker, items))
    proc = Process(target=lambda: None, args=(items, lambda x: x))
    work = WorkItem("k", fn=lambda payload, attempt: payload, payload=items)
    return handles, results, proc, work
