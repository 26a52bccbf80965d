"""The solver service: a network front door for the solving engine.

The paper's experiments (Section VI) are large matrices of independent
:class:`~repro.solvers.problem.Problem` cells — the exact workload the
ROADMAP wants served from a shared daemon instead of re-run locally.
This package is that daemon plus its wire protocol and client:

* :mod:`repro.service.protocol` — the JSONL envelope schema: request
  lines in (``solve`` / ``stats`` / ``shutdown``), response lines out
  (``report`` / ``stats`` / ``error``), server caps and per-request
  budget clamping, and the request -> cache-key mapping;
* :mod:`repro.service.server` — :class:`SolverService`: an asyncio
  JSONL-over-TCP (and stdio) daemon executing on the batch layer's
  :class:`~repro.batch.transport.Transport` seam, with bounded
  admission (structured ``busy`` errors, never dropped connections), a
  shared memo of reports (a :class:`~repro.batch.cache.ResultCache`) and a
  crash-safe request journal;
* :mod:`repro.service.client` — :class:`ServiceClient`: the thin
  blocking client behind ``repro-mgrts submit`` and the tests.

``repro-mgrts serve`` starts a daemon, ``repro-mgrts submit`` streams a
problem file through one, and ``repro-mgrts journal merge`` reassembles
sharded journals (service or campaign) into one canonical artifact.
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import PROTOCOL, ProtocolError, ServiceCaps
from repro.service.server import ServiceConfig, ServiceHandle, SolverService

__all__ = [
    "PROTOCOL",
    "ProtocolError",
    "ServiceCaps",
    "ServiceClient",
    "ServiceError",
    "ServiceConfig",
    "ServiceHandle",
    "SolverService",
]
