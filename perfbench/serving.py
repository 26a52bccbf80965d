"""The ``serve`` workload's two hosts and its closed-loop client.

Untraced, the daemon is ``repro-mgrts serve`` in its own process, in
production configuration: one supervised child per request, ``--jobs
1``, memo cache and journal in a fresh directory.  Traced, the same
configuration runs in this process behind ``ServiceHandle``; its
``Transport`` and ``ReportCache`` are swapped for timing proxies around
them, so their spans land in the tracer.  Either way one TCP connection
sends one request at a time and waits for its response.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from perfbench.checks import Execution

__all__ = ["Daemon", "InProcessDaemon", "send_all"]


class Daemon:
    """``python -m repro.cli serve`` in a child process."""

    def __init__(self, root: Path, workdir: Path) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--jobs", "1",
             "--cache-dir", str(workdir / "cache"),
             "--journal", str(workdir / "journal.jsonl"), "--port", "0"],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        try:
            hello = json.loads(line)
            self.address = (hello["host"], hello["port"])
        except (ValueError, KeyError) as exc:
            self.close()
            raise RuntimeError(f"daemon did not report its address: {line!r}") from exc

    def peak_rss_mb(self) -> float:
        """The daemon's own peak resident set (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def close(self, client=None) -> None:
        """Ask the daemon to stop, then make sure it has."""
        try:
            if client is not None:
                client.shutdown()
            self.proc.wait(timeout=30)
        except Exception:
            self.proc.kill()
            self.proc.wait(timeout=30)
        finally:
            self.proc.stdout.close()


class _TimingTransport:
    """A ``Transport`` that times each ``execute`` as ``batch.transport``."""

    def __init__(self, inner, tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def execute(self, items):
        with self.tracer.span("batch.transport"):
            results = list(self.inner.execute(items))
        yield from results


class _TimingCache:
    """A ``ReportCache`` proxy timing ``get`` and ``put``."""

    def __init__(self, inner, tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def get(self, key):
        with self.tracer.span("batch.cache_get"):
            return self.inner.get(key)

    def put(self, key, value):
        with self.tracer.span("batch.cache_put"):
            self.inner.put(key, value)

    def __len__(self) -> int:
        return len(self.inner)


class InProcessDaemon:
    """The production configuration behind ``ServiceHandle``.

    :meth:`traced` swaps the service's transport and cache for their
    timing proxies (and back); the client only switches between
    requests, with none in flight.
    """

    def __init__(self, workdir: Path, tracer) -> None:
        from repro.service import ServiceConfig, ServiceHandle

        config = ServiceConfig(
            jobs=1, cache_dir=str(workdir / "cache"),
            journal=str(workdir / "journal.jsonl"),
        )
        start = time.perf_counter()
        self.handle = ServiceHandle(config)
        self.address = self.handle.start()
        self.start_s = time.perf_counter() - start
        service = self.handle.service
        self._plain = (service.transport, service.cache)
        self._timed = (_TimingTransport(service.transport, tracer),
                       _TimingCache(service.cache, tracer))

    def traced(self, on: bool) -> None:
        service = self.handle.service
        service.transport, service.cache = self._timed if on else self._plain

    def close(self, client=None) -> None:
        self.handle.stop()


def send_all(client, items, deadline: float | None = None, tracer=None) -> list[Execution]:
    """Send ``items`` one at a time until done or past ``deadline``."""
    out = []
    for item in items:
        if deadline is not None and time.perf_counter() >= deadline:
            break
        if tracer is not None:
            tracer.item = item.index
        start = time.perf_counter()
        entry = client.recv(client.submit(item.problem, item.solver))
        latency = time.perf_counter() - start
        if entry.get("type") == "report":
            out.append(Execution(
                item=item, latency=latency, doc=entry["report"],
                cached=bool(entry.get("cached")), key=entry.get("key"),
            ))
        else:
            out.append(Execution(
                item=item, latency=latency,
                error=f"{entry.get('code')}: {entry.get('detail')}",
            ))
    return out
