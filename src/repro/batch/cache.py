"""Content-addressed on-disk caches for batch campaigns and the service.

Layout: one JSON file per entry under ``<root>/<key[:2]>/<key>.json``
(two-level fan-out keeps directories small on big campaigns).  Writes go
through a same-directory temp file + ``os.replace`` so a crash mid-write
can never leave a truncated entry — readers see either the old state or
the complete new one.

Caches are shared freely between concurrent workers and campaigns:
entries are immutable once written (content-addressed by
:func:`repro.solvers.problem.solve_key`, which a campaign cell reaches
through :func:`repro.batch.cells.cell_key`), so the only race is two
processes computing the same question, and either's ``os.replace`` wins
harmlessly.

Two value shapes share the machinery:

* :class:`ResultCache` — flat :class:`~repro.experiments.runner.RunRecord`
  dicts, the campaign memo ``run_batch`` consults;
* :class:`ReportCache` — full :class:`~repro.solvers.problem.SolveReport`
  documents (schedule table included) kept and handed back as their
  canonical JSON text, the solver service's shared memo layer.  Point
  it at a *different* root than a :class:`ResultCache` — both address
  by the same key, and the value shapes are incompatible.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import asdict
from pathlib import Path

from repro.solvers.problem import REPORT_KEYS

__all__ = ["ResultCache", "ReportCache"]


class _JsonFileCache:
    """Shared layout + atomic-write + tolerant-read machinery.

    Subclasses define how a value becomes an entry's JSON text
    (:meth:`_encode`) and back (:meth:`_decode`); everything about paths,
    atomicity and corruption tolerance lives here once.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _encode(self, value) -> str:
        raise NotImplementedError  # pragma: no cover - abstract

    def _decode(self, text: str):
        raise NotImplementedError  # pragma: no cover - abstract

    def get(self, key: str):
        """The cached value, or None.

        Unreadable/corrupt entries (e.g. an out-of-band partial copy) are
        treated as misses, never errors — the work is simply recomputed.
        """
        path = self._path(key)
        try:
            with open(path) as fh:
                return self._decode(fh.read())
        except (OSError, ValueError, TypeError, KeyError):
            return None

    def put(self, key: str, value) -> None:
        """Atomically persist one value under its key, in one write."""
        text = self._encode(value)
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as fh:
                fh.write(text)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        """Number of cached entries (walks the fan-out directories)."""
        return sum(1 for _ in self.root.glob("??/*.json"))


class ResultCache(_JsonFileCache):
    """Maps :func:`~repro.batch.cells.cell_key` hex digests (a cell's
    :func:`~repro.solvers.problem.solve_key`) to records."""

    def _encode(self, value) -> str:
        return json.dumps(asdict(value), separators=(",", ":"))

    def _decode(self, text: str):
        from repro.experiments.runner import RunRecord

        return RunRecord(**json.loads(text))


class ReportCache(_JsonFileCache):
    """Maps :func:`~repro.solvers.problem.solve_key` digests to full
    :class:`~repro.solvers.problem.SolveReport` documents, as text.

    The solver service's memo layer: ``put`` takes a report's canonical
    text (:func:`~repro.service.protocol.report_text`, encoded once by
    the worker that solved it) and writes those bytes; ``get`` hands the
    same text back.  An entry that does not parse to an object with
    exactly ``SolveReport.to_dict``'s keys, in order, is a miss, so a
    hit's text can be patched and re-encoded into the bytes the cold
    solve produced.
    """

    def _encode(self, value: str) -> str:
        return value

    def _decode(self, text: str) -> str:
        doc = json.loads(text)
        if not isinstance(doc, dict) or tuple(doc) != REPORT_KEYS:
            raise ValueError("not a SolveReport document")
        return text
