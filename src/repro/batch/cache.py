"""The content-addressed on-disk cache behind campaigns and the service.

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

A :class:`ResultCache` stores and returns text; what the text holds is
its consumer's business, and each consumer parses an entry once and
treats a document of the wrong shape as a miss:

* ``run_batch`` keeps flat :class:`~repro.experiments.runner.RunRecord`
  documents (its campaign memo);
* the solver service keeps full
  :class:`~repro.solvers.problem.SolveReport` documents (schedule table
  included) under ``<cache_dir>/reports``.

Point the two at different roots: both address by the same key, and a
record is not a report.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

__all__ = ["ResultCache"]


class ResultCache:
    """Maps :func:`~repro.solvers.problem.solve_key` hex digests to the
    JSON text of their outcome."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> str | None:
        """The entry's text, or None when it is missing or unreadable."""
        try:
            with open(self._path(key)) as fh:
                return fh.read()
        except (OSError, ValueError):  # ValueError: not decodable text
            return None

    def put(self, key: str, text: str) -> None:
        """Atomically persist one entry's text under its key, in one write."""
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
