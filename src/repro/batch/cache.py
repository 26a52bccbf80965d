"""The content-addressed on-disk cache behind campaigns and the service.

Layout: each root holds one append-only log, ``<root>/memo.log``.  A
``put`` appends one record, ``"\\n" + key + " " + text + "\\n"``, with one
``os.write`` on a descriptor opened ``O_APPEND`` for that call alone, so
no temp file, rename or directory is made per entry and a forked child
inherits no open log.  A ``get`` looks the key up in an in-memory index
of ``key -> (offset, length)``, extends that index from the log's tail
whenever the file has grown (which takes in other processes' appends),
and reads the entry with ``pread``.  The last record for a key wins, so
an overwrite is just a later record.

Concurrency: appends from any number of processes interleave whole,
because each record is one ``O_APPEND`` write; within a process one lock
guards the index, so the daemon's executor threads may share an
instance.  Entries are content-addressed by
:func:`repro.solvers.problem.solve_key` (which a campaign cell reaches
through :func:`repro.batch.cells.cell_key`), so the only race is two
processes computing the same question, and either record wins harmlessly.

Torn tail: a crash mid-append can leave a partial record at the end of
the log.  The index only takes lines that end in ``"\\n"``, and every
record starts with one, so the next append closes the torn line and
starts its own on a fresh one.  The torn key then holds a truncated
document, which its consumer parses as a miss and overwrites: a crash
costs at most a miss, never a wrong hit.  This is why ``put`` accepts
only single-line texts (every consumer stores compact JSON).

Roots written before the log kept one file per entry under
``<root>/<key[:2]>/<key>.json``.  An instance lists those files once, on
first need; it reads them, read-only, for keys the log lacks, and counts
them in ``len``.  Nothing writes them any more.

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
import threading
from pathlib import Path

__all__ = ["ResultCache"]


class ResultCache:
    """Maps :func:`~repro.solvers.problem.solve_key` hex digests to the
    JSON text of their outcome."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        #: the append-only log holding every entry this version writes
        self.log = self.root / "memo.log"
        self._lock = threading.Lock()
        self._index: dict[str, tuple[int, int]] = {}
        self._indexed = 0  # bytes of the log the index covers
        self._inode = -1  # which file those bytes were read from
        self._legacy: set[str] | None = None  # per-entry files, walked once

    def _legacy_path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def _refresh(self, fd: int) -> None:
        """Index the complete records appended since the last look.

        Called with the lock held.
        """
        st = os.fstat(fd)
        size = st.st_size
        if st.st_ino != self._inode or size < self._indexed:
            # a new log (or one replaced under us): index it afresh
            self._index.clear()
            self._indexed, self._inode = 0, st.st_ino
        if size == self._indexed:
            return
        base = self._indexed
        chunk = os.pread(fd, size - base, base)
        pos = 0
        end = chunk.rfind(b"\n") + 1  # a torn or in-flight tail waits
        while pos < end:
            nl = chunk.index(b"\n", pos)
            space = chunk.find(b" ", pos, nl)
            if space > pos:
                key = chunk[pos:space].decode("utf-8", "surrogateescape")
                self._index[key] = (base + space + 1, nl - space - 1)
            pos = nl + 1
        self._indexed = base + end

    def _lookup(self, key: str) -> tuple[int | None, tuple[int, int] | None]:
        """A read descriptor on the log (None when there is no log yet;
        the caller closes it) and the key's ``(offset, length)`` in it,
        once the index has taken in what was appended since the last look."""
        try:
            fd = os.open(self.log, os.O_RDONLY)
        except FileNotFoundError:
            return None, None
        try:
            with self._lock:
                self._refresh(fd)
                return fd, self._index.get(key)
        except BaseException:
            os.close(fd)
            raise

    def get(self, key: str) -> str | None:
        """The entry's text, or None when it is missing or unreadable."""
        try:
            fd, span = self._lookup(key)
            if fd is not None:
                try:
                    if span is not None:
                        return os.pread(fd, span[1], span[0]).decode()
                finally:
                    os.close(fd)
            if key not in self._legacy_keys():
                return None
            with open(self._legacy_path(key)) as fh:
                return fh.read()
        except (OSError, ValueError):  # ValueError: not decodable text
            return None

    def put(self, key: str, text: str) -> None:
        """Append one entry's record to the log, in one write."""
        if "\n" in text or "\n" in key or " " in key:
            raise ValueError("a memo entry must be one line under a bare key")
        record = f"\n{key} {text}\n".encode()
        fd = os.open(self.log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, record)
        finally:
            os.close(fd)
        if written != len(record):
            raise OSError(f"short append to {self.log}: {written}/{len(record)} bytes")

    def _legacy_keys(self) -> set[str]:
        """The keys of the per-entry files, listed on first use."""
        if self._legacy is None:
            self._legacy = {p.stem for p in self.root.glob("??/*.json")}
        return self._legacy

    def __contains__(self, key: str) -> bool:
        fd, span = self._lookup(key)
        if fd is not None:
            os.close(fd)
        return span is not None or key in self._legacy_keys()

    def __len__(self) -> int:
        """Number of distinct keys, in the log or in per-entry files."""
        fd, _ = self._lookup("")
        if fd is not None:
            os.close(fd)
        with self._lock:
            return len(self._index) + len(self._legacy_keys().difference(self._index))
