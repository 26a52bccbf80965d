"""Crash-safe JSONL journals: loading, torn-tail repair, shard merging.

Every long-running artifact in this codebase — campaign results, service
request logs — is journaled the same way: one JSON object per line with
a ``"key"`` field, appended and flushed as work completes.  The format
buys three properties this module makes explicit and testable:

* **torn-line tolerance** — a crash mid-write leaves at most one
  incomplete final line; readers skip it, and :func:`trim_torn_tail`
  cuts it before a journal is appended to again;
* **last-line-wins** — the same key may appear more than once (a resumed
  campaign re-recording a retried fault, overlapping shards); the
  *latest* occurrence is authoritative, because appends are ordered;
* **shard merging** — :func:`merge_journals` reassembles N shard
  journals (a campaign split across machines, a service's per-worker
  logs) into one canonical journal: keys in first-appearance order
  across the shards in the order given, content from each key's last
  occurrence, raw line text preserved byte-for-byte.

:func:`load_journal` is the campaign-specific reader ``run_batch`` uses
for ``--resume``; the merge machinery below is format-generic so the
solver service's ``{"key": ..., "report": ...}`` journals merge with the
same tool as campaign ``{"key": ..., "record": ...}`` journals.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "load_journal",
    "trim_torn_tail",
    "merge_journals",
    "MergeReport",
]


def load_journal(path: str | os.PathLike) -> dict[str, dict]:
    """Parse a results journal into ``{cell key: record dict}``.

    Tolerates a torn final line (the crash case journaling exists for) and
    skips any line that does not decode into a well-formed record — resume
    must never be the thing that fails a campaign.
    """
    from repro.experiments.runner import RunRecord

    out: dict[str, dict] = {}
    try:
        fh = open(path)
    except OSError:
        return out
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
                RunRecord.from_dict(entry["record"])  # shape check
                out[entry["key"]] = entry["record"]
            except (ValueError, KeyError, TypeError):
                continue  # torn/corrupt/foreign line: recompute that cell
    return out


def trim_torn_tail(path: str | os.PathLike) -> bool:
    """Cut an incomplete final line off ``path`` before appending to it.

    A crash mid-write can leave a final line with no terminating newline;
    truncating back to the last complete line keeps the journal pure
    JSONL once new lines are appended after it.  Returns True iff bytes
    were removed.  A missing or empty file is left alone.
    """
    p = Path(path)
    try:
        if not p.exists() or p.stat().st_size == 0:
            return False
    except OSError:
        return False
    with open(p, "rb+") as tail:
        data = tail.read()
        if data.endswith(b"\n"):
            return False
        tail.truncate(data.rfind(b"\n") + 1)
    return True


@dataclass
class MergeReport:
    """Accounting for one :func:`merge_journals` pass."""

    #: shard paths read, in the order given
    shards: list = field(default_factory=list)
    #: total lines seen across all shards (torn/corrupt included)
    lines: int = 0
    #: unique keys written to the merged journal
    records: int = 0
    #: extra occurrences of already-seen keys (superseded by last-wins)
    duplicates: int = 0
    #: lines skipped as torn / corrupt / keyless
    torn: int = 0


def merge_journals(
    shards: list[str | os.PathLike],
    out: str | os.PathLike,
) -> MergeReport:
    """Combine N shard journals into one canonical-order journal.

    Keys are emitted in first-appearance order scanning the shards in
    the order given; each key's *last* occurrence anywhere supplies its
    line (last-line-wins, matching what a resume replay would honor).
    Winning lines are written back verbatim — byte-for-byte the text the
    producing process journaled — so merging never reserializes and a
    single-shard merge is an identity copy of its complete lines.

    Works on any ``{"key": ..., ...}`` JSONL (campaign ``record``
    journals and service ``report`` journals alike); torn, corrupt and
    keyless lines are counted and skipped, never copied.
    """
    report = MergeReport(shards=[str(s) for s in shards])
    order: list[str] = []
    winning: dict[str, str] = {}
    for shard in shards:
        try:
            fh = open(shard)
        except OSError:
            continue  # a missing shard merges as empty
        with fh:
            for raw in fh:
                line = raw.strip()
                if not line:
                    continue
                report.lines += 1
                try:
                    entry = json.loads(line)
                    key = entry["key"]
                except (ValueError, KeyError, TypeError):
                    report.torn += 1
                    continue
                if not isinstance(key, str):
                    report.torn += 1
                    continue
                if key in winning:
                    report.duplicates += 1
                else:
                    order.append(key)
                winning[key] = line
    report.records = len(order)
    out_path = Path(out)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = out_path.with_suffix(out_path.suffix + ".tmp")
    with open(tmp, "w") as fh:
        for key in order:
            fh.write(winning[key] + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, out_path)
    return report
