"""The memo log: each ``ResultCache`` root is one append-only file.

Appends from two processes at once, a torn tail left by a crash, an
overwrite seen through a second instance, undecodable bytes, the file
count and the distinct-key count.  Per-entry files of earlier versions
are covered by ``tests/test_outcome_compat.py``.
"""

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.batch import ResultCache, cell_key, run_batch
from repro.batch.cells import Cell
from repro.batch.transport import WorkResult
from repro.experiments.runner import RunRecord
from repro.generator.random_systems import Instance
from repro.model.system import TaskSystem
from repro.service import ServiceClient, ServiceConfig, ServiceHandle
from repro.service.protocol import report_text
from repro.solvers.problem import solve_problem

SYSTEM = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 3, 3)])
TORN = Cell.from_instance(Instance(SYSTEM, 2), "csp2+dc", 5.0)
WHOLE = Cell.from_instance(Instance(SYSTEM, 2), "csp2", 5.0)

#: entries each writer process appends
PER_WRITER = 200


def _text(tag, i):
    """Writer ``tag``'s ``i``-th entry: compact JSON of 20 B to 40 KB."""
    doc = {"writer": tag, "i": i, "pad": tag * (i * 997 % 40_000)}
    return json.dumps(doc, separators=(",", ":"))


def _write_many(root, tag, sibling):
    """Append ``PER_WRITER`` entries once ``sibling`` is ready too."""
    cache = ResultCache(root)
    Path(root, f"../ready-{tag}").touch()
    deadline = time.monotonic() + 60
    while not Path(root, f"../ready-{sibling}").exists():
        assert time.monotonic() < deadline, "the sibling writer never started"
        time.sleep(0.001)
    for i in range(PER_WRITER):
        cache.put(f"{tag}{i:04d}", _text(tag, i))


def test_two_processes_append_disjoint_keys_and_every_entry_reads_whole(tmp_path):
    root = tmp_path / "memo"
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    writers = [
        subprocess.Popen([sys.executable, __file__, str(root), tag, sibling], env=env)
        for tag, sibling in (("a", "b"), ("b", "a"))
    ]
    assert [w.wait(timeout=120) for w in writers] == [0, 0]
    cache = ResultCache(root)
    for tag in "ab":
        for i in range(PER_WRITER):
            assert cache.get(f"{tag}{i:04d}") == _text(tag, i), (tag, i)
    assert len(cache) == 2 * PER_WRITER
    assert [p.name for p in root.iterdir()] == [cache.log.name]


def test_threads_share_one_instance(tmp_path):
    cache = ResultCache(tmp_path)
    wrong = []

    def work(tag):
        for i in range(50):
            cache.put(f"{tag}{i}", _text(tag, i))
            if cache.get(f"{tag}{i}") != _text(tag, i):
                wrong.append((tag, i))

    threads = [threading.Thread(target=work, args=(tag,)) for tag in "stuvwxyz"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []
    assert len(cache) == 400 and len(ResultCache(tmp_path)) == 400


def _tear(cache, key, text):
    """What a crash in the middle of ``cache.put(key, text)`` leaves."""
    with open(cache.log, "ab") as fh:
        fh.write(f"\n{key} {text[: len(text) // 2]}".encode())


class _Answers:
    """A transport answering each key with a report solved beforehand."""

    def __init__(self, reports):
        self.texts = {key: report_text(r.to_dict()) for key, r in reports.items()}

    def execute(self, items):
        for item in items:
            yield WorkResult(key=item.key, value=self.texts[item.key])


def test_a_torn_tail_is_a_miss_for_both_consumers(tmp_path):
    torn, whole = cell_key(TORN), cell_key(WHOLE)
    # the campaign memo: records
    memo = ResultCache(tmp_path / "records")
    record = RunRecord.of(solve_problem(TORN.problem, TORN.solver), None)
    _tear(memo, torn, json.dumps(record.to_dict(), separators=(",", ":")))
    other = run_batch([WHOLE]).records[0]
    memo.put(whole, json.dumps(other.to_dict(), separators=(",", ":")))
    assert json.loads(memo.get(whole)) == other.to_dict()
    rep = run_batch([TORN, WHOLE], cache=memo)
    assert rep.cache_hits == 1 and rep.computed == 1
    assert RunRecord.from_dict(json.loads(memo.get(torn))) == rep.records[0]
    # the daemon's memo: reports
    reports = {cell_key(c): solve_problem(c.problem, c.solver) for c in (TORN, WHOLE)}
    answers = _Answers(reports)
    memo = ResultCache(tmp_path / "cache" / "reports")
    _tear(memo, torn, answers.texts[torn])
    memo.put(whole, answers.texts[whole])
    config = ServiceConfig(jobs=1, supervised=False, cache_dir=str(tmp_path / "cache"))
    with ServiceHandle(config, transport=answers) as handle:
        client = ServiceClient.connect(*handle._addr)
        try:
            for cell, cached in ((WHOLE, True), (TORN, False), (TORN, True)):
                reply = client.recv(client.submit(cell.problem, solver=cell.solver))
                assert reply["cached"] is cached
                assert reply["report"] == reports[cell_key(cell)].to_dict()
        finally:
            client.close()
    assert memo.get(torn) == answers.texts[torn]


def test_an_overwrite_is_what_another_instance_returns(tmp_path):
    first, second = ResultCache(tmp_path), ResultCache(tmp_path)
    first.put("k", '{"v":1}')
    assert second.get("k") == '{"v":1}'
    first.put("k", '{"v":2}')
    assert second.get("k") == '{"v":2}' and first.get("k") == '{"v":2}'
    second.put("k", '{"v":3}')
    assert first.get("k") == '{"v":3}' and "k" in first


def test_bytes_that_are_not_utf8_are_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k", '{"v":1}')
    with open(cache.log, "ab") as fh:
        fh.write(b"\nk \xff\xfe\n")
    assert cache.get("k") is None
    legacy = tmp_path / "le" / "legacy.json"  # an earlier version's entry
    legacy.parent.mkdir()
    legacy.write_bytes(b"\xff\xfe")
    assert ResultCache(tmp_path).get("legacy") is None


def test_puts_leave_one_file(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(50):
        cache.put(f"{i:064x}", _text("p", i))
    assert [p.name for p in tmp_path.iterdir()] == [cache.log.name]


def test_len_counts_distinct_keys(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("k1", "1")
    cache.put("k2", "2")
    cache.put("k1", "3")
    assert len(cache) == 2 and cache.get("k1") == "3"
    for key in ("k1", "k3"):  # per-entry files of an earlier version
        path = tmp_path / key[:2] / f"{key}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text("0")
    fresh = ResultCache(tmp_path)
    assert len(fresh) == 3
    assert fresh.get("k1") == "3" and fresh.get("k3") == "0"  # the log wins


def test_put_takes_only_one_line(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(ValueError):
        cache.put("k", '{"v":\n1}')
    assert cache.get("k") is None and len(cache) == 0


if __name__ == "__main__":
    _write_many(*sys.argv[1:])
