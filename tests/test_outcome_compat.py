"""Artifacts written by earlier versions still resume, hit and answer.

Campaign cells used to carry their own copies of a problem's fields, and
records, reports and the two memos each had their own encoder.  Every
artifact below is written inline, byte for byte as those versions wrote
it, and must be honoured unchanged:

* campaign journal lines: a legacy record without ``decided_by`` (or
  ``fault``), and a ``fault:crash`` record whose fault carries
  ``exitcode`` — ``run_batch(resume=True)`` resumes both;
* a campaign memo entry holding a ``RunRecord`` — a campaign hits it;
* a daemon memo entry holding a ``SolveReport`` — a daemon hit answers
  with the same response bytes as before.
"""

import json
import socket

from repro.batch import ResultCache, cell_key, run_batch
from repro.batch.cells import Cell
from repro.experiments.runner import RunRecord
from repro.generator.random_systems import Instance
from repro.model.system import TaskSystem
from repro.service import ServiceConfig, ServiceHandle
from repro.solvers.problem import Problem

SYSTEM = TaskSystem.from_tuples([(0, 1, 2, 2), (0, 1, 3, 3)])
INSTANCE = Instance(SYSTEM, 2)
PLAIN = Cell.from_instance(INSTANCE, "csp2+dc", 5.0)
OTHER_SOLVER = Cell.from_instance(INSTANCE, "csp2", 5.0)

KEY_PLAIN = "88bf4e8bcfb3f4335d35785ea27a05a2af842401010d7c346695dab2f128003d"
KEY_OTHER = "efda4a06e60c52ef50371fe40ab0243020530e0089ddb79e259ebc1d0e6a6c52"

LEGACY_LINE = (
    '{"key":"%s","record":{"instance_seed":null,"n":2,"m":2,"hyperperiod":6,'
    '"utilization_ratio":0.4166666666666667,"solver":"csp2+dc",'
    '"status":"feasible","elapsed":0.0125,"nodes":6}}\n'
)

CRASH_LINE = (
    '{"key":"%s","record":{"instance_seed":null,"n":2,"m":2,"hyperperiod":6,'
    '"utilization_ratio":0.4166666666666667,"solver":"csp2",'
    '"status":"fault:crash","elapsed":5.0,"nodes":0,'
    '"decided_by":"supervisor:crash","fault":{"kind":"crash",'
    '"detail":"worker killed by SIGABRT (exitcode -6)","exitcode":-6,'
    '"attempts":2}}}\n'
)

RECORD_ENTRY = (
    '{"instance_seed":null,"n":2,"m":2,"hyperperiod":6,'
    '"utilization_ratio":0.4166666666666667,"solver":"csp2","status":"feasible",'
    '"elapsed":0.00015496699779760092,"nodes":6,"decided_by":"csp2","fault":null}'
)

_PROBLEM = (
    '{"system":{"tasks":[[0,1,2,2],[0,1,3,3]]},"platform":{"kind":"identical",'
    '"m":2},"time_limit":5.0,"node_limit":null,"seed":null,"label":%s,'
    '"variable_limit":2000000}'
)

_ANSWER = (
    '"solver":"csp2+dc","status":"feasible","winner":"csp2+dc",'
    '"decided_by":"csp2+dc","elapsed":0.0125,"index":0,"stats":{"nodes":6,'
    '"fails":0,"propagations":0,"max_depth":6,"elapsed":0.0121,'
    '"extra":{"memo_hits":0,"memo_states":0}},'
    '"schedule":[[0,-1,0,1,0,-1],[1,-1,-1,-1,-1,-1]],"fault":null'
)

REPORT_ENTRY = '{"problem":' + _PROBLEM % "null" + "," + _ANSWER + "}"

HIT_REPLY = (
    '{"id":"compat","type":"report","key":"%s","cached":true,"report":'
    '{"problem":' % KEY_PLAIN + _PROBLEM % '"compat"' + "," + _ANSWER + "}}\n"
)


def test_the_cells_still_have_the_keys_the_artifacts_are_filed_under():
    assert cell_key(PLAIN) == KEY_PLAIN
    assert cell_key(OTHER_SOLVER) == KEY_OTHER


def test_resume_honours_legacy_and_fault_journal_lines(tmp_path):
    text = LEGACY_LINE % KEY_PLAIN + CRASH_LINE % KEY_OTHER
    journal = tmp_path / "campaign.jsonl"
    journal.write_text(text)
    rep = run_batch([PLAIN, OTHER_SOLVER], journal=journal, resume=True)
    assert rep.resumed == 2 and rep.computed == 0
    legacy, crashed = rep.records
    assert legacy.status == "feasible" and legacy.decided_by is None
    assert legacy.fault is None and legacy.elapsed == 0.0125
    assert crashed.status == "fault:crash" and crashed.overrun
    assert crashed.fault["exitcode"] == -6 and crashed.fault["attempts"] == 2
    assert journal.read_text() == text  # nothing re-journaled


def test_a_campaign_hits_a_record_entry(tmp_path):
    path = tmp_path / "memo" / KEY_OTHER[:2] / f"{KEY_OTHER}.json"
    path.parent.mkdir(parents=True)
    path.write_text(RECORD_ENTRY)
    journal = tmp_path / "campaign.jsonl"
    rep = run_batch([OTHER_SOLVER], cache=tmp_path / "memo", journal=journal)
    assert rep.cache_hits == 1 and rep.computed == 0
    assert rep.records == [RunRecord.from_dict(json.loads(RECORD_ENTRY))]
    # the hit is journaled as the bytes of the entry it came from
    expected = '{"key":"%s","record":%s}\n' % (KEY_OTHER, RECORD_ENTRY)
    assert journal.read_text() == expected
    assert ResultCache(tmp_path / "memo").get(KEY_OTHER) == RECORD_ENTRY


class _NoTransport:
    """Fails the test if the daemon tries to solve: it must hit."""

    def execute(self, items):
        raise AssertionError(f"memo miss for {[i.key for i in items]}")


def test_a_daemon_hit_on_a_report_entry_answers_the_same_bytes(tmp_path):
    path = tmp_path / "cache" / "reports" / KEY_PLAIN[:2] / f"{KEY_PLAIN}.json"
    path.parent.mkdir(parents=True)
    path.write_text(REPORT_ENTRY)
    config = ServiceConfig(
        jobs=1, supervised=False, cache_dir=str(tmp_path / "cache")
    )
    problem = Problem.of(SYSTEM, m=2, time_limit=5.0, label="compat")
    request = {"id": "compat", "type": "solve", "problem": problem.to_dict(),
               "solver": "csp2+dc"}
    with ServiceHandle(config, transport=_NoTransport()) as handle:
        with socket.create_connection(handle._addr, timeout=30) as sock:
            rfile = sock.makefile("rb")
            assert json.loads(rfile.readline())["type"] == "hello"
            sock.sendall(json.dumps(request).encode() + b"\n")
            reply = rfile.readline().decode()
    assert reply == HIT_REPLY
    assert path.read_text() == REPORT_ENTRY  # a hit leaves the entry alone
