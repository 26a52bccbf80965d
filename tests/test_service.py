"""Tests for the solver service (protocol, daemon, client, CLI serve)."""

import io
import json
import random
import socket
import subprocess
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.batch.cache import ResultCache
from repro.batch.supervise import FAULT_CRASH, FaultRecord
from repro.batch.transport import LocalPoolTransport, WorkResult
from repro.generator.random_systems import GeneratorConfig, generate_instances
from repro.model.platform import Platform
from repro.service import (
    ServiceCaps,
    ServiceClient,
    ServiceConfig,
    ServiceError,
    ServiceHandle,
)
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL,
    ProtocolError,
    clamp_problem,
    parse_solve_request,
    report_text,
)
from repro.solvers.problem import (
    Problem,
    SolveReport,
    fault_report,
    solve_problem,
)

TIME_LIMIT = 5.0


def make_problems(count=4, seed=11, **kwargs):
    """Tiny always-decided problems with explicit budgets."""
    instances = generate_instances(
        GeneratorConfig(n=3, m=2, tmax=3), count, seed=seed
    )
    return [
        Problem.of(
            inst.system, m=inst.m, time_limit=TIME_LIMIT,
            label=f"seed:{inst.seed}", **kwargs,
        )
        for inst in instances
    ]


def unsupervised_config(tmp_path, **overrides):
    """In-process execution: fast, and fine for these tiny instances."""
    defaults = dict(
        jobs=2,
        supervised=False,
        cache_dir=str(tmp_path / "cache"),
        journal=str(tmp_path / "journal.jsonl"),
    )
    defaults.update(overrides)
    return ServiceConfig(**defaults)


@pytest.fixture()
def service(tmp_path):
    with ServiceHandle(unsupervised_config(tmp_path)) as handle:
        host, port = handle._addr
        with ServiceClient.connect(host, port) as client:
            yield handle, client


# -- protocol unit tests ----------------------------------------------------


class TestClamping:
    def test_missing_wall_budget_gets_the_default(self):
        problem = make_problems(1)[0]
        clamped = clamp_problem(
            Problem.of(problem.system, m=2), ServiceCaps()
        )
        assert clamped.time_limit == ServiceCaps().default_time_limit
        assert clamped.variable_limit == ServiceCaps().max_variable_limit

    def test_over_cap_budgets_are_reduced(self):
        problem = make_problems(1)[0]
        caps = ServiceCaps(max_time_limit=10.0, max_node_limit=100)
        clamped = clamp_problem(
            Problem.of(
                problem.system, m=2, time_limit=999.0, node_limit=10**9,
                variable_limit=10**12,
            ),
            caps,
        )
        assert clamped.time_limit == 10.0
        assert clamped.node_limit == 100
        assert clamped.variable_limit == caps.max_variable_limit

    @pytest.mark.parametrize(
        "kwargs", [
            {"time_limit": 0.0},
            {"time_limit": -1.0},
            {"node_limit": 0},
            {"variable_limit": -5},
        ],
    )
    def test_non_positive_budgets_are_refused(self, kwargs):
        problem = make_problems(1)[0]
        base = {"time_limit": TIME_LIMIT}
        base.update(kwargs)
        with pytest.raises(ProtocolError, match="must be > 0"):
            clamp_problem(
                Problem.of(problem.system, m=2, **base), ServiceCaps()
            )


def request_key(problem, solver="csp2+dc", options=None, caps=None):
    """The memo key the daemon gives one solve request."""
    envelope = {
        "id": 1, "type": "solve", "problem": problem.to_dict(),
        "solver": solver, "options": options or {},
    }
    return parse_solve_request(envelope, caps or ServiceCaps()).key


def arbitrary_deadline_problem():
    """A heterogeneous question with ``D > T``: refused up front."""
    from repro.model.system import TaskSystem

    return Problem.of(
        TaskSystem.from_tuples([(0, 1, 4, 2), (0, 1, 3, 3)]),
        platform=Platform.heterogeneous([[1, 2], [2, 1]]),
        time_limit=TIME_LIMIT,
    )


class TestRequestCell:
    """The key a clamped request is memoised under, and what admission
    refuses before any key is needed."""

    def test_label_is_outside_the_key(self):
        a, = make_problems(1)
        relabeled = Problem.of(a.system, m=2, time_limit=a.time_limit,
                               label="other")
        assert request_key(a) == request_key(relabeled)

    def test_budgets_are_inside_the_key(self):
        a, = make_problems(1)
        tighter = Problem.of(a.system, m=2, time_limit=1.0)
        assert request_key(a) != request_key(tighter)

    def test_options_are_inside_the_key(self):
        a, = make_problems(1)
        assert request_key(a, "screen") != request_key(
            a, "screen", {"simulate": False}
        )
        assert request_key(a, "screen", {"simulate": False}) == request_key(
            a, "screen", {"simulate": False}
        )

    def test_platform_is_inside_the_key(self):
        a, = make_problems(1)
        uniform = Problem.of(
            a.system, platform=Platform.uniform([2, 1]),
            time_limit=TIME_LIMIT,
        )
        faster = Problem.of(
            a.system, platform=Platform.uniform([3, 1]),
            time_limit=TIME_LIMIT,
        )
        keys = {request_key(a), request_key(uniform), request_key(faster)}
        assert len(keys) == 3

    def test_unsupported_platform_is_refused(self):
        a, = make_problems(1)
        uniform = Problem.of(
            a.system, platform=Platform.uniform([2, 1]),
            time_limit=TIME_LIMIT,
        )
        with pytest.raises(ProtocolError, match="uniform") as err:
            request_key(uniform, "sat")
        assert err.value.code == "bad-request"
        # a screen is refused for its fall-through engine; a portfolio
        # is not for its members (an unfit member faults in the race)
        with pytest.raises(ProtocolError, match="'sat'"):
            request_key(uniform, "screen+sat")
        assert request_key(uniform, "portfolio:sat,csp2+dc")
        with pytest.raises(ProtocolError, match="indexed by task") as err:
            request_key(arbitrary_deadline_problem())
        assert err.value.code == "bad-request"


class TestParseSolveRequest:
    def envelope(self, problem, **overrides):
        doc = {
            "id": 1, "type": "solve", "problem": problem.to_dict(),
            "solver": "csp2+dc", "options": {},
        }
        doc.update(overrides)
        return doc

    def test_good_request_is_clamped_and_keyed(self):
        problem, = make_problems(1)
        req = parse_solve_request(self.envelope(problem), ServiceCaps())
        assert req.id == 1 and req.solver == "csp2+dc"
        assert req.problem.variable_limit == ServiceCaps().max_variable_limit
        assert req.key

    def test_missing_problem(self):
        with pytest.raises(ProtocolError, match="no 'problem'"):
            parse_solve_request({"type": "solve"}, ServiceCaps())

    def test_unknown_solver(self):
        problem, = make_problems(1)
        with pytest.raises(ProtocolError) as err:
            parse_solve_request(
                self.envelope(problem, solver="quantum"), ServiceCaps()
            )
        assert err.value.code == "unknown-solver"

    def test_unknown_option(self):
        problem, = make_problems(1)
        with pytest.raises(ProtocolError, match="unknown option"):
            parse_solve_request(
                self.envelope(problem, options={"warp": 9}), ServiceCaps()
            )

    def test_garbage_problem_payload(self):
        with pytest.raises(ProtocolError, match="bad problem payload"):
            parse_solve_request(
                {"type": "solve", "problem": {"system": "??"},
                 "solver": "csp2+dc"},
                ServiceCaps(),
            )


# -- the daemon end to end --------------------------------------------------


class TestRoundTrip:
    def test_hello_advertises_the_registry(self, service):
        _handle, client = service
        assert client.hello["protocol"] == PROTOCOL
        assert "csp2+dc" in client.solvers
        assert client.max_pending == 64
        assert client.hello["caps"]["max_time_limit"] == 30.0

    def test_reports_match_local_solves(self, service):
        _handle, client = service
        problems = make_problems(3)
        remote = client.solve_many(problems)
        for problem, report in zip(problems, remote):
            local = solve_problem(problem, "csp2+dc")
            assert report.status_label == local.status_label
            assert report.stats.nodes == local.stats.nodes
            assert report.decided_by == local.decided_by
            assert report.problem.label == problem.label

    def test_interleaved_recv_out_of_submission_order(self, service):
        _handle, client = service
        first, second = make_problems(2)
        id1 = client.submit(first)
        id2 = client.submit(second)
        # ask for the later id first: the mailbox parks id1's line
        entry2 = client.recv(id2)
        entry1 = client.recv(id1)
        assert entry1["id"] == id1 and entry2["id"] == id2
        assert entry1["type"] == entry2["type"] == "report"

    def test_clamping_is_visible_in_the_response(self, service):
        _handle, client = service
        problem, = make_problems(1)
        greedy = Problem.of(problem.system, m=2, time_limit=999.0)
        report = client.solve(greedy)
        assert report.problem.time_limit == 30.0  # the default cap


class TestMemoCache:
    def test_second_ask_is_served_from_cache(self, service):
        _handle, client = service
        problem, = make_problems(1)
        entry1 = client.recv(client.submit(problem))
        entry2 = client.recv(client.submit(problem))
        assert entry1["cached"] is False and entry2["cached"] is True
        assert entry1["key"] == entry2["key"]
        assert entry1["report"]["stats"] == entry2["report"]["stats"]

    def test_cached_report_carries_the_requesters_label(self, service):
        _handle, client = service
        problem, = make_problems(1)
        client.solve(problem)
        relabeled = Problem.of(
            problem.system, m=2, time_limit=problem.time_limit,
            label="second-client",
        )
        entry = client.recv(client.submit(relabeled))
        assert entry["cached"] is True
        assert entry["report"]["problem"]["label"] == "second-client"

    def test_options_do_not_share_a_memo_entry(self, service):
        # a weaker screen (no simulation tier) abstains on this problem;
        # that answer must not be served to a request without options
        _handle, client = service
        problem, = make_problems(1)
        weak = client.recv(
            client.submit(problem, solver="screen",
                          options={"simulate": False})
        )
        assert weak["report"]["status"] == "unknown"
        full = client.recv(client.submit(problem, solver="screen"))
        assert full["cached"] is False and full["key"] != weak["key"]
        local = solve_problem(problem, "screen")
        assert local.status_label == "feasible"
        assert full["report"]["status"] == local.status_label
        assert full["report"]["decided_by"] == local.decided_by

    def test_stats_count_the_cache_split(self, service):
        _handle, client = service
        problems = make_problems(2)
        client.solve_many(problems)
        client.solve_many(problems)
        stats = client.stats()
        assert stats["served"] == 4
        assert stats["computed"] == 2 and stats["cached"] == 2
        assert stats["faulted"] == 0 and stats["busy"] == 0
        assert stats["cache_entries"] == 2


class TestStructuredErrors:
    def test_malformed_json_line_keeps_the_connection(self, service):
        _handle, client = service
        client._wfile.write("this is not json\n")
        client._wfile.flush()
        entry = json.loads(client._rfile.readline())
        assert entry["type"] == "error" and entry["code"] == "bad-request"
        # the connection survived: a real solve still works
        assert client.solve(make_problems(1)[0]) is not None

    def test_deeply_nested_line_keeps_the_connection(self, service):
        # 100 KB, far under the line cap, but json.loads raises
        # RecursionError (not a ValueError) on it
        _handle, client = service
        client._wfile.write("[" * 100_000 + "\n")
        client._wfile.flush()
        entry = json.loads(client._rfile.readline())
        assert entry["type"] == "error" and entry["code"] == "bad-request"
        client._write({"id": 2, "type": "stats"})
        assert client.recv(2)["stats"]["errors"] == 1
        assert client.solve(make_problems(1)[0]) is not None

    def test_unknown_request_type(self, service):
        _handle, client = service
        client._write({"id": 7, "type": "dance"})
        entry = client.recv(7)
        assert entry["code"] == "bad-request"
        assert "unknown request type" in entry["detail"]

    def test_unknown_solver_refused(self, service):
        _handle, client = service
        with pytest.raises(ServiceError) as err:
            client.solve(make_problems(1)[0], solver="quantum")
        assert err.value.code == "unknown-solver"

    def test_bad_option_refused(self, service):
        _handle, client = service
        with pytest.raises(ServiceError) as err:
            client.solve(make_problems(1)[0], options={"warp": 9})
        assert err.value.code == "bad-request"

    def test_negative_budget_refused(self, service):
        _handle, client = service
        problem, = make_problems(1)
        broke = Problem.of(problem.system, m=2, time_limit=-1.0)
        with pytest.raises(ServiceError, match="must be > 0"):
            client.solve(broke)

    def test_non_identical_platforms_are_served(self, service):
        _handle, client = service
        problem, = make_problems(1)
        for platform in (
            Platform.uniform([2, 1]),
            Platform.heterogeneous([[1, 2], [2, 1], [1, 1]]),
        ):
            asked = Problem.of(
                problem.system, platform=platform, time_limit=TIME_LIMIT,
            )
            remote = client.solve(asked).to_dict()
            local = solve_problem(
                clamp_problem(asked, ServiceCaps()), "csp2+dc"
            ).to_dict()
            for doc in (remote, local):
                doc.pop("elapsed")
                doc["stats"].pop("elapsed")
            assert remote == local

    def test_unsolvable_questions_refused_before_any_worker(self, tmp_path):
        config = unsupervised_config(tmp_path, jobs=1, supervised=True)
        problem, = make_problems(1)
        uniform = Problem.of(
            problem.system, platform=Platform.uniform([2, 1]),
            time_limit=TIME_LIMIT,
        )
        with ServiceHandle(config) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError, match="uniform") as err:
                    client.solve(uniform, solver="sat")
                assert err.value.code == "bad-request"
                with pytest.raises(ServiceError, match="indexed by task"):
                    client.solve(arbitrary_deadline_problem())
                stats = client.stats()
        assert stats["errors"] == 2
        assert stats["computed"] == 0 and stats["workers_spawned"] == 0


class TestLongLines:
    def test_line_cap_is_advertised(self, service):
        _handle, client = service
        assert client.hello["max_line_bytes"] == MAX_LINE_BYTES

    def test_line_past_the_asyncio_default_limit_is_served(self, service):
        # 70 KB: past asyncio's 64 KiB StreamReader default, under the cap
        _handle, client = service
        client._write({"id": 1, "type": "stats", "pad": "x" * 70_000})
        entry = client.recv(1)
        assert entry["type"] == "stats"

    def test_over_cap_line_is_refused_then_the_next_line_served(self, service):
        _handle, client = service
        long_line = json.dumps(
            {"id": 1, "type": "stats", "pad": "x" * MAX_LINE_BYTES}
        )
        # the over-long line and a good one in a single write: the
        # server must resync exactly at the newline between them
        client._wfile.write(long_line + "\n" + json.dumps(
            {"id": 2, "type": "stats"}
        ) + "\n")
        client._wfile.flush()
        refused = json.loads(client._rfile.readline())
        assert refused["type"] == "error"
        assert refused["code"] == "bad-request"
        assert str(MAX_LINE_BYTES) in refused["detail"]
        entry = client.recv(2)
        assert entry["type"] == "stats"
        assert entry["stats"]["errors"] == 1
        # the connection keeps serving
        assert client.solve(make_problems(1)[0]) is not None


#: seed of the protocol fuzzer's line mix
FUZZ_SEED = 2009


def _fuzz_lines(rng, count):
    """``count`` seeded request lines as ``(bytes, expected_id)`` pairs:
    well-formed ``stats`` requests (expected_id is their id) mixed with
    malformed lines of every kind the daemon must refuse (expected_id
    is ``None``: a ``bad-request`` error).  No line contains a newline
    or is blank."""

    def stats(rid):
        return json.dumps({"id": rid, "type": "stats"}).encode(), rid

    def truncated(n):
        full = json.dumps({"id": n, "type": "stats", "pad": "y" * n})
        return full[: rng.randrange(1, len(full) - 1)].encode(), None

    def non_utf8(n):
        full = json.dumps({"id": n, "type": "stats"}).encode()
        cut = rng.randrange(1, len(full))
        bad = bytes([rng.randrange(0x80, 0x100)])
        return full[:cut] + bad + full[cut:], None

    def deep(_n):
        if rng.random() < 0.5:
            return b"[" * rng.randrange(1_000, 100_000), None
        depth = rng.randrange(1_000, 20_000)
        return b'{"id": 1, "type": "stats", "x": ' + b"{\"a\":" * depth, None

    def huge_id(_n):
        kind = rng.randrange(3)
        if kind == 0:  # a big but decodable integer: echoed back
            return stats(int("7" * rng.randrange(100, 4_000)))
        if kind == 1:  # past the int-from-string digit limit
            return b'{"id": ' + b"9" * 5_000 + b', "type": "stats"}', None
        return stats("z" * rng.randrange(1_000, 50_000))

    def non_scalar_id(n):
        rid = rng.choice(
            [[n, n], {"n": n}, json.loads("[" * 500 + "]" * 500)]
        )
        return json.dumps({"id": rid, "type": "stats"}).encode(), None

    def non_object(n):
        doc = rng.choice([[n, "stats"], "stats", n, None, True, 1.5])
        return json.dumps(doc).encode(), None

    def over_cap(n):
        pad = "x" * (MAX_LINE_BYTES + rng.randrange(1, 1_000))
        return json.dumps({"id": n, "type": "stats", "pad": pad}).encode(), None

    kinds = [truncated, non_utf8, deep, huge_id, non_scalar_id, non_object]
    lines = []
    for n in range(count):
        if n % 2 == 0:
            lines.append(stats(n))
        else:
            lines.append(rng.choice(kinds)(n))
    for n in (count, count + 1):  # over-cap lines are slow: exactly two
        lines.insert(rng.randrange(len(lines) + 1), over_cap(n))
    return lines


class TestProtocolFuzz:
    def test_every_line_gets_exactly_one_structured_reply(self, service):
        """A seeded mix of good and malformed lines, some written in
        pieces, then a final ``stats`` and a half-close: every line is
        answered once, in order, and the daemon keeps serving."""
        handle, _client = service
        rng = random.Random(FUZZ_SEED)
        lines = _fuzz_lines(rng, 80)
        lines.append((b'{"id": "final", "type": "stats"}', "final"))
        sock = socket.create_connection(handle._addr, timeout=10)
        rfile = sock.makefile("rb")
        assert json.loads(rfile.readline())["type"] == "hello"
        replies = []
        # read concurrently: echoed ids can outgrow the socket buffers
        reader = threading.Thread(
            target=lambda: replies.extend(iter(rfile.readline, b""))
        )
        reader.start()
        for raw, _rid in lines:
            data = raw + b"\n"
            if rng.random() < 0.1:  # a slow writer: the line in pieces
                cut = rng.randrange(1, len(data))
                sock.sendall(data[:cut])
                time.sleep(0.005)
                data = data[cut:]
            sock.sendall(data)
        sock.shutdown(socket.SHUT_WR)  # half-close: replies still flow
        reader.join(timeout=10)
        assert not reader.is_alive()
        sock.close()

        assert len(replies) == len(lines)  # one reply per line, in order
        refused = 0
        for (raw, rid), reply in zip(lines, replies):
            entry = json.loads(reply)
            if rid is None:
                refused += 1
                assert entry["type"] == "error", raw[:80]
                assert entry["code"] == "bad-request"
                assert entry["id"] is None
            else:
                assert entry["type"] == "stats", raw[:80]
                assert entry["id"] == rid
        assert entry["id"] == "final"
        assert entry["stats"]["errors"] == refused > 0
        # the daemon stayed up: a new connection is served
        host, port = handle._addr
        with ServiceClient.connect(host, port) as again:
            assert again.stats()["errors"] == refused
            assert again.solve(make_problems(1)[0]) is not None


#: one garbage connection's lines, each answered ``bad-request``; the
#: last is cut off by the client's half-close, never terminated
GARBAGE_LINES = [
    b"{this is not json",
    b'["stats", 1]',
    b'{"id": {"nested": [1]}, "type": "stats"}',
    b'{"id": 1, "type": "stats", "pad": "' + b"x" * MAX_LINE_BYTES + b'"}',
    b'{"id": 2, "type": "sta',
]


def _garbage_session(addr):
    """Send :data:`GARBAGE_LINES`, half-close, and read every reply."""
    with socket.create_connection(addr, timeout=30) as sock:
        rfile = sock.makefile("rb")
        assert json.loads(rfile.readline())["type"] == "hello"
        sock.sendall(b"\n".join(GARBAGE_LINES))
        sock.shutdown(socket.SHUT_WR)
        return [json.loads(line) for line in rfile]


class TestGarbageConnections:
    def test_concurrent_garbage_never_starves_a_good_client(self, service):
        """16 connections of malformed lines at once, one well-formed
        client solving meanwhile: every garbage line gets a structured
        ``bad-request``, the good client its reports, and ``stats``
        counts exactly the garbage."""
        handle, client = service
        sessions = 16
        replies = [None] * sessions

        def run(k):
            replies[k] = _garbage_session(handle._addr)

        threads = [threading.Thread(target=run, args=(k,))
                   for k in range(sessions)]
        for thread in threads:
            thread.start()
        reports = client.solve_many(make_problems(3))
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert [r.status_label for r in reports] == [
            solve_problem(p, "csp2+dc").status_label for p in make_problems(3)
        ]
        for got in replies:
            assert len(got) == len(GARBAGE_LINES)
            for entry in got:
                assert entry["type"] == "error"
                assert entry["code"] == "bad-request"
                assert entry["id"] is None
        stats = client.stats()
        assert stats["errors"] == sessions * len(GARBAGE_LINES)
        assert stats["served"] == 3
        # the daemon keeps serving, on the old connection and a new one
        assert client.solve(make_problems(1)[0]) is not None
        host, port = handle._addr
        with ServiceClient.connect(host, port) as again:
            assert again.stats()["errors"] == sessions * len(GARBAGE_LINES)


class _GatedTransport:
    """Blocks every execution until the test releases the gate."""

    def __init__(self):
        self.gate = threading.Event()
        self.inner = LocalPoolTransport(jobs=1)

    def execute(self, items):
        self.gate.wait(timeout=30.0)
        yield from self.inner.execute(items)


class TestBackPressure:
    def test_overflow_is_a_busy_error_not_a_drop(self, tmp_path):
        transport = _GatedTransport()
        config = unsupervised_config(tmp_path, jobs=1, max_pending=1)
        with ServiceHandle(config, transport=transport) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                first, second = make_problems(2)
                id1 = client.submit(first)
                id2 = client.submit(second)
                # the second ask overflows the admission window
                entry2 = client.recv(id2)
                assert entry2["type"] == "error"
                assert entry2["code"] == "busy"
                assert "resubmit" in entry2["detail"]
                # release the gate: the admitted solve still answers
                transport.gate.set()
                entry1 = client.recv(id1)
                assert entry1["type"] == "report"
                stats = client.stats()
                assert stats["busy"] == 1 and stats["served"] == 1


class _FaultingTransport:
    """Every item dies the same classified death."""

    def execute(self, items):
        for item in items:
            yield WorkResult(
                key=item.key,
                fault=FaultRecord(
                    kind=FAULT_CRASH, detail="SIGSEGV", attempts=2
                ),
                attempts=2,
            )


class TestFaultPath:
    def test_transport_fault_becomes_a_fault_report(self, tmp_path):
        config = unsupervised_config(tmp_path)
        with ServiceHandle(config, transport=_FaultingTransport()) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                problem, = make_problems(1)
                report = client.solve(problem)
                assert report.status_label == "fault:crash"
                assert report.fault["attempts"] == 2
                # the full wall budget is charged, like a campaign fault
                assert report.elapsed == problem.time_limit
                stats = client.stats()
                assert stats["faulted"] == 1
                # faults never enter the memo: the retry recomputes
                entry = client.recv(client.submit(problem))
                assert entry["cached"] is False
                assert stats["cache_entries"] == 0


class TestJournal:
    def test_every_response_is_journaled_first(self, service, tmp_path):
        handle, client = service
        problems = make_problems(2)
        client.solve_many(problems)
        client.solve_many(problems[:1])  # a cached serve journals too
        handle.stop()
        lines = [
            json.loads(line)
            for line in (tmp_path / "journal.jsonl").read_text().splitlines()
        ]
        assert len(lines) == 3
        assert all(
            set(entry) == {"key", "report"} and entry["key"]
            for entry in lines
        )
        # the journal speaks the merge tool's dialect: last-line-wins
        from repro.batch import merge_journals

        out = tmp_path / "merged.jsonl"
        report = merge_journals([tmp_path / "journal.jsonl"], out)
        assert report.records == 2 and report.duplicates == 1


# -- byte identity against the object-path encoders ----------------------

def _old_report_line(request_id, key, report, cached):
    """The response line the daemon built from a ``SolveReport`` object."""
    return json.dumps(
        {"id": request_id, "type": "report", "key": key, "cached": cached,
         "report": report.to_dict()},
        separators=(",", ":"),
    ) + "\n"


def _old_journal_line(key, report):
    """The journal line the daemon built from a ``SolveReport`` object."""
    return json.dumps(
        {"key": key, "report": report.to_dict()}, separators=(",", ":")
    ) + "\n"


def _old_memo_text(report):
    """The memo entry the daemon wrote through a chunked ``json.dump``."""
    buf = io.StringIO()
    json.dump(report.to_dict(), buf, separators=(",", ":"))
    return buf.getvalue()


def _old_hit(memo_text, problem):
    """The report the daemon served on a hit: rebuilt, then replaced."""
    return replace(
        SolveReport.from_dict(json.loads(memo_text)), problem=problem, index=0
    )


def _byte_problems():
    """One question per platform kind, clamped as the daemon clamps."""
    base, = make_problems(1, seed=5)
    return [
        clamp_problem(
            Problem.of(base.system, platform=platform, time_limit=TIME_LIMIT,
                       label=f"first:{kind}"),
            ServiceCaps(),
        )
        for kind, platform in (
            ("identical", Platform.identical(2)),
            ("uniform", Platform.uniform([2, 1])),
            ("heterogeneous", Platform.heterogeneous([[1, 2], [2, 1], [1, 1]])),
        )
    ]


class _PresolvedTransport:
    """Answers each item with a report solved before the request, as the
    worker encodes it, so the test holds the very report served."""

    def __init__(self, reports):
        self.reports = reports

    def execute(self, items):
        for item in items:
            report = self.reports[item.key]
            yield WorkResult(key=item.key, value=report_text(report.to_dict()))


def _raw_session(addr, requests):
    """Send each request after the previous answer; the raw reply lines."""
    with socket.create_connection(addr, timeout=30) as sock:
        rfile = sock.makefile("rb")
        assert json.loads(rfile.readline())["type"] == "hello"
        replies = []
        for request in requests:
            sock.sendall(json.dumps(request).encode() + b"\n")
            replies.append(rfile.readline().decode())
        return replies


def _solve_request(request_id, problem):
    return {"id": request_id, "type": "solve", "problem": problem.to_dict(),
            "solver": "csp2+dc", "options": {}}


class TestReportBytes:
    """The daemon handles a report only as the text the worker encoded;
    every byte the client, the journal and the memo see is still what
    the ``SolveReport``-object encoders produced."""

    def test_miss_and_hit_bytes_match_the_object_encoders(self, tmp_path):
        problems = _byte_problems()
        keys = [request_key(p) for p in problems]
        reports = {
            key: solve_problem(problem, "csp2+dc")
            for key, problem in zip(keys, problems)
        }
        relabeled = [replace(p, label="second") for p in problems]
        requests = [_solve_request(f"miss-{i}", p)
                    for i, p in enumerate(problems)]
        requests += [_solve_request(i, p) for i, p in enumerate(relabeled)]
        config = unsupervised_config(tmp_path)
        transport = _PresolvedTransport(reports)
        with ServiceHandle(config, transport=transport) as handle:
            replies = _raw_session(handle._addr, requests)
        journal = (tmp_path / "journal.jsonl").read_text().splitlines(True)
        memo = ResultCache(tmp_path / "cache" / "reports")
        misses, hits = replies[:3], replies[3:]
        for i, (key, problem) in enumerate(zip(keys, problems)):
            report = reports[key]
            assert memo.get(key) == _old_memo_text(report)
            assert misses[i] == _old_report_line(f"miss-{i}", key, report, False)
            assert journal[i] == _old_journal_line(key, report)
            hit = _old_hit(_old_memo_text(report), relabeled[i])
            assert hits[i] == _old_report_line(i, key, hit, True)
            assert journal[3 + i] == _old_journal_line(key, hit)
            # a hit answers exactly what the miss did, apart from the
            # echoed problem, the request id and the cached flag
            miss_doc, hit_doc = json.loads(misses[i]), json.loads(hits[i])
            assert hit_doc["report"].pop("problem") == relabeled[i].to_dict()
            assert miss_doc["report"].pop("problem") == problem.to_dict()
            for doc in (miss_doc, hit_doc):
                del doc["id"], doc["cached"]
            assert hit_doc == miss_doc
        assert len(journal) == 6

    def test_fault_bytes_match_the_object_encoders(self, tmp_path):
        problems = _byte_problems()
        config = unsupervised_config(tmp_path)
        with ServiceHandle(config, transport=_FaultingTransport()) as handle:
            replies = _raw_session(
                handle._addr,
                [_solve_request(i, p) for i, p in enumerate(problems)],
            )
        journal = (tmp_path / "journal.jsonl").read_text().splitlines(True)
        for i, problem in enumerate(problems):
            key = request_key(problem)
            fault = FaultRecord(kind=FAULT_CRASH, detail="SIGSEGV", attempts=2)
            report = fault_report(problem, "csp2+dc", fault)
            assert replies[i] == _old_report_line(i, key, report, False)
            # the fault document is the transport's FaultRecord, whole
            assert json.loads(replies[i])["report"]["fault"] == {
                "kind": FAULT_CRASH, "detail": "SIGSEGV", "exitcode": None,
                "attempts": 2,
            }
            assert journal[i] == _old_journal_line(key, report)


class TestShutdown:
    def test_shutdown_stops_the_daemon(self, tmp_path):
        handle = ServiceHandle(unsupervised_config(tmp_path))
        host, port = handle.start()
        with ServiceClient.connect(host, port) as client:
            client.solve(make_problems(1)[0])
            client.shutdown()
        handle._thread.join(timeout=30.0)
        assert not handle._thread.is_alive()

    def test_remote_shutdown_can_be_disabled(self, tmp_path):
        config = unsupervised_config(tmp_path, allow_shutdown=False)
        with ServiceHandle(config) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                with pytest.raises(ServiceError, match="disabled"):
                    client.shutdown()
                # still serving
                assert client.stats()["errors"] == 1


class TestWarmWorkers:
    def test_supervised_requests_reuse_one_worker(self, tmp_path):
        config = unsupervised_config(tmp_path, jobs=1, supervised=True)
        with ServiceHandle(config) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                reports = client.solve_many(make_problems(3))
                assert all(not r.status_label.startswith("fault") for r in reports)
                assert client.stats()["workers_spawned"] == 1
            workers = list(handle.service.transport._idle)
        # stopping the daemon retires its warm children
        assert workers and not any(w.proc.is_alive() for w in workers)

    def test_portfolio_answers_inside_a_supervised_child(self, tmp_path):
        """A supervised child is daemonic and may not start processes of
        its own, so a ``portfolio:`` request must still get a verdict."""
        config = unsupervised_config(tmp_path, jobs=1, supervised=True)
        problem, = make_problems(1)
        with ServiceHandle(config) as handle:
            host, port = handle._addr
            with ServiceClient.connect(host, port) as client:
                report = client.solve(problem, solver="portfolio:csp2+dc,sat")
                assert report.status_label in ("feasible", "infeasible")
                assert client.stats()["workers_spawned"] == 1
        assert report.to_dict()["stats"]["extra"]["portfolio"]["winner"]

    def test_unsupervised_service_spawns_nothing(self, service):
        _handle, client = service
        client.solve_many(make_problems(2))
        assert client.stats()["workers_spawned"] == 0


class TestStdio:
    def test_one_session_over_pipes(self, tmp_path):
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--stdio",
             "--jobs", "1", "--unsupervised",
             "--journal", str(tmp_path / "j.jsonl")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
            cwd="/root/repo",
        )
        try:
            hello = json.loads(proc.stdout.readline())
            assert hello["type"] == "hello" and hello["protocol"] == PROTOCOL
            problem, = make_problems(1)
            request = {
                "id": 1, "type": "solve", "problem": problem.to_dict(),
                "solver": "csp2+dc", "options": {},
            }
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
            entry = json.loads(proc.stdout.readline())
            assert entry["id"] == 1 and entry["type"] == "report"
            local = solve_problem(problem, "csp2+dc")
            assert entry["report"]["status"] == local.status_label
            proc.stdin.close()  # EOF ends the session
            assert proc.wait(timeout=60.0) == 0
        finally:
            proc.kill()
        assert (tmp_path / "j.jsonl").exists()


class TestConfigValidation:
    def test_bad_knobs_are_rejected(self):
        from repro.service import SolverService

        with pytest.raises(ValueError, match="jobs"):
            SolverService(ServiceConfig(jobs=0))
        with pytest.raises(ValueError, match="max_pending"):
            SolverService(ServiceConfig(max_pending=0))
