"""Tests for the contract lint engine (``src/repro/lint``).

Fixture-driven: every rule family must fire on its checked-in bad
example (``tests/lint_fixtures/*_bad.py``) with the exact documented
counts, stay silent on the good counterpart, and — the tier-1 bar —
the repo itself must lint clean.  Baseline semantics (justifications
required, stale entries reported), engine errors and the CLI exit-code
contract (0 clean / 1 findings / 2 engine error) are pinned here too.
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import Baseline, LintError, iter_rules, rule_info, run_lint
from repro.lint.baseline import STALE_RULE
from repro.lint.engine import Rule, register_rule

ROOT = Path(__file__).resolve().parent.parent

#: family -> (fixture stem, expected finding counts on the bad file)
EXPECTED = {
    "determinism": {
        "R1.unseeded-random": 1,
        "R1.module-random": 1,
        "R1.wall-clock": 1,
        "R1.set-iteration": 2,
    },
    "explain": {
        "R2.explain-pair": 1,
        "R2.literal-shape": 2,
    },
    "registry": {
        "R3.exact-implies-proof": 1,
        "R3.registry-metadata": 2,
        "R3.options-signature": 3,
    },
    "pickle": {
        "R4.process-callable": 4,
        "R4.process-payload": 1,
    },
    "trail": {
        "R5.unregistered-mutation": 3,
        "R5.on-event-domain-write": 1,
    },
    # the service package inherits the determinism + pickle contracts
    "service": {
        "R1.wall-clock": 1,
        "R1.module-random": 1,
        "R4.process-callable": 1,
    },
    # the vectorised kernels inherit determinism + trail safety
    "kernels": {
        "R1.unseeded-random": 1,
        "R1.set-iteration": 1,
        "R5.unregistered-mutation": 2,
    },
}

#: every per-module rule -> the fixture stem demonstrating it
RULE_TO_STEM = {
    rule: stem for stem, counts in EXPECTED.items() for rule in counts
}


def lint_fixture(stem: str, kind: str, rules=None):
    """Lint one fixture file against an empty baseline."""
    return run_lint(
        ROOT,
        targets=[f"tests/lint_fixtures/{stem}_{kind}.py"],
        baseline=Baseline(),
        rules=rules,
    )


def counts(report) -> dict[str, int]:
    """Finding counts by rule id."""
    return dict(Counter(f.rule for f in report.findings))


# ---------------------------------------------------------------------------
# fixtures: every family fires on bad, is silent on good


@pytest.mark.parametrize("stem", sorted(EXPECTED))
def test_bad_fixture_fires_exactly_as_documented(stem):
    """The bad fixture produces the documented findings, nothing else."""
    report = lint_fixture(stem, "bad")
    assert counts(report) == EXPECTED[stem]
    assert not report.ok


@pytest.mark.parametrize("stem", sorted(EXPECTED))
def test_good_fixture_is_clean_under_every_rule(stem):
    """The good counterpart is clean under ALL rules, not just its family."""
    report = lint_fixture(stem, "good")
    assert report.ok, [f.render() for f in report.findings]


@pytest.mark.parametrize("rule", sorted(RULE_TO_STEM))
def test_each_rule_fires_alone_and_only_on_bad(rule):
    """Running a single rule reproduces its slice of the bad fixture."""
    stem = RULE_TO_STEM[rule]
    bad = lint_fixture(stem, "bad", rules=[rule])
    assert counts(bad) == {rule: EXPECTED[stem][rule]}
    good = lint_fixture(stem, "good", rules=[rule])
    assert good.ok


def test_findings_carry_anchors_and_symbols():
    """Findings point at real lines and resolve enclosing symbols."""
    report = lint_fixture("trail", "bad")
    f = next(f for f in report.findings if f.rule == "R5.on-event-domain-write")
    assert f.path == "tests/lint_fixtures/trail_bad.py"
    assert f.symbol == "LeakyCounter.on_event"
    assert f.line > 1 and f.render().startswith(f.path)


# ---------------------------------------------------------------------------
# the tier-1 bar: the repo itself lints clean


def test_repo_lints_clean():
    """`repro-mgrts lint` on the repo: zero unbaselined findings."""
    report = run_lint(ROOT)
    assert report.ok, [f.render() for f in report.findings]
    # the baseline is real: it suppresses at least the edf-exact entry
    assert any(f.rule == "R3.registry-metadata" for f in report.suppressed)


def test_default_targets_exclude_fixtures():
    """The bad fixtures must not pollute the repo-wide run."""
    report = run_lint(ROOT)
    assert not any(f.startswith("tests/") for f in report.files)


# ---------------------------------------------------------------------------
# baseline semantics


def test_baseline_requires_justification():
    """An entry without an inline '# why' comment refuses to parse."""
    with pytest.raises(LintError, match="justification"):
        Baseline.parse("a.py: R1.wall-clock: f\n")
    with pytest.raises(LintError, match="justification"):
        Baseline.parse("a.py: R1.wall-clock: f  #   \n")


def test_baseline_rejects_malformed_entries():
    """Entries must have the three ':'-separated fields."""
    with pytest.raises(LintError, match="malformed"):
        Baseline.parse("a.py R1.wall-clock f  # why\n")


def test_baseline_suppresses_by_symbol_and_wildcard():
    """Matching findings move to `suppressed`; '*' covers the file."""
    path = "tests/lint_fixtures/determinism_bad.py"
    by_symbol = Baseline.parse(
        f"{path}: R1.wall-clock: pick_processor  # fixture demo\n"
    )
    report = run_lint(ROOT, targets=[path], baseline=by_symbol)
    assert "R1.wall-clock" not in counts(report)
    assert [f.rule for f in report.suppressed] == ["R1.wall-clock"]

    wildcard = Baseline.parse(f"{path}: R1.set-iteration: *  # fixture demo\n")
    report = run_lint(ROOT, targets=[path], baseline=wildcard)
    assert "R1.set-iteration" not in counts(report)
    assert len(report.suppressed) == 2


def test_stale_baseline_entry_is_a_finding():
    """An unused entry for a scanned file becomes baseline.stale."""
    path = "tests/lint_fixtures/determinism_good.py"
    stale = Baseline.parse(f"{path}: R1.wall-clock: nope  # long gone\n")
    report = run_lint(ROOT, targets=[path], baseline=stale)
    assert [f.rule for f in report.findings] == [STALE_RULE]
    assert not report.ok


def test_baseline_entries_for_unscanned_files_are_left_alone():
    """A partial run must not declare the rest of the baseline rotten."""
    stale = Baseline.parse("src/repro/cli.py: R1.wall-clock: x  # elsewhere\n")
    report = run_lint(
        ROOT,
        targets=["tests/lint_fixtures/determinism_good.py"],
        baseline=stale,
    )
    assert report.ok


def test_checked_in_baseline_has_no_stale_entries():
    """Every line of lint-baseline.txt still suppresses something."""
    report = run_lint(ROOT)
    assert not any(f.rule == STALE_RULE for f in report.findings)


# ---------------------------------------------------------------------------
# engine errors and the rule registry


def test_engine_errors(tmp_path):
    """Missing targets, unparseable files and unknown rules are LintError."""
    with pytest.raises(LintError, match="no such lint target"):
        run_lint(ROOT, targets=["no/such/dir"])
    with pytest.raises(LintError, match="unknown rule"):
        run_lint(ROOT, targets=["tests/lint_fixtures"], rules=["R9.bogus"])
    (tmp_path / "broken.py").write_text("def f(:\n")
    with pytest.raises(LintError, match="cannot parse"):
        run_lint(tmp_path, targets=["broken.py"], baseline=Baseline())
    with pytest.raises(LintError, match="baseline file not found"):
        run_lint(ROOT, targets=["scripts"], baseline=tmp_path / "none.txt")


def test_rule_registry_is_stable_and_described():
    """iter_rules: sorted ids, both hooks' families present, metadata set."""
    rules = iter_rules()
    ids = [r.id for r in rules]
    assert ids == sorted(ids) and len(ids) == len(set(ids))
    assert set(RULE_TO_STEM) <= set(ids)
    for r in rules:
        assert r.family and r.description
    assert rule_info("R1.wall-clock").family == "determinism"
    with pytest.raises(LintError, match="unknown rule"):
        rule_info("R0.nope")


def test_register_rule_validates():
    """The decorator rejects non-Rule classes and empty descriptions."""
    with pytest.raises(TypeError):
        register_rule("Rx.t", family="t", description="d")(object)
    with pytest.raises(ValueError):
        register_rule("Rx.t", family="t", description="")(
            type("R", (Rule,), {})
        )


# ---------------------------------------------------------------------------
# project-level registry rules (need a synthetic repo tree)


def _write_mini_repo(tmp_path: Path, *, list_plugin: bool, document: bool):
    solvers = tmp_path / "src" / "repro" / "solvers"
    solvers.mkdir(parents=True)
    listed = '("repro.solvers.rogue",)' if list_plugin else "()"
    (solvers / "registry.py").write_text(
        f'"""Mini registry."""\n_BUILTIN_PLUGINS = {listed}\n'
    )
    (solvers / "rogue.py").write_text(
        '"""Mini plugin."""\n'
        "def register_solver(base, **kw):\n"
        '    """Stub."""\n'
        "    def deco(fn):\n"
        "        return fn\n"
        "    return deco\n"
        '@register_solver("rogue", description="d", paper_section="s",\n'
        "                 capabilities=())\n"
        "def make(system, platform, spec, seed):\n"
        '    """Stub factory."""\n'
        "    return None\n"
    )
    docs = tmp_path / "docs"
    docs.mkdir()
    (docs / "SOLVERS.md").write_text(
        "# solvers\n\nrogue\n" if document else "# solvers\n"
    )


def test_plugin_unreachable_fires_on_unlisted_module(tmp_path):
    """Registering outside _BUILTIN_PLUGINS is flagged project-wide."""
    _write_mini_repo(tmp_path, list_plugin=False, document=True)
    report = run_lint(tmp_path, targets=["src/repro"], baseline=Baseline())
    assert counts(report) == {"R3.plugin-unreachable": 1}


def test_docs_coverage_fires_on_undocumented_base(tmp_path):
    """A base name absent from docs/SOLVERS.md is flagged project-wide."""
    _write_mini_repo(tmp_path, list_plugin=True, document=False)
    report = run_lint(tmp_path, targets=["src/repro"], baseline=Baseline())
    assert counts(report) == {"R3.docs-coverage": 1}


def test_mini_repo_clean_when_listed_and_documented(tmp_path):
    """The synthetic tree is clean once both project contracts hold."""
    _write_mini_repo(tmp_path, list_plugin=True, document=True)
    report = run_lint(tmp_path, targets=["src/repro"], baseline=Baseline())
    assert report.ok


# ---------------------------------------------------------------------------
# report shape and the CLI contract


def run_cli(capsys, *argv):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_report_json_shape():
    """to_dict: versioned, machine-stable keys for findings."""
    report = lint_fixture("trail", "bad")
    d = report.to_dict()
    assert d["version"] == 1 and d["ok"] is False
    assert d["files_scanned"] == 1
    assert "R5.unregistered-mutation" in d["rules_run"]
    f = d["findings"][0]
    assert set(f) >= {"rule", "path", "line", "col", "message", "symbol"}


def test_cli_lint_clean_repo_exits_zero(capsys):
    """Exit 0 + 'clean' summary on the repo (baseline applied)."""
    code, out, _ = run_cli(capsys, "lint", "--root", str(ROOT))
    assert code == 0
    assert "clean" in out


def test_cli_lint_findings_exit_one(capsys):
    """Exit 1 and rendered findings when a bad fixture is targeted."""
    code, out, _ = run_cli(
        capsys, "lint", "--root", str(ROOT),
        "tests/lint_fixtures/determinism_bad.py",
    )
    assert code == 1
    assert "R1.unseeded-random" in out


def test_cli_lint_engine_error_exits_two(capsys):
    """Exit 2 + stderr diagnostic on an unusable run."""
    code, _, err = run_cli(
        capsys, "lint", "--root", str(ROOT), "no/such/dir"
    )
    assert code == 2
    assert "no such lint target" in err


def test_cli_lint_json_output(capsys):
    """--json emits the versioned report."""
    code, out, _ = run_cli(capsys, "lint", "--root", str(ROOT), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"] == 1 and payload["ok"] is True


def test_cli_lint_list_rules(capsys):
    """--list-rules prints every registered id and exits 0."""
    code, out, _ = run_cli(capsys, "lint", "--list-rules")
    assert code == 0
    for rule in RULE_TO_STEM:
        assert rule in out
    code, out, _ = run_cli(capsys, "lint", "--list-rules", "--json")
    assert code == 0
    ids = {r["id"] for r in json.loads(out)}
    assert set(RULE_TO_STEM) <= ids
