"""One builder per outcome: who may construct a ``RunRecord`` or a ``SolveReport``.

A campaign record is only ever projected from its run's report
(``RunRecord.of``) or decoded from its JSON document
(``RunRecord.from_dict``); a report is only ever solved
(``solve_problem``), synthesized for a run whose execution died
(``fault_report``) or decoded (``SolveReport.from_dict``).  So a fault
outcome is made in one place, and a record can never disagree with the
report it was projected from.  This test walks the AST of every module
under ``src/repro`` and fails on a construction anywhere else:

* a call of the class by name, by an imported alias or as an attribute
  (``runner.RunRecord(...)``);
* ``cls(...)`` inside the class's own methods.

Copying an outcome with ``dataclasses.replace`` (re-seeding a cached
record, re-indexing a report) makes no new outcome and is not counted.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def constructions(source: str, name: str) -> list[str]:
    """The qualified name of the function around every construction of
    class ``name`` in ``source`` (``"<module>"`` at top level)."""
    tree = ast.parse(source)
    aliases = {name}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            aliases.update(a.asname for a in node.names if a.name == name and a.asname)
    found = []

    def constructs(func, owner) -> bool:
        if isinstance(func, ast.Name):
            return func.id in aliases or (func.id == "cls" and owner == name)
        return isinstance(func, ast.Attribute) and func.attr == name

    def visit(node, scope, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, scope + [child.name], child.name)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name], owner)
                continue
            if isinstance(child, ast.Call) and constructs(child.func, owner):
                found.append(".".join(scope) or "<module>")
            visit(child, scope, owner)

    visit(tree, [], None)
    return found


def constructions_in_package(name: str) -> set[tuple[str, str]]:
    """``(module path, function)`` of every construction under ``src/repro``."""
    return {
        (path.relative_to(SRC).as_posix(), where)
        for path in sorted(SRC.rglob("*.py"))
        for where in constructions(path.read_text(), name)
    }


def test_run_records_are_only_projected_or_decoded():
    assert constructions_in_package("RunRecord") == {
        ("experiments/runner.py", "RunRecord.of"),
        ("experiments/runner.py", "RunRecord.from_dict"),
    }


def test_solve_reports_are_only_solved_faulted_or_decoded():
    assert constructions_in_package("SolveReport") == {
        ("solvers/problem.py", "solve_problem"),
        ("solvers/problem.py", "fault_report"),
        ("solvers/problem.py", "SolveReport.from_dict"),
    }


@pytest.mark.parametrize(
    "source, where",
    [
        ("RunRecord(1, 2)\n", "<module>"),
        ("def f(d):\n    return RunRecord(**d)\n", "f"),
        ("def f(runner):\n    return runner.RunRecord()\n", "f"),
        ("from x import RunRecord as R\ndef f():\n    return R()\n", "f"),
        (
            "class RunRecord:\n    @classmethod\n    def make(cls):\n"
            "        return cls()\n",
            "RunRecord.make",
        ),
        ("def f(xs):\n    return [RunRecord(x) for x in xs]\n", "f"),
    ],
)
def test_every_construction_form_is_caught(source, where):
    assert constructions(source, "RunRecord") == [where]


def test_copies_and_other_classes_are_not_constructions():
    source = (
        "from dataclasses import replace\n"
        "class Other:\n    @classmethod\n    def make(cls):\n"
        "        return cls()\n"
        "def rekey(record):\n    return replace(record, instance_seed=1)\n"
    )
    assert constructions(source, "RunRecord") == []
