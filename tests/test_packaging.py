"""Packaging contract: the package imports with its declared dependencies.

Every third-party top-level module imported anywhere under
``src/repro`` must be named in ``[project.dependencies]`` of
``pyproject.toml``; otherwise a plain ``pip install`` yields a package
that fails at import time.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")

ROOT = Path(__file__).resolve().parents[1]


def _third_party_imports() -> dict[str, set[str]]:
    """Top-level module -> files importing it, for non-stdlib imports."""
    found: dict[str, set[str]] = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(
                        str(path.relative_to(ROOT))
                    )
    return found


def _declared_dependencies() -> set[str]:
    """Distribution names of ``[project.dependencies]``, normalised."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    return {
        re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
        for req in project.get("dependencies", [])
    }


def test_every_third_party_import_is_declared():
    imports = _third_party_imports()
    assert "numpy" in imports, "the import scan found nothing"
    declared = _declared_dependencies()
    undeclared = {
        module: sorted(files)
        for module, files in imports.items()
        if module.lower() not in declared
    }
    assert not undeclared, f"imported but not in [project.dependencies]: {undeclared}"
