"""One process manager: only ``batch/supervise.py`` creates processes.

Every parallel path in the package (``run_batch``, ``solve_iter``, the
``portfolio:`` race, the solver service) runs its work in the watched
children of :class:`~repro.batch.supervise.SupervisedWorker`, driven by
:class:`~repro.batch.transport.LocalPoolTransport`.  A second way to
start processes would run work without the watchdog, the rlimit and the
fault classification.  This test walks the AST of every module under
``src/repro`` and fails on any process creation outside
``batch/supervise.py``:

* a ``multiprocessing`` (or context) ``Process`` or ``Pool``, or
  ``get_context`` / ``set_start_method``;
* ``concurrent.futures.ProcessPoolExecutor``;
* ``os.fork`` and its relatives (``forkpty``, ``posix_spawn``,
  ``spawn*``, ``system``, ``popen``);
* any use of ``subprocess``.

Reading ``multiprocessing.current_process()`` (the portfolio asks
whether it runs in a daemonic child) is not process creation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: the one module allowed to create processes
MANAGER = "batch/supervise.py"

#: attribute or imported names that create processes, whatever they
#: hang off (a module, a context, an alias)
_CREATORS = {
    "Process",
    "Pool",
    "ProcessPoolExecutor",
    "get_context",
    "set_start_method",
}

#: ``os`` functions that start processes
_OS_CREATORS = {
    "fork",
    "forkpty",
    "posix_spawn",
    "posix_spawnp",
    "system",
    "popen",
    "spawnl",
    "spawnle",
    "spawnlp",
    "spawnlpe",
    "spawnv",
    "spawnve",
    "spawnvp",
    "spawnvpe",
}

#: modules whose mere import means starting processes
_CREATOR_MODULES = {
    "subprocess",
    "multiprocessing.pool",
    "concurrent.futures.process",
}


def process_creations(source: str) -> list[str]:
    """Every process-creating construct in ``source``, as
    ``"line N: what"`` strings (empty when there is none)."""
    tree = ast.parse(source)
    os_names = {"os"}
    found = []

    def flag(node, what):
        found.append(f"line {node.lineno}: {what}")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in _CREATOR_MODULES:
                    flag(node, f"import {alias.name}")
                if alias.name == "os":
                    os_names.add(alias.asname or "os")
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module in _CREATOR_MODULES:
                flag(node, f"from {module} import ...")
            for alias in node.names:
                if alias.name in _CREATORS:
                    flag(node, f"from {module} import {alias.name}")
                elif module == "os" and alias.name in _OS_CREATORS:
                    flag(node, f"from os import {alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if node.attr in _CREATORS:
                flag(node, f".{node.attr}")
            elif (
                node.attr in _OS_CREATORS
                and isinstance(node.value, ast.Name)
                and node.value.id in os_names
            ):
                flag(node, f"{node.value.id}.{node.attr}")
    return found


def test_only_the_supervisor_creates_processes():
    offenders = {}
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if rel == MANAGER:
            continue
        found = process_creations(path.read_text())
        if found:
            offenders[rel] = found
    assert offenders == {}


def test_the_supervisor_is_where_processes_come_from():
    """The scan sees the one real process creation, so a clean result
    elsewhere means something."""
    found = process_creations((SRC / MANAGER).read_text())
    assert any(".Process" in f for f in found)


def test_reading_the_current_process_is_allowed():
    source = (
        "import multiprocessing\n"
        "daemon = multiprocessing.current_process().daemon\n"
    )
    assert process_creations(source) == []


@pytest.mark.parametrize(
    "source",
    [
        "import multiprocessing\nmultiprocessing.Process(target=f)\n",
        "import multiprocessing as mp\nmp.get_context('fork')\n",
        "from multiprocessing import Pool\n",
        "import multiprocessing\nwith multiprocessing.Pool(2) as p: pass\n",
        "ctx = object()\nctx.Process(target=f)\n",
        "from concurrent.futures import ProcessPoolExecutor\n",
        "import concurrent.futures as cf\ncf.ProcessPoolExecutor(2)\n",
        "import os\nos.fork()\n",
        "import os as _os\n_os.posix_spawn('x', [], {})\n",
        "from os import fork\n",
        "import subprocess\n",
        "from subprocess import run\n",
        "import multiprocessing.pool\n",
    ],
)
def test_every_creation_form_is_caught(source):
    assert process_creations(source)
