"""The paper's task value-ordering heuristics (Section V-C-2).

Four orderings over tasks, each "smallest key first":

* ``rm``  — Rate Monotonic: smallest period ``T_i``;
* ``dm``  — Deadline Monotonic: smallest deadline ``D_i``;
* ``tc``  — smallest ``T_i - C_i`` (slack);
* ``dc``  — smallest ``D_i - C_i`` (laxity) — the experimental winner
  (Tables I and IV use CSP2+(D-C) as the reference solver).

``None`` means plain task-index order (the paper's unadorned "CSP2"
column).  Ties always break by task index, which keeps every ordering
deterministic.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.model.system import TaskSystem
from repro.model.task import Task

__all__ = ["HEURISTICS", "HEURISTIC_ALIASES", "task_order", "heuristic_key"]

#: name -> key function on Task (smaller = higher priority)
HEURISTICS: dict[str, Callable[[Task], int]] = {
    "rm": lambda t: t.period,
    "dm": lambda t: t.deadline,
    "tc": lambda t: t.slack,
    "dc": lambda t: t.laxity,
}

#: accepted aliases (paper spelling with parentheses/dashes)
_ALIASES = {
    "t-c": "tc",
    "(t-c)": "tc",
    "d-c": "dc",
    "(d-c)": "dc",
    "none": None,
}

#: the alias spellings: the hidden suffixes of every family whose
#: ``+suffix`` names a heuristic
HEURISTIC_ALIASES = tuple(_ALIASES)


def _canon(name: str | None) -> str | None:
    if name is None:
        return None
    key = name.strip().lower()
    key = _ALIASES.get(key, key)
    if key is not None and key not in HEURISTICS:
        raise ValueError(
            f"unknown task heuristic {name!r}; expected one of "
            f"{sorted(HEURISTICS)} (aliases: {sorted(_ALIASES)}) or None"
        )
    return key


def heuristic_key(name: str | None) -> Callable[[Task], int] | None:
    """The key function for a (possibly aliased) heuristic name."""
    key = _canon(name)
    return None if key is None else HEURISTICS[key]


def task_order(system: TaskSystem, heuristic: str | None) -> list[int]:
    """Task indices sorted by the heuristic, best (try-first) first."""
    key = heuristic_key(heuristic)
    ids = list(range(system.n))
    if key is None:
        return ids
    return sorted(ids, key=lambda i: (key(system[i]), i))
