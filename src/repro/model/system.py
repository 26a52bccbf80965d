"""Task systems (finite collections of periodic tasks)."""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction

from repro.model import intervals
from repro.model.task import Task
from repro.util.math import ceil_div, lcm_all

__all__ = ["TaskSystem"]


class TaskSystem:
    """An ordered, immutable collection of periodic tasks.

    Task indices are 0-based throughout the library (the paper's
    ``tau_1 .. tau_n`` are ``system[0] .. system[n-1]``).

    >>> sys3 = TaskSystem.from_tuples([(0, 1, 2, 2), (1, 3, 4, 4), (0, 2, 2, 3)])
    >>> sys3.hyperperiod
    12
    >>> float(sys3.utilization)
    1.9166666666666667
    """

    __slots__ = ("_tasks", "_hyperperiod", "_windows")

    def __init__(self, tasks: Iterable[Task]) -> None:
        tasks = list(tasks)
        if not tasks:
            raise ValueError("a task system needs at least one task")
        named = []
        for i, t in enumerate(tasks):
            if not isinstance(t, Task):
                raise TypeError(f"expected Task, got {t!r}")
            named.append(t if t.name is not None else t.with_name(f"tau{i + 1}"))
        self._tasks: tuple[Task, ...] = tuple(named)
        self._hyperperiod: int = lcm_all(t.period for t in self._tasks)
        self._windows: intervals.JobWindows | None = None

    def __reduce__(self):
        # rebuilt from the tasks: the cached window arrays stay behind
        return (TaskSystem, (self._tasks,))

    # -- construction helpers ----------------------------------------------
    @classmethod
    def from_tuples(
        cls, tuples: Iterable[Sequence[int]], names: Sequence[str] | None = None
    ) -> "TaskSystem":
        """Build a system from ``(O, C, D, T)`` tuples."""
        tasks = []
        for i, tup in enumerate(tuples):
            o, c, d, t = tup
            name = names[i] if names is not None else None
            tasks.append(Task(o, c, d, t, name))
        return cls(tasks)

    # -- container protocol --------------------------------------------------
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self._tasks)

    def __getitem__(self, idx: int) -> Task:
        return self._tasks[idx]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSystem):
            return NotImplemented
        return self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash(self._tasks)

    def __repr__(self) -> str:
        inner = ", ".join(str(t.as_tuple()) for t in self._tasks)
        return f"TaskSystem([{inner}])"

    # -- aggregate quantities -------------------------------------------------
    @property
    def tasks(self) -> tuple[Task, ...]:
        """The tasks, in index order."""
        return self._tasks

    @property
    def n(self) -> int:
        """Number of tasks."""
        return len(self._tasks)

    @property
    def hyperperiod(self) -> int:
        """``T = lcm(T_1, .., T_n)`` — the cyclic schedule length."""
        return self._hyperperiod

    @property
    def max_period(self) -> int:
        """``Tmax = max_i T_i``."""
        return max(t.period for t in self._tasks)

    @property
    def utilization(self) -> Fraction:
        """``U = sum_i C_i / T_i`` as an exact fraction.

        ``U <= m`` is necessary for feasibility on ``m`` identical
        processors; Table II's filter removes instances with ``U > m``.
        """
        return sum((t.utilization for t in self._tasks), Fraction(0))

    def utilization_ratio(self, m: int) -> Fraction:
        """``r = U / m``, the paper's utilization ratio (feasible => r <= 1)."""
        if m < 1:
            raise ValueError(f"need at least one processor, got m={m}")
        return self.utilization / m

    @property
    def density(self) -> Fraction:
        """``sum_i C_i / min(D_i, T_i)`` (a stronger necessary load measure)."""
        return sum((t.density for t in self._tasks), Fraction(0))

    @property
    def is_constrained(self) -> bool:
        """True iff every task has ``D_i <= T_i``."""
        return all(t.is_constrained for t in self._tasks)

    @property
    def min_processors(self) -> int:
        """``m_min = ceil(U)`` — Table IV's processor count choice."""
        u = self.utilization
        return max(1, ceil_div(u.numerator, u.denominator))

    # -- per-task window helpers (delegate to repro.model.intervals) ---------
    def n_jobs(self, i: int) -> int:
        """Jobs of task ``i`` per hyperperiod."""
        return intervals.n_jobs(self._tasks[i], self._hyperperiod)

    def total_jobs(self) -> int:
        """Total job windows per hyperperiod, ``sum_i T/T_i``."""
        return sum(self.n_jobs(i) for i in range(self.n))

    def total_demand(self) -> int:
        """Total execution units to place per hyperperiod, ``sum_i (T/T_i) C_i``."""
        return sum(self.n_jobs(i) * t.wcet for i, t in enumerate(self._tasks))

    @property
    def windows(self) -> intervals.JobWindows:
        """Every window with work in one hyperperiod, as numpy arrays
        (built on first use, then shared: the system is immutable)."""
        if self._windows is None:
            self._windows = intervals.JobWindows.of(self._tasks, self._hyperperiod)
        return self._windows

    def active_job(self, i: int, slot: int) -> int | None:
        """Job of task ``i`` whose window contains ``slot`` (None if idle)."""
        return intervals.active_job(self._tasks[i], self._hyperperiod, slot)

    def window_slots(self, i: int, job: int) -> list[int]:
        """Cyclic slot set of job ``job`` of task ``i``."""
        return intervals.window_slots(self._tasks[i], self._hyperperiod, job)

    def job_release(self, i: int, job: int) -> int:
        """Release slot of job ``job`` of task ``i``."""
        return intervals.job_release(self._tasks[i], job)

    def task_slots(self, i: int) -> list[int]:
        """All slots (sorted, deduplicated) where task ``i`` may run."""
        slots: set[int] = set()
        for job in range(self.n_jobs(i)):
            slots.update(self.window_slots(i, job))
        return sorted(slots)

    def rename(self, names: Sequence[str]) -> "TaskSystem":
        """Copy with new display names."""
        if len(names) != self.n:
            raise ValueError(f"expected {self.n} names, got {len(names)}")
        return TaskSystem(t.with_name(nm) for t, nm in zip(self._tasks, names))
