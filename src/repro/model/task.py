"""The periodic task abstraction (paper Section II)."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

__all__ = ["Task"]


@dataclass(frozen=True, slots=True)
class Task:
    """A periodic real-time task ``(O, C, D, T)``.

    Every integer multiple of the period releases a *job*: job ``k``
    (k = 1, 2, ...) is released at ``O + (k-1)T``, must receive exactly
    ``C`` units of execution, and must do so before its absolute deadline
    ``O + (k-1)T + D``.  Time is discrete and all parameters are integers
    (paper Section II).

    Attributes
    ----------
    offset:
        Release time ``O_i`` of the first job (``>= 0``).
    wcet:
        Worst-case execution time ``C_i`` (``>= 0``); the schedule must
        allocate *exactly* this many unit slots per job (constraint C4).
    deadline:
        Relative deadline ``D_i`` (``>= 1``).  On identical processors a
        task additionally needs ``C <= D`` to be schedulable.  ``D <= T``
        is the *constrained deadline* case; the CSP encodings require it,
        arbitrary-deadline tasks are first rewritten with
        :func:`repro.model.transform.clone_for_arbitrary_deadlines`.
    period:
        Period ``T_i`` (``>= 1``).
    name:
        Optional label used in rendering; defaults to ``tau<idx>`` at
        system construction.
    """

    offset: int
    wcet: int
    deadline: int
    period: int
    name: str | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        for attr in ("offset", "wcet", "deadline", "period"):
            v = getattr(self, attr)
            if not isinstance(v, int) or isinstance(v, bool):
                raise TypeError(f"Task.{attr} must be an int, got {v!r}")
        if self.offset < 0:
            raise ValueError(f"offset must be >= 0, got {self.offset}")
        if self.wcet < 0:
            raise ValueError(f"wcet must be >= 0, got {self.wcet}")
        if self.deadline < 1:
            raise ValueError(f"deadline must be >= 1, got {self.deadline}")
        if self.period < 1:
            raise ValueError(f"period must be >= 1, got {self.period}")
        # Note: C > D is *not* rejected here.  On identical processors it is
        # trivially infeasible (a job gets at most one unit per slot), and
        # analysis.necessary's wcet-slack certificate proves it, but on
        # heterogeneous platforms with rates > 1 such a task can still be
        # schedulable.

    # -- paper-notation aliases -------------------------------------------
    @property
    def O(self) -> int:  # noqa: E743 - paper notation
        """Alias for :attr:`offset` (paper notation ``O_i``)."""
        return self.offset

    @property
    def C(self) -> int:
        """Alias for :attr:`wcet` (paper notation ``C_i``)."""
        return self.wcet

    @property
    def D(self) -> int:
        """Alias for :attr:`deadline` (paper notation ``D_i``)."""
        return self.deadline

    @property
    def T(self) -> int:
        """Alias for :attr:`period` (paper notation ``T_i``)."""
        return self.period

    # -- derived quantities ------------------------------------------------
    @property
    def utilization(self) -> Fraction:
        """``C_i / T_i`` as an exact fraction."""
        return Fraction(self.wcet, self.period)

    @property
    def density(self) -> Fraction:
        """``C_i / min(D_i, T_i)`` as an exact fraction."""
        return Fraction(self.wcet, min(self.deadline, self.period))

    @property
    def laxity(self) -> int:
        """``D_i - C_i``, the paper's (D-C) value-ordering key."""
        return self.deadline - self.wcet

    @property
    def slack(self) -> int:
        """``T_i - C_i``, the paper's (T-C) value-ordering key."""
        return self.period - self.wcet

    @property
    def is_constrained(self) -> bool:
        """True iff ``D_i <= T_i`` (constrained-deadline task)."""
        return self.deadline <= self.period

    @property
    def phase(self) -> int:
        """``O_i mod T_i`` — the only part of the offset that matters for
        the cyclic availability pattern over a hyperperiod."""
        return self.offset % self.period

    def with_name(self, name: str) -> "Task":
        """Copy of this task with a different display name."""
        return Task(self.offset, self.wcet, self.deadline, self.period, name)

    def as_tuple(self) -> tuple[int, int, int, int]:
        """The ``(O, C, D, T)`` 4-tuple."""
        return (self.offset, self.wcet, self.deadline, self.period)

    def __str__(self) -> str:
        label = self.name or "task"
        return f"{label}(O={self.offset}, C={self.wcet}, D={self.deadline}, T={self.period})"
