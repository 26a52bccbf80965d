"""CSP variables and models."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.util.bitset import mask_of, values_from_mask

__all__ = ["Variable", "Model"]


class Variable:
    """A finite-domain integer variable.

    The initial domain is a set of integers stored as a bitmask relative to
    ``offset`` (the domain minimum): bit ``b`` represents value
    ``offset + b``.  Variables are created through :class:`Model` factory
    methods, never directly.
    """

    __slots__ = ("index", "name", "offset", "initial_mask")

    def __init__(self, index: int, name: str, offset: int, initial_mask: int) -> None:
        if initial_mask == 0:
            raise ValueError(f"variable {name!r} created with an empty domain")
        self.index = index
        self.name = name
        self.offset = offset
        self.initial_mask = initial_mask

    @property
    def initial_size(self) -> int:
        """Number of values in the initial domain."""
        return self.initial_mask.bit_count()

    def initial_values(self) -> list[int]:
        """Initial domain as a sorted list of integers."""
        return values_from_mask(self.initial_mask, self.offset)

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, dom={self.initial_values()!r})"


class Model:
    """A CSP: variables plus constraints (paper Section III-A).

    Variable creation order matters: the ``input`` variable-ordering
    heuristic branches in creation order, which is how the chronological
    ordering of CSP2 is expressed (Section V-C-1).
    """

    def __init__(self) -> None:
        self.variables: list[Variable] = []
        self.constraints: list = []

    # -- variable factories -------------------------------------------------
    def int_var(self, lo: int, hi: int, name: str | None = None) -> Variable:
        """New variable with contiguous domain ``{lo, .., hi}``."""
        if hi < lo:
            raise ValueError(f"empty domain: lo={lo} > hi={hi}")
        mask = (1 << (hi - lo + 1)) - 1
        return self._new(name, lo, mask)

    def int_var_from(self, values: Iterable[int], name: str | None = None) -> Variable:
        """New variable whose domain is an arbitrary finite set."""
        vals = sorted(set(values))
        if not vals:
            raise ValueError("empty domain")
        offset = vals[0]
        mask = mask_of(v - offset for v in vals)
        return self._new(name, offset, mask)

    def bool_var(self, name: str | None = None) -> Variable:
        """New 0/1 variable."""
        return self._new(name, 0, 0b11)

    def constant(self, value: int, name: str | None = None) -> Variable:
        """A variable fixed to one value (handy in encodings)."""
        return self.int_var(value, value, name)

    def _new(self, name: str | None, offset: int, mask: int) -> Variable:
        idx = len(self.variables)
        var = Variable(idx, name or f"v{idx}", offset, mask)
        self.variables.append(var)
        return var

    # -- constraint posting ----------------------------------------------------
    def add(self, constraint) -> None:
        """Post a propagator built elsewhere."""
        self.constraints.append(constraint)

    # Convenience wrappers so encodings read close to the paper's notation.
    def add_at_most_one_true(self, bools: Sequence[Variable]) -> None:
        """``sum b_k <= 1`` over boolean variables (constraints (3)/(4))."""
        self.add(AtMostOneTrue(bools))

    def add_exact_sum_bool(self, bools: Sequence[Variable], total: int) -> None:
        """``sum b_k == total`` over booleans (constraint (5))."""
        self.add(ExactSumBool(bools, total))

    def add_weighted_exact_sum_bool(
        self, bools: Sequence[Variable], coefs: Sequence[int], total: int
    ) -> None:
        """``sum c_k b_k == total``, ``c_k >= 0`` (constraint (11))."""
        self.add(WeightedExactSumBool(bools, coefs, total))

    def add_count_eq(self, vars: Sequence[Variable], value: int, total: int) -> None:
        """``#{k : x_k == value} == total`` (constraint (9))."""
        self.add(CountEq(vars, value, total))

    def add_weighted_count_eq(
        self, vars: Sequence[Variable], coefs: Sequence[int], value: int, total: int
    ) -> None:
        """``sum_k c_k [x_k == value] == total`` (constraint (12))."""
        self.add(WeightedCountEq(vars, coefs, value, total))

    def add_all_different_except(
        self, vars: Sequence[Variable], except_value: int | None
    ) -> None:
        """Pairwise difference, ignoring ``except_value`` (constraint (8))."""
        self.add(AllDifferentExceptValue(vars, except_value))

    def add_non_decreasing(self, vars: Sequence[Variable]) -> None:
        """``x_1 <= x_2 <= ..`` — the symmetry-breaking rule (10)."""
        self.add(NonDecreasing(vars))

    def add_table(
        self, vars: Sequence[Variable], tuples: Iterable[Sequence[int]]
    ) -> None:
        """Positive table constraint: the tuple of values must be listed."""
        self.add(Table(vars, tuples))

    # -- introspection -----------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return len(self.variables)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def degrees(self) -> list[int]:
        """Number of constraints mentioning each variable (for dom/deg)."""
        deg = [0] * len(self.variables)
        for c in self.constraints:
            for v in c.vars:
                deg[v.index] += 1
        return deg

    def __repr__(self) -> str:
        return f"Model(vars={self.n_variables}, constraints={self.n_constraints})"


# Bound once, after Model and Variable exist: propagators imports this
# module, so the import cannot sit at the top.
from repro.csp.propagators import (  # noqa: E402
    AllDifferentExceptValue,
    AtMostOneTrue,
    CountEq,
    ExactSumBool,
    NonDecreasing,
    Table,
    WeightedCountEq,
    WeightedExactSumBool,
)
