"""Declarative solver registry: plugins register themselves by name.

Instead of a hard-coded if/elif chain, every solver family —
the paper's configurations, this reproduction's extras, the baseline
schedulers, and any future backend — registers a factory under a base
name with :func:`register_solver`::

    @register_solver(
        "csp2",
        description="dedicated chronological solver",
        paper_section="V",
        capabilities=(PROVES_INFEASIBILITY, EXACT),
        suffixes={"rm": "...", "dm": "...", "tc": "...", "dc": "..."},
        options=("symmetry_breaking", "idle_rule"),
    )
    def _make(system, platform, spec, seed, **options): ...

Names are parsed by :class:`repro.solvers.spec.SolverSpec` (``base`` or
``base+suffix``, plus ``portfolio:a,b`` for the racing meta-solver), and
:func:`create_solver` resolves a spec to an engine instance, rejecting
unknown keyword options with the plugin's accepted list in the message.
Everything downstream — :func:`available_solvers`, the ``repro-mgrts
solvers`` subcommand, and docs/SOLVERS.md (via
:mod:`repro.solvers.docs`) — derives from the same metadata.

The historical ``make_solver`` deprecation shim was removed in PR 5
(it had warned since PR 2); :func:`create_solver` is a drop-in
replacement with the same call shape.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.model.platform import Platform
from repro.model.system import TaskSystem
from repro.solvers.spec import SolverSpec

__all__ = [
    "PROVES_INFEASIBILITY",
    "EXACT",
    "SolverInfo",
    "register_solver",
    "solver_info",
    "iter_solver_info",
    "create_solver",
    "available_solvers",
    "is_solver_name",
    "PAPER_SOLVERS",
]

#: capability: an INFEASIBLE answer from this solver is a proof
PROVES_INFEASIBILITY = "proves_infeasibility"
#: capability: given enough budget the solver always reaches a verdict
#: (complete search; local search and simulation baselines lack this)
EXACT = "exact"

#: the six configurations the paper's experiments compare (Table I order)
PAPER_SOLVERS = ["csp1", "csp2", "csp2+rm", "csp2+dm", "csp2+tc", "csp2+dc"]


@dataclass(frozen=True)
class SolverInfo:
    """Registry metadata for one solver family (one base name).

    Attributes
    ----------
    base:
        The registry key (``"csp2"`` serves ``csp2``, ``csp2+rm``, ...).
    factory:
        ``factory(system, platform, spec, seed, **options) -> engine``.
    description:
        One-line "what it is" (drives docs/SOLVERS.md and the CLI).
    paper_section:
        Where the paper discusses it (empty for pure extensions).
    pick_when:
        One-line "pick it when" guidance.
    capabilities:
        Frozen set of capability strings (:data:`PROVES_INFEASIBILITY`,
        :data:`EXACT`, ...).
    suffixes:
        Advertised ``+suffix`` variants mapped to their row description;
        a factory may accept more (e.g. default-valued spellings).
    options:
        Keyword options the factory accepts; anything else is rejected
        by :func:`create_solver` with this list in the error message.
    hidden_suffixes:
        Suffixes accepted but not advertised (default-valued spellings
        like ``csp1+min_dom`` / ``sat+sequential``, paper-style aliases
        like ``csp2+d-c``).  Any suffix outside ``suffixes`` and
        ``hidden_suffixes`` is rejected by :func:`create_solver`.
    platforms:
        Supported platform kinds, subset of
        ``("identical", "uniform", "heterogeneous")``.
    memory_bound:
        True for solvers whose model size is predicted by
        ``estimate_generic_variables`` and guarded by the batch layer's
        variable limit (the generic-engine and CNF encodings).
    advertise:
        Whether the family's names appear in :func:`available_solvers`
        (the portfolio meta-solver does not: it has no standalone name).
    """

    base: str
    factory: Callable
    description: str
    paper_section: str = ""
    pick_when: str = ""
    capabilities: frozenset = field(default_factory=frozenset)
    suffixes: Mapping[str, str] = field(default_factory=dict)
    options: tuple[str, ...] = ()
    platforms: tuple[str, ...] = ("identical", "uniform", "heterogeneous")
    memory_bound: bool = False
    advertise: bool = True
    hidden_suffixes: tuple[str, ...] = ()

    def accepts_suffix(self, suffix: str | None) -> bool:
        """Whether ``base+suffix`` is a valid name of this family."""
        if suffix is None:
            return True
        return suffix in self.suffixes or suffix in self.hidden_suffixes

    @property
    def proves_infeasibility(self) -> bool:
        """Whether an INFEASIBLE verdict from this family is a proof."""
        return PROVES_INFEASIBILITY in self.capabilities

    @property
    def is_exact(self) -> bool:
        """Whether the family runs a complete search."""
        return EXACT in self.capabilities

    def names(self) -> list[str]:
        """The canonical names this family serves (base + each suffix)."""
        return [self.base] + [f"{self.base}+{s}" for s in self.suffixes]


#: base name -> SolverInfo
_REGISTRY: dict[str, SolverInfo] = {}

#: base name -> first-registration sequence number (ordering for
#: third-party plugins, which follow the built-in families)
_SEQ: dict[str, int] = {}

#: presentation order of the built-in families; anything else appears
#: after, in first-registration order.  Listing is pinned here (not to
#: dict insertion) because solver modules may be imported in any order —
#: a test importing ``csp2_dedicated`` directly must not reshuffle
#: ``available_solvers()`` or the generated docs.
_CANONICAL_ORDER = (
    "csp1",
    "csp2",
    "csp2-generic",
    "csp2-local",
    "sat",
    "portfolio",
    "screen",
    "edf",
    "edf-exact",
    "fp",
)


def _order_key(base: str) -> tuple[int, int]:
    try:
        return (0, _CANONICAL_ORDER.index(base))
    except ValueError:
        return (1, _SEQ.get(base, 0))

#: modules that register the built-in solver families, in the order their
#: names should appear; imported lazily on first registry use so that
#: ``import repro`` stays cheap
_BUILTIN_PLUGINS = (
    "repro.solvers.generic_engine",
    "repro.solvers.csp2_dedicated",
    "repro.solvers.csp2_local",
    "repro.solvers.sat_solver",
    "repro.solvers.portfolio",
    "repro.analysis.cascade",
    "repro.baselines.registered",
    "repro.baselines.edf_exact",
)
_loaded_builtins = False


def _load_builtins() -> None:
    global _loaded_builtins
    if not _loaded_builtins:
        _loaded_builtins = True
        import importlib

        for module in _BUILTIN_PLUGINS:
            importlib.import_module(module)


def register_solver(
    base: str,
    *,
    description: str,
    paper_section: str = "",
    pick_when: str = "",
    capabilities: tuple = (),
    suffixes: Mapping[str, str] | None = None,
    options: tuple[str, ...] = (),
    platforms: tuple[str, ...] = ("identical", "uniform", "heterogeneous"),
    memory_bound: bool = False,
    advertise: bool = True,
    hidden_suffixes: tuple[str, ...] = (),
) -> Callable:
    """Class/function decorator registering a solver factory under ``base``.

    The decorated callable is invoked as
    ``factory(system, platform, spec, seed, **options)`` where ``spec`` is
    the parsed :class:`~repro.solvers.spec.SolverSpec` (so the factory
    reads its own suffix) and ``options`` has already been validated
    against the declared ``options`` tuple.  Re-registering a base name
    replaces the previous entry (last one wins), which lets tests and
    downstream code override a family.
    """

    def decorator(factory: Callable) -> Callable:
        _SEQ.setdefault(base, len(_SEQ))
        _REGISTRY[base] = SolverInfo(
            base=base,
            factory=factory,
            description=description,
            paper_section=paper_section,
            pick_when=pick_when,
            capabilities=frozenset(capabilities),
            suffixes=MappingProxyType(dict(suffixes or {})),
            options=tuple(options),
            platforms=tuple(platforms),
            memory_bound=memory_bound,
            advertise=advertise,
            hidden_suffixes=tuple(hidden_suffixes),
        )
        return factory

    return decorator


def solver_info(name: "str | SolverSpec") -> SolverInfo:
    """Resolve a name (or spec) to its family's registry metadata."""
    _load_builtins()
    spec = SolverSpec.parse(name)
    try:
        return _REGISTRY[spec.base]
    except KeyError:
        raise ValueError(
            f"unknown solver {spec.canonical!r}; try one of {available_solvers()}"
        ) from None


def iter_solver_info() -> list[SolverInfo]:
    """All registered families, in canonical presentation order.

    Built-in families come first in their documented order; third-party
    registrations follow in first-registration order.  The listing does
    not depend on which module happened to be imported first.
    """
    _load_builtins()
    return sorted(_REGISTRY.values(), key=lambda info: _order_key(info.base))


def _check_suffix(info: SolverInfo, spec: SolverSpec) -> None:
    """Reject a suffix the family does not declare (fail fast, by name)."""
    if not info.accepts_suffix(spec.suffix):
        accepted = sorted(set(info.suffixes) | set(info.hidden_suffixes))
        detail = f"accepted suffixes: {', '.join(accepted)}" if accepted else (
            f"{info.base!r} takes no +suffix"
        )
        raise ValueError(
            f"unknown suffix {spec.suffix!r} in solver name "
            f"{spec.canonical!r}; {detail}"
        )


def _walk_spec(spec: SolverSpec):
    """The spec and every nested member (portfolio members, a screen's
    inner solver, a screened portfolio's members, ...)."""
    yield spec
    for member in spec.members:
        yield from _walk_spec(member)


def is_solver_name(name: str) -> bool:
    """Whether ``name`` parses and fully resolves — base *and* suffix,
    portfolio/screen members included."""
    try:
        spec = SolverSpec.parse(name)
        for part in _walk_spec(spec):
            _check_suffix(solver_info(part), part)
    except ValueError:
        return False
    return True


def create_solver(
    name: "str | SolverSpec",
    system: TaskSystem,
    platform: Platform,
    seed: int | None = None,
    **options,
):
    """Instantiate a solver engine from a name or parsed spec.

    Names::

        csp1[+min_dom|+dom_deg|+input]   generic engine on encoding #1
        csp2[+rm|+dm|+tc|+dc]            dedicated chronological solver
        csp2-generic[+rm|+dm|+tc|+dc]    generic engine on encoding #2
        csp2-local                       min-conflicts local search (never
                                         proves infeasibility)
        sat[+pairwise|+sequential]       CNF encoding + CDCL solver
        edf / fp[+rm|+dm|+tc|+dc]        priority-simulation baselines
        portfolio:NAME,NAME,...          race members, first definitive
                                         answer wins (cancels the rest)
        screen[+NAME]                    polynomial screening cascade;
                                         abstentions fall through to NAME

    ``seed`` feeds randomized strategies (``csp1`` tie-breaking,
    ``csp2-local`` restarts); solvers without randomness ignore it.
    Extra keyword ``options`` are validated against the plugin's declared
    option names — a typo raises ``ValueError`` naming the accepted ones
    instead of disappearing into a constructor.
    """
    spec = SolverSpec.parse(name)
    info = solver_info(spec)
    for part in _walk_spec(spec):
        _check_suffix(solver_info(part), part)
    unknown = sorted(set(options) - set(info.options))
    if unknown:
        accepted = ", ".join(info.options) if info.options else "none"
        raise ValueError(
            f"unknown option(s) {unknown} for solver {spec.canonical!r}; "
            f"accepted options: {accepted}"
        )
    return info.factory(system, platform, spec, seed, **options)


def available_solvers() -> list[str]:
    """Canonical names accepted by :func:`create_solver`, registry-derived.

    Portfolio names are compositional (``portfolio:csp2+dc,sat``) and so
    not listed; every listed name instantiates standalone.
    """
    out: list[str] = []
    for info in iter_solver_info():
        if info.advertise:
            out.extend(info.names())
    return out
