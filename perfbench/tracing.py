"""Spans recorded by timing wrappers installed from outside the program.

The traced run replaces a fixed set of public callables (the table in
``patch_targets``) with wrappers that open a span around each call, and
puts every original back afterwards.  The untraced run installs nothing:
each wrapped attribute stays the very object the program defined.

A span carries its name (``layer.what``), the id of the item in flight,
its start and end, and the span that was open on the same thread when it
began.  Spans stay in memory and are written out when the run ends.  A
span's self time is its duration minus the durations of its children, so
a layer's self times add up without counting nested work twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from collections.abc import Callable, Iterator

__all__ = ["Span", "Tracer", "patch_targets"]

#: solver families that run on the generic CSP engine (``repro.csp``)
GENERIC_CSP = ("csp1", "csp2-generic")


class Span:
    """One timed call."""

    __slots__ = ("name", "item", "start", "end", "parent", "child_time")

    def __init__(self, name: str, item, start: float, parent: "Span | None"):
        self.name = name
        self.item = item
        self.start = start
        self.end = start
        self.parent = parent
        self.child_time = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


class Tracer:
    """Collects spans and counters while its wrappers are installed.

    ``item`` is the id of the item in flight; every workload keeps one
    item in flight, so spans opened on any thread (the daemon's executor
    included) belong to it.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.item = None
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Time the block as one span nested under the thread's open one."""
        stack = self._stack()
        span = Span(name, self.item, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_time += span.duration
            self.spans.append(span)

    def count(self, name: str, value: float = 1) -> None:
        """Add ``value`` to a counter."""
        self.counts[name] += value

    def timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args)`` sees its result."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Install every wrapper of :func:`patch_targets`; restore on exit."""
        saved = []
        try:
            for owner, attr, make in patch_targets():
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(self, original))
            yield
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            out[span.name] += span.self_time
        return out

    def root_time_by_item(self, names: tuple[str, ...]) -> dict:
        """Per item, the summed duration of root spans with these names."""
        out: dict = defaultdict(float)
        for span in self.spans:
            if span.parent is None and span.name in names:
                out[span.item] += span.duration
        return out

    def write(self, path) -> None:
        """One JSON line per span, then one with the counters."""
        index = {id(span): k for k, span in enumerate(self.spans)}
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({
                    "name": span.name,
                    "item": span.item,
                    "start": span.start,
                    "end": span.end,
                    "parent": None if span.parent is None else index.get(id(span.parent)),
                    "self": span.self_time,
                }) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


# -- the wrapped public calls ----------------------------------------------

def _spec_base(name) -> str:
    from repro.solvers.spec import SolverSpec

    return SolverSpec.parse(name).base


def _count_search(tracer: Tracer, prefix: str):
    def after(result, _args):
        stats = result.stats
        tracer.count(prefix + ".nodes", stats.nodes)
        tracer.count(prefix + ".fails", stats.fails)
        tracer.count(prefix + ".propagations", stats.propagations)
        tracer.count(prefix + ".runs")

    return after


def _build(tracer: Tracer, original: Callable) -> Callable:
    """``solve_problem``'s ``create_solver``: the model build, and for the
    generic CSP families the engine's search."""
    from repro.solvers.problem import estimate_generic_variables

    def after(engine, args):
        name, system, platform = args[:3]
        if _spec_base(name) in GENERIC_CSP:
            tracer.count("encodings.builds")
            tracer.count(
                "encodings.variables", estimate_generic_variables(system, platform)
            )
            engine.solve = tracer.timed(
                "csp.search", engine.solve, _count_search(tracer, "csp")
            )

    return tracer.timed("encodings.build", original, after)


def _fallthrough(tracer: Tracer, original: Callable) -> Callable:
    """The registry's ``create_solver``, which ``screen`` calls for its
    inner engine once the cascade abstains: build and search both count
    as the fall-through."""

    def after(engine, _args):
        engine.solve = tracer.timed(
            "solvers.fallthrough", engine.solve,
            _count_search(tracer, "solvers.fallthrough"),
        )

    return tracer.timed("solvers.fallthrough", original, after)


def _cascade(tracer: Tracer, original: Callable) -> Callable:
    def after(outcome, _args):
        tracer.count("analysis.cascades")
        tracer.count("analysis.decided", outcome.decided is not None)
        tracer.count("analysis.tests_run", len(outcome.certificates))

    return tracer.timed("analysis.cascade", original, after)


def _counted(name: str, counter: str):
    def make(tracer: Tracer, original: Callable) -> Callable:
        return tracer.timed(name, original, lambda _r, _a: tracer.count(counter))

    return make


def _plain(name: str):
    def make(tracer: Tracer, original: Callable) -> Callable:
        return tracer.timed(name, original)

    return make


def patch_targets() -> list[tuple[object, str, Callable]]:
    """``(owner, attribute, make_wrapper)`` for every wrapped public call.

    Each owner is the namespace the caller looks the name up in, so the
    wrapper is what actually runs: ``solve_problem`` reaches
    ``clone_for_arbitrary_deadlines``, ``create_solver`` and ``validate``
    through its own module, ``screen`` reaches ``run_cascade`` through
    the cascade module and its inner solver through the registry.
    """
    problem = importlib.import_module("repro.solvers.problem")
    registry = importlib.import_module("repro.solvers.registry")
    cascade = importlib.import_module("repro.analysis.cascade")
    demand = importlib.import_module("repro.kernels.demand")
    simulator = importlib.import_module("repro.baselines.simulator")
    server = importlib.import_module("repro.service.server")
    return [
        (problem, "solve_problem", _plain("solvers.solve")),
        (problem, "clone_for_arbitrary_deadlines", _plain("model.clone")),
        (problem, "create_solver", _build),
        (problem, "validate", _plain("schedule.validate")),
        (problem.SolveReport, "to_dict", _plain("schedule.serialise")),
        (server, "report_line", _plain("schedule.serialise")),
        (registry, "create_solver", _fallthrough),
        (cascade, "run_cascade", _cascade),
        (demand, "enclosed_excess_witness", _counted("kernels.demand", "kernels.demand_calls")),
        (demand, "interval_min_processors", _counted("kernels.demand", "kernels.demand_calls")),
        (demand, "forced_demand_witness", _counted("kernels.demand", "kernels.demand_calls")),
        (simulator, "simulate_static", _counted("kernels.simulate", "kernels.simulate_calls")),
    ]
