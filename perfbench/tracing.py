"""Spans around calls into dhlattice, recorded from outside the package.

``Tracer.installed()`` replaces public functions of the package with timing
wrappers for the duration of a ``with`` block and restores them afterwards.
A function is replaced in every module namespace that holds it, so calls made
through ``from .x import f`` aliases are timed too.  Wrapped are:

* module-level public functions of ``operators``, ``spectral``,
  ``nonlinearity``, ``functional``, ``solver`` and ``verify``;
* ``FunctionalContext.gradient_entries``;
* the ``value`` / ``gradient`` / ``hessian`` callables of every Nonlinearity
  the CLI builds (swapped in with ``dataclasses.replace``);
* ``scipy.linalg.solve``, ``solve_banded``, ``eigh`` and ``eig_banded``.

Each call is a span named ``<layer>.<function>``.  Spans nest on one thread, so
a span's self time is its duration minus the durations of its direct
children.  Calls made hundreds of thousands of times per run (the
nonlinearity callables, gradient rows, Bloch symbols, LAPACK solves) are
aggregated into counts and times only; every other span is kept in memory with
its parent and written out when the run ends.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

import scipy.linalg

LAYER_MODULES = ("operators", "spectral", "nonlinearity", "functional", "solver", "verify")

# Leaf or near-leaf calls too frequent to keep one record each.
HOT = {
    "operators.apply_A",
    "operators.apply_S",
    "operators.floquet_symbol",
    "operators.banded_matvec",
    "operators.lower_band_to_full",
    "nonlinearity.eval_tildeR",
    "nonlinearity.value",
    "nonlinearity.gradient",
    "nonlinearity.hessian",
    "functional.gradient_entries",
    "lapack.solve",
    "lapack.solve_banded",
}

LAPACK = ("solve", "solve_banded", "eigh", "eig_banded")


class Tracer:
    """Span stack, per-name counts and times, and per-layer self times."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.calls: Counter = Counter()
        self.inclusive: defaultdict = defaultdict(float)
        self.self_time: defaultdict = defaultdict(float)  # by layer
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [child seconds, span id]
        self._next_id = 1

    # --- spans -------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a span."""
        frame = self._enter()
        start = perf_counter()
        try:
            yield
        finally:
            self._exit(name, name.split(".", 1)[0], True, frame, start, perf_counter())

    def _enter(self) -> list:
        frame = [0.0, self._next_id]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, layer: str, keep: bool, frame: list, start: float,
              end: float) -> None:
        self._stack.pop()
        duration = end - start
        parent = 0
        if self._stack:
            self._stack[-1][0] += duration
            parent = self._stack[-1][1]
        self.self_time[layer] += duration - frame[0]
        self.calls[name] += 1
        self.inclusive[name] += duration
        if keep:
            self.spans.append((frame[1], parent, name, start, end))

    def wrap(self, name: str, fn, observe=None):
        """A wrapper timing ``fn`` as span ``name``; ``observe`` sees each result."""
        layer = name.split(".", 1)[0]
        keep = name not in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(name, layer, keep, frame, start, perf_counter())
            if observe is not None:
                observe(result)
            return result

        return wrapper

    # --- installation ------------------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Patch the package and scipy.linalg; restore everything on exit."""
        import dhlattice.cli as cli
        from dhlattice.functional import FunctionalContext

        package_modules = [
            mod for key, mod in sys.modules.items()
            if key == "dhlattice" or key.startswith("dhlattice.")
        ]
        restore: list[tuple[object, str, object]] = []

        def patch(owner, attr, new):
            restore.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, new)

        replacements = {}
        for layer in LAYER_MODULES:
            module = sys.modules[f"dhlattice.{layer}"]
            for attr, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    replacements[id(fn)] = self.wrap(
                        f"{layer}.{attr}", fn, self._observer(layer, attr)
                    )
        for mod in package_modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in replacements and inspect.isfunction(value):
                    patch(mod, attr, replacements[id(value)])
        for attr in LAPACK:
            patch(scipy.linalg, attr, self.wrap(f"lapack.{attr}", getattr(scipy.linalg, attr)))
        patch(
            FunctionalContext,
            "gradient_entries",
            self.wrap("functional.gradient_entries", FunctionalContext.gradient_entries),
        )
        build = cli.ProblemConfig.build_nonlinearity
        patch(
            cli.ProblemConfig,
            "build_nonlinearity",
            lambda config: self.wrap_nonlinearity(build(config)),
        )
        try:
            yield self
        finally:
            for owner, attr, value in reversed(restore):
                setattr(owner, attr, value)

    def wrap_nonlinearity(self, nl):
        """The same nonlinearity with timed value / gradient / hessian callables."""
        changes = {
            attr: self.wrap(f"nonlinearity.{attr}", getattr(nl, attr))
            for attr in ("value", "gradient", "hessian")
            if getattr(nl, attr) is not None
        }
        return dataclasses.replace(nl, **changes)

    def _observer(self, layer: str, attr: str):
        if (layer, attr) != ("solver", "newton_solve"):
            return None

        def record(result) -> None:
            self.counters["solver.newton_solves"] += 1
            self.counters["solver.newton_iterations"] += result.iterations
            self.counters["solver.regularizations"] += result.diagnostics["regularizations"]
            self.counters["solver.fallback_steps"] += result.diagnostics["fallback_steps"]

        return record

    # --- results -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "span_fields": ["id", "parent", "name", "start_s", "end_s"],
            "spans": [list(s) for s in self.spans],
            "calls": dict(self.calls),
            "inclusive_s": dict(self.inclusive),
            "self_s_by_layer": dict(self.self_time),
            "counters": dict(self.counters),
        }
