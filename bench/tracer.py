"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces each traced library function with a timing
wrapper at every place the package binds it: the defining module and
each module that imported the name (``from .rates import
transition_rates`` in ``scan``, ``battery``, ``oracle`` and ``cli``, or
``from .scan import render_table`` in ``cli``).  Patching only the
defining module would miss those calls.  :meth:`Tracer.uninstall`
restores every binding, so untraced and traced passes can alternate in
one process.

Spans are ``(name, start, end, parent)`` tuples kept in memory; a
layer's self time is its span time minus the time of its direct child
spans.  :meth:`Tracer.write` saves all spans once, when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

# Defining module -> traced public functions: the layer boundaries the
# per-layer metrics report on.
TRACED = {
    "spectra": ("energy_roots", "mode_state"),
    "rates": ("transition_rates", "bias_condition"),
    "clock": ("ladder_rates", "clock_metrics", "solve_first_passage",
              "simulate_ticks", "evolve_master"),
    "battery": ("lifetime",),
    "oracle": ("discrete_rates",),
    "config": ("apply_overrides",),
    "scan": ("run_scan", "grid_points", "render_table"),
    "cli": ("main",),
}

PACKAGE = "quenchclock"


@dataclass(frozen=True)
class LayerStats:
    calls: int
    total_s: float
    self_s: float


class Tracer:
    """Timing wrappers at every import site of the traced functions."""

    def __init__(self) -> None:
        self.names: list[str] = [f"{mod}.{fn}" for mod, fns in TRACED.items()
                                 for fn in fns]
        self.spans: list[tuple[int, float, float, int]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._saved: list[np.ndarray] = []

    def _wrap(self, name_id: int, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name_id, 0.0, 0.0, parent))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name_id, (mod_name, fn_name) in enumerate(
                (mod, fn) for mod, fns in TRACED.items() for fn in fns):
            module = sys.modules[f"{PACKAGE}.{mod_name}"]
            fn = getattr(module, fn_name)
            originals[id(fn)] = (fn, self._wrap(name_id, fn))
        sites = [m for n, m in list(sys.modules.items())
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module in sites:
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def start_span(self, name: str) -> int:
        """Open a benchmark-level span (one operation); returns its index."""
        if name not in self.names:
            self.names.append(name)
        index = len(self.spans)
        self.spans.append((self.names.index(name), time.perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1))
        self._stack.append(index)
        return index

    def end_span(self, index: int) -> None:
        name_id, start, _, parent = self.spans[index]
        self._stack.pop()
        self.spans[index] = (name_id, start, time.perf_counter(), parent)

    def take(self) -> np.ndarray:
        """Move the spans recorded so far into a compact array and return it.

        Parent indices are relative to the returned array.
        """
        arr = np.array(self.spans, dtype=[("name", "i4"), ("start", "f8"),
                                          ("end", "f8"), ("parent", "i8")])
        self.spans.clear()
        self._saved.append(arr)
        return arr

    def layer_stats(self, spans: np.ndarray) -> dict[str, LayerStats]:
        """Calls, inclusive time and self time per span name."""
        dur = spans["end"] - spans["start"]
        child = np.zeros(len(spans))
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        own = dur - child
        out = {}
        for name_id, name in enumerate(self.names):
            mask = spans["name"] == name_id
            out[name] = LayerStats(calls=int(mask.sum()),
                                   total_s=float(dur[mask].sum()),
                                   self_s=float(own[mask].sum()))
        return out

    def write(self, path) -> None:
        """Save every span taken so far, one array per traced pass."""
        arrays = {f"pass{i}": a for i, a in enumerate(self._saved)}
        np.savez_compressed(path, names=np.array(self.names), **arrays)
