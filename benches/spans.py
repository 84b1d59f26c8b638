"""In-memory spans and counters recorded around catalab's public calls.

A Tracer replaces chosen functions and methods, for the length of one
``with tracer.installed(...)`` block, by wrappers that record a span (layer
name, start, end, parent span, operation id) or bump a counter.  Functions
are replaced at every import site: each ``catalab`` module attribute and
each module-level dict value that is the original object.  Nothing under
``src/`` is edited, and every original is restored on exit.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class Probe:
    """One wrapped callable: ``owner.attr`` where owner is a module or class.

    ``layer`` names the span (None: count only); ``count`` names a counter
    bumped once per call; ``weigh``, a pair (counter, fn), adds
    ``fn(*args, **kwargs)`` to that counter per call.
    """

    owner: str
    attr: str
    layer: Optional[str] = None
    count: Optional[str] = None
    weigh: Optional[tuple[str, Callable]] = None


class Tracer:
    """Nested spans and counters, kept in memory until the run ends."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        # Each span: [layer, start, end, parent index or -1, operation id].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self.op: Optional[str] = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str):
        """Record one span around the body of a ``with`` block."""
        parent = self._stack[-1] if self._stack else -1
        record = [layer, 0.0, 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = self.clock()
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, probe: Probe, fn: Callable) -> Callable:
        counts = self.counts
        count, layer, weigh = probe.count, probe.layer, probe.weigh

        if layer is None:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[count] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if count is not None:
                counts[count] += 1
            if weigh is not None:
                counts[weigh[0]] += weigh[1](*args, **kwargs)
            with self.span(layer):
                return fn(*args, **kwargs)

        return spanned

    @contextmanager
    def installed(self, probes: list[Probe]):
        """Wrap every probe at all of its import sites; restore on exit."""
        undo: list[Callable[[], None]] = []
        try:
            for probe in probes:
                undo.extend(self._install(probe))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _install(self, probe: Probe) -> list[Callable[[], None]]:
        owner = _resolve(probe.owner)
        original = getattr(owner, probe.attr, None)
        if original is None:
            # The program no longer has this callable: its metric reads 0
            # rather than the traced run failing.
            print(f"trace: {probe.owner}.{probe.attr} not found", file=sys.stderr)
            return []
        wrapper = self.wrap(probe, original)
        if isinstance(owner, type):
            setattr(owner, probe.attr, wrapper)
            return [lambda: setattr(owner, probe.attr, original)]
        undo = []
        for module in _catalab_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    undo.append(functools.partial(setattr, module, attr, original))
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if item is original:
                            value[key] = wrapper
                            undo.append(functools.partial(value.__setitem__, key, original))
        return undo


def _resolve(dotted: str):
    """``catalab.dense`` -> module; ``catalab.pauli.PauliOperator`` -> class."""
    if dotted in sys.modules:
        return sys.modules[dotted]
    module_name, _, cls_name = dotted.rpartition(".")
    return getattr(sys.modules.get(module_name), cls_name, None)


def _catalab_modules():
    return [
        m
        for name, m in list(sys.modules.items())
        if m is not None and (name == "catalab" or name.startswith("catalab."))
    ]


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float]]:
    """(self time, inclusive time) summed per layer name.

    Inclusive time counts a span only when no ancestor carries the same
    layer, so recursion inside one layer is not counted twice.
    """
    selfs = self_times(spans)
    own: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for i, (layer, start, end, parent, _) in enumerate(spans):
        own[layer] += selfs[i]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != layer:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            inclusive[layer] += end - start
    return dict(own), dict(inclusive)
