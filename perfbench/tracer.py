"""Spans around the calls into each grouptest layer, installed by patching.

The benchmark never edits the package. In a traced round it replaces, for the
duration of that round, the names through which one layer calls another
(``grouptest.sim.run_tests``, the ``DECODERS`` table, ``cli._load_json``, ...)
and the names through which the benchmark's own files call into a layer, with
wrappers that time each call. Calls a layer makes to its own functions are not
patched, so a span always marks a crossing into the named layer.

A span's self time is its duration minus the durations of the spans opened
directly inside it; summing self times per layer therefore counts every
second once.
"""

from __future__ import annotations

import time
from collections import defaultdict


class Tracer:
    """Collects span durations and self times, keyed by ``layer.function``."""

    def __init__(self, targets):
        # targets: (container, attribute, span name, result hook or None).
        # A container is a module, a class or a dict.
        self._targets = list(targets)
        self._saved = None
        self._open_child_time: list[float] = []
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.greedy_steps: list[int] = []

    def _wrap(self, span, fn, hook):
        open_child_time = self._open_child_time
        durations = self.durations[span]
        self_times = self.self_times[span]
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = open_child_time.pop()
                if open_child_time:
                    open_child_time[-1] += elapsed
                durations.append(elapsed)
                self_times.append(elapsed - children)
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def install(self):
        if self._saved is not None:
            raise RuntimeError("tracer already installed")
        self._saved = []
        for container, attr, span, hook in self._targets:
            raw = container[attr] if isinstance(container, dict) else vars(container)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(span, raw.__func__, hook))
            else:
                patched = self._wrap(span, raw, hook)
            _assign(container, attr, patched)
            self._saved.append((container, attr, raw))

    def uninstall(self):
        for container, attr, raw in reversed(self._saved or []):
            _assign(container, attr, raw)
        self._saved = None
        self._open_child_time.clear()

    def layer_self_seconds(self, layer: str) -> float:
        prefix = layer + "."
        return sum(sum(v) for k, v in self.self_times.items() if k.startswith(prefix))


def _assign(container, attr, value) -> None:
    if isinstance(container, dict):
        container[attr] = value
    else:
        setattr(container, attr, value)


def record_greedy_steps(tracer: Tracer, result) -> None:
    """Result hook for the greedy decoders: the trace length is the step count."""
    tracer.greedy_steps.append(len(result.trace))
