"""Spans around the public functions of metricgap, recorded from outside.

The package binds names across modules with ``from .x import y``, so a
function such as ``negtype.classify`` is reachable as ``gap.classify``,
``cli.classify`` and ``metricgap.classify`` too.  ``Tracer.installed``
replaces the function in every ``metricgap`` namespace that holds it, so a
call is seen whichever module makes it, and restores the originals on exit.
No package source is edited.

Each span is ``[name, start, end, parent, instance]``: ``parent`` is the
index of the enclosing span (-1 at the top) and ``instance`` the id the
benchmark set before the top-level call.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

LAYERS = ("cli", "metric", "negtype", "linalg", "gap", "closed_forms")

NAME, START, END, PARENT, INSTANCE = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance: int | None = None
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public function of each layer for the duration."""
        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "metricgap" or k.startswith("metricgap.")]
        patched = []
        try:
            for layer in LAYERS:
                module = sys.modules[f"metricgap.{layer}"]
                for attr, fn in list(vars(module).items()):
                    if (attr.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != module.__name__):
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", fn)
                    for ns in namespaces:
                        for key, value in list(vars(ns).items()):
                            if value is fn:
                                setattr(ns, key, wrapper)
                                patched.append((ns, key, fn))
            yield self
        finally:
            for ns, key, fn in reversed(patched):
                setattr(ns, key, fn)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out
