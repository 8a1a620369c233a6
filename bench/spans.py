"""Spans around the calls into blgeo's modules, recorded from outside.

`Tracer.install` replaces every public function of each blgeo module
with a wrapper that records a span (name, parent, start, end), and does
the same wherever another module imported the function by name, such
as `blgeo.structure.intersect`.  `uninstall` puts the originals back.
The benchmark opens one root span per verdict, tagged with its family,
so every span can be traced to the verdict that caused it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager

LAYERS = ["subspace", "datum", "structure", "determinantal", "integrals", "transport",
          "covers", "cli"]

NAME, PARENT, START, END, TAG = range(5)


class Tracer:
    def __init__(self):
        self.modules = [importlib.import_module(f"blgeo.{layer}") for layer in LAYERS]
        self.spans = []
        self.stack = []
        self.patched = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, time.perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
        return wrapper

    def install(self):
        for layer, mod in zip(LAYERS, self.modules):
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for other in self.modules:
                    for other_attr, value in list(vars(other).items()):
                        if value is fn:
                            self.patched.append((other, other_attr, fn))
                            setattr(other, other_attr, wrapper)

    def uninstall(self):
        for mod, attr, fn in reversed(self.patched):
            setattr(mod, attr, fn)
        self.patched.clear()

    @contextmanager
    def verdict(self, tag: str):
        rec = ["verdict", -1, time.perf_counter(), 0.0, tag]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[END] = time.perf_counter()
            self.stack.pop()

    def take(self) -> list:
        out = list(self.spans)
        self.spans.clear()
        return out


class SpanTable:
    """Durations, self times and verdict tags of one list of spans."""

    def __init__(self, spans):
        self.spans = spans
        self.dur = [s[END] - s[START] for s in spans]
        children = [0.0] * len(spans)
        self.root = list(range(len(spans)))
        for i, s in enumerate(spans):
            if s[PARENT] >= 0:
                children[s[PARENT]] += self.dur[i]
                self.root[i] = self.root[s[PARENT]]
        self.self_time = [d - c for d, c in zip(self.dur, children)]

    def tag(self, i):
        return self.spans[self.root[i]][TAG]

    def verdicts(self, tag=None) -> list:
        return [i for i, s in enumerate(self.spans)
                if s[NAME] == "verdict" and (tag is None or s[TAG] == tag)]

    def calls(self, name=None, layer=None, tag=None) -> list:
        return [i for i, s in enumerate(self.spans)
                if (name is None or s[NAME] == name)
                and (layer is None or s[NAME].split(".")[0] == layer)
                and s[NAME] != "verdict"
                and (tag is None or self.tag(i) == tag)]

    def within(self, ancestor: str) -> list:
        """Indices of spans that have a span named `ancestor` above them."""
        inside = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            p = s[PARENT]
            inside[i] = p >= 0 and (inside[p] or self.spans[p][NAME] == ancestor)
        return [i for i in range(len(self.spans)) if inside[i]]

    def mean_ms(self, idx, total=None) -> float:
        """Summed duration of `idx` in ms, over `total` (default: their count)."""
        denom = len(idx) if total is None else total
        return 1e3 * sum(self.dur[i] for i in idx) / denom if denom else 0.0

    def self_ms(self, layer: str, per: int) -> float:
        return 1e3 * sum(self.self_time[i] for i in self.calls(layer=layer)) / per

    def summary(self) -> dict:
        out = {}
        for i, s in enumerate(self.spans):
            row = out.setdefault(s[NAME], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self.dur[i]
            row[2] += self.self_time[i]
        return {k: {"calls": c, "total_ms": 1e3 * t, "self_ms": 1e3 * st}
                for k, (c, t, st) in sorted(out.items())}
