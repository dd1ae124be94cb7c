"""Spans around calls into the program's layers, recorded from outside.

The program is not instrumented. A :class:`Tracer` replaces module
attributes (``repro.core.balltree.knn``, ``repro.core.daskmeans.assign_pass``,
...) with wrappers that record one :class:`Span` per call, and puts the
originals back when its ``patch`` block exits. This works because the
program looks these functions up through their modules at call time.
Calls made inside Spark executors run in separate Python workers and are
never wrapped; only driver-side calls are seen.
"""
from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable

# (module or class, attribute name, span name, counts-from-(args, result))
Target = tuple[Any, str, str, Callable[[tuple, Any], dict] | None]


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1        # index of the enclosing span, -1 for a root
    counts: dict = field(default_factory=dict)

    @property
    def s(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans in memory; nothing is written until the run ends."""

    def __init__(self, targets: list[Target]) -> None:
        self.targets = targets
        self.spans: list[Span] = []
        self._open: list[int] = []

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        def traced(*args, **kwargs):
            with self._span(name) as span:
                out = fn(*args, **kwargs)
            if count is not None:
                span.counts = count(args, out)
            return out

        return traced

    @contextmanager
    def traced(self, name: str):
        """A span named ``name`` around the block, with every target wrapped
        inside it; the original attributes are back when the block exits."""
        saved = []
        try:
            for owner, attr, span_name, count in self.targets:
                orig = getattr(owner, attr)
                saved.append((owner, attr, orig))
                setattr(owner, attr, self._wrap(span_name, orig, count))
            with self._span(name) as span:
                yield span
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    @contextmanager
    def _span(self, name: str):
        i = len(self.spans)
        self.spans.append(Span(name, 0.0, parent=self._open[-1] if self._open else -1))
        self._open.append(i)
        t0 = time.perf_counter()
        try:
            yield self.spans[i]
        finally:
            self.spans[i].start, self.spans[i].end = t0, time.perf_counter()
            self._open.pop()

    # ---- queries ---------------------------------------------------------

    def under(self, root: Span, name: str) -> list[Span]:
        """Spans named ``name`` nested anywhere inside ``root``, in call order."""
        return [self.spans[i] for i in self._nested(root) if self.spans[i].name == name]

    def summary(self, root: Span) -> dict[str, dict]:
        """Per span name, over ``root`` and everything nested in it: number
        of calls, total seconds, self seconds (total minus the time direct
        child spans cover) and the summed counts."""
        nested = self._nested(root)
        child_s: dict[int, float] = {}
        for i in nested:
            p = self.spans[i].parent
            child_s[p] = child_s.get(p, 0.0) + self.spans[i].s
        out: dict[str, dict] = {}
        for i in [self.spans.index(root), *nested]:
            sp = self.spans[i]
            agg = out.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["s"] += sp.s
            agg["self_s"] += sp.s - child_s.get(i, 0.0)
            for key, v in sp.counts.items():
                agg[key] = agg.get(key, 0) + v
        return out

    def _nested(self, root: Span) -> list[int]:
        r = self.spans.index(root)
        inside = {r}
        for i in range(r + 1, len(self.spans)):
            if self.spans[i].parent in inside:
                inside.add(i)
        return sorted(inside - {r})
