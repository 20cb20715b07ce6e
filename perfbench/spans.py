"""In-memory spans and call wrappers for the traced benchmark run.

A span records a name, a start and end time, and the index of the span
that was open when it began (its parent). A layer's self time is its
span's duration minus the durations of its child spans. Work counts are
recorded at the same call boundaries, so rates are measured where the
work happens.

Wrapping replaces a callable where its caller looks it up (a module
global or a class attribute) and ``Tracer.patched`` always puts the
original object back, also when the traced code raises.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass(frozen=True)
class Hook:
    """One call boundary: ``owner.attr`` is traced as span ``name``.

    ``work(args, kwargs, result)`` returns work counts to add. A hook
    with ``timed=False`` only counts calls and work and opens no span, so
    its time stays with the caller's span.
    """

    owner: object
    attr: str
    name: str
    work: Callable | None = None
    timed: bool = True


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), float("nan"), parent))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = self.clock()

    def _wrap(self, fn, hook: Hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook.timed:
                with self.span(hook.name):
                    result = fn(*args, **kwargs)
            else:
                result = fn(*args, **kwargs)
            self.counts[hook.name + ".calls"] += 1
            if hook.work is not None:
                self.counts.update(hook.work(args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def patched(self, hooks: list[Hook]):
        """Install every hook for the duration of the block.

        A hook whose attribute no longer exists is skipped and listed in
        ``missing``, so a renamed callable shows in the report instead of
        stopping the run.
        """
        saved = []
        try:
            for hook in hooks:
                raw = (hook.owner.__dict__.get(hook.attr)
                       if isinstance(hook.owner, type)
                       else getattr(hook.owner, hook.attr, None))
                if raw is None:
                    self.missing.append(f"{hook.name} ({hook.attr})")
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    wrapped = type(raw)(self._wrap(raw.__func__, hook))
                else:
                    wrapped = self._wrap(raw, hook)
                saved.append((hook.owner, hook.attr, raw))
                setattr(hook.owner, hook.attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its children."""
        out = [s.end - s.start for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.end - s.start
        return out

    def busy(self, name: str) -> float:
        """Summed duration of the outermost spans called ``name``.

        A span nested inside another of the same name is already covered
        by it and is not counted twice.
        """
        return self._busy(lambda n: n == name)

    def busy_layer(self, layer: str) -> float:
        """Like ``busy``, for every span of one layer."""
        return self._busy(lambda n: n.split(".", 1)[0] == layer)

    def _busy(self, match) -> float:
        total = 0.0
        for s in self.spans:
            if not match(s.name):
                continue
            p = s.parent
            while p is not None and not match(self.spans[p].name):
                p = self.spans[p].parent
            if p is None:
                total += s.end - s.start
        return total

    def self_by_prefix(self) -> dict[str, float]:
        """Self time summed by the first dotted part of the span name."""
        out: dict[str, float] = {}
        for s, t in zip(self.spans, self.self_times()):
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def covered(self) -> float:
        """Time inside any root span."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)
