"""In-memory span tracer that wraps the package's public callables from outside.

Nothing under ``src/`` is edited: for the traced run the tracer replaces each
target callable in every ``gslda_cascade`` module namespace that holds it
(``cli.merge_detections`` as well as ``detect.merge_detections``), and on the
class for methods.  Spans (name, start, end, parent) are kept in a list,
then summarised and written out when the run ends.  A target that no longer exists is reported as
missing, so deleting code does not break the benchmark.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field

PACKAGE = "gslda_cascade"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Target:
    """One callable to wrap: ``attr`` is ``func`` or ``Class.method``.

    ``hook(tracer, args, result)`` derives counters from the call; with
    ``span=False`` the call is only counted (for per-window hot paths whose
    time already sits inside an enclosing span).
    """

    name: str
    module: str
    attr: str
    hook: object = None
    span: bool = True


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: dict = field(default_factory=lambda: defaultdict(int))
    stack: list[int] = field(default_factory=list)
    missing: list[str] = field(default_factory=list)

    def within(self, name: str) -> bool:
        """True when a span called ``name`` is open."""
        return any(self.spans[i].name == name for i in self.stack)

    def wrap(self, target: Target, fn):
        def traced(*args, **kwargs):
            if not target.span:
                result = fn(*args, **kwargs)
                if target.hook is not None:
                    target.hook(self, args, result)
                return result
            span = Span(target.name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else None)
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if target.hook is not None:
                target.hook(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def installed(self, targets: list[Target]):
        """Wrap every target for the duration of the block, then restore."""
        undo = []
        modules = [m for n, m in list(sys.modules.items()) if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for target in targets:
                try:
                    home = importlib.import_module(f"{PACKAGE}.{target.module}")
                except ImportError:
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                owner_name, _, member = target.attr.rpartition(".")
                owner = getattr(home, owner_name, None) if owner_name else home
                original = getattr(owner, member, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{target.module}.{target.attr}")
                    continue
                wrapped = self.wrap(target, original)
                holders = [owner] if owner_name else [m for m in modules if getattr(m, member, None) is original]
                for holder in holders:
                    setattr(holder, member, wrapped)
                    undo.append((holder, member, original))
            yield self
        finally:
            for holder, member, original in reversed(undo):
                setattr(holder, member, original)

    def summary(self) -> dict:
        """Per span name: calls, total seconds, self seconds (total minus
        the time covered by direct child spans)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, span in enumerate(self.spans):
            entry = out[span.name]
            entry["calls"] += 1
            entry["total_s"] += span.end - span.start
            entry["self_s"] += span.end - span.start - child_time[i]
        return dict(out)
