"""In-memory spans around the calls into each layer's public functions.

The traced run interposes on package functions from the benchmark's own
files: :meth:`Tracer.wrap` replaces a module function or class method with
a wrapper that records one :class:`Span` per call and puts the original
back on :meth:`Tracer.restore`.  The program itself carries no tracing.

A span has a name, start and end (``perf_counter_ns``), the span that was
open on the same thread when it started (its parent) and the operation id
(train step, serve request, ...) current on that thread.  A span's *self
time* is its duration minus the time its children cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import threading
import time
import types
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "self_times", "layer_of"]


class Span:
    """One timed call; ``end`` is ``None`` while it is open."""

    __slots__ = ("name", "start", "end", "parent", "op", "thread")

    def __init__(self, name: str, start: int, parent: int, op: int, thread: int):
        self.name = name
        self.start = start
        self.end: Optional[int] = None
        self.parent = parent
        self.op = op
        self.thread = thread

    @property
    def duration_ns(self) -> int:
        return 0 if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name, "start_ns": self.start, "end_ns": self.end,
            "parent": self.parent, "op": self.op, "thread": self.thread,
        }


def layer_of(name: str) -> str:
    """``"models.forward"`` -> ``"models"``."""
    return name.split(".", 1)[0]


def self_times(spans: List[Span]) -> List[int]:
    """Self time in ns of every span: duration minus its children's union.

    Children of one parent run on the parent's thread, one after another,
    so their intervals are clipped to the parent and merged before being
    subtracted.
    """
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent >= 0 and span.end is not None:
            children[span.parent].append(span)
    out = []
    for idx, span in enumerate(spans):
        if span.end is None:
            out.append(0)
            continue
        covered, cursor = 0, span.start
        for child in sorted(children.get(idx, ()), key=lambda s: s.start):
            lo, hi = max(child.start, cursor), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.duration_ns - covered)
    return out


class Tracer:
    """Collects spans and counters; patches functions while installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._tls = threading.local()
        self._patches: List[tuple] = []
        self._lock = threading.Lock()

    # -- recording -------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def set_op(self, op: int) -> None:
        """Tag later spans on this thread with operation id ``op``."""
        self._tls.op = op

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        stack = self._stack()
        span = Span(
            name, time.perf_counter_ns(), stack[-1] if stack else -1,
            getattr(self._tls, "op", -1), threading.get_ident(),
        )
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        try:
            yield span
        finally:
            span.end = time.perf_counter_ns()
            stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[key] += amount

    # -- interposition ---------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[["Tracer", Span, tuple, dict, object], None]] = None,
    ) -> None:
        """Record a ``name`` span around every call of ``owner.attr``.

        ``owner`` is a module, a class or an instance; class, static and
        plain methods are re-wrapped in kind, and an instance gets its
        bound method wrapped.  ``after(tracer, span, args, kwargs,
        result)`` runs once the call returned, before the span closes, to
        add counters or rename the span.
        """
        if isinstance(owner, (type, types.ModuleType)):
            raw = inspect.getattr_static(owner, attr)
        else:
            raw = getattr(owner, attr)
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with tracer.span(name) as span:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(tracer, span, args, kwargs, result)
            return result

        self.patch(owner, attr, kind(traced) if kind is not None else traced)

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`restore`."""
        raw = vars(owner).get(attr)
        self._patches.append((owner, attr, attr in vars(owner), raw))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every wrapped function back, newest first."""
        while self._patches:
            owner, attr, owned, raw = self._patches.pop()
            if owned:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    # -- reporting -------------------------------------------------------
    def table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total and self time in ms."""
        rows: Dict[str, Dict[str, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            row = rows.setdefault(
                span.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0}
            )
            row["count"] += 1
            row["total_ms"] += span.duration_ns / 1e6
            row["self_ms"] += own / 1e6
        return rows

    def write(self, path: Path) -> None:
        """Write every span, one JSON object per line, and the counters."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict()) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")
