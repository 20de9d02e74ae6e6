"""In-memory spans recorded from outside the program under test.

The benchmark owns its tracing: a :class:`Tracer` patches named public
functions of ``repro`` with wrappers that record one span per call —
name, start, end, parent — and restores every patched attribute when
its ``with`` block exits, on success or on exception. Nothing inside
``src/`` knows it is being traced, and untraced runs never construct a
wrapper, so end-to-end metrics are measured with tracing off.

A layer's *self* time is its span's duration minus the part covered by
child spans, accumulated as children close.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Totals:
    """Aggregate of all spans sharing one name inside a span-index range."""

    count: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    #: Sum of the numbers ``wrap(..., value=...)`` read off the results.
    value: float = 0.0


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_index, child_seconds, value]`` per
        #: span, in start order; ``parent_index`` is ``-1`` for a root span.
        self.spans: List[list] = []
        self._open: List[int] = []
        #: ``(owner, attribute, original)`` of every attribute currently replaced.
        self.patches: List[Tuple[Any, str, Any]] = []
        self._entered = False

    # -- recording ------------------------------------------------------------

    def begin(self, name: str) -> int:
        """Open a span under the currently open one; returns its index."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self._open.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, 0.0])
        return index

    def end(self, index: int) -> None:
        """Close span ``index`` and charge its duration to its parent."""
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._open.pop()
        if span[3] >= 0:
            self.spans[span[3]][4] += span[2] - span[1]

    def span(self, name: str):
        """Context manager recording one explicit span while the tracer is
        entered (its patches installed), and nothing otherwise."""
        return _SpanContext(self, name) if self._entered else contextlib.nullcontext()

    # -- patching -------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        tag: Optional[Callable[..., str]] = None,
        value: Optional[Callable[[Any], float]] = None,
    ) -> None:
        """Replace ``owner.attr`` (class or module attribute) with a wrapper
        recording a span ``name`` — or ``name.<tag(*args, **kwargs)>`` —
        around every call; ``value(result)`` is kept on the span. Class
        and static methods keep their kind."""
        raw = vars(owner)[attr]
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        func = raw.__func__ if kind else raw

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            label = name if tag is None else f"{name}.{tag(*args, **kwargs)}"
            index = self.begin(label)
            try:
                result = func(*args, **kwargs)
                if value is not None:
                    self.spans[index][5] = value(result)
                return result
            finally:
                self.end(index)

        self.patches.append((owner, attr, raw))
        setattr(owner, attr, kind(wrapper) if kind else wrapper)

    def restore(self) -> None:
        """Put back every attribute :meth:`wrap` replaced, newest first."""
        while self.patches:
            owner, attr, raw = self.patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self._entered = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._entered = False
        self.restore()

    def totals(self, start: int = 0, stop: Optional[int] = None) -> Dict[str, Totals]:
        """Per-name totals of the closed spans with index in ``[start, stop)``."""
        return summarize(self.spans[start:stop])


def summarize(spans: Iterable[list]) -> Dict[str, Totals]:
    """Per-name totals of ``spans`` (records as in :attr:`Tracer.spans`)."""
    out: Dict[str, Totals] = {}
    for name, began, ended, _parent, child_seconds, value in spans:
        total = out.setdefault(name, Totals())
        total.count += 1
        total.seconds += ended - began
        total.self_seconds += ended - began - child_seconds
        total.value += value
    return out


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str):
        self._tracer = tracer
        self._name = name
        self._index = -1

    def __enter__(self) -> None:
        self._index = self._tracer.begin(self._name)

    def __exit__(self, *exc_info) -> None:
        self._tracer.end(self._index)
