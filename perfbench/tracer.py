"""In-memory span tracer that wraps oufar functions from outside the package.

A span records a name, start and end (``time.perf_counter``), the id of the
span that caused it, the thread it ran on and the run id.  Spans stay in
memory until the run ends and ``to_json`` writes them out.

Wrappers are installed under the name the *calling* module looks up (for
example ``oufar.experiments.sample_euler`` rather than
``oufar.ou_process.sample_euler``), because ``from x import f`` binds a
separate name in every importer.  ``Tracer`` is a context manager: leaving it
restores every original, also when the traced code raised.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        # itertools.count.__next__ runs in C under the interpreter lock, so
        # worker threads never draw the same id
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_thread = threading.get_ident()
        self._client_stack: list[Span] = []
        self._installed: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, cpu: bool) -> Span:
        stack = self._stack()
        # a span opened on a pool thread with nothing open there was caused by
        # the innermost span of the client thread that submitted the work
        cause = stack[-1] if stack else (self._client_stack[-1] if self._client_stack else None)
        span = Span(
            id=next(self._ids),
            name=name,
            start=0.0,
            end=0.0,
            parent=None if cause is None else cause.id,
            thread=threading.get_ident(),
            run=self.run_id,
        )
        if cpu:
            span.attrs["cpu_start"] = time.process_time()
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, cpu: bool) -> None:
        span.end = time.perf_counter()
        if cpu:
            span.attrs["cpu_end"] = time.process_time()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, owner, attr: str, name: str, describe=None, cpu: bool = False) -> None:
        """Replace ``owner.attr`` (or ``owner[attr]`` for a dict) by a traced call.

        ``describe(args, kwargs, result)`` returns counts stored on the span;
        it runs after the span closed, so it is not part of the timed work.
        ``cpu=True`` also records process CPU time at both ends of the span.
        """
        is_dict = isinstance(owner, dict)
        original = owner[attr] if is_dict else getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer._open(name, cpu)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                tracer._close(span, cpu)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

        if is_dict:
            owner[attr] = traced
        else:
            setattr(owner, attr, traced)
        self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "thread": s.thread,
                "run": s.run,
                **s.attrs,
            }
            for s in self.spans
        ]


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span id not covered by that span's children (any thread)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: s.duration - _covered(children.get(s.id, []), s.start, s.end) for s in spans}


def layer_table(spans: list[Span]) -> dict[str, dict]:
    """Per layer: span count, total span seconds and self seconds."""
    own = self_times(spans)
    table: dict[str, dict] = {}
    for s in spans:
        row = table.setdefault(s.layer, {"spans": 0, "total_s": 0.0, "self_s": 0.0})
        row["spans"] += 1
        row["total_s"] += s.duration
        row["self_s"] += own[s.id]
    return table
