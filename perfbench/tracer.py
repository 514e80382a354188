"""In-memory span tracer for the traced benchmark pass.

Every public fockbell function the workloads reach is replaced, in the module
where its caller looks the name up, by a wrapper that opens a frame on a
per-thread stack.  A *span* function leaves one record per call (name, tag,
start, end, parent span id, thread).  A *counted* function -- one called more
than about 10^4 times per task -- leaves no record; its call count, total time
and self time are added to the nearest enclosing span instead.

Self time is a span's duration minus the part of it that its children cover:
children on the same thread are summed as they finish, and children that ran
on another thread (the optimizer's restart pool) are merged as intervals, so
that parallel children are not subtracted twice.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from dataclasses import dataclass, field

_clock = time.perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    tag: str
    start: float
    end: float
    parent: int | None
    thread: int
    cross_thread: bool = False   # parent span was open on another thread
    child_time: float = 0.0      # time covered by same-thread children
    amount: float = 0.0          # work size computed from the arguments
    counted: dict = field(default_factory=dict)  # (name, tag) -> [calls, total, self, amount]


class _Frame:
    __slots__ = ("name", "tag", "amount", "span", "parent", "start", "child_time",
                 "thread", "route")

    def __init__(self, name, tag, amount, span, parent, thread):
        self.name = name
        self.tag = tag
        self.amount = amount
        self.span = span          # Span for span functions, None for counted ones
        self.parent = parent
        self.thread = thread
        self.child_time = 0.0
        self.route = None
        self.start = 0.0

    def owner(self) -> Span | None:
        frame = self
        while frame is not None and frame.span is None:
            frame = frame.parent
        return None if frame is None else frame.span


class Tracer:
    """Collects spans from any thread; call :meth:`frame` and :meth:`close` in pairs."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._main_stack: list[_Frame] = []
        self._lock = threading.Lock()

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.get_ident() == self._main_thread
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def frame(self, name: str, tag: str = "", amount: float = 0.0,
              counted: bool = False) -> _Frame:
        stack = self._stack()
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif thread != self._main_thread and self._main_stack:
            # a pool thread works for whatever the main thread is waiting in
            parent = self._main_stack[-1]
        else:
            parent = None
        span = None
        if not counted:
            owner = None if parent is None else parent.owner()
            span = Span(next(self._ids), name, tag, 0.0, 0.0,
                        None if owner is None else owner.span_id, thread,
                        cross_thread=parent is not None and parent.thread != thread,
                        amount=amount)
        frame = _Frame(name, tag, amount, span, parent, thread)
        stack.append(frame)
        frame.start = _clock()
        return frame

    def close(self, frame: _Frame) -> None:
        end = _clock()
        self._stack().pop()
        elapsed = end - frame.start
        parent = frame.parent
        if parent is not None and parent.thread == frame.thread:
            parent.child_time += elapsed
        if frame.name in _ROUTE_OF and parent is not None and parent.name == EXPECTATION:
            parent.route = _ROUTE_OF[frame.name]
        span = frame.span
        if span is not None:
            span.start, span.end, span.child_time = frame.start, end, frame.child_time
            self.spans.append(span)
            return
        owner = parent.owner() if parent is not None else None
        if owner is None:
            return
        with self._lock:
            entry = owner.counted.setdefault((frame.name, frame.tag), [0, 0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += elapsed
            entry[2] += elapsed - frame.child_time
            entry[3] += frame.amount
            if frame.name == EXPECTATION:
                route = owner.counted.setdefault(("functional.route", frame.route or "grouped"),
                                                 [0, 0.0, 0.0, 0.0])
                route[0] += 1


EXPECTATION = "functional.expectation"
# which exact entry expectation calls tells the route it took; no call means grouped
_ROUTE_OF = {
    "exact.correlation_e": "product",
    "exact.classical_product_correlation": "product",
    "exact.all_sequence_probabilities": "enumeration",
    "exact.classical_all_probabilities": "enumeration",
}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus what its children cover."""
    cross: dict[int, list] = {}
    for s in spans:
        if s.cross_thread and s.parent is not None:
            cross.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - s.child_time
        - union_length(cross.get(s.span_id, ()), s.start, s.end)
        for s in spans
    }


def summarize(spans: list[Span]) -> dict[tuple[str, str], list]:
    """Per (name, tag): [calls, total time, self time, amount], spans and counted calls alike."""
    own = self_times(spans)
    out: dict[tuple[str, str], list] = {}
    for s in spans:
        entry = out.setdefault((s.name, s.tag), [0, 0.0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += s.end - s.start
        entry[2] += own[s.span_id]
        entry[3] += s.amount
        for key, (calls, total, self_s, amount) in s.counted.items():
            entry = out.setdefault(key, [0, 0.0, 0.0, 0.0])
            entry[0] += calls
            entry[1] += total
            entry[2] += self_s
            entry[3] += amount
    return out


def wrap(tracer: Tracer, fn, name: str, counted: bool = False, describe=None):
    """Wrapper that records ``fn`` under ``name``; ``describe`` gives (tag, amount)."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tag, amount = describe(args, kwargs) if describe is not None else ("", 0.0)
        frame = tracer.frame(name, tag, amount, counted)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(frame)
    return traced


def install(tracer: Tracer, targets) -> list:
    """Patch each (module, attribute, name, counted, describe) target in place.

    One function reachable under several names (``optimizer.bell_value`` is
    ``functional.bell_value``) gets one shared wrapper.  Returns the undo list
    for :func:`uninstall`.
    """
    wrappers: dict[int, object] = {}
    undo = []
    for module, attr, name, counted, describe in targets:
        original = getattr(module, attr)
        wrapper = wrappers.get(id(original))
        if wrapper is None:
            wrapper = wrappers[id(original)] = wrap(tracer, original, name, counted, describe)
        undo.append((module, attr, original))
        setattr(module, attr, wrapper)
    return undo


def uninstall(undo: list) -> None:
    for module, attr, original in reversed(undo):
        setattr(module, attr, original)
