"""In-memory spans, counters and profiler grouping for the traced run.

Spans are recorded from the benchmark's own files, around calls into the
program's functions: :class:`Patches` swaps a class or module
attribute for a wrapper and puts the original back when the run ends.
The program under ``src/`` is never edited.

Per-event hot paths (one call per kernel event or per request hop) get
no span: a span there would cost more than the work it measures. Their
time comes from ``cProfile`` self time grouped by module, where the time
of a builtin (``heapq.heappush``, ``random.random``) counts towards the
function that called it, and their counts from the profiler's call
counts.
"""

from __future__ import annotations

import contextvars
import cProfile
import functools
import inspect
import os
import time

_current_span: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=None)


class Span:
    __slots__ = ("span_id", "parent_id", "name", "start", "end")

    def __init__(self, span_id, parent_id, name, start):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Spans and counters of one traced repetition, kept in memory.

    The current span lives in a context variable, so spans opened by
    concurrent asyncio tasks each get the right parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}

    def begin(self, name: str):
        parent = _current_span.get()
        span = Span(len(self.spans), parent.span_id if parent else None,
                    name, time.perf_counter())
        self.spans.append(span)
        return span, _current_span.set(span)

    def end(self, span: Span, token) -> None:
        span.end = time.perf_counter()
        _current_span.reset(token)

    @staticmethod
    def current_name() -> str | None:
        span = _current_span.get()
        return span.name if span is not None else None

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def high_water(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, float("-inf")):
            self.maxima[name] = value

    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def to_json(self) -> list[dict]:
        return [{"id": s.span_id, "parent": s.parent_id, "name": s.name,
                 "start": s.start, "end": s.end} for s in self.spans]

    def wrap(self, fn, name: str, on_call=None, on_return=None):
        """``fn`` recording one span per call (coroutines included).

        ``on_call(args)`` runs before each call and ``on_return(result)``
        after it, for counters that read arguments or results (a
        server's in-flight gauge, the backends a query found no data for).
        """
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                if on_call is not None:
                    on_call(args)
                span, token = self.begin(name)
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    self.end(span, token)
                if on_return is not None:
                    on_return(result)
                return result
            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            span, token = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span, token)
            if on_return is not None:
                on_return(result)
            return result
        return traced


class Patches:
    """Attribute swaps undone in reverse order on exit.

    Used both for tracing wrappers and for the untraced run's probes
    (capturing the objects a run builds, timing the first request).
    """

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False

    def replace(self, owner, attr: str, make):
        """Set ``owner.attr = make(original)``."""
        original = getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))
        return original

    def capture(self, cls, bucket: list) -> None:
        """Append every instance of ``cls`` built while active."""
        def make(init):
            @functools.wraps(init)
            def captured(obj, *args, **kwargs):
                init(obj, *args, **kwargs)
                bucket.append(obj)
            return captured
        self.replace(cls, "__init__", make)

    def trace(self, tracer: Tracer, owner, attr: str, name: str,
              on_call=None, on_return=None) -> None:
        self.replace(owner, attr,
                     lambda fn: tracer.wrap(fn, name, on_call, on_return))


def _module_of(filename: str, src_root: str) -> str | None:
    """``.../src/repro/sim/engine.py`` → ``"sim.engine"``."""
    prefix = os.path.join(src_root, "repro") + os.sep
    if not filename.startswith(prefix):
        return None
    rel = filename[len(prefix):]
    if rel.endswith(".py"):
        rel = rel[:-3]
    return rel.replace(os.sep, ".")


class ProfileSummary:
    """Self time per program module and call counts per function."""

    def __init__(self, profile: cProfile.Profile, src_root: str):
        self.module_self_s: dict[str, float] = {}
        self.calls: dict[tuple[str, str], int] = {}
        for entry in profile.getstats():
            code = entry.code
            if isinstance(code, str):
                continue  # builtins are charged to their callers below
            module = _module_of(code.co_filename, src_root)
            if module is None:
                continue
            self_s = entry.inlinetime
            for sub in entry.calls or ():
                if isinstance(sub.code, str):
                    self_s += sub.inlinetime
            self.module_self_s[module] = (
                self.module_self_s.get(module, 0.0) + self_s)
            key = (module, code.co_qualname)
            self.calls[key] = self.calls.get(key, 0) + entry.callcount

    def self_s(self, *prefixes: str) -> float:
        """Self time of every module equal to or under a prefix."""
        return sum(seconds for module, seconds in self.module_self_s.items()
                   if any(module == p or module.startswith(p + ".")
                          for p in prefixes))

    def call_count(self, module_prefix: str, qualname_suffix: str) -> int:
        """Calls of every function under ``module_prefix`` whose
        qualified name ends with ``qualname_suffix``."""
        return sum(n for (module, name), n in self.calls.items()
                   if name.endswith(qualname_suffix) and (
                       module == module_prefix
                       or module.startswith(module_prefix + ".")))
