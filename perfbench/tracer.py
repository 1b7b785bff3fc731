"""Span tracer that times fdb's layers from outside the package.

``Tracer.installed`` replaces each traced function, in every module that
binds it, by a wrapper that records a ``perf_counter`` span: name, thread,
start, end and the span that was open when it was called. Parent stacks are
kept per thread. Work submitted to a ``ThreadPoolExecutor`` bound in a traced
module is linked to the span that submitted it, so replicates run by
``run_benchmark(threads=2)`` hang under their ``run_benchmark`` span. Leaving
the context puts every original object back.

A span's self time is its duration minus the part of its interval that its
children cover (the union, since children on pool threads may overlap).
With ``memory=True`` the wrappers also record each call's ``tracemalloc``
peak above the memory in use at entry; that mode is for single-threaded,
untimed passes only, because the tracemalloc peak is process-wide.
"""

from __future__ import annotations

import threading
import time
import tracemalloc
from collections import Counter, defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from functools import wraps


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "error", "extra", "base", "peak")

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent  # index of the parent span in Tracer.spans, or None
        self.start = self.end = 0.0
        self.error = None  # (exception type name, err.stage) when the call raised
        self.extra = None  # quantities computed by a measure hook
        self.base = self.peak = 0  # memory mode: bytes in use at entry, highest bytes seen


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: "list[Span]" = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name) -> int:
        stack = self._stack()
        span = Span(name, threading.get_ident(), stack[-1] if stack else None)
        with self._lock:
            sid = len(self.spans)
            self.spans.append(span)
        stack.append(sid)
        if self.memory:
            current, peak = tracemalloc.get_traced_memory()
            if span.parent is not None:
                parent = self.spans[span.parent]
                parent.peak = max(parent.peak, peak)
            tracemalloc.reset_peak()
            span.base = span.peak = current
        return sid

    def _close(self, sid: int) -> None:
        span = self.spans[sid]
        self._stack().pop()
        if self.memory:
            span.peak = max(span.peak, tracemalloc.get_traced_memory()[1])
            if span.parent is not None:
                parent = self.spans[span.parent]
                parent.peak = max(parent.peak, span.peak)

    def wrap(self, name: str, fn, measure=None):
        """Return ``fn`` wrapped so that each call records a span called ``name``.

        ``measure(args, kwargs, result)`` may return a dict of quantities to
        attach to the span, such as flops computed from the argument shapes.
        """
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open(name)
            span = tracer.spans[sid]
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                span.error = (type(err).__name__, getattr(err, "stage", None))
                raise
            finally:
                span.end = time.perf_counter()
                tracer._close(sid)
            if measure is not None:
                span.extra = measure(args, kwargs, result)
            return result

        return traced

    def _run_linked(self, parent, fn, /, *args, **kwargs):
        # Runs on a pool thread: spans opened by fn get the submitter's span as parent.
        saved = getattr(self._local, "stack", None)
        self._local.stack = [] if parent is None else [parent]
        try:
            return fn(*args, **kwargs)
        finally:
            self._local.stack = saved

    def _linked_pool_class(self):
        tracer = self

        class LinkedThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._stack()
                parent = stack[-1] if stack else None
                return super().submit(tracer._run_linked, parent, fn, *args, **kwargs)

        return LinkedThreadPoolExecutor

    @contextmanager
    def installed(self, modules, targets, measures=None):
        """Trace ``targets`` while the context is open.

        ``targets`` lists (home module, attribute name) pairs. Each function
        is wrapped under every module in ``modules`` that binds the same
        object, whatever the name it is bound to there; the span is named
        ``<home module>.<attribute>``. ``measures`` maps span names to
        measure hooks (see ``wrap``).
        """
        measures = measures or {}
        saved = []
        pool_class = None
        try:
            for home, attr in targets:
                original = getattr(home, attr)
                name = f"{home.__name__.rsplit('.', 1)[-1]}.{attr}"
                wrapper = self.wrap(name, original, measures.get(name))
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            saved.append((module, key, original))
                            setattr(module, key, wrapper)
            for module in modules:
                if vars(module).get("ThreadPoolExecutor") is ThreadPoolExecutor:
                    pool_class = pool_class or self._linked_pool_class()
                    saved.append((module, "ThreadPoolExecutor", ThreadPoolExecutor))
                    module.ThreadPoolExecutor = pool_class
            yield self
        finally:
            for module, key, original in reversed(saved):
                setattr(module, key, original)

    def self_seconds(self) -> "list[float]":
        """Self time of every span, in the order of ``spans``."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        result = []
        for sid, span in enumerate(self.spans):
            covered = 0.0
            reach = span.start
            for child in sorted(children.get(sid, ()), key=lambda c: c.start):
                lo, hi = max(child.start, reach), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                reach = max(reach, child.end)
            result.append(span.end - span.start - covered)
        return result

    def root_coverage(self) -> float:
        """Seconds covered by the union of the root spans' intervals."""
        covered = 0.0
        reach = float("-inf")
        for span in sorted((s for s in self.spans if s.parent is None), key=lambda s: s.start):
            lo = max(span.start, reach)
            if span.end > lo:
                covered += span.end - lo
            reach = max(reach, span.end)
        return covered

    def summary(self) -> "dict[str, dict]":
        """Per span name: calls, self seconds, errors by (type, stage), summed
        measured quantities and, in memory mode, the highest peak in bytes."""
        table: "dict[str, dict]" = {}
        for span, own in zip(self.spans, self.self_seconds()):
            row = table.setdefault(
                span.name,
                {"calls": 0, "self_s": 0.0, "errors": Counter(), "extra": Counter(), "peak_bytes": 0},
            )
            row["calls"] += 1
            row["self_s"] += own
            if span.error is not None:
                row["errors"][span.error] += 1
            if span.extra:
                row["extra"].update(span.extra)
            if self.memory:
                row["peak_bytes"] = max(row["peak_bytes"], span.peak - span.base)
        return table
