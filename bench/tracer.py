"""In-memory span recorder installed around functions from outside the program.

Wrappers replace a function on the object its caller looks it up on (a
module for ``from ... import`` names, a class for methods) and restore it on
``uninstall``.  Three kinds of wrapper exist:

* span: one record per call ``(id, parent, name, t0, t1, agg_child_s, value)``.
  ``parent`` is the nearest enclosing span on the same thread, or the one
  given explicitly for chunk bodies that run on pool threads.
  ``agg_child_s`` is the time spent in aggregated calls directly beneath it.
* aggregate: per-sample functions called ~10^5 times per op; only the call
  count, inclusive time and self time are summed per name.
* count: call count only, for the cheapest and most frequent functions.

Every thread writes to its own state, registered once under a lock, so the
wrappers take no lock per call and are safe under a thread pool.  ``drain``
must run while no wrapped call is in flight (between ops).
"""

from __future__ import annotations

import functools
import inspect
import threading
import time

clock = time.perf_counter


class _ThreadState:
    def __init__(self, index: int) -> None:
        self.id_base = index << 32
        self.seq = 0
        self.stack: list[list] = []  # frames: [span_id or None, agg_child_s]
        self.spans: list[tuple] = []
        self.aggregates: dict[str, list] = {}
        self.counts: dict[str, int] = {}

    def next_id(self) -> int:
        self.seq += 1
        return self.id_base + self.seq

    def enclosing_span(self):
        for frame in reversed(self.stack):
            if frame[0] is not None:
                return frame[0]
        return None


class Tracer:
    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._installed: list[tuple] = []
        self.missing: set[str] = set()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            with self._lock:
                state = _ThreadState(len(self._states))
                self._states.append(state)
            self._local.state = state
            return state

    # -- recording -----------------------------------------------------

    def call_span(self, name, fn, args, kwargs, value_of=None, parent=None, span_id=None):
        state = self._state()
        sid = span_id if span_id is not None else state.next_id()
        if parent is None:
            parent = state.enclosing_span()
        frame = [sid, 0.0]
        state.stack.append(frame)
        value = 0
        t0 = clock()
        try:
            result = fn(*args, **kwargs)
            if value_of is not None:
                value = value_of(args, kwargs, result)
            return result
        finally:
            t1 = clock()
            state.stack.pop()
            state.spans.append((sid, parent, name, t0, t1, frame[1], value))

    def _span_wrapper(self, name, fn, value_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call_span(name, fn, args, kwargs, value_of)

        return wrapper

    def _aggregate_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            frame = [None, 0.0]
            state.stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                state.stack.pop()
                record = state.aggregates.get(name)
                if record is None:
                    record = state.aggregates[name] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if state.stack:
                    state.stack[-1][1] += elapsed

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._state().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _chunk_runner_wrapper(self, name, chunk_name, fn):
        """Span around a ``run_chunks(chunk_fn, n, workers=...)`` call whose
        chunk bodies become child spans, on whichever thread runs them.
        The span's value is the requested worker count."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(chunk_fn, *args, **kwargs):
            bound = signature.bind(chunk_fn, *args, **kwargs)
            bound.apply_defaults()
            workers = int(bound.arguments.get("workers", 1))
            sid = self._state().next_id()

            def traced_chunk(*chunk_args, **chunk_kwargs):
                return self.call_span(
                    chunk_name, chunk_fn, chunk_args, chunk_kwargs, parent=sid
                )

            return self.call_span(
                name,
                fn,
                (traced_chunk, *args),
                kwargs,
                value_of=lambda *_: workers,
                span_id=sid,
            )

        return wrapper

    # -- installation --------------------------------------------------

    def install(self, targets) -> None:
        """Wrap each ``(owner, attribute, kind, name, extra)`` target.

        ``kind`` is ``span`` (``extra`` maps (args, kwargs, result) to the
        span's value, or is None), ``aggregate``, ``count`` or ``chunks``
        (``extra`` names the chunk-body spans).  A missing attribute is
        recorded in ``missing`` and skipped.
        """
        for owner, attribute, kind, name, extra in targets:
            # A class attribute is taken from the class itself so that
            # restoring it never shadows an inherited one.
            if isinstance(owner, type):
                original = owner.__dict__.get(attribute)
            else:
                original = getattr(owner, attribute, None)
            if original is None:
                self.missing.add(f"{getattr(owner, '__name__', owner)}.{attribute}")
                continue
            if kind == "span":
                wrapper = self._span_wrapper(name, original, extra)
            elif kind == "aggregate":
                wrapper = self._aggregate_wrapper(name, original)
            elif kind == "count":
                wrapper = self._count_wrapper(name, original)
            elif kind == "chunks":
                wrapper = self._chunk_runner_wrapper(name, extra, original)
            else:
                raise ValueError(f"unknown wrapper kind {kind!r}")
            setattr(owner, attribute, wrapper)
            self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._installed):
            setattr(owner, attribute, original)
        self._installed.clear()

    def drain(self) -> dict:
        """Everything recorded since the last drain, merged over threads."""
        spans: list[tuple] = []
        aggregates: dict[str, list] = {}
        counts: dict[str, int] = {}
        with self._lock:
            states = list(self._states)
        for state in states:
            spans.extend(state.spans)
            for name, (calls, total, self_time) in state.aggregates.items():
                record = aggregates.setdefault(name, [0, 0.0, 0.0])
                record[0] += calls
                record[1] += total
                record[2] += self_time
            for name, calls in state.counts.items():
                counts[name] = counts.get(name, 0) + calls
            state.spans = []
            state.aggregates = {}
            state.counts = {}
        spans.sort(key=lambda span: span[3])
        return {"spans": spans, "aggregates": aggregates, "counts": counts}
