"""In-memory spans around each layer's public functions.

Installed only in the traced run.  :func:`install` wraps the public
entry points of every layer (``core`` strategies and sessions, the
``concurrency`` scheduler, the ``service`` cache, HTTP front-end and
queue, the ``exec`` pools, and the ``provenance`` store) at class level,
so nothing under ``src/`` changes.  Each call records one span --
``(id, name, start, end, parent, job)`` on ``time.monotonic()`` -- in a
list; the list is analysed and written out when the run ends.  Spans
that see a job id (scheduler, HTTP submit and queue calls) record it,
and :meth:`Tracer.dump` gives every span of a call tree the one job id
found in it.

Parents follow the calling thread's stack.  Work handed to a scheduler
worker thread (``SharedScheduler.submit``) adopts the submitting
thread's open span as its parent, so the time a caller spends waiting
on the scheduler is the caller span's *self* time.

:class:`Analysis` splits the traced wall time into per-layer shares
that add up to it exactly: every instant is divided equally among the
spans whose self time covers it (one per busy thread), and instants no
span covers are ``unattributed``.
"""

from __future__ import annotations

import collections
import functools
import importlib
import itertools
import json
import threading
import time

LAYERS = ("core", "concurrency", "service", "exec", "pipeline", "provenance")

# (module, class, method names, span name)
_TARGETS = (
    ("repro.core.bugdoc", "BugDoc", ("find_one", "find_all"), "core.search"),
    (
        "repro.core.session",
        "DebugSession",
        ("evaluate", "evaluate_many"),
        "core.evaluate",
    ),
    (
        "repro.core.context",
        "StrategyContext",
        (
            "refutes_many",
            "supports_many",
            "subsumes_matrix",
            "tree",
            "satisfying_value_lists",
        ),
        "core.engine",
    ),
    (
        "repro.concurrency.scheduler",
        "ScheduledExecutor",
        ("__call__",),
        "concurrency.scheduled",
    ),
    # Fig. 6 batches bypass ScheduledExecutor (their tasks run it inline
    # on a worker slot); the batch call's self time is the queue wait.
    (
        "repro.concurrency.scheduler",
        "SchedulerBackend",
        ("run_batch",),
        "concurrency.scheduled",
    ),
    ("repro.service.cache", "CachedExecutor", ("__call__",), "service.cache"),
    (
        "repro.service.http",
        "DebugServiceHTTP",
        ("submit_payload",),
        "service.http_submit",
    ),
    ("repro.service.http", "DebugServiceHTTP", ("shutdown",), "service.shutdown"),
    ("repro.service.service", "DebugService", ("shutdown",), "service.shutdown"),
    (
        "repro.provenance.store",
        "SQLiteProvenanceStore",
        ("enqueue_job", "claim_job", "finish_queued_job"),
        "service.queue",
    ),
    ("repro.exec.pool", "ProcessPool", ("run", "run_traced"), "exec.run"),
    (
        "repro.exec.remote.pool",
        "RemoteWorkerPool",
        ("run", "run_traced"),
        "exec.run",
    ),
    ("repro.exec.pool", "ProcessPool", ("shutdown",), "exec.shutdown"),
    ("repro.exec.remote.pool", "RemoteWorkerPool", ("shutdown",), "exec.shutdown"),
    (
        "repro.provenance.store",
        "SQLiteProvenanceStore",
        ("persist_event_batch", "append_job_events"),
        "provenance.append_events",
    ),
    (
        "repro.provenance.store",
        "SQLiteProvenanceStore",
        ("upsert", "add"),
        "provenance.outcome_write",
    ),
    ("repro.provenance.store", "SQLiteProvenanceStore", ("lookup",), "provenance.lookup"),
)

# Span name -> the job id in the wrapped call's arguments.
_JOB_OF = {
    "concurrency.scheduled": lambda args: args[0].job_id,
    "service.http_submit": lambda args: args[1].get("job_id"),
    "service.queue": lambda args: args[1],
}


class Tracer:
    """Span recorder: a thread-local stack of open span ids plus a list
    of closed spans (``list.append`` is atomic, so no lock)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.rows_appended = 0
        self.appends = 0
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span."""
        tracer = self
        job_of = _JOB_OF.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            job = job_of(args) if job_of is not None else None
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.monotonic()
                stack.pop()
                tracer.spans.append((span_id, name, start, end, parent, job))

        return traced

    def adopt(self, parent, fn):
        """``fn`` run on another thread as a child of span ``parent``."""
        tracer = self

        def adopted():
            stack = tracer._stack()
            stack.append(parent)
            try:
                return fn()
            finally:
                stack.pop()

        return adopted

    def dump(self, path) -> None:
        """Write the spans as JSON lines, each tree's job id filled in."""
        children = collections.defaultdict(list)
        for span in self.spans:
            children[span[4]].append(span)
        job_of = {}
        for root in children[None]:
            tree, pending = [], [root]
            while pending:
                span = pending.pop()
                tree.append(span)
                pending.extend(children.get(span[0], ()))
            jobs = {span[5] for span in tree if span[5] is not None}
            if len(jobs) == 1:
                job = jobs.pop()
                job_of.update((span[0], job) for span in tree)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, job in self.spans:
                record = {"id": span_id, "name": name, "start": start,
                          "end": end, "parent": parent,
                          "job": job_of.get(span_id, job)}
                handle.write(json.dumps(record) + "\n")


def install(tracer: Tracer, extra=()) -> None:
    """Wrap every layer entry point in :data:`_TARGETS` (plus ``extra``
    ``(class, method, span name)`` triples owned by the benchmark)."""
    from repro.concurrency.scheduler import SharedScheduler
    from repro.provenance.store import SQLiteProvenanceStore

    targets = []
    for module, cls_name, methods, name in _TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        targets.extend((cls, method, name) for method in methods)
    for cls, method, name in list(targets) + list(extra):
        setattr(cls, method, tracer.span(name, getattr(cls, method)))

    submit = SharedScheduler.submit

    @functools.wraps(submit)
    def adopting_submit(self, job_id, thunk, skip=None):
        parent = tracer.current()
        if parent is not None:
            thunk = tracer.adopt(parent, thunk)
        return submit(self, job_id, thunk, skip)

    SharedScheduler.submit = adopting_submit

    # Rows per event write: counted where they are written.
    persist = SQLiteProvenanceStore.persist_event_batch

    @functools.wraps(persist)
    def counting_persist(self, rows):
        rows = list(rows)
        tracer.rows_appended += len(rows)
        tracer.appends += 1
        return persist(self, rows)

    SQLiteProvenanceStore.persist_event_batch = counting_persist


def _subtract(start: float, end: float, cuts: list) -> list:
    """``[start, end]`` minus the union of the ``cuts`` intervals."""
    pieces = []
    cursor = start
    for cut_start, cut_end in sorted(cuts):
        if cut_end <= cursor:
            continue
        if cut_start >= end:
            break
        if cut_start > cursor:
            pieces.append((cursor, cut_start))
        cursor = max(cursor, cut_end)
    if cursor < end:
        pieces.append((cursor, end))
    return pieces


class Analysis:
    """Per-name totals and wall shares of the spans inside a window."""

    def __init__(self, spans: list[tuple], window: tuple[float, float]):
        lo, hi = window
        self.wall = hi - lo
        by_id = {span[0]: span for span in spans}
        children = collections.defaultdict(list)
        for span in spans:
            if span[4] is not None:
                children[span[4]].append((span[2], span[3]))
        # ``calls`` and ``total`` count outermost spans only: a span
        # nested (on any thread) inside one of the same name is part of
        # its ancestor's call, as ProcessPool.run inside run_traced.
        self.total = collections.Counter()
        self.calls = collections.Counter()
        self.self_time = collections.Counter()
        segments = []
        for span_id, name, start, end, parent, __ in spans:
            start, end = max(start, lo), min(end, hi)
            if end <= start:
                continue
            if not self._nested_in_same(name, parent, by_id):
                self.calls[name] += 1
                self.total[name] += end - start
            for piece in _subtract(start, end, children.get(span_id, [])):
                self.self_time[name] += piece[1] - piece[0]
                segments.append((piece[0], piece[1], name.split(".")[0]))
        self.shares, self.unattributed = self._share(segments, lo, hi)

    @staticmethod
    def _nested_in_same(name, parent, by_id) -> bool:
        while parent is not None:
            span = by_id.get(parent)
            if span is None:
                return False
            if span[1] == name:
                return True
            parent = span[4]
        return False

    @staticmethod
    def _share(segments, lo, hi):
        """Processor-sharing split of ``[lo, hi]`` among self segments."""
        points = []
        for start, end, layer in segments:
            points.append((start, 1, layer))
            points.append((end, -1, layer))
        points.sort(key=lambda point: (point[0], point[1]))
        shares = collections.Counter()
        active = collections.Counter()
        busy = 0
        unattributed = 0.0
        cursor = lo
        for moment, delta, layer in points:
            step = moment - cursor
            if step > 0:
                if busy:
                    for name, count in active.items():
                        if count:
                            shares[name] += step * count / busy
                else:
                    unattributed += step
                cursor = moment
            active[layer] += delta
            busy += delta
        unattributed += hi - cursor
        return shares, unattributed

    def table(self) -> str:
        lines = [f"{'layer':<12} {'self (s)':>10} {'share':>7}"]
        for layer in LAYERS + ("unattributed",):
            value = (
                self.unattributed
                if layer == "unattributed"
                else self.shares.get(layer, 0.0)
            )
            share = value / self.wall if self.wall else 0.0
            lines.append(f"{layer:<12} {value:>10.4f} {share:>7.1%}")
        total = sum(self.shares.values()) + self.unattributed
        lines.append(f"{'sum':<12} {total:>10.4f}   wall {self.wall:.4f}s")
        return "\n".join(lines)
