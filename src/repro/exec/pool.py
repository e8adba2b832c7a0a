"""ProcessPool: warm, elastic, crash-tolerant pipeline worker processes.

The thread-based service executes every pipeline in-process: CPU-bound
pipelines serialize on the GIL, and a pipeline that hangs or takes the
interpreter down (``os._exit``, a segfaulting native extension) stalls
or kills the whole service.  This module moves execution behind a
process boundary:

* **Workers** are spawn-started (never forked: the service is heavily
  threaded, and forking a threaded parent is undefined behavior-adjacent
  everywhere and broken on macOS).  Each worker receives
  :class:`~repro.exec.spec.ExecutorSpec` payloads, builds the executor
  once per distinct spec fingerprint, and then serves ``run`` frames
  over its private pipe: a frame carries a list of instances (one for
  a single run, a worker's share of a speculative batch otherwise) and
  is answered item by item.
* **The pool is warm and elastic**: ``prewarm`` workers start eagerly,
  more spawn on demand up to ``max_workers``, and workers idle longer
  than ``idle_timeout`` are retired down to ``min_workers``
  (:meth:`ProcessPool.reap_idle`, called opportunistically on release).
* **Crash detection and replacement**: a worker that dies mid-run
  (pipe EOF / dead process) is discarded and replaced; the run is
  retried on a fresh worker up to ``crash_retries`` times and then
  surfaces as :class:`WorkerCrashed`; the unanswered rest of its frame
  is re-dispatched without consuming a retry.  A run exceeding its
  timeout gets its (possibly hung) worker killed and surfaces as
  :class:`RunTimedOut` after ``timeout_retries`` retries.  Either way the failure is
  *deterministic and contained*: the session charged the run at entry
  and refunds it on the raised error (``DebugSession.evaluate``'s
  BaseException refund), so the paper-exact budget accounting is never
  corrupted by a replaced worker -- the fault-tolerant-reconfiguration
  stance of Jehl et al. applied to budget state.
* **Cross-process dedup**: with a ``store_path``, every worker consults
  the SQLite provenance store (the persistent tier of the service's
  ``ExecutionCache``) before executing and writes fresh outcomes
  through, so runs deduplicate across worker processes and across
  services sharing one database.

Worker lifecycle state machine (see ``docs/architecture.md``)::

    SPAWNING --ready--> IDLE --acquire--> BUSY --ok--> IDLE
        |                 |                 |--crash---> DISCARDED (replaced on demand)
        '--spawn failure  '--idle_timeout   '--timeout-> KILLED    (replaced on demand)
            -> error          -> RETIRED
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import socket
import threading
import time
import uuid
from collections.abc import Callable, Sequence
from multiprocessing.connection import wait as _wait_ready

from ..concurrency.scheduler import SchedulerBackend, SharedScheduler
from ..core.session import DebugSession
from ..core.types import Instance, Outcome
from .retry import RetryPolicy
from .spec import ExecutorSpec

__all__ = [
    "PoolShutDown",
    "ProcessExecutor",
    "ProcessPool",
    "ProcessPoolBackend",
    "RemoteRunError",
    "RunTimedOut",
    "WorkerCrashed",
]

_READY_TIMEOUT = 60.0  # spawn + import budget for a fresh worker
_JOIN_TIMEOUT = 2.0


def _child_trace(trace: dict | None) -> dict | None:
    """Derive a child trace-context dict: same ``trace_id``, fresh
    ``span_id``, parented on the given span.

    Mirrors ``repro.obs.trace.TraceContext.child`` without importing it
    -- ``exec`` sits *below* ``obs`` in the layering, so trace contexts
    cross this layer as plain JSON-safe dicts.
    """
    if not isinstance(trace, dict) or not isinstance(trace.get("trace_id"), str):
        return None
    child = {"trace_id": trace["trace_id"], "span_id": uuid.uuid4().hex[:16]}
    parent = trace.get("span_id")
    if isinstance(parent, str):
        child["parent_id"] = parent
    return child


def _worker_span(trace: dict | None) -> dict | None:
    """The span record a worker attaches to a traced reply: a child
    context minted *in the worker* plus where it ran."""
    child = _child_trace(trace)
    if child is None:
        return None
    return {"trace": child, "host": socket.gethostname(), "pid": os.getpid()}


class WorkerCrashed(RuntimeError):
    """A worker process died while serving a run (after any retries)."""

    def __init__(self, detail: str):
        super().__init__(f"worker process crashed: {detail}")


class RunTimedOut(RuntimeError):
    """A run exceeded its per-run timeout (after any retries)."""

    def __init__(self, timeout: float):
        super().__init__(f"pipeline run exceeded {timeout}s timeout")
        self.timeout = timeout


class RemoteRunError(RuntimeError):
    """The pipeline itself raised inside the worker (worker survives)."""

    def __init__(self, detail: str):
        super().__init__(f"pipeline raised in worker: {detail}")


class PoolShutDown(RuntimeError):
    """The pool rejected a run because it is shut down."""


def _worker_main(conn, store_path: str | None) -> None:
    """Worker process body: build executors on demand, serve run frames.

    Frames in: ``("run", fingerprint, spec, workflow, values_dicts,
    traces)`` -- a list of instances and either None or one trace-context
    dict per instance -- or ``None`` (shutdown).  Messages out:
    ``("ready", pid)`` once, then ONE reply per item, in item order:
    ``("ok", outcome_value, cost, from_store, span)`` (``span`` is the
    worker-minted record of a traced item, else None) or
    ``("error", detail)``.  A pipeline that kills the process mid-frame
    leaves the rest of the frame unanswered -- the parent detects the
    EOF/dead process and re-dispatches exactly those items.
    """
    conn.send(("ready", os.getpid()))
    executors: dict[str, object] = {}
    store = None
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            return
        if message is None:
            return
        __, fingerprint, spec, workflow, values_list, traces = message
        for position, values in enumerate(values_list):
            span = _worker_span(traces[position]) if traces else None
            try:
                executor = executors.get(fingerprint)
                if executor is None:
                    executor = executors[fingerprint] = spec.build()
                if store_path is not None and store is None:
                    from ..provenance.store import SQLiteProvenanceStore

                    store = SQLiteProvenanceStore(store_path)
                reply = _run_item(executor, store, workflow, Instance(values))
                reply += (span,)
            except Exception as error:
                reply = ("error", repr(error))
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                return


def _run_item(executor, store, workflow: str, instance: Instance) -> tuple:
    """One item of a frame: ``("ok", outcome_value, cost, from_store)``,
    served from the provenance store when it already holds the run."""
    if store is not None:
        try:
            record = store.lookup(workflow, instance)
        except Exception:
            record = None  # store trouble reads as a miss
        if record is not None:
            return ("ok", record.outcome.value, record.cost, True)
    started = time.perf_counter()
    outcome = executor(instance)
    cost = time.perf_counter() - started
    if not isinstance(outcome, Outcome):
        raise TypeError(f"executor returned {type(outcome).__name__}, not Outcome")
    if store is not None:
        from ..provenance.record import ProvenanceRecord

        try:
            store.upsert(
                ProvenanceRecord(
                    workflow=workflow,
                    instance=instance,
                    outcome=outcome,
                    cost=cost,
                    created_at=time.time(),
                )
            )
        except Exception:
            pass  # lost write-through must not fail the run
    return ("ok", outcome.value, cost, False)


class _Worker:
    """Parent-side handle of one worker process."""

    __slots__ = ("worker_id", "process", "conn", "runs")

    def __init__(self, ctx, worker_id: int, store_path: str | None):
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.worker_id = worker_id
        self.conn = parent_conn
        self.runs = 0
        self.process = ctx.Process(
            target=_worker_main,
            args=(child_conn, store_path),
            name=f"repro-exec-worker-{worker_id}",
            daemon=True,
        )
        self.process.start()
        child_conn.close()  # parent keeps only its end; EOF then means death

    def ready(self, timeout: float) -> bool:
        """Consume the worker's ready message; False while it is still
        booting.  EOFError/OSError mean it died booting."""
        if not self.conn.poll(timeout):
            return False
        kind, __ = self.conn.recv()
        assert kind == "ready"
        return True

    def send_frame(
        self,
        spec: ExecutorSpec,
        workflow: str,
        instances: list[Instance],
        traces: list | None,
    ) -> None:
        """Ship one frame; its replies arrive one per item on ``conn``."""
        self.conn.send(
            (
                "run",
                spec.fingerprint,
                spec,
                workflow,
                [instance.as_dict() for instance in instances],
                traces,
            )
        )

    def crashed(self, error: BaseException) -> WorkerCrashed:
        return WorkerCrashed(
            f"worker {self.worker_id} (pid {self.process.pid}, "
            f"exitcode {self.process.exitcode}): {error!r}"
        )

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        try:
            self.process.kill()
        except (OSError, AttributeError):  # pragma: no cover - platform quirks
            pass
        self.process.join(_JOIN_TIMEOUT)
        self.conn.close()

    def stop(self) -> None:
        """Polite shutdown: ask, wait briefly, then kill."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):
            pass
        self.process.join(_JOIN_TIMEOUT)
        if self.process.is_alive():
            self.kill()
        else:
            self.conn.close()


class _Frame:
    """One worker's share of a batch: item indices and replies so far."""

    __slots__ = ("worker", "items", "answered", "deadline")

    def __init__(self, worker: _Worker, items: list[int]):
        self.worker = worker
        self.items = items
        self.answered = 0
        self.deadline: float | None = None

    def touch(self, timeout: float | None) -> None:
        """Restart the per-item clock (at send, and after each reply)."""
        if timeout is not None:
            self.deadline = time.monotonic() + timeout


class ProcessPool:
    """Warm, elastic pool of spawn-safe pipeline worker processes.

    Args:
        max_workers: hard cap on live worker processes.
        min_workers: floor the idle reaper will not shrink below.
        prewarm: workers started eagerly at construction (warm pool);
            capped to ``max_workers``.
        idle_timeout: seconds an idle worker may linger beyond
            ``min_workers`` before :meth:`reap_idle` retires it.
        run_timeout: default per-run wall-clock cap; None disables.
            A timed-out run's worker is killed and replaced (a hung
            pipeline cannot occupy a slot forever).
        crash_retries: how many times a run whose worker *died* is
            retried on a fresh worker before :class:`WorkerCrashed`
            propagates.  Deterministic pipelines make the retry safe;
            the budget is charged once either way (errors refund).
        timeout_retries: same for timed-out runs (default 0: a hang is
            assumed deterministic, so retrying would just double the
            stall).
        retry_policy: a full :class:`~repro.exec.retry.RetryPolicy`
            (attempt budgets + exponential backoff + jitter) shared
            with the remote pool.  Overrides the two integer shorthands
            when given; the default policy built from them preserves
            the historical zero-delay behavior exactly.
        store_path: optional SQLite provenance database path; workers
            then dedupe runs through the persistent tier (lookup before
            execute, write-through after).
        acquire_timeout: cap on waiting for a free worker slot (guards
            against pool-sizing deadlocks; generous default).
    """

    def __init__(
        self,
        max_workers: int = 4,
        min_workers: int = 0,
        prewarm: int = 0,
        idle_timeout: float = 30.0,
        run_timeout: float | None = None,
        crash_retries: int = 1,
        timeout_retries: int = 0,
        retry_policy: RetryPolicy | None = None,
        store_path: str | None = None,
        acquire_timeout: float = 300.0,
    ):
        if max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if not 0 <= min_workers <= max_workers:
            raise ValueError("need 0 <= min_workers <= max_workers")
        if retry_policy is None:
            retry_policy = RetryPolicy(
                crash_retries=crash_retries, timeout_retries=timeout_retries
            )
        self.max_workers = max_workers
        self.min_workers = min_workers
        self.idle_timeout = idle_timeout
        self.run_timeout = run_timeout
        self.retry_policy = retry_policy
        self.crash_retries = retry_policy.crash_retries
        self.timeout_retries = retry_policy.timeout_retries
        self.store_path = store_path
        self._acquire_timeout = acquire_timeout
        self._ctx = multiprocessing.get_context("spawn")
        self._condition = threading.Condition(threading.Lock())
        self._idle: list[tuple[_Worker, float]] = []  # LIFO: last is warmest
        self._warming: list[_Worker] = []  # started, not yet ready
        self._live = 0
        self._next_id = 0
        self._shutdown = False
        self._stats = {
            "runs": 0,
            "store_hits": 0,
            "spawned": 0,
            "retired": 0,
            "crashes": 0,
            "timeouts": 0,
            "retries": 0,
            "replaced": 0,
            "backoff_seconds": 0.0,
            "frames": 0,  # pipe round trips: one per worker per batch
        }
        self._batch_scheduler: SharedScheduler | None = None
        self._sizer = None  # AdaptiveSizer attaches itself (stats surface)
        for __ in range(min(prewarm, max_workers)):
            with self._condition:
                worker_id = self._reserve_slot_locked()
            worker = self._spawn_reserved(worker_id)
            with self._condition:
                self._idle.append((worker, time.monotonic()))

    # -- Introspection -------------------------------------------------------
    @property
    def live_workers(self) -> int:
        with self._condition:
            return self._live

    @property
    def idle_workers(self) -> int:
        with self._condition:
            return len(self._idle)

    def stats(self) -> dict[str, object]:
        with self._condition:
            snapshot: dict[str, object] = dict(self._stats)
            snapshot["live_workers"] = self._live
            snapshot["idle_workers"] = len(self._idle)
        snapshot["max_workers"] = self.max_workers
        sizer = self._sizer
        if sizer is not None:
            snapshot["autoscale"] = sizer.stats()
        return snapshot

    def attach_sizer(self, sizer) -> None:
        """Surface an :class:`~repro.exec.autoscale.AdaptiveSizer`'s
        decision trail through this pool's :meth:`stats`."""
        self._sizer = sizer

    # -- Worker lifecycle ----------------------------------------------------
    def _reserve_slot_locked(self) -> int:
        """Claim one live slot under the lock; returns the worker id.

        Reserving (the ``_live`` increment) and spawning are separate
        steps so the ``max_workers`` cap is enforced atomically while
        the slow process start happens outside the lock -- concurrent
        acquires cannot overshoot the cap.
        """
        worker_id = self._next_id
        self._next_id += 1
        self._live += 1
        self._stats["spawned"] += 1
        return worker_id

    def _spawn_reserved(self, worker_id: int) -> _Worker:
        """Spawn the worker for an already-reserved slot and wait until
        it is ready (no lock held)."""
        try:
            worker = _Worker(self._ctx, worker_id, self.store_path)
            if not worker.ready(_READY_TIMEOUT):
                worker.kill()
                raise WorkerCrashed(
                    f"worker {worker_id} not ready within {_READY_TIMEOUT}s"
                )
            return worker
        except BaseException:
            with self._condition:
                self._live -= 1
                self._condition.notify()
            raise

    def _pop_idle_locked(self) -> _Worker | None:
        """The warmest live idle worker, or None (caller holds the lock)."""
        for worker in list(self._warming):
            try:
                if not worker.ready(0):
                    continue  # still booting
                self._idle.append((worker, time.monotonic()))
            except (EOFError, OSError):  # died booting
                worker.kill()
                self._live -= 1
                self._stats["crashes"] += 1
            self._warming.remove(worker)
        while self._idle:
            worker, __ = self._idle.pop()
            if worker.alive():
                return worker
            # An idle worker died in place (e.g. OOM-killed): drop it
            # and keep looking.
            self._live -= 1
            self._stats["crashes"] += 1
            self._stats["replaced"] += 1
        return None

    def _acquire(self) -> _Worker:
        deadline = time.monotonic() + self._acquire_timeout
        with self._condition:
            while True:
                if self._shutdown:
                    raise PoolShutDown("process pool is shut down")
                worker = self._pop_idle_locked()
                if worker is not None:
                    return worker
                if self._live < self.max_workers:
                    worker_id = self._reserve_slot_locked()
                    break  # slot claimed; spawn outside the lock
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"no worker slot within {self._acquire_timeout}s"
                    )
                self._condition.wait(min(remaining, 1.0))
        return self._spawn_reserved(worker_id)

    def _acquire_some(self, wanted: int) -> list[_Worker]:
        """One worker (waiting for it if need be) plus up to
        ``wanted - 1`` more that are idle right now: a batch never
        waits for a second worker."""
        workers = [self._acquire()]
        with self._condition:
            while len(workers) < wanted:
                worker = self._pop_idle_locked()
                if worker is None:
                    break
                workers.append(worker)
            # Short of idle workers with room to grow: start more for
            # the next batch, without waiting for them to boot.
            grow = min(wanted - len(workers), self.max_workers - self._live)
            for __ in range(grow):
                worker_id = self._reserve_slot_locked()
                try:
                    self._warming.append(
                        _Worker(self._ctx, worker_id, self.store_path)
                    )
                except OSError:  # no process to start: give the slot back
                    self._live -= 1
                    break
        return workers

    def _release(self, worker: _Worker) -> None:
        with self._condition:
            if self._shutdown:
                self._live -= 1
                self._condition.notify()
            else:
                self._idle.append((worker, time.monotonic()))
                self._condition.notify()
                worker = None  # type: ignore[assignment]
        if worker is not None:
            worker.stop()
            return
        self.reap_idle()

    def _discard(self, worker: _Worker, fault: str | None) -> None:
        """Kill a crashed, hung or abandoned worker and free its slot;
        ``fault`` (``"crash"``/``"timeout"``) books the replacement."""
        worker.kill()
        with self._condition:
            self._live -= 1
            if fault is not None:
                self._stats["replaced"] += 1
                self._stats["crashes" if fault == "crash" else "timeouts"] += 1
            self._condition.notify()

    def reap_idle(self) -> int:
        """Retire idle workers past ``idle_timeout`` down to ``min_workers``.

        Called opportunistically after every release; tests and
        long-lived owners may call it directly.  Returns the number of
        workers retired.
        """
        now = time.monotonic()
        retired: list[_Worker] = []
        with self._condition:
            keep: list[tuple[_Worker, float]] = []
            for worker, since in self._idle:  # oldest first
                excess = self._live - len(retired) > self.min_workers
                if excess and now - since >= self.idle_timeout:
                    retired.append(worker)
                else:
                    keep.append((worker, since))
            self._idle = keep
            self._live -= len(retired)
            self._stats["retired"] += len(retired)
            if retired:
                self._condition.notify_all()
        for worker in retired:
            worker.stop()
        return len(retired)

    def scale_to(self, target: int) -> int:
        """Move the live-worker count toward ``target`` (the autoscale
        mechanism; policy lives in :mod:`repro.exec.autoscale`).

        Growing prewarms idle workers up to ``min(target, max_workers)``;
        shrinking retires *idle* workers (busy ones finish their runs)
        down to ``max(target, min_workers)``, ignoring ``idle_timeout``.
        Returns the signed delta actually applied.
        """
        grown = 0
        while True:
            with self._condition:
                if self._shutdown or self._live >= min(target, self.max_workers):
                    break
                worker_id = self._reserve_slot_locked()
            worker = self._spawn_reserved(worker_id)
            with self._condition:
                self._idle.append((worker, time.monotonic()))
                self._condition.notify()
            grown += 1
        if grown:
            return grown
        retired: list[_Worker] = []
        with self._condition:
            floor = max(target, self.min_workers)
            while self._idle and self._live - len(retired) > floor:
                worker, __ = self._idle.pop(0)  # oldest first
                retired.append(worker)
            self._live -= len(retired)
            self._stats["retired"] += len(retired)
            if retired:
                self._condition.notify_all()
        for worker in retired:
            worker.stop()
        return -len(retired)

    # -- Running -------------------------------------------------------------
    def run(
        self,
        spec: ExecutorSpec,
        workflow: str,
        instance: Instance,
        timeout: float | None = None,
    ) -> Outcome:
        """Execute one instance on a worker process (thread-safe).

        Retries crashed (and optionally timed-out) runs on replacement
        workers within the configured bounds, then raises.  The caller
        -- normally ``DebugSession.evaluate`` -- treats the raise as an
        uncompleted run and refunds its budget charge.
        """
        outcome, __, __, __ = self.run_traced(
            spec, workflow, instance, timeout=timeout
        )
        return outcome

    def run_traced(
        self,
        spec: ExecutorSpec,
        workflow: str,
        instance: Instance,
        timeout: float | None = None,
        trace: dict | None = None,
    ) -> tuple[Outcome, float, bool, dict | None]:
        """:meth:`run` plus provenance: ``(outcome, cost_seconds,
        from_store, span)``.  ``trace`` (a trace-context dict) rides the
        worker pipe; a traced reply carries the worker-minted child span
        (``{"trace": ..., "host": ..., "pid": ...}``), else None.
        """
        traces = None if trace is None else [trace]
        result = self.run_many(spec, workflow, [instance], timeout, traces)[0]
        if isinstance(result, BaseException):
            raise result
        return result

    def run_many(
        self,
        spec: ExecutorSpec,
        workflow: str,
        instances: Sequence[Instance],
        timeout: float | None = None,
        traces: Sequence[dict | None] | None = None,
    ) -> list[tuple[Outcome, float, bool, dict | None] | BaseException]:
        """Execute a batch with one pipe frame per worker (thread-safe).

        The batch is split into contiguous shares over the idle workers
        -- at least one, never waiting for a second -- and each worker
        answers its frame item by item.  A worker lost mid-frame (death
        or timeout) costs only its unanswered items: the one it was
        running consumes a retry of that fault class under the pool's
        :class:`~repro.exec.retry.RetryPolicy` (or ends with the fault
        once the retries are spent), and the rest are re-dispatched
        as they are.  ``timeout`` caps each item, measured from the
        previous reply of the same frame.

        Returns one result per item, in order: ``(outcome, cost_seconds,
        from_store, span)`` like :meth:`run_traced`, or the error the
        item ended with (:class:`RemoteRunError`, :class:`WorkerCrashed`,
        :class:`RunTimedOut`, :class:`PoolShutDown`, ...).
        """
        if timeout is None:
            timeout = self.run_timeout
        results: list = [None] * len(instances)
        retries: dict[int, object] = {}
        todo = list(range(len(instances)))
        while todo:
            try:
                workers = self._acquire_some(len(todo))
            except (PoolShutDown, TimeoutError) as error:
                for index in todo:
                    results[index] = error
                break
            share, extra = divmod(len(todo), len(workers))
            frames, start = [], 0
            for position, worker in enumerate(workers):
                size = share + (position < extra)
                frames.append(_Frame(worker, todo[start : start + size]))
                start += size
            todo = self._exchange(
                frames, spec, workflow, instances, traces, timeout, results, retries
            )
        return results

    def _exchange(
        self,
        frames: list["_Frame"],
        spec: ExecutorSpec,
        workflow: str,
        instances: Sequence[Instance],
        traces: Sequence[dict | None] | None,
        timeout: float | None,
        results: list,
        retries: dict,
    ) -> list[int]:
        """Send every frame, then read replies from whichever worker is
        ready (no thread per worker).  Fills ``results`` and returns the
        indices to re-dispatch."""
        live: dict[object, _Frame] = {}
        unsent = list(frames)
        again: list[int] = []
        delay = 0.0
        sent = runs = store_hits = 0

        def lost(frame: _Frame, kind: str, error: BaseException) -> None:
            """The frame's worker is gone: the item it was running
            consumes a ``kind`` retry (or ends with ``error``); the
            never-started rest travel again as they are."""
            nonlocal delay
            self._discard(frame.worker, kind)
            running, *rest = frame.items[frame.answered :]
            state = retries.get(running)
            if state is None:
                state = retries[running] = self.retry_policy.start()
            wait = state.next_delay(kind)
            if wait is None:
                results[running] = error
            else:
                rest.insert(0, running)
                delay = max(delay, wait)
                with self._condition:
                    self._stats["retries"] += 1
                    self._stats["backoff_seconds"] += wait
            again.extend(rest)

        try:
            while unsent:
                frame = unsent.pop(0)
                try:
                    frame.worker.send_frame(
                        spec,
                        workflow,
                        [instances[index] for index in frame.items],
                        None if traces is None else [traces[i] for i in frame.items],
                    )
                except OSError as error:  # includes a broken pipe
                    lost(frame, "crash", frame.worker.crashed(error))
                    continue
                except Exception as error:  # unpicklable: nothing was sent
                    for index in frame.items:
                        results[index] = error
                    self._release(frame.worker)
                    continue
                sent += 1
                frame.touch(timeout)
                live[frame.worker.conn] = frame
            while live:
                deadlines = [
                    frame.deadline
                    for frame in live.values()
                    if frame.deadline is not None
                ]
                ready = _wait_ready(
                    list(live),
                    max(0.0, min(deadlines) - time.monotonic())
                    if deadlines
                    else None,
                )
                if not ready:
                    now = time.monotonic()
                    for conn, frame in list(live.items()):
                        if frame.deadline is not None and frame.deadline <= now:
                            del live[conn]
                            lost(frame, "timeout", RunTimedOut(timeout or 0.0))
                    continue
                for conn in ready:
                    frame = live[conn]
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError) as error:
                        del live[conn]
                        lost(frame, "crash", frame.worker.crashed(error))
                        continue
                    index = frame.items[frame.answered]
                    frame.answered += 1
                    frame.worker.runs += 1
                    if reply[0] == "error":
                        # The pipeline raised; the worker is healthy.
                        results[index] = RemoteRunError(reply[1])
                    else:
                        __, value, cost, from_store, span = reply
                        results[index] = (Outcome(value), cost, from_store, span)
                        runs += 1
                        store_hits += bool(from_store)
                    if frame.answered == len(frame.items):
                        del live[conn]
                        self._release(frame.worker)
                    else:
                        frame.touch(timeout)
        except BaseException:
            for frame in unsent:
                self._release(frame.worker)
            for frame in live.values():  # mid-frame pipes are unusable
                self._discard(frame.worker, None)
            raise
        finally:
            with self._condition:
                self._stats["frames"] += sent
                self._stats["runs"] += runs
                self._stats["store_hits"] += store_hits
        if delay > 0:
            time.sleep(delay)
        return sorted(again)

    # -- Session-facing adapters ---------------------------------------------
    def executor(
        self,
        spec: ExecutorSpec,
        workflow: str = "process",
        timeout: float | None = None,
        trace: dict | None = None,
        emit: Callable | None = None,
    ) -> "ProcessExecutor":
        """An :class:`~repro.core.types.Executor` view over this pool."""
        return ProcessExecutor(
            self, spec, workflow=workflow, timeout=timeout, trace=trace, emit=emit
        )

    _backend_ids = itertools.count(1)

    def backend(self, job_id: str | None = None) -> "ProcessPoolBackend":
        """An :class:`~repro.core.session.ExecutionBackend` over this pool.

        Each backend gets its own queue in the pool-owned dispatch
        scheduler (distinct default job ids), so concurrent sessions'
        batches interleave fairly.
        """
        if job_id is None:
            job_id = f"process-batch-{next(self._backend_ids)}"
        return ProcessPoolBackend(self, job_id=job_id)

    def _dispatch_scheduler(self) -> SharedScheduler:
        """The pool-owned thread scheduler batch backends fan out on.

        One scheduler serves every backend of this pool (backends are
        distinguished by their per-job queues), created lazily and torn
        down with the pool -- no per-session thread pools to leak.
        """
        with self._condition:
            if self._shutdown:
                raise PoolShutDown("process pool is shut down")
            if self._batch_scheduler is None:
                self._batch_scheduler = SharedScheduler(
                    workers=self.max_workers, name="process-batch"
                )
            return self._batch_scheduler

    def session(
        self,
        spec: ExecutorSpec,
        space,
        workflow: str = "process",
        history=None,
        budget=None,
        parallel: bool = True,
        timeout: float | None = None,
        progress: Callable | None = None,
    ) -> DebugSession:
        """A ready-wired :class:`~repro.core.session.DebugSession`.

        ``parallel=True`` attaches a :class:`ProcessPoolBackend` so
        speculative batches (Section 4.3) fan out across worker
        processes; ``parallel=False`` keeps the session serial (fully
        deterministic) while still executing each run out-of-process.
        """
        return DebugSession(
            self.executor(spec, workflow=workflow, timeout=timeout),
            space,
            history=history,
            budget=budget,
            backend=self.backend() if parallel else None,
            progress=progress,
        )

    # -- Lifecycle -----------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every worker; subsequent runs raise :class:`PoolShutDown`."""
        with self._condition:
            if self._shutdown:
                return
            self._shutdown = True
            idle = [worker for worker, __ in self._idle]
            warming = self._warming
            self._idle, self._warming = [], []
            self._live -= len(idle) + len(warming)
            scheduler = self._batch_scheduler
            self._batch_scheduler = None
            self._condition.notify_all()
        if scheduler is not None:
            scheduler.shutdown()
        for worker in idle:
            worker.stop()
        for worker in warming:
            worker.kill()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


class ProcessExecutor:
    """Route single executor calls to the process pool.

    The in-process analogue is
    :class:`~repro.concurrency.scheduler.ScheduledExecutor`; here every
    call ships ``(spec, workflow, instance)`` to a worker process and
    blocks for the outcome, so a serial session transparently executes
    out-of-process and a scheduler-driven service can point its worker
    threads at one of these to bridge threads -> processes.  When the
    pool runs batches (``run_many``), the executor also offers the
    batch entry point ``many`` -- one pipe frame per worker for a whole
    speculative batch.
    """

    def __init__(
        self,
        pool: ProcessPool,
        spec: ExecutorSpec,
        workflow: str = "process",
        timeout: float | None = None,
        trace: dict | None = None,
        emit: Callable | None = None,
    ):
        self._pool = pool
        self._spec = spec
        self._workflow = workflow
        self._timeout = timeout
        self._trace = trace
        self._emit = emit
        if hasattr(pool, "run_many"):
            self.many = self._many  # batch entry point, only if pool has one

    @property
    def pool(self) -> ProcessPool:
        return self._pool

    @property
    def spec(self) -> ExecutorSpec:
        return self._spec

    def __call__(self, instance: Instance) -> Outcome:
        if self._trace is None:
            return self._pool.run(
                self._spec, self._workflow, instance, timeout=self._timeout
            )
        dispatch = self._dispatched()
        result = self._pool.run_traced(
            self._spec,
            self._workflow,
            instance,
            timeout=self._timeout,
            trace=dispatch,
        )
        self._completed(dispatch, *result)
        return result[0]

    def _many(self, instances: Sequence[Instance]) -> list[Outcome | BaseException]:
        traces = None
        if self._trace is not None:
            traces = [self._dispatched() for __ in instances]
        results = self._pool.run_many(
            self._spec,
            self._workflow,
            instances,
            timeout=self._timeout,
            traces=traces,
        )
        outcomes: list[Outcome | BaseException] = []
        for position, result in enumerate(results):
            if isinstance(result, BaseException):
                outcomes.append(result)
                continue
            if traces is not None:
                self._completed(traces[position], *result)
            outcomes.append(result[0])
        return outcomes

    # Traced dispatch: the executor mints a per-run child span (parented
    # on the job's context), ships it across the process boundary, and
    # publishes both edges of the hop -- the dispatch from this process
    # and the completion with the worker-minted grandchild span (which
    # carries the worker's host/pid).  Both events set their trace
    # fields explicitly, so the bus's bound job context does not
    # overwrite them (setdefault merge).
    def _dispatched(self) -> dict | None:
        dispatch = _child_trace(self._trace)
        if self._emit is not None and dispatch is not None:
            self._emit("run_dispatched", {**dispatch, "workflow": self._workflow})
        return dispatch

    def _completed(
        self,
        dispatch: dict | None,
        outcome: Outcome,
        cost: float,
        from_store: bool,
        span: dict | None,
    ) -> None:
        if self._emit is None:
            return
        payload = {
            "workflow": self._workflow,
            "outcome": outcome.value,
            "seconds": cost,
            "from_store": bool(from_store),
        }
        if isinstance(span, dict):
            trace = span.get("trace")
            if isinstance(trace, dict):
                payload.update(trace)
            for key in ("worker", "host", "pid"):
                if key in span:
                    payload[key] = span[key]
        elif dispatch is not None:
            payload.update(dispatch)
        self._emit("run_completed", payload)


class ProcessPoolBackend(SchedulerBackend):
    """Per-session :class:`~repro.core.session.ExecutionBackend` view.

    Batch tasks are session closures, so they cannot cross the process
    boundary themselves; they run on the *pool-owned*
    :class:`~repro.concurrency.scheduler.SharedScheduler` (one per pool,
    sized to it, torn down with it).  A batch-capable executor turns a
    whole speculative batch into one such task whose ``run_many`` ships
    one pipe frame per worker.
    """

    def __init__(self, pool: ProcessPool, job_id: str = "process-batch"):
        super().__init__(pool._dispatch_scheduler(), job_id)
        self._pool = pool

    @property
    def pool(self) -> ProcessPool:
        return self._pool
