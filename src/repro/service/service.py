"""DebugService: many concurrent debugging jobs over shared infrastructure.

This is the production-shaped layer the ROADMAP's north star asks for:
clients submit :class:`~repro.service.jobs.JobSpec`s and the service

1. builds a per-job :class:`~repro.core.session.DebugSession` whose
   budget/history accounting stays exactly the paper's (each job is
   charged for instances new *to it*),
2. routes every pipeline execution through one
   :class:`~repro.concurrency.SharedScheduler` (fair, elastic,
   budget-aware worker pool), and
3. deduplicates executions across jobs -- and across service restarts --
   via the :class:`~repro.service.cache.ExecutionCache`, optionally
   backed by a :class:`~repro.provenance.store.SQLiteProvenanceStore`.

Jobs run on a *bounded pool* of lightweight controller threads (the
algorithm logic is cheap; the pipeline executions it requests are the
expensive part and those are throttled by the shared pool), so a
service with 8 workers can happily multiplex dozens of in-flight jobs
-- and an always-on front-end accepting jobs for days cannot leak one
thread per accepted job: accepted jobs queue, controllers are reused,
and idle controllers retire.
"""

from __future__ import annotations

import collections
import hashlib
import json
import threading
import time

from ..concurrency import SharedScheduler
from ..core.budget import InstanceBudget
from ..core.bugdoc import BugDoc
from ..core.session import DebugSession
from ..core.stacked import DEFAULT_STACK_WIDTH
from ..exec.events import EventBus
from ..exec.autoscale import AdaptiveSizer
from ..exec.pool import ProcessPool
from ..obs.metrics import EventMetrics, MetricsRegistry
from ..obs.sink import DurableEventBus
from ..provenance.store import ProvenanceStore, space_key
from .cache import CachedExecutor, ExecutionCache
from .jobs import JobCancelled, JobGoal, JobHandle, JobResult, JobSpec, JobStatus

__all__ = ["DebugService", "report_fingerprint", "spec_fingerprint"]


def spec_fingerprint(spec: JobSpec) -> str:
    """Content fingerprint of what a job *asks for*.

    Two submissions with the same fingerprint request the same debugging
    work: same workflow, algorithm, goal, budget, seed, parameter space
    (via its interned code tables) and -- for process jobs -- the same
    executor spec.  In-process callables cannot be fingerprinted, so
    they contribute only their presence.  This is the grouping key
    ``repro query`` aggregates by across runs.
    """
    executor = (
        spec.executor_spec.fingerprint
        if spec.executor_spec is not None
        else ("inline" if spec.executor is not None else None)
    )
    payload = json.dumps(
        {
            "workflow": spec.workflow,
            "algorithm": spec.algorithm.value,
            "goal": spec.goal.value,
            "budget": spec.budget,
            "seed": spec.seed,
            "space": space_key(spec.space),
            "executor": executor,
            "stack_width": spec.stack_width,
            "parallel_batches": spec.parallel_batches,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


def report_fingerprint(result: JobResult) -> str:
    """Content fingerprint of what a job *produced*.

    Hashes the externally-meaningful outcome -- status, root causes,
    budget accounting -- so byte-identical debugging results compare
    equal across persistence modes and service restarts (the
    ``bench_event_overhead`` identity gate compares exactly this).
    """
    causes = None
    if result.report is not None:
        causes = sorted(str(cause) for cause in result.report.causes)
    payload = json.dumps(
        {
            "status": result.status.value,
            "causes": causes,
            "budget_spent": result.budget_spent,
            "new_executions": result.new_executions,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:32]


class _CancellationGuard:
    """Executor wrapper that stops a cancelled job at the next slice.

    Sits between the scheduler and the cached executor, so the check
    runs on the worker slot right before the pipeline would execute:
    requests queued when :meth:`JobHandle.cancel` lands resolve by
    raising :class:`~repro.service.jobs.JobCancelled` instead of
    running, and the session refunds their budget charge.  A speculative
    batch is one slice: it is checked once, before it is dispatched.
    """

    __slots__ = ("_inner", "_cancel", "_job_id", "many")

    def __init__(self, inner, cancel_event: threading.Event, job_id: str):
        self._inner = inner
        self._cancel = cancel_event
        self._job_id = job_id
        if hasattr(inner, "many"):
            self.many = self._many  # batch entry point, only if inner has one

    def __call__(self, instance):
        if self._cancel.is_set():
            raise JobCancelled(self._job_id)
        return self._inner(instance)

    def _many(self, instances):
        if self._cancel.is_set():
            raise JobCancelled(self._job_id)
        return self._inner.many(instances)


class DebugService:
    """Concurrent debugging-job service.

    Args:
        workers: service-wide cap on concurrent pipeline executions.
        cache: shared execution cache; built internally when omitted.
        store: convenience -- when given (and ``cache`` is omitted), the
            internal cache is backed by this persistent provenance
            store, making outcomes durable across services.
        max_concurrent_jobs: cap on jobs running at once; further
            submissions queue (admission control, not an error).  This
            is the controller-pool size: a job only runs while one of
            the pooled controller threads holds it, so the cap also
            bounds the service's thread footprint.
        cache_max_entries: optional LRU bound on the internal cache's
            in-memory tier, for long-lived services whose outcome sets
            would otherwise grow without bound.  Ignored when an
            explicit ``cache`` is passed (bound it at construction).
        weighted_fairness: honor :attr:`JobSpec.priority` as a
            round-robin weight in the shared scheduler.  Off by default,
            which preserves the original unweighted FIFO round-robin
            regardless of submitted priorities.
        pool: optional :class:`~repro.exec.pool.ProcessPool` or
            :class:`~repro.exec.remote.RemoteWorkerPool` (any object
            with the pool contract: ``executor()`` + ``stats()``).
            Jobs whose spec carries an ``executor_spec`` then execute
            their pipelines *out of process* (or on the remote fleet):
            the service's scheduler worker threads dispatch each run to
            a pool worker, while budget/history accounting, the shared
            cache, and cancellation stay in-parent and unchanged.  The
            pool is not owned: :meth:`shutdown` leaves it running for
            other owners.  A fleet pool additionally gets the service's
            event bus bound (``bind_events``), so membership changes
            land in the durable telemetry log under the ``fleet`` job.
        autoscale: size the attached pool adaptively from live
            scheduler queue depth (an
            :class:`~repro.exec.autoscale.AdaptiveSizer` owned and torn
            down by the service) instead of leaving it at its fixed
            construction size.  The decision trail surfaces in
            ``stats()["pool"]["autoscale"]``.
        persist_events: write job event logs through to the provenance
            store (on by default; effective only when the service's
            cache is backed by a schema-v4 store).  Readers then replay
            persisted prefixes transparently after a restart.  Pass
            False to keep event logs in-memory only.

    Typical use::

        with DebugService(workers=8) as service:
            handles = [service.submit(spec) for spec in specs]
            results = [handle.result() for handle in handles]
    """

    def __init__(
        self,
        workers: int = 5,
        cache: ExecutionCache | None = None,
        store: ProvenanceStore | None = None,
        max_concurrent_jobs: int | None = None,
        cache_max_entries: int | None = None,
        weighted_fairness: bool = False,
        pool: ProcessPool | None = None,
        persist_events: bool = True,
        autoscale: bool = False,
    ):
        if cache is not None and store is not None:
            raise ValueError("pass either a cache or a store, not both")
        if cache is not None and cache_max_entries is not None:
            raise ValueError(
                "cache_max_entries applies to the internally-built cache; "
                "bound an explicit cache at its construction instead"
            )
        if max_concurrent_jobs is not None and max_concurrent_jobs < 1:
            raise ValueError("max_concurrent_jobs must be at least 1")
        self._scheduler = SharedScheduler(
            workers=workers,
            name="debug-service",
            weighted_fairness=weighted_fairness,
        )
        self._cache = (
            cache
            if cache is not None
            else ExecutionCache(store=store, max_entries=cache_max_entries)
        )
        self._pool = pool
        # Durable telemetry: when the cache is backed by a schema-v4
        # provenance store, job event logs are written through to it
        # (batched off the hot path) and readers transparently replay
        # persisted prefixes after a restart.  ``persist_events=False``
        # opts out (the event-overhead benchmark's baseline).
        event_store = store if store is not None else self._cache.store
        if persist_events and hasattr(event_store, "append_job_events"):
            self._events: EventBus = DurableEventBus(event_store)
        else:
            self._events = EventBus()
        self._metrics = MetricsRegistry()
        # Fleet pools publish membership lifecycle (joins, suspicions,
        # evictions, rejoins) into the same -- possibly durable -- bus
        # as job progress, under the "fleet" job id.
        if pool is not None and hasattr(pool, "bind_events"):
            pool.bind_events(self._events)
        self._sizer = None
        if autoscale and pool is not None:
            self._sizer = AdaptiveSizer(
                pool, depth=lambda: self._scheduler.pending
            )
        self._jobs: dict[str, JobHandle] = {}
        self._lock = threading.Lock()
        # Bounded admission: accepted jobs queue on a deque served by a
        # pool of reusable controller threads instead of spawning one
        # thread per job.  ``max_concurrent_jobs`` *is* the controller
        # cap (a job only runs while a controller holds it); without an
        # explicit cap the pool is still bounded -- generously, so
        # unconstrained workloads behave as before -- and idle
        # controllers retire after a grace period.
        self._pending: collections.deque[JobHandle] = collections.deque()
        self._work = threading.Condition()
        self._controllers = 0
        self._idle_controllers = 0
        self._controller_serial = 0
        self._max_controllers = (
            max_concurrent_jobs
            if max_concurrent_jobs is not None
            else max(32, workers * 4)
        )
        self._controller_idle_seconds = 2.0
        self._shutdown = False

    # -- Introspection -------------------------------------------------------
    @property
    def scheduler(self) -> SharedScheduler:
        return self._scheduler

    @property
    def cache(self) -> ExecutionCache:
        return self._cache

    @property
    def events(self) -> EventBus:
        """The service-wide job event bus (see ``JobHandle.events``)."""
        return self._events

    @property
    def pool(self) -> ProcessPool | None:
        """The attached process pool, if any (not owned by the service)."""
        return self._pool

    @property
    def metrics(self) -> MetricsRegistry:
        """The service-wide metrics registry (``repro serve --metrics``)."""
        return self._metrics

    @property
    def jobs(self) -> dict[str, JobHandle]:
        with self._lock:
            return dict(self._jobs)

    def stats(self) -> dict[str, object]:
        """Service-wide counters for dashboards and the CLI."""
        with self._lock:
            statuses: dict[str, int] = {}
            for handle in self._jobs.values():
                key = handle.status.value
                statuses[key] = statuses.get(key, 0) + 1
        with self._work:
            admission = {
                "pending": len(self._pending),
                "controllers": self._controllers,
                "idle_controllers": self._idle_controllers,
                "max_controllers": self._max_controllers,
            }
        stats: dict[str, object] = {
            "jobs": statuses,
            "admission": admission,
            "scheduler": self._scheduler.stats_snapshot(),
            "cache": self._cache.stats.snapshot(),
        }
        if self._pool is not None:
            stats["pool"] = self._pool.stats()
        if isinstance(self._events, DurableEventBus):
            # Barrier first: without it a stats call racing the
            # flusher's coalesce window undercounts `flushed`.
            self._events.flush(timeout=5.0)
            stats["events"] = self._events.sink.stats()
        return stats

    # -- Submission ----------------------------------------------------------
    def submit(self, spec: JobSpec) -> JobHandle:
        """Accept a job and queue it for a pooled controller thread."""
        with self._lock:
            if self._shutdown:
                raise RuntimeError("service is shut down")
            if spec.job_id in self._jobs:
                raise ValueError(f"duplicate job id {spec.job_id!r}")
            handle = JobHandle(spec)
            handle._bus = self._events
            self._jobs[spec.job_id] = handle
            if spec.trace is not None:
                # Stamp the submission-edge trace context on every event
                # this job publishes (child spans published by dispatch
                # and workers carry their own ids and win the merge).
                self._events.bind_context(spec.job_id, spec.trace)
            # Everything between acceptance and the controller handoff
            # happens under the same lock as the shutdown check:
            # shutdown() flips _shutdown under this lock *before* it
            # drains the bus, so it can never interleave between a
            # job's registration and its "submitted" event / dispatch.
            # (Publishing first also keeps "submitted" the guaranteed
            # head of every job's stream.)
            self._events.publish(
                spec.job_id,
                "submitted",
                {
                    "workflow": spec.workflow,
                    "algorithm": spec.algorithm.value,
                    "goal": spec.goal.value,
                    "budget": spec.budget,
                    "process": spec.executor_spec is not None
                    and self._pool is not None,
                    "spec_fingerprint": spec_fingerprint(spec),
                },
            )
            if spec.priority != 1:
                self._scheduler.set_priority(spec.job_id, spec.priority)
            self._dispatch(handle)
        return handle

    def _dispatch(self, handle: JobHandle) -> None:
        """Queue a handle for the controller pool, growing it if needed."""
        with self._work:
            self._pending.append(handle)
            if self._idle_controllers > 0:
                self._work.notify()
            elif self._controllers < self._max_controllers:
                self._controllers += 1
                self._controller_serial += 1
                threading.Thread(
                    target=self._controller_loop,
                    name=f"debug-controller-{self._controller_serial}",
                    daemon=True,
                ).start()
            # else: every controller is busy; the handle waits its turn
            # (admission control, not an error).

    def _controller_loop(self) -> None:
        """One pooled controller: run queued jobs until idle, then retire.

        Retirement is decided under the work lock with the queue
        observed empty, and growth spawns a controller whenever no idle
        one exists -- so a pending handle always has a controller bound
        for it and none can be stranded.
        """
        while True:
            with self._work:
                while not self._pending:
                    self._idle_controllers += 1
                    signalled = self._work.wait(self._controller_idle_seconds)
                    self._idle_controllers -= 1
                    if not self._pending and not signalled:
                        self._controllers -= 1
                        return
                handle = self._pending.popleft()
            self._run_job(handle)

    def cancel(self, job_id: str) -> bool:
        """Request cancellation of a submitted job (see
        :meth:`JobHandle.cancel` for the exact semantics).

        Returns:
            True when the request was registered before the job reached
            a terminal state.

        Raises:
            KeyError: for an unknown job id.
        """
        with self._lock:
            handle = self._jobs[job_id]
        return handle.cancel()

    def run_all(self, specs, timeout: float | None = None) -> list[JobResult]:
        """Submit every spec and wait for all results (submission order).

        ``timeout`` is an overall deadline for the whole batch, not a
        per-job allowance.  When it expires, every remaining handle is
        still polled (a job that finished after an earlier one timed
        out is collected, not orphaned) and *then* one
        :class:`TimeoutError` is raised naming every job still
        unfinished after the sweep.  The jobs themselves keep running
        and every result -- collected or not -- stays retrievable via
        the service's ``jobs`` handles.
        """
        handles = [self.submit(spec) for spec in specs]
        deadline = None if timeout is None else time.monotonic() + timeout
        collected: dict[str, JobResult] = {}
        for handle in handles:
            remaining = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            try:
                collected[handle.job_id] = handle.result(remaining)
            except TimeoutError:
                continue  # sweep the rest; stragglers are named below
        pending = [h.job_id for h in handles if h.job_id not in collected]
        if pending:
            raise TimeoutError(
                f"batch deadline of {timeout}s expired with "
                f"{len(pending)} job(s) unfinished: {pending}; "
                "they continue running -- collect them via "
                "service.jobs[...].result()"
            )
        return [collected[handle.job_id] for handle in handles]

    # -- Session wiring ------------------------------------------------------
    def build_session(
        self,
        spec: JobSpec,
        cancel_event: threading.Event | None = None,
        progress=None,
    ) -> DebugSession:
        """The per-job session, wired into the shared scheduler + cache.

        Exposed so advanced clients can drive a session directly while
        still sharing the service's infrastructure.  ``cancel_event``
        (set by the job's handle) arms the per-slice cancellation check;
        ``progress`` becomes the session's neutral event hook.
        """
        session, __ = self._build_session_parts(spec, cancel_event, progress)
        return session

    def _inner_executor(self, spec: JobSpec):
        """The job's innermost executor: in-process or process-pool."""
        if spec.executor_spec is not None and self._pool is not None:
            return self._pool.executor(
                spec.executor_spec,
                workflow=spec.workflow,
                trace=spec.trace,
                emit=(
                    self._events.publisher(spec.job_id)
                    if spec.trace is not None
                    else None
                ),
            )
        if spec.executor is None:
            raise ValueError(
                f"job {spec.job_id!r} has only an executor_spec but the "
                "service was built without a process pool"
            )
        return spec.executor

    def _build_session_parts(
        self,
        spec: JobSpec,
        cancel_event: threading.Event | None,
        progress,
    ) -> tuple[DebugSession, CachedExecutor]:
        cached = self._cache.executor(spec.workflow, self._inner_executor(spec))
        guarded = cached
        if cancel_event is not None:
            guarded = _CancellationGuard(guarded, cancel_event, spec.job_id)
        history = None
        if spec.history is not None:
            # Prior provenance is free for the submitting job (its
            # session seeds from it) and, being deterministic outcomes
            # of the same workflow, it warms the shared cache for every
            # other job too.  The session gets its own copy: histories
            # are mutated in place, and clients may share one
            # ExecutionHistory object across specs.
            self._cache.warm(spec.workflow, spec.history)
            history = spec.history.copy()
        budget = InstanceBudget(spec.budget)
        # Every execution is routed through the shared pool, so the
        # service-wide worker cap and fair interleave apply to single
        # evaluations too.  Calls that already run on a worker slot
        # (batch tasks) execute inline -- see ScheduledExecutor.
        scheduled = self._scheduler.executor(spec.job_id, guarded)
        session = DebugSession(
            scheduled,
            spec.space,
            history=history,
            budget=budget,
            # Speculative batches (Section 4.3) additionally fan out on
            # the shared pool; a serial session stays deterministic.
            backend=(
                self._scheduler.backend(spec.job_id)
                if spec.parallel_batches
                else None
            ),
            progress=progress,
        )
        return session, cached

    # -- Job execution -------------------------------------------------------
    def _run_job(self, handle: JobHandle) -> None:
        spec = handle.spec
        started = time.perf_counter()
        session: DebugSession | None = None
        cached: CachedExecutor | None = None
        engine_stats: dict[str, int] | None = None
        # Every job event flows through the metrics adapter: forwarded
        # to the bus unchanged, counted into the service registry, and
        # tallied per job for the terminal metrics_snapshot event.
        progress = EventMetrics(
            self._events.publisher(spec.job_id), self._metrics
        )
        try:
            # A job cancelled while queued behind admission control (or
            # between submit and start) never builds a session at all.
            handle.check_cancelled()
            handle._mark_running()
            self._events.publish(spec.job_id, "started")
            build_started = time.perf_counter()
            session, cached = self._build_session_parts(
                spec,
                handle._cancel,
                progress,
            )
            # Session construction covers the persistence-facing setup:
            # warming the shared cache from prior provenance and (on
            # store-backed services) hydrating interned code tables.
            progress(
                "span",
                {
                    "name": "persistence",
                    "seconds": time.perf_counter() - build_started,
                },
            )
            handle.session = session
            value: object = None
            report = None
            if spec.run is not None:
                value = spec.run(session)
            else:
                bugdoc = BugDoc(session=session, seed=spec.seed)
                stack_width = (
                    spec.stack_width
                    if spec.stack_width is not None
                    else DEFAULT_STACK_WIDTH
                )
                if spec.goal is JobGoal.FIND_ALL:
                    # Invalid algorithm/goal combinations were rejected
                    # at JobSpec construction time.
                    report = bugdoc.find_all(
                        spec.algorithm,
                        stack_width=stack_width,
                        ddt_config=spec.ddt_config,
                    )
                else:
                    report = bugdoc.find_one(
                        spec.algorithm,
                        stack_width=stack_width,
                        ddt_config=spec.ddt_config,
                    )
                engine_stats = bugdoc.strategy_context.engine_stats()
            result = JobResult(
                job_id=spec.job_id,
                status=JobStatus.SUCCEEDED,
                report=report,
                value=value,
                budget_spent=session.budget.spent,
                new_executions=session.new_executions,
                wall_seconds=time.perf_counter() - started,
                cache_stats=cached.stats_snapshot(),
                engine_stats=engine_stats,
            )
        except BaseException as error:  # job isolation: never kill the service
            with self._lock:
                shutting_down = self._shutdown
            # A job torn down by an explicit cancel() or by service
            # shutdown was cancelled, not broken -- do not masquerade as
            # a genuine failure.
            cancelled = isinstance(error, JobCancelled) or shutting_down
            # The unwind abandoned any sibling batch requests still on
            # workers; let them settle (each is charged at entry and
            # completed-or-refunded at exit) so the reported accounting
            # is consistent.  Cancelled siblings fail fast at the guard.
            # A pipeline stuck past the grace period cannot hold
            # teardown hostage: the result is then flagged unsettled.
            settled = self._scheduler.wait_quiescent(spec.job_id, timeout=30.0)
            result = JobResult(
                job_id=spec.job_id,
                status=JobStatus.CANCELLED if cancelled else JobStatus.FAILED,
                error=error,
                budget_spent=session.budget.spent if session is not None else 0,
                new_executions=(
                    session.new_executions if session is not None else 0
                ),
                wall_seconds=time.perf_counter() - started,
                cache_stats=(
                    cached.stats_snapshot() if cached is not None else None
                ),
                engine_stats=engine_stats,
                accounting_settled=settled,
            )
        finally:
            self._scheduler.clear_priority(spec.job_id)
        self._publish_metrics_snapshot(progress, result)
        self._publish_finished(result)
        handle._finish(result)

    @staticmethod
    def _publish_metrics_snapshot(
        progress: EventMetrics, result: JobResult
    ) -> None:
        """The job's penultimate event: its own telemetry rollup.

        Event counts and span totals (from the metrics adapter) plus
        the cache/engine counter snapshots, so per-job breakdowns stay
        queryable from the durable event log alone.  Best-effort, like
        every observability path.
        """
        try:
            payload = progress.snapshot_payload()
            payload["cache"] = result.cache_stats
            payload["engine"] = result.engine_stats
            progress("metrics_snapshot", payload)
        except Exception:
            pass

    def _publish_finished(self, result: JobResult) -> None:
        """Close the job's event stream with its terminal event.

        Published from every teardown path -- success, failure, and
        cancellation -- *before* the handle resolves, so a client that
        waited on ``result()`` already finds the complete stream.  Must
        never prevent the handle from resolving.
        """
        causes = None
        if result.report is not None:
            causes = [str(cause) for cause in result.report.causes]
        try:
            self._events.publish(
                result.job_id,
                "finished",
                {
                    "status": result.status.value,
                    "budget_spent": result.budget_spent,
                    "new_executions": result.new_executions,
                    "wall_seconds": result.wall_seconds,
                    "causes": causes,
                    "error": (
                        repr(result.error) if result.error is not None else None
                    ),
                    "report_fingerprint": report_fingerprint(result),
                },
                close=True,
            )
        except Exception:
            pass

    # -- Lifecycle -----------------------------------------------------------
    def discard_job(self, job_id: str) -> None:
        """Forget a finished job's handle *and* its event log.

        Handles and event logs are retained so late clients can collect
        results and replay complete streams; a long-lived service that
        churns through many jobs calls this once a job's result and
        events have been consumed, bounding both tables.

        Raises:
            KeyError: for an unknown job id.
            ValueError: for a job that has not reached a terminal state
                (discarding a live job would orphan its events).
        """
        with self._lock:
            handle = self._jobs[job_id]
            if not handle.status.terminal:
                raise ValueError(f"job {job_id!r} is still {handle.status.value}")
            del self._jobs[job_id]
        self._events.discard(job_id)

    def shutdown(self) -> None:
        """Stop accepting jobs and tear down the scheduler.

        Queued execution requests are rejected; still-running jobs see
        their next request error and finish with status CANCELLED.
        Live event firehoses end; per-job logs stay publishable so
        those teardowns still land their terminal events.
        """
        with self._lock:
            self._shutdown = True
        if self._sizer is not None:
            self._sizer.stop()
        self._scheduler.shutdown()
        self._events.shutdown()
        if isinstance(self._events, DurableEventBus):
            # Drain the sink and switch it to synchronous writes, so
            # jobs still tearing down after shutdown land their terminal
            # events in the store (the bus keeps accepting them).
            self._events.close()

    def __enter__(self) -> "DebugService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
