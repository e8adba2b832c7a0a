"""Job model for the debugging service.

A *job* is one complete debugging request: a black-box executor, the
parameter space it is debugged over, the algorithm to run, and the
budget the client is willing to spend -- i.e. everything a standalone
:class:`~repro.core.bugdoc.BugDoc` invocation needs, packaged so a
:class:`~repro.service.service.DebugService` can run many of them
concurrently over one shared scheduler and execution cache.
"""

from __future__ import annotations

import enum
import threading
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from ..core.bugdoc import Algorithm, BugDocReport
from ..core.ddt import DDTConfig
from ..core.history import ExecutionHistory
from ..core.session import DebugSession
from ..core.types import Executor, ParameterSpace
from ..exec.events import EventBus, JobEvent
from ..exec.spec import ExecutorSpec
from .cache import DEFAULT_WORKFLOW

__all__ = [
    "JobCancelled",
    "JobGoal",
    "JobSpec",
    "JobStatus",
    "JobResult",
    "JobHandle",
]


class JobCancelled(BaseException):
    """Raised inside a cancelled job's execution path.

    Deliberately *not* an :class:`Exception`: speculative-batch items
    swallow ordinary executor errors (``except Exception -> None``), and
    a cancellation must unwind the whole controller thread instead of
    degrading into dropped batch items.  The session's budget refund
    handles ``BaseException``, so an execution aborted by cancellation
    is never charged -- a cancelled job stops spending budget at the
    next scheduler slice.
    """

    def __init__(self, job_id: str):
        super().__init__(f"job {job_id!r} was cancelled")
        self.job_id = job_id


class JobGoal(enum.Enum):
    """Which of the paper's two problem goals (Section 3) the job targets."""

    FIND_ONE = "find_one"
    FIND_ALL = "find_all"


class JobStatus(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobStatus.SUCCEEDED, JobStatus.FAILED, JobStatus.CANCELLED)


@dataclass
class JobSpec:
    """Everything needed to run one debugging job.

    Attributes:
        job_id: unique identifier within the service.
        executor: the black-box pipeline.  The service wraps it with the
            shared execution cache keyed by ``workflow`` -- jobs naming
            the same workflow share outcomes.  May be None when
            ``executor_spec`` is provided (process execution).
        executor_spec: optional :class:`~repro.exec.spec.ExecutorSpec`.
            On a service built with a process pool, the job's pipeline
            then executes *out of process*: the spec is shipped to pool
            workers and the in-parent executor chain (cache,
            cancellation guard, scheduler) dispatches to them.  When
            both ``executor`` and ``executor_spec`` are given, the spec
            wins on a pool-equipped service and ``executor`` is the
            in-process fallback elsewhere.
        space: the manipulable parameter space.
        workflow: cache/provenance key; jobs with equal workflows are
            assumed to debug the same (deterministic) pipeline.
        algorithm: the debugging strategy to run.
        goal: FindOne or FindAll (Section 3).
        budget: cap on *new* executions charged to this job, or None.
        priority: round-robin weight for the shared scheduler (>= 1).
            Takes effect only on a service built with
            ``weighted_fairness=True``, where a weight-``w`` job is
            served up to ``w`` consecutive requests per fairness turn;
            otherwise ignored.  The default of 1 preserves the plain
            FIFO round-robin.
        history: prior provenance seeded free of charge.
        seed: RNG seed for the job's instance sampling.
        ddt_config: optional decision-tree configuration.
        stack_width: Stacked Shortcut width.
        parallel_batches: when True the job's session fans speculative
            batches out through the shared scheduler (Section 4.3
            semantics: batch items may be dropped on budget exhaustion,
            and history order depends on completion order).  When False
            the session stays serial -- deterministic per job -- and
            only individual executions go through the shared pool.
        run: escape hatch: a custom job body ``(session) -> result``;
            when set it replaces the BugDoc invocation entirely (used by
            stress tests and bespoke clients).
        trace: optional trace-context dict (``trace_id``/``span_id``/
            ``parent_id``, the wire form of
            :class:`~repro.obs.trace.TraceContext`) minted at the
            submission edge.  The service stamps it on every event the
            job publishes and carries it to pool/fleet workers, so one
            ``trace_id`` spans every process the job touches.
    """

    job_id: str
    executor: Executor | None
    space: ParameterSpace
    workflow: str = DEFAULT_WORKFLOW
    executor_spec: ExecutorSpec | None = None
    algorithm: Algorithm = Algorithm.COMBINED
    goal: JobGoal = JobGoal.FIND_ONE
    budget: int | None = None
    priority: int = 1
    history: ExecutionHistory | None = None
    seed: int = 0
    ddt_config: DDTConfig | None = None
    stack_width: int | None = None
    parallel_batches: bool = False
    run: Callable[[DebugSession], object] | None = None
    trace: dict | None = None

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ValueError("job_id must be non-empty")
        if self.executor is None and self.executor_spec is None:
            raise ValueError("pass an executor, an executor_spec, or both")
        if self.budget is not None and self.budget < 0:
            raise ValueError("budget must be non-negative")
        if self.priority < 1:
            raise ValueError("priority must be at least 1")
        if self.run is None and self.goal is JobGoal.FIND_ALL and self.algorithm in (
            Algorithm.SHORTCUT,
            Algorithm.STACKED_SHORTCUT,
        ):
            raise ValueError(
                "the shortcut algorithms target FindOne; use DECISION_TREES "
                "or COMBINED for FindAll jobs"
            )


@dataclass
class JobResult:
    """Terminal outcome of one job.

    Attributes:
        job_id: the job this result belongs to.
        status: SUCCEEDED / FAILED / CANCELLED.
        report: the BugDoc report (None for custom ``run`` bodies or
            failed jobs).
        value: raw return of a custom ``run`` body.
        error: the exception that failed the job, if any.
        budget_spent: executions charged to the job's budget.
        new_executions: instances this job's session executed (new to
            its own history; shared-cache hits still count, matching
            the paper's per-algorithm cost accounting).
        wall_seconds: job wall-clock time inside the service.
        cache_stats: this job's view of the shared execution cache
            (``requests`` routed through it, ``executions`` its own
            inner executor ran, ``hits`` served by the shared tiers);
            None for jobs that never built a session.
        engine_stats: the job's columnar-engine counter snapshot
            (``fallbacks``, compile-cache and match-table traffic,
            ``shards`` / ``shard_rows`` and the match-table footprint; see
            :meth:`~repro.core.engine.ColumnarEngine.stats`), or None
            for custom ``run`` bodies, reference-engine jobs, and jobs
            that never built a strategy context.
        accounting_settled: True when every execution request the job
            issued had resolved before the counters were read.  False
            only on an abnormal teardown (cancellation/failure) where a
            pipeline execution outlived the drain grace period: the
            counters are then a best-effort snapshot, and the stuck
            execution's entry charge settles after this result is
            published.
    """

    job_id: str
    status: JobStatus
    report: BugDocReport | None = None
    value: object = None
    error: BaseException | None = None
    budget_spent: int = 0
    new_executions: int = 0
    wall_seconds: float = 0.0
    cache_stats: dict[str, int] | None = None
    engine_stats: dict[str, int] | None = None
    accounting_settled: bool = True

    @property
    def succeeded(self) -> bool:
        return self.status is JobStatus.SUCCEEDED

    def to_dict(self) -> dict[str, object]:
        """JSON-friendly summary (used by ``repro serve --output json``)."""
        causes: list[str] = []
        if self.report is not None:
            causes = [str(cause) for cause in self.report.causes]
        return {
            "job_id": self.job_id,
            "status": self.status.value,
            "causes": causes,
            "budget_spent": self.budget_spent,
            "new_executions": self.new_executions,
            "wall_seconds": self.wall_seconds,
            "cache": dict(self.cache_stats) if self.cache_stats else None,
            "engine": dict(self.engine_stats) if self.engine_stats else None,
            "error": repr(self.error) if self.error is not None else None,
        }


class JobHandle:
    """Client-side view of a submitted job.

    Cancellation: :meth:`cancel` requests a cooperative stop.  The
    request is honored *between scheduler slices* -- the next execution
    the job asks for raises :class:`JobCancelled` instead of running (so
    no further budget is charged; the aborted request itself is
    refunded), the controller thread unwinds, and the job finishes with
    :attr:`JobStatus.CANCELLED`.  Executions already running on a worker
    complete normally (black-box pipelines cannot be interrupted
    mid-run); their outcomes still land in the shared cache.
    """

    def __init__(self, spec: JobSpec):
        self.spec = spec
        self._done = threading.Event()
        self._cancel = threading.Event()
        self._result: JobResult | None = None
        self._status = JobStatus.PENDING
        self._lock = threading.Lock()
        self._callbacks: list[Callable[["JobHandle"], object]] = []
        self.session: DebugSession | None = None  # set by the service
        self._bus: EventBus | None = None  # set by the service

    @property
    def job_id(self) -> str:
        return self.spec.job_id

    @property
    def status(self) -> JobStatus:
        with self._lock:
            return self._status

    # -- Cancellation ---------------------------------------------------------
    def cancel(self) -> bool:
        """Request cancellation of this job.

        Returns:
            True when the request was registered before the job reached
            a terminal state; False when the job had already finished
            (the existing result stands).  Idempotent: repeated calls
            on a live job return True.
        """
        with self._lock:
            if self._status.terminal:
                return False
            self._cancel.set()
        return True

    @property
    def cancel_requested(self) -> bool:
        """True once :meth:`cancel` has been called on a live job."""
        return self._cancel.is_set()

    def check_cancelled(self) -> None:
        """Raise :class:`JobCancelled` when cancellation was requested.

        Custom ``run`` bodies with long algorithm-side loops (no
        executions) can poll this to honor cancellation promptly.
        """
        if self._cancel.is_set():
            raise JobCancelled(self.job_id)

    def _mark_running(self) -> None:
        with self._lock:
            if self._status is JobStatus.PENDING:
                self._status = JobStatus.RUNNING

    def _finish(self, result: JobResult) -> None:
        with self._lock:
            self._status = result.status
            self._result = result
            callbacks = list(self._callbacks)
            # Set under the lock: a concurrent add_done_callback either
            # sees _done set (and fires immediately) or appends before
            # this snapshot -- no registration can fall between.
            self._done.set()
        for callback in callbacks:
            try:
                callback(self)
            except Exception:
                pass  # observers must never break the teardown path

    def add_done_callback(
        self, callback: Callable[["JobHandle"], object]
    ) -> None:
        """Run ``callback(handle)`` once the job reaches a terminal state.

        Fires on the job's controller thread after the result is
        readable (``result()`` returns without blocking inside the
        callback); fires immediately on the caller's thread when the
        job is already terminal.  Exceptions are swallowed: observers
        (the durable queue's ``done`` transition, notification hooks)
        must never break a job teardown.  Callbacks run in
        registration order.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        try:
            callback(self)
        except Exception:
            pass

    # -- Progress streaming ---------------------------------------------------
    def events(
        self, start: int = 0, timeout: float | None = None
    ) -> Iterator[JobEvent]:
        """Iterate this job's event stream, complete and in order.

        Replays from the beginning (or ``start``) no matter when it is
        called and ends after the terminal ``finished`` event -- no
        event is lost on completion, cancellation, or failure (the
        service always closes the log from its teardown path).  Blocks
        between events while the job runs; ``timeout`` bounds each wait.

        Raises:
            RuntimeError: on a handle that is not attached to a service
                event bus (bare handles have no stream).
        """
        if self._bus is None:
            raise RuntimeError(
                f"job {self.job_id!r} has no event stream "
                "(handle not attached to a service event bus)"
            )
        return self._bus.events(self.job_id, start=start, timeout=timeout)

    def progress(
        self, timeout: float | None = None
    ) -> Iterator[dict[str, object]]:
        """Cumulative progress snapshots, one per underlying event.

        Each snapshot is a plain dict -- ``status``, ``rounds``,
        ``budget_spent``, ``causes`` (partial until terminal), and the
        triggering ``event`` kind -- convenient for dashboards that want
        current state rather than the raw event log.  The final snapshot
        carries the terminal status.
        """
        state: dict[str, object] = {
            "job_id": self.job_id,
            "status": JobStatus.PENDING.value,
            "event": None,
            "rounds": 0,
            "budget_spent": 0,
            "causes": [],
        }
        for event in self.events(timeout=timeout):
            payload = event.payload
            state["event"] = event.kind
            if event.kind == "started":
                state["status"] = JobStatus.RUNNING.value
            elif event.kind == "round_started":
                state["rounds"] = payload.get("round", state["rounds"])
            elif event.kind == "budget_spent":
                # Under parallel batches, concurrently-completing
                # executions may publish their (self-consistent)
                # snapshots out of charge order; fold with max so the
                # running display never regresses.
                state["budget_spent"] = max(
                    state["budget_spent"],  # type: ignore[call-overload]
                    payload.get("spent", 0),
                )
            elif event.kind == "partial_causes":
                state["causes"] = list(payload.get("causes", []))
            elif event.kind == "finished":
                state["status"] = payload.get("status", state["status"])
                if "budget_spent" in payload:
                    state["budget_spent"] = payload["budget_spent"]
                if payload.get("causes") is not None:
                    state["causes"] = list(payload["causes"])
            yield dict(state)

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the job reaches a terminal state."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> JobResult:
        """The terminal :class:`JobResult`; raises on timeout."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"job {self.job_id!r} still running")
        assert self._result is not None
        return self._result
