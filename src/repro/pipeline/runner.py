"""Execution engines: caching, counting, latency simulation, parallelism,
and historical replay.

The paper's prototype "contains a dispatching component that runs in a
single thread and spawns multiple pipeline instances in parallel" with
"five execution engine workers" (Section 5).  :class:`ParallelDebugSession`
reproduces that architecture on a thread pool: the debugging algorithms
submit batches of independent instances and the dispatcher fans them
out, preserving the session's budget/history accounting.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable

from ..core.budget import InstanceBudget
from ..core.history import ExecutionHistory
from ..core.session import DebugSession, InstanceUnavailable
from ..core.types import Executor, Instance, Outcome, ParameterSpace
from ..concurrency.scheduler import SharedScheduler
from ..concurrency.singleflight import SingleFlightCache

__all__ = [
    "CountingExecutor",
    "CachingExecutor",
    "LatencyExecutor",
    "FlakyExecutor",
    "ReplayExecutor",
    "ParallelDebugSession",
]


class CountingExecutor:
    """Wraps an executor, counting calls (used by cost accounting tests)."""

    def __init__(self, inner: Executor):
        self._inner = inner
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, instance: Instance) -> Outcome:
        with self._lock:
            self.calls += 1
        return self._inner(instance)


class CachingExecutor:
    """Memoizes outcomes per instance (idempotent black box).

    The :class:`~repro.core.session.DebugSession` already avoids
    re-executing instances in its history; this cache is for executors
    shared across *multiple* sessions (e.g. the evaluation harness runs
    several algorithms against one pipeline and the paper charges each
    algorithm only for instances new *to it*).

    Built on the service layer's single-flight primitive: concurrent
    requests for the same uncached instance trigger exactly one inner
    execution -- the earlier implementation only guarded the dict, so
    two racing sessions both ran the pipeline.
    """

    def __init__(self, inner: Executor):
        self._inner = inner
        self._cache = SingleFlightCache()

    def __call__(self, instance: Instance) -> Outcome:
        return self._cache.get_or_execute(  # type: ignore[return-value]
            instance, lambda: self._inner(instance)
        )

    @property
    def cache_size(self) -> int:
        return len(self._cache)

    @property
    def stats(self):
        """Single-flight :class:`~repro.concurrency.singleflight.CacheStats`."""
        return self._cache.stats


class LatencyExecutor:
    """Adds simulated wall-clock cost per execution.

    Stands in for the paper's expensive pipelines (20-minute Data
    Polygamy runs, 10-hour GAN training) at laptop scale: the Figure 6
    scalability benchmark measures how the parallel dispatcher hides
    this latency.
    """

    def __init__(self, inner: Executor, latency_seconds: float):
        if latency_seconds < 0:
            raise ValueError("latency must be non-negative")
        self._inner = inner
        self._latency = latency_seconds

    def __call__(self, instance: Instance) -> Outcome:
        time.sleep(self._latency)
        return self._inner(instance)


class FlakyExecutor:
    """Failure injection: raises on selected calls.

    Used by the test suite to verify that budget accounting refunds
    crashed executions and that algorithms survive transient executor
    errors.
    """

    def __init__(
        self,
        inner: Executor,
        should_raise: Callable[[int, Instance], bool],
        error_factory: Callable[[], BaseException] = lambda: RuntimeError(
            "injected executor failure"
        ),
    ):
        self._inner = inner
        self._should_raise = should_raise
        self._error_factory = error_factory
        self._lock = threading.Lock()
        self.calls = 0

    def __call__(self, instance: Instance) -> Outcome:
        with self._lock:
            self.calls += 1
            call_index = self.calls
        if self._should_raise(call_index, instance):
            raise self._error_factory()
        return self._inner(instance)


class ReplayExecutor:
    """Historical mode: serves only previously-logged outcomes.

    Section 5.3 (DBSherlock): "it is not possible to derive and run
    additional instances.  We simulated the creation of new instances by
    reading only part of provenance and testing the algorithms on unread
    data, with an early stop when the pipeline instance to be tested was
    not present."  Requests for unlogged instances raise
    :class:`~repro.core.session.InstanceUnavailable`, which the
    algorithms treat as "hypothesis untestable".
    """

    def __init__(self, log: ExecutionHistory):
        self._log = log
        self.misses = 0

    def __call__(self, instance: Instance) -> Outcome:
        outcome = self._log.outcome_of(instance)
        if outcome is None:
            self.misses += 1
            raise InstanceUnavailable(instance)
        return outcome


class ParallelDebugSession(DebugSession):
    """A debug session whose batch evaluation fans out to worker threads.

    Single instances still run inline; ``evaluate_many`` dispatches the
    batch to a pool of ``workers`` threads, mirroring the paper's
    dispatcher-plus-workers prototype.  Because instances in a batch are
    speculatively independent (Section 4.3), some executions may turn
    out to be unnecessary -- that waste is the measured trade-off of
    Figure 6.

    Since the service layer landed, this class is a thin adapter: it
    owns a private :class:`~repro.concurrency.scheduler.SharedScheduler`
    (elastic worker pool) and plugs it into the
    base session's backend hook.  Multi-job deployments should use
    :class:`~repro.service.service.DebugService` instead, which shares
    one scheduler and execution cache across sessions.

    Budget note: the session admits each batch against the budget
    before dispatch, so items beyond it are dropped (None) without
    running; per-item semantics match serial evaluation.
    """

    def __init__(
        self,
        executor: Executor,
        space: ParameterSpace,
        history: ExecutionHistory | None = None,
        budget: InstanceBudget | None = None,
        workers: int = 5,
        candidate_source=None,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self._scheduler = SharedScheduler(workers=workers, name="parallel-session")
        super().__init__(
            executor,
            space,
            history=history,
            budget=budget,
            candidate_source=candidate_source,
            backend=self._scheduler.backend("session"),
        )
        self.workers = workers

    @property
    def scheduler(self) -> SharedScheduler:
        """The session-private scheduler (shared ones live in the service)."""
        return self._scheduler

    @property
    def instances_per_worker(self) -> dict[int, int]:
        """Dispatched-request counts keyed by worker slot (diagnostics)."""
        snapshot = self._scheduler.stats_snapshot()
        return dict(snapshot["dispatched_by_worker"])  # type: ignore[call-overload]
