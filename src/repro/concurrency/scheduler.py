"""Shared scheduler: one worker pool multiplexing many clients.

The paper's prototype "contains a dispatching component that runs in a
single thread and spawns multiple pipeline instances in parallel" with
"five execution engine workers" (Section 5).  The seed repo reproduced
that *within* one session; this module generalizes it to a shared pool:
every client (a debugging job, a parallel session) enqueues its
instance-execution requests here, and a single elastic pool of worker
threads drains them with

* **fairness** -- requests are queued per job and dispatched round-robin
  across jobs, so one job's thousand-instance batch cannot starve a
  job that needs two instances;
* **weighted fairness** (optional, off by default) -- jobs may carry an
  integer priority weight; a job with weight ``w`` is served up to
  ``w`` consecutive requests per round-robin turn.  With the flag off
  (or with all weights at 1) dispatch order is exactly the unweighted
  FIFO round-robin;
* **skips** -- a request may carry a ``skip`` predicate; a skipped
  request resolves immediately without occupying a worker (sessions
  no longer need it: they admit a batch against the budget before
  dispatch, so over-budget items never reach the scheduler);
* **elasticity** -- workers are spawned lazily up to the configured
  limit and exit after an idle timeout, so short-lived sessions (the
  test-suite creates thousands) do not leak threads.

This module is deliberately neutral: it lives below both
:mod:`repro.pipeline` and :mod:`repro.service` and imports only the
standard library.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque
from collections.abc import Callable, Sequence

__all__ = [
    "SharedScheduler",
    "SchedulerBackend",
    "ScheduledExecutor",
    "SchedulerStats",
]

_DEFAULT_IDLE_TIMEOUT = 2.0

# Which scheduler (if any) the current thread is a worker of.  Lets
# ScheduledExecutor run inline when already on a worker slot instead of
# deadlocking on a nested submit.
_worker_context = threading.local()


class _Request:
    """One unit of work: run ``thunk`` on a pool worker, deliver the result."""

    __slots__ = ("job_id", "thunk", "skip", "done", "value", "error", "skipped")

    def __init__(
        self,
        job_id: str,
        thunk: Callable[[], object],
        skip: Callable[[], bool] | None = None,
    ):
        self.job_id = job_id
        self.thunk = thunk
        self.skip = skip
        self.done = threading.Event()
        self.value: object = None
        self.error: BaseException | None = None
        self.skipped = False

    def result(self) -> object:
        self.done.wait()
        if self.error is not None:
            raise self.error
        return self.value


class SchedulerStats:
    """Aggregate dispatch counters (all fields monotonically increase)."""

    def __init__(self) -> None:
        self.submitted = 0
        self.dispatched = 0
        self.skipped = 0
        self.errors = 0
        self.dispatched_by_job: dict[str, int] = {}
        self.dispatched_by_worker: dict[int, int] = {}

    def snapshot(self) -> dict[str, object]:
        return {
            "submitted": self.submitted,
            "dispatched": self.dispatched,
            "skipped": self.skipped,
            "errors": self.errors,
            "dispatched_by_job": dict(self.dispatched_by_job),
            "dispatched_by_worker": dict(self.dispatched_by_worker),
        }


class SharedScheduler:
    """Fair, elastic dispatcher shared by every job of a service.

    Args:
        workers: maximum concurrent pipeline executions.  This is the
            service-wide cap; jobs share it no matter how many are
            active (the Figure 6 prototype used five).
        idle_timeout: seconds an idle worker thread lingers before
            exiting.  Workers respawn on demand, so this only trades a
            little thread-start latency against leaked-thread count.
        name: prefix for worker thread names (diagnostics).
        weighted_fairness: enable priority-weighted round-robin.  Off by
            default; when off, per-job priorities are ignored and the
            pop order is exactly the historical FIFO round-robin.
    """

    _ids = itertools.count(1)

    def __init__(
        self,
        workers: int = 5,
        idle_timeout: float = _DEFAULT_IDLE_TIMEOUT,
        name: str | None = None,
        weighted_fairness: bool = False,
    ):
        if workers < 1:
            raise ValueError("workers must be at least 1")
        self.workers = workers
        self.weighted_fairness = weighted_fairness
        self._idle_timeout = idle_timeout
        self._name = name or f"scheduler-{next(self._ids)}"
        # Two wait queues over ONE lock: workers block on _condition for
        # new work; wait_quiescent callers block on _settled.  Separate
        # conditions keep submit's single notify() from waking a
        # quiescence waiter instead of an idle worker.
        lock = threading.Lock()
        self._condition = threading.Condition(lock)
        self._settled = threading.Condition(lock)
        self._queues: dict[str, deque[_Request]] = {}
        self._ring: deque[str] = deque()  # job ids with pending requests
        self._priorities: dict[str, int] = {}
        self._credits: dict[str, int] = {}
        self._unsettled: dict[str, int] = {}  # submitted, not yet resolved
        self._pending = 0
        self._live_workers = 0
        self._idle_workers = 0
        self._free_slots = set(range(workers))
        self._shutdown = False
        self.stats = SchedulerStats()

    # -- Priorities ----------------------------------------------------------
    def set_priority(self, job_id: str, weight: int) -> None:
        """Give ``job_id`` a round-robin weight (takes effect with
        ``weighted_fairness``; a weight of 1 is the unweighted default).
        """
        if weight < 1:
            raise ValueError("priority weight must be at least 1")
        with self._condition:
            self._priorities[job_id] = weight

    def clear_priority(self, job_id: str) -> None:
        """Forget a job's weight (long-lived schedulers call this on job
        completion so per-job state does not accrete)."""
        with self._condition:
            self._priorities.pop(job_id, None)
            self._credits.pop(job_id, None)

    # -- Submission ----------------------------------------------------------
    def submit(
        self,
        job_id: str,
        thunk: Callable[[], object],
        skip: Callable[[], bool] | None = None,
    ) -> _Request:
        """Enqueue one thunk for ``job_id``; returns a waitable request."""
        request = _Request(job_id, thunk, skip)
        with self._condition:
            if self._shutdown:
                raise RuntimeError("scheduler is shut down")
            queue = self._queues.get(job_id)
            if queue is None:
                queue = self._queues[job_id] = deque()
            if not queue:
                self._ring.append(job_id)
            queue.append(request)
            self._pending += 1
            self._unsettled[job_id] = self._unsettled.get(job_id, 0) + 1
            self.stats.submitted += 1
            self._spawn_if_needed()
            self._condition.notify()
        return request

    def run_batch(
        self,
        job_id: str,
        thunks: Sequence[Callable[[], object]],
        skip: Callable[[], bool] | None = None,
    ) -> list[object]:
        """Submit a batch and wait for every element (order preserved)."""
        requests = [self.submit(job_id, thunk, skip) for thunk in thunks]
        return [request.result() for request in requests]

    # -- Job-facing adapters -------------------------------------------------
    def backend(self, job_id: str) -> "SchedulerBackend":
        """An :class:`~repro.core.session.ExecutionBackend` view for one job."""
        return SchedulerBackend(self, job_id)

    def executor(self, job_id: str, inner) -> "ScheduledExecutor":
        """Wrap ``inner`` so each call runs on the shared pool."""
        return ScheduledExecutor(self, job_id, inner)

    # -- Introspection -------------------------------------------------------
    def stats_snapshot(self) -> dict[str, object]:
        """A self-consistent copy of the dispatch counters.

        Taken under the scheduler lock, so invariants like
        ``dispatched + skipped <= submitted`` hold in the snapshot even
        while workers are running (the bare ``stats`` object mutates
        live).
        """
        with self._condition:
            return self.stats.snapshot()

    @property
    def pending(self) -> int:
        with self._condition:
            return self._pending

    def wait_quiescent(
        self, job_id: str, timeout: float | None = None
    ) -> bool:
        """Block until none of ``job_id``'s requests are queued or
        executing; returns False on timeout.

        A caller that abandons outstanding requests (e.g. a cancelled
        batch unwinding on its first error) uses this to let in-flight
        siblings settle before reading shared state they mutate --
        otherwise a request still mid-execution on a worker could be
        observed half-done.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._settled:
            while self._unsettled.get(job_id, 0) > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._settled.wait(remaining)
        return True

    def _settle(self, request: _Request) -> None:
        """Book a request as resolved (caller holds the shared lock)."""
        count = self._unsettled.get(request.job_id, 0) - 1
        if count > 0:
            self._unsettled[request.job_id] = count
        else:
            self._unsettled.pop(request.job_id, None)
            self._settled.notify_all()  # wake wait_quiescent callers

    @property
    def live_workers(self) -> int:
        with self._condition:
            return self._live_workers

    # -- Lifecycle -----------------------------------------------------------
    def shutdown(self) -> None:
        """Reject new work and resolve queued requests with an error.

        In-flight thunks finish; workers exit once their queues drain.
        """
        with self._condition:
            self._shutdown = True
            error = RuntimeError("scheduler shut down")
            for queue in self._queues.values():
                while queue:
                    request = queue.popleft()
                    request.error = error
                    self._settle(request)
                    request.done.set()
            self._queues.clear()
            self._ring.clear()
            self._credits.clear()
            self._pending = 0
            self._condition.notify_all()

    def __enter__(self) -> "SharedScheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- Internals -----------------------------------------------------------
    def _spawn_if_needed(self) -> None:
        """Spawn a worker if work is pending and the pool is not full.

        Caller must hold ``self._condition``.
        """
        if self._pending > self._idle_workers and self._live_workers < self.workers:
            slot = min(self._free_slots)
            self._free_slots.remove(slot)
            self._live_workers += 1
            thread = threading.Thread(
                target=self._worker_loop,
                args=(slot,),
                name=f"{self._name}-worker-{slot}",
                daemon=True,
            )
            thread.start()

    def _pop_next(self) -> _Request | None:
        """Round-robin pop: next request of the next job in the ring.

        With ``weighted_fairness``, a job at the front of the ring keeps
        its position until its priority-weight credits are spent, so a
        job with weight ``w`` is served up to ``w`` consecutive requests
        per turn.  Caller must hold ``self._condition``.
        """
        while self._ring:
            job_id = self._ring.popleft()
            queue = self._queues.get(job_id)
            if not queue:
                self._queues.pop(job_id, None)
                self._credits.pop(job_id, None)
                continue
            request = queue.popleft()
            self._pending -= 1
            if queue:
                if self.weighted_fairness:
                    credits = self._credits.get(job_id)
                    if credits is None:
                        credits = self._priorities.get(job_id, 1)
                    credits -= 1
                    if credits > 0:
                        self._credits[job_id] = credits
                        self._ring.appendleft(job_id)  # keep the turn
                    else:
                        self._credits.pop(job_id, None)
                        self._ring.append(job_id)  # rotate: others go first
                else:
                    self._ring.append(job_id)  # rotate: other jobs go first
            else:
                # Drop drained per-job queues so a long-lived scheduler
                # does not accrete state for every job it ever served.
                del self._queues[job_id]
                self._credits.pop(job_id, None)
            return request
        return None

    def _retire_worker(self, slot: int) -> None:
        """Return a worker's slot to the free pool (caller holds lock)."""
        self._live_workers -= 1
        self._free_slots.add(slot)

    def _worker_loop(self, slot: int) -> None:
        _worker_context.scheduler = self
        while True:
            with self._condition:
                request = self._pop_next()
                while request is None:
                    if self._shutdown:
                        self._retire_worker(slot)
                        return
                    self._idle_workers += 1
                    signaled = self._condition.wait(timeout=self._idle_timeout)
                    self._idle_workers -= 1
                    request = self._pop_next()
                    if request is None and not signaled:
                        # Idle too long and still nothing queued: shrink.
                        self._retire_worker(slot)
                        return
            self._execute(request, slot)

    def _execute(self, request: _Request, slot: int) -> None:
        if request.skip is not None:
            try:
                should_skip = request.skip()
            except Exception:
                should_skip = False
            if should_skip:
                with self._condition:
                    self.stats.skipped += 1
                    self._settle(request)
                request.skipped = True
                request.done.set()
                return
        try:
            request.value = request.thunk()
        except BaseException as error:  # delivered to the waiter, not lost
            request.error = error
        with self._condition:
            self.stats.dispatched += 1
            if request.error is not None:
                self.stats.errors += 1
            self.stats.dispatched_by_job[request.job_id] = (
                self.stats.dispatched_by_job.get(request.job_id, 0) + 1
            )
            self.stats.dispatched_by_worker[slot] = (
                self.stats.dispatched_by_worker.get(slot, 0) + 1
            )
            self._settle(request)
        request.done.set()


class SchedulerBackend:
    """Per-job :class:`~repro.core.session.ExecutionBackend` over a scheduler.

    A :class:`~repro.core.session.DebugSession` configured with this
    backend fans its speculative batches (Section 4.3) out to the
    *shared* pool instead of a private one, so the service-wide worker
    cap and fairness policy apply to intra-job parallelism too.
    """

    def __init__(self, scheduler: SharedScheduler, job_id: str):
        self._scheduler = scheduler
        self.job_id = job_id

    @property
    def parallel(self) -> bool:
        return True

    @property
    def scheduler(self) -> SharedScheduler:
        return self._scheduler

    def run_batch(self, tasks: Sequence[Callable[[], object]]) -> list[object]:
        return self._scheduler.run_batch(self.job_id, tasks)


class ScheduledExecutor:
    """Route single executor calls through the shared pool.

    Serial sessions (whose algorithms evaluate one instance at a time
    and depend on strict ordering for determinism) still benefit from
    the shared pool: each execution occupies one worker slot, so N
    concurrent jobs with serial sessions are collectively throttled and
    fairly interleaved by the scheduler.

    Calls made *from* one of this scheduler's own worker threads (e.g.
    a batch task evaluating its instance) run inline -- the thread
    already holds a worker slot, and a nested submit could deadlock a
    fully-occupied pool.
    """

    def __init__(self, scheduler: SharedScheduler, job_id: str, inner):
        self._scheduler = scheduler
        self._inner = inner
        self.job_id = job_id
        if hasattr(inner, "many"):
            self.many = self._many  # batch entry point, only if inner has one

    def _slot(self, thunk: Callable[[], object]) -> object:
        """Run ``thunk`` on a worker slot (inline if already on one)."""
        if getattr(_worker_context, "scheduler", None) is self._scheduler:
            return thunk()
        return self._scheduler.submit(self.job_id, thunk).result()

    def __call__(self, instance):
        return self._slot(lambda: self._inner(instance))

    def _many(self, instances):
        """A whole batch on ONE worker slot (the inner executor decides
        how the batch itself fans out)."""
        return self._slot(lambda: self._inner.many(instances))
