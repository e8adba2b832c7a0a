"""RemoteWorkerPool: the fleet coordinator behind the ProcessPool surface.

The coordinator listens on a stdlib TCP socket; :class:`FleetWorker`\\ s
dial in, say ``hello``, and become dispatch targets.  Callers see the
exact :class:`~repro.exec.pool.ProcessPool` surface -- ``run()``, the
``executor()`` / ``backend()`` / ``session()`` adapter trio, ``stats()``,
``shutdown()`` -- so a :class:`~repro.service.service.DebugService`
built on a fleet is a one-argument change.

Robustness model (the tentpole of this subsystem):

* **Liveness via heartbeats.**  Any frame refreshes a worker's
  ``last_seen``; the monitor marks a worker *suspect* after
  ``suspect_after`` seconds of silence and *evicts* it after
  ``evict_after``.  Eviction fails the worker's in-flight run with an
  internal worker-lost fault, which the caller's
  :class:`~repro.exec.retry.RetryPolicy` turns into a re-dispatch
  (exponential backoff + jitter) on another worker -- or locally.
* **Consensus-free elastic membership.**  Membership is coordinator-
  local soft state (the reconfiguration stance of Jehl et al.: no
  quorum is consulted to add or remove a worker).  Workers join and
  leave mid-job; a worker evicted by mistake (a healed partition)
  rejoins the moment any frame arrives -- same connection or a redial
  under the same name, latest registration wins.  No run is lost
  (eviction re-dispatches it) and none is double-charged (the session
  charges once per ``evaluate``; duplicate results are dropped against
  run-id tombstones, and a re-executed run converges through the
  provenance dedup, exactly as PR 5's crash story).
* **Graceful degradation.**  When the fleet drains (zero active or
  suspect members), runs execute locally through the same
  :class:`~repro.exec.remote.worker.SpecRunner` + provenance-dedup
  path, up to ``fallback_limit`` concurrent slots (the lever
  :meth:`scale_to` and the adaptive sizer adjust).

The coordinator is also the fleet's provenance server: worker ``store``
frames are answered from the local store (SQLite or in-memory) under
one lock -- the network-transport promotion of the shared-file dedup.
"""

from __future__ import annotations

import itertools
import secrets
import socket
import threading
import time
from collections.abc import Callable

from ...concurrency.scheduler import SharedScheduler
from ...core.session import DebugSession
from ...core.types import Instance, Outcome
from ...provenance.remote import RemoteProvenanceStore, handle_store_request
from ..pool import (
    PoolShutDown,
    ProcessExecutor,
    ProcessPoolBackend,
    RemoteRunError,
    RunTimedOut,
    WorkerCrashed,
    _worker_span,
)
from ..retry import RetryPolicy
from ..spec import ExecutorSpec
from . import protocol
from .worker import SpecRunner

__all__ = ["RemoteWorkerPool", "WorkerLost"]

_LOCAL = object()  # acquire() verdict: run on the local fallback path


class WorkerLost(RuntimeError):
    """Internal fault: the run's worker died, vanished, or was evicted.

    Retried under the crash budget; surfaces as
    :class:`~repro.exec.pool.WorkerCrashed` when that is exhausted, so
    callers (and the session's refund path) see the same exception
    taxonomy as the local pool.
    """


class _PendingRun:
    """Coordinator-side state of one dispatched run awaiting its result."""

    __slots__ = (
        "run_id",
        "worker_name",
        "done",
        "completed",
        "outcome",
        "cost",
        "from_store",
        "span",
        "error_kind",
        "detail",
    )

    def __init__(self, run_id: str, worker_name: str):
        self.run_id = run_id
        self.worker_name = worker_name
        self.done = threading.Event()
        self.completed = False
        self.outcome: str | None = None
        self.cost = 0.0
        self.from_store = False
        self.span: dict | None = None
        self.error_kind: str | None = None  # None | "lost" | "error"
        self.detail = ""

    # All completion paths run under the pool lock; first one wins.
    def complete_ok(
        self,
        outcome: str,
        cost: float,
        from_store: bool,
        span: dict | None = None,
    ) -> None:
        if self.completed:
            return
        self.completed = True
        self.outcome = outcome
        self.cost = cost
        self.from_store = from_store
        self.span = span if isinstance(span, dict) else None
        self.done.set()

    def complete_lost(self, detail: str) -> None:
        if self.completed:
            return
        self.completed = True
        self.error_kind = "lost"
        self.detail = detail
        self.done.set()

    def complete_error(self, detail: str) -> None:
        if self.completed:
            return
        self.completed = True
        self.error_kind = "error"
        self.detail = detail
        self.done.set()


class _RemoteWorker:
    """Coordinator-side handle of one fleet member."""

    __slots__ = (
        "name",
        "conn",
        "pid",
        "host",
        "state",
        "last_seen",
        "inflight",
        "runs",
        "joined_at",
        "remote_stats",
    )

    def __init__(self, name: str, conn, pid: int, host: str):
        self.name = name
        self.conn = conn
        self.pid = pid
        self.host = host
        self.state = "active"  # active | suspect | evicted | left | gone
        self.last_seen = time.monotonic()
        self.inflight: _PendingRun | None = None
        self.runs = 0
        self.joined_at = time.time()
        self.remote_stats: dict = {}


class RemoteWorkerPool:
    """Fault-tolerant fleet coordinator with the ProcessPool surface.

    Args:
        host / port: listening address; port 0 picks a free one (see
            :attr:`address` / :attr:`endpoint`).
        heartbeat_interval: cadence announced to joining workers.
        suspect_after: silence before a worker turns *suspect*
            (default ``2.5 x heartbeat_interval``).
        evict_after: silence before eviction re-dispatches the worker's
            in-flight run (default ``5 x heartbeat_interval``) -- the
            configurable grace of the liveness story.
        run_timeout: default per-run wall-clock cap; a timed-out run
            evicts its worker (hung pipeline) and retries under the
            timeout budget.
        retry_policy: shared :class:`~repro.exec.retry.RetryPolicy`.
            The fleet default spaces re-dispatches out with jittered
            exponential backoff (unlike the local pool's zero-delay
            default) because the fault may be the *network's*, and
            hammering it correlates retries across callers.
        store: provenance dedup tier -- a
            :class:`~repro.provenance.store.ProvenanceStore` instance
            or an SQLite path.  Served to workers over the wire and
            consulted by the local fallback path.
        local_fallback: execute in-process when the fleet is empty
            (True) instead of waiting for a member.
        fallback_limit: concurrent local-fallback slots (the
            :meth:`scale_to` lever).
        max_dispatch: sizing of the batch scheduler behind
            :meth:`backend` (the parallel fan-out width).
        acquire_timeout: cap on waiting for dispatch capacity.
        connection_filter: fault-injection seam -- wraps each accepted
            connection (see :mod:`repro.exec.remote.faults`).
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 1.0,
        suspect_after: float | None = None,
        evict_after: float | None = None,
        run_timeout: float | None = None,
        retry_policy: RetryPolicy | None = None,
        store=None,
        local_fallback: bool = True,
        fallback_limit: int = 4,
        max_dispatch: int = 8,
        acquire_timeout: float = 300.0,
        connection_filter: Callable | None = None,
    ):
        self.heartbeat_interval = heartbeat_interval
        self.suspect_after = (
            suspect_after
            if suspect_after is not None
            else heartbeat_interval * 2.5
        )
        self.evict_after = (
            evict_after if evict_after is not None else heartbeat_interval * 5.0
        )
        if self.evict_after < self.suspect_after:
            raise ValueError("evict_after must be >= suspect_after")
        self.run_timeout = run_timeout
        self.retry_policy = retry_policy or RetryPolicy(
            crash_retries=2,
            timeout_retries=1,
            base_delay=0.02,
            factor=2.0,
            max_delay=1.0,
            jitter=0.5,
        )
        self.local_fallback = local_fallback
        self.max_workers = max_dispatch  # adapter/scheduler sizing parity
        self._acquire_timeout = acquire_timeout
        self._connection_filter = connection_filter
        if isinstance(store, str):
            from ...provenance.store import SQLiteProvenanceStore

            store = SQLiteProvenanceStore(store)
        self._store = store
        self._store_lock = threading.Lock()
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._workers: dict[str, _RemoteWorker] = {}
        #: run_id -> awaited run.  A result whose run_id is absent here
        #: (late, duplicated, or already answered) is dropped -- the
        #: exactly-once gate of the protocol.
        self._pending: dict[str, _PendingRun] = {}
        self._fallback_limit = max(0, fallback_limit)
        self._local_running = 0
        self._shutdown = False
        # The monitor's own wake-up: NOT self._cond, which is notified
        # on every run and would make the monitor scan per completion.
        self._stopping = threading.Event()
        self._run_prefix = secrets.token_hex(3)
        self._run_seq = itertools.count(1)
        self._name_seq = itertools.count(1)
        self._stats: dict[str, float] = {
            "runs": 0,
            "store_hits": 0,
            "local_runs": 0,
            "retries": 0,
            "redispatches": 0,
            "backoff_seconds": 0.0,
            "timeouts": 0,
            "workers_joined": 0,
            "workers_left": 0,
            "workers_lost": 0,
            "workers_evicted": 0,
            "workers_rejoined": 0,
            "suspects": 0,
            "suspect_recoveries": 0,
            "duplicate_results": 0,
        }
        self._bus = None
        self._fleet_job = "fleet"
        self._sizer = None
        self._batch_scheduler: SharedScheduler | None = None
        self._local_runner = SpecRunner(
            store=RemoteProvenanceStore(self._store_request)
            if self._store is not None
            else None
        )
        self._server = socket.create_server((host, port), backlog=16)
        self.address = self._server.getsockname()[:2]
        self._threads = [
            threading.Thread(
                target=self._accept_loop, name="fleet-accept", daemon=True
            ),
            threading.Thread(
                target=self._monitor_loop, name="fleet-monitor", daemon=True
            ),
        ]
        for thread in self._threads:
            thread.start()

    # -- Introspection -------------------------------------------------------
    @property
    def endpoint(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    @property
    def live_workers(self) -> int:
        """Active members (the sizer's and adapters' capacity signal)."""
        with self._lock:
            return sum(
                1 for w in self._workers.values() if w.state == "active"
            )

    def workers(self) -> list[dict]:
        """Membership snapshot for stats/debugging."""
        now = time.monotonic()
        with self._lock:
            return [
                {
                    "name": w.name,
                    "state": w.state,
                    "host": w.host,
                    "pid": w.pid,
                    "runs": w.runs,
                    "inflight": w.inflight.run_id if w.inflight else None,
                    "silence": round(now - w.last_seen, 3),
                }
                for w in self._workers.values()
            ]

    def stats(self) -> dict[str, object]:
        with self._lock:
            snapshot: dict[str, object] = dict(self._stats)
            snapshot["active_workers"] = sum(
                1 for w in self._workers.values() if w.state == "active"
            )
            snapshot["suspect_workers"] = sum(
                1 for w in self._workers.values() if w.state == "suspect"
            )
            snapshot["fallback_limit"] = self._fallback_limit
        snapshot["live_workers"] = snapshot["active_workers"]
        snapshot["max_workers"] = self.max_workers
        snapshot["workers"] = self.workers()
        snapshot["local_runner"] = dict(self._local_runner.stats)
        sizer = self._sizer
        if sizer is not None:
            snapshot["autoscale"] = sizer.stats()
        return snapshot

    def attach_sizer(self, sizer) -> None:
        """Surface an adaptive sizer's decision trail in :meth:`stats`."""
        self._sizer = sizer

    def bind_events(self, bus, job_id: str = "fleet") -> None:
        """Publish fleet lifecycle events to an event bus under ``job_id``.

        The service binds its (durable) bus here so membership changes
        land in the same queryable log as job progress.
        """
        self._bus = bus
        self._fleet_job = job_id

    def _publish(self, kind: str, **payload) -> None:
        bus = self._bus
        if bus is None:
            return
        try:
            bus.publish(self._fleet_job, kind, payload)
        except Exception:
            pass  # telemetry must never corrupt dispatch

    # -- Elastic capacity ----------------------------------------------------
    def scale_to(self, target: int) -> int:
        """Adjust local-fallback capacity (the coordinator cannot spawn
        remote machines; members join on their own).  Returns the delta."""
        with self._cond:
            before = self._fallback_limit
            self._fallback_limit = max(0, min(int(target), 64))
            if self._fallback_limit > before:
                self._cond.notify_all()
            return self._fallback_limit - before

    # -- Accept / serve ------------------------------------------------------
    def _accept_loop(self) -> None:
        while True:
            try:
                sock, __ = self._server.accept()
            except OSError:
                return  # server socket closed: shutdown
            conn = protocol.Connection(sock)
            if self._connection_filter is not None:
                conn = self._connection_filter(conn)
            threading.Thread(
                target=self._serve_connection,
                args=(conn,),
                name="fleet-serve",
                daemon=True,
            ).start()

    def _serve_connection(self, conn) -> None:
        try:
            hello = conn.recv()
        except protocol.ProtocolError:
            conn.close()
            return
        if not hello or hello.get("type") != "hello":
            conn.close()
            return
        if int(hello.get("protocol", 0)) != protocol.PROTOCOL_VERSION:
            try:
                conn.send({"type": "reject", "reason": "protocol mismatch"})
            except OSError:
                pass
            conn.close()
            return
        name = str(hello.get("name") or f"worker-{next(self._name_seq)}")
        worker = _RemoteWorker(
            name, conn, int(hello.get("pid", 0)), str(hello.get("host", "?"))
        )
        rejoined = False
        with self._cond:
            if self._shutdown:
                conn.close()
                return
            existing = self._workers.get(name)
            if existing is not None:
                # Latest registration wins (consensus-free: no quorum
                # arbitrates identity).  A live duplicate is superseded.
                rejoined = existing.state in ("evicted", "gone", "suspect")
                stale = existing.inflight
                existing.inflight = None
                if stale is not None:
                    stale.complete_lost(f"worker {name} re-registered")
                if existing.conn is not conn:
                    existing.conn.close()
            self._workers[name] = worker
            self._stats["workers_joined"] += 1
            if rejoined:
                self._stats["workers_rejoined"] += 1
            self._cond.notify_all()
        self._publish(
            "worker_rejoined" if rejoined else "worker_joined",
            worker=name,
            host=worker.host,
            pid=worker.pid,
        )
        try:
            conn.send(
                {
                    "type": "welcome",
                    "name": name,
                    "heartbeat_interval": self.heartbeat_interval,
                }
            )
        except OSError:
            self._worker_lost(worker, "welcome send failed")
            return
        self._read_frames(worker)

    def _read_frames(self, worker: _RemoteWorker) -> None:
        left = False
        while True:
            try:
                message = worker.conn.recv()
            except protocol.ProtocolError:
                break
            if message is None:
                break
            self._saw(worker)
            kind = message.get("type")
            if kind == "result":
                self._handle_result(worker, message)
            elif kind == "heartbeat":
                worker.remote_stats = message.get("stats") or {}
            elif kind == "store":
                self._handle_store(worker, message)
            elif kind == "leave":
                left = True
                break
        if left:
            with self._cond:
                if self._workers.get(worker.name) is worker:
                    worker.state = "left"
                    self._stats["workers_left"] += 1
                    stale = worker.inflight
                    worker.inflight = None
                    if stale is not None:
                        stale.complete_lost(f"worker {worker.name} left")
                    self._cond.notify_all()
            self._publish("worker_left", worker=worker.name)
            worker.conn.close()
        else:
            self._worker_lost(worker, "connection lost")

    def _saw(self, worker: _RemoteWorker) -> None:
        """Any frame is proof of life; undo suspicion or eviction."""
        worker.last_seen = time.monotonic()
        if worker.state not in ("suspect", "evicted"):
            return
        rejoined = False
        with self._cond:
            if self._workers.get(worker.name) is not worker:
                return
            if worker.state == "suspect":
                worker.state = "active"
                self._stats["suspect_recoveries"] += 1
                self._cond.notify_all()
            elif worker.state == "evicted":
                # A healed partition: the member is back, same socket.
                worker.state = "active"
                self._stats["workers_rejoined"] += 1
                rejoined = True
                self._cond.notify_all()
        if rejoined:
            self._publish("worker_rejoined", worker=worker.name)

    def _handle_result(self, worker: _RemoteWorker, message: dict) -> None:
        run_id = str(message.get("run_id"))
        with self._cond:
            pending = self._pending.get(run_id)
            if pending is None or pending.completed:
                # Late (tombstoned), duplicated, or already-redispatched-
                # and-answered: drop.  Exactly-once is enforced here.
                self._stats["duplicate_results"] += 1
            elif message.get("status") == "ok":
                pending.complete_ok(
                    str(message.get("outcome")),
                    float(message.get("cost", 0.0)),
                    bool(message.get("from_store")),
                    message.get("span"),
                )
                worker.runs += 1
            else:
                pending.complete_error(str(message.get("detail", "unknown")))
            if worker.inflight is pending and pending is not None:
                worker.inflight = None
                self._cond.notify_all()

    def _handle_store(self, worker: _RemoteWorker, message: dict) -> None:
        request_id = message.get("request_id")
        reply = self._store_request(message)
        try:
            worker.conn.send(
                {"type": "store_reply", "request_id": request_id, **reply}
            )
        except OSError:
            pass  # worker gone; its round-trip times out as a miss

    def _store_request(self, request: dict) -> dict:
        if self._store is None:
            return {"found": False, "ok": False}
        with self._store_lock:
            return handle_store_request(self._store, request)

    # -- Failure detection ---------------------------------------------------
    def _worker_lost(self, worker: _RemoteWorker, reason: str) -> None:
        with self._cond:
            if self._workers.get(worker.name) is not worker:
                worker.conn.close()
                return
            if worker.state in ("left", "gone"):
                return
            worker.state = "gone"
            self._stats["workers_lost"] += 1
            stale = worker.inflight
            worker.inflight = None
            if stale is not None:
                stale.complete_lost(f"worker {worker.name}: {reason}")
            self._cond.notify_all()
        self._publish("worker_lost", worker=worker.name, reason=reason)
        worker.conn.close()

    def _evict_worker(
        self, worker: _RemoteWorker, reason: str, close: bool
    ) -> None:
        with self._cond:
            if self._workers.get(worker.name) is not worker:
                return
            if worker.state not in ("active", "suspect"):
                return
            worker.state = "evicted"
            self._stats["workers_evicted"] += 1
            stale = worker.inflight
            worker.inflight = None
            if stale is not None:
                stale.complete_lost(f"worker {worker.name} evicted: {reason}")
            self._cond.notify_all()
        self._publish("worker_evicted", worker=worker.name, reason=reason)
        if close:
            # A hung worker's socket is torn down; a partitioned one
            # keeps its connection so an in-band heal can rejoin.
            worker.conn.close()

    def _monitor_loop(self) -> None:
        tick = max(0.01, self.heartbeat_interval / 2.0)
        while not self._stopping.wait(tick):
            suspects: list[_RemoteWorker] = []
            evictees: list[_RemoteWorker] = []
            now = time.monotonic()
            with self._lock:
                if self._shutdown:
                    return
                for worker in self._workers.values():
                    silence = now - worker.last_seen
                    if worker.state == "active" and silence >= self.suspect_after:
                        if silence >= self.evict_after:
                            evictees.append(worker)
                        else:
                            worker.state = "suspect"
                            self._stats["suspects"] += 1
                            suspects.append(worker)
                    elif (
                        worker.state == "suspect"
                        and silence >= self.evict_after
                    ):
                        evictees.append(worker)
            for worker in suspects:
                self._publish(
                    "worker_suspect",
                    worker=worker.name,
                    silence=round(now - worker.last_seen, 3),
                )
            for worker in evictees:
                self._evict_worker(worker, "heartbeat silence", close=False)

    # -- Dispatch ------------------------------------------------------------
    def run(
        self,
        spec: ExecutorSpec,
        workflow: str,
        instance: Instance,
        timeout: float | None = None,
    ) -> Outcome:
        """Execute one instance on the fleet (thread-safe).

        Worker loss (crash, disconnect, eviction) re-dispatches the run
        under the retry policy's crash budget with backoff; timeouts
        use the timeout budget.  Exhaustion raises the local pool's
        exception types, so ``DebugSession.evaluate`` refunds the
        budget charge identically.
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
        from_store, span)``.  ``trace`` rides the ``run`` wire frame;
        a traced result frame carries the worker-minted child span
        (``{"trace": ..., "worker": ..., "host": ..., "pid": ...}``).
        """
        if timeout is None:
            timeout = self.run_timeout
        wire_spec = spec.to_wire()
        wire_instance = protocol.encode_values(instance.as_dict())
        retry = self.retry_policy.start()
        attempt = 0
        while True:
            attempt += 1
            try:
                outcome_value, cost, from_store, span = self._attempt(
                    spec, wire_spec, workflow, wire_instance, timeout, trace
                )
            except WorkerLost as error:
                delay = retry.next_delay("crash")
                if delay is None:
                    raise WorkerCrashed(str(error)) from None
                self._note_retry(delay, attempt, str(error))
            except RunTimedOut:
                with self._lock:
                    self._stats["timeouts"] += 1
                delay = retry.next_delay("timeout")
                if delay is None:
                    raise
                self._note_retry(delay, attempt, "run timed out")
            else:
                with self._lock:
                    self._stats["runs"] += 1
                    if from_store:
                        self._stats["store_hits"] += 1
                return Outcome(outcome_value), cost, from_store, span

    def _note_retry(self, delay: float, attempt: int, detail: str) -> None:
        with self._lock:
            self._stats["retries"] += 1
            self._stats["redispatches"] += 1
            self._stats["backoff_seconds"] += delay
        self._publish(
            "run_redispatched", attempt=attempt, delay=delay, detail=detail
        )
        if delay > 0:
            time.sleep(delay)

    def _attempt(
        self,
        spec: ExecutorSpec,
        wire_spec: dict,
        workflow: str,
        wire_instance: dict,
        timeout: float | None,
        trace: dict | None = None,
    ) -> tuple[str, float, bool, dict | None]:
        worker, pending = self._acquire()
        if worker is _LOCAL:
            try:
                outcome_value, cost, from_store = self._local_runner.run(
                    spec, workflow, protocol.decode_values(wire_instance)
                )
                # Degraded-mode runs still produce a span (minted here:
                # the "worker" is this process).
                return outcome_value, cost, from_store, _worker_span(trace)
            finally:
                with self._cond:
                    self._local_running -= 1
                    self._stats["local_runs"] += 1
                    self._cond.notify_all()
        assert pending is not None
        try:
            try:
                frame = {
                    "type": "run",
                    "run_id": pending.run_id,
                    "spec": wire_spec,
                    "workflow": workflow,
                    "instance": wire_instance,
                }
                if trace is not None:
                    frame["trace"] = trace
                worker.conn.send(frame)
            except OSError:
                self._worker_lost(worker, "dispatch send failed")
            finished = pending.done.wait(timeout)
            if not finished:
                with self._cond:
                    timed_out = not pending.completed
                    if timed_out:
                        # Claim the pending run as timed out *before*
                        # evicting: eviction completes in-flight runs as
                        # "lost", which would misfile this fault under
                        # the crash budget instead of the timeout one.
                        pending.completed = True
                        pending.done.set()
                if timed_out:
                    # Hung worker or a black-holed conversation: evict
                    # (tearing the socket down) and raise the timeout.
                    self._evict_worker(worker, "run timeout", close=True)
                    raise RunTimedOut(
                        timeout if timeout is not None else 0.0
                    )
        finally:
            with self._cond:
                self._pending.pop(pending.run_id, None)
                if worker.inflight is pending:
                    worker.inflight = None
                    self._cond.notify_all()
        if pending.error_kind == "lost":
            raise WorkerLost(pending.detail)
        if pending.error_kind == "error":
            raise RemoteRunError(pending.detail)
        assert pending.outcome is not None
        return pending.outcome, pending.cost, pending.from_store, pending.span

    def _acquire(self):
        """Reserve a dispatch target: an active idle worker, or the
        local-fallback slot when the fleet has drained."""
        deadline = time.monotonic() + self._acquire_timeout
        with self._cond:
            while True:
                if self._shutdown:
                    raise PoolShutDown("remote worker pool is shut down")
                candidates = [
                    w
                    for w in self._workers.values()
                    if w.state == "active" and w.inflight is None
                ]
                if candidates:
                    worker = min(candidates, key=lambda w: w.runs)
                    run_id = f"{self._run_prefix}-{next(self._run_seq)}"
                    pending = _PendingRun(run_id, worker.name)
                    self._pending[run_id] = pending
                    worker.inflight = pending
                    return worker, pending
                fleet_alive = any(
                    w.state in ("active", "suspect")
                    for w in self._workers.values()
                )
                if (
                    self.local_fallback
                    and not fleet_alive
                    and self._local_running < self._fallback_limit
                ):
                    self._local_running += 1
                    return _LOCAL, None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"no dispatch capacity within {self._acquire_timeout}s"
                    )
                self._cond.wait(min(remaining, 0.05))

    # -- Session-facing adapters (ProcessPool parity) ------------------------
    def executor(
        self,
        spec: ExecutorSpec,
        workflow: str = "remote",
        timeout: float | None = None,
        trace: dict | None = None,
        emit: Callable | None = None,
    ) -> ProcessExecutor:
        """An :class:`~repro.core.types.Executor` view over this pool."""
        return ProcessExecutor(
            self, spec, workflow=workflow, timeout=timeout, trace=trace, emit=emit
        )

    _backend_ids = itertools.count(1)

    def backend(self, job_id: str | None = None) -> ProcessPoolBackend:
        """A batch :class:`~repro.core.session.ExecutionBackend` view."""
        if job_id is None:
            job_id = f"remote-batch-{next(self._backend_ids)}"
        return ProcessPoolBackend(self, job_id=job_id)

    def _dispatch_scheduler(self) -> SharedScheduler:
        with self._lock:
            if self._shutdown:
                raise PoolShutDown("remote worker pool is shut down")
            if self._batch_scheduler is None:
                self._batch_scheduler = SharedScheduler(
                    workers=self.max_workers, name="remote-batch"
                )
            return self._batch_scheduler

    def session(
        self,
        spec: ExecutorSpec,
        space,
        workflow: str = "remote",
        history=None,
        budget=None,
        parallel: bool = True,
        timeout: float | None = None,
        progress: Callable | None = None,
    ) -> DebugSession:
        """A ready-wired session executing on the fleet."""
        return DebugSession(
            self.executor(spec, workflow=workflow, timeout=timeout),
            space,
            history=history,
            budget=budget,
            backend=self.backend() if parallel else None,
            progress=progress,
        )

    # -- Lifecycle -----------------------------------------------------------
    def wait_for_workers(self, count: int, timeout: float = 10.0) -> bool:
        """Block until ``count`` members are active (startup helper)."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while True:
                active = sum(
                    1 for w in self._workers.values() if w.state == "active"
                )
                if active >= count:
                    return True
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(min(remaining, 0.05))

    def shutdown(self) -> None:
        """Dismiss the fleet; subsequent runs raise :class:`PoolShutDown`."""
        with self._cond:
            if self._shutdown:
                return
            self._shutdown = True
            workers = list(self._workers.values())
            pendings = list(self._pending.values())
            scheduler = self._batch_scheduler
            self._batch_scheduler = None
            for pending in pendings:
                pending.complete_lost("pool shutdown")
            self._cond.notify_all()
        self._stopping.set()
        # Closing a listening socket does not wake a thread blocked in
        # accept(); shutting it down first does.
        try:
            self._server.shutdown(socket.SHUT_RDWR)
        except OSError:  # pragma: no cover - already shut down
            pass
        self._server.close()
        for worker in workers:
            try:
                worker.conn.send({"type": "bye"})
            except OSError:
                pass
            worker.conn.close()
        if scheduler is not None:
            scheduler.shutdown()
        for thread in self._threads:
            thread.join(timeout=2.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop within 2s")

    def __enter__(self) -> "RemoteWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
