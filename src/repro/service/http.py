"""HTTP/JSON front-end for the debugging service (ROADMAP item 2).

A thin, stdlib-only (``http.server``) API over one
:class:`~repro.service.service.DebugService`:

========================  =====================================================
``GET  /healthz``         liveness probe
``GET  /stats``           service-wide counters (scheduler, cache, admission)
``GET  /jobs``            every known job: live handles, persisted rows, queue
``POST /jobs``            submit a job (JSON payload; see below)
``GET  /jobs/{id}``       status; terminal jobs serve the *durable* record
``POST /jobs/{id}/cancel``  cooperative cancellation
``GET  /jobs/{id}/events``  stream the job's event log (NDJSON, or SSE when
                          ``Accept: text/event-stream``)
``GET  /query``           the :mod:`repro.obs.query` process-query engine
``GET  /dashboard``       longitudinal per-workflow trajectories (summaries)
========================  =====================================================

Every accepted submission is stamped with a trace context (the payload
may carry its own ``trace`` dict to join an existing trace); the
``trace_id`` comes back in the submit response and every event the job
publishes -- across the scheduler, worker processes, and remote fleet
members -- carries it, so ``GET /query?op=trace&trace_id=...``
reconstructs the full causal tree of one request.

The submit payload is exactly the durable queue's spec codec
(:func:`~repro.service.queue.spec_from_payload`): ``job_id`` plus an
``executor_spec`` wire form and a ``space`` table -- or a ``workload``
key naming a server-side template that fills those in (the CLI
registers one per bundled workload).  On a store-backed server every
submission rides the :class:`~repro.service.queue.DurableJobQueue`, so
a ``kill -9`` between accept and finish is recovered at the next
start-up: queued jobs resume exactly once and finished jobs replay
from ``jobs``/``job_events`` with zero re-execution.

Event streaming rides :class:`~repro.obs.sink.DurableEventBus`
prefix-complete replay: a client that connects after a restart still
receives the full persisted stream from seq 0.  Responses use
HTTP/1.0 close-delimited framing, so streams need no chunked encoding.

Multi-tenancy: each tenant gets a :class:`TenantQuota` -- a cap on
in-flight jobs (HTTP 429 beyond it) and a default
:attr:`~repro.service.jobs.JobSpec.priority` that the service's
weighted-fair scheduler turns into proportional service (build the
service with ``weighted_fairness=True``; the CLI's ``repro serve
--http`` does).
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..obs.dashboard import build_dashboard
from ..obs.query import Predicate, QueryEngine
from ..obs.sink import DurableEventBus
from ..obs.trace import TraceContext
from .jobs import JobHandle, JobSpec
from .queue import DurableJobQueue, spec_from_payload

__all__ = ["DebugServiceHTTP", "HTTPError", "TenantQuota"]


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission policy.

    Attributes:
        max_active: cap on the tenant's concurrently live (non-terminal)
            jobs; further submissions get HTTP 429.  None = unlimited.
        priority: default scheduler weight for the tenant's jobs (a
            payload may still ask for its own, capped at this value so
            a tenant cannot out-weigh its own plan).
    """

    max_active: int | None = None
    priority: int = 1


class HTTPError(Exception):
    """An error with an HTTP status, rendered as a JSON body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


class DebugServiceHTTP:
    """The HTTP front-end; owns a :class:`ThreadingHTTPServer`.

    Args:
        service: the backing :class:`DebugService` (not owned; shut it
            down separately).
        store: schema-v5 provenance store for durable job records,
            event replay, and ``/query``.  Defaults to the service
            cache's store when it has one.
        queue: durable admission queue; built automatically from
            ``store`` when omitted (pass ``queue=None, durable=False``
            via ``store=None`` for a purely in-memory server).
        host/port: bind address; port 0 picks an ephemeral port
            (read it back from :attr:`port`).
        templates: named payload templates -- ``POST /jobs`` bodies may
            say ``{"workload": "ml", ...}`` and inherit the template's
            keys (their own keys win).
        quotas: tenant name -> :class:`TenantQuota`.
        default_quota: policy for tenants without an entry.
    """

    def __init__(
        self,
        service,
        store=None,
        queue: DurableJobQueue | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        templates: dict[str, dict] | None = None,
        quotas: dict[str, TenantQuota] | None = None,
        default_quota: TenantQuota | None = None,
    ):
        self._service = service
        if store is None:
            store = getattr(service.cache, "store", None)
        self._store = store if hasattr(store, "job_row") else None
        if queue is None and self._store is not None and hasattr(
            self._store, "enqueue_job"
        ):
            queue = DurableJobQueue(self._store)
        self._queue = queue
        self._templates = dict(templates or {})
        self._quotas = dict(quotas or {})
        self._default_quota = default_quota or TenantQuota()
        self._tenants: dict[str, str | None] = {}
        self._lock = threading.Lock()
        self._thread: threading.Thread | None = None

        api = self

        class Handler(BaseHTTPRequestHandler):
            # Close-delimited framing lets event streams end naturally.
            protocol_version = "HTTP/1.0"

            def log_message(self, *args):  # noqa: D102 - silence stderr
                pass

            def do_GET(self):  # noqa: N802 - http.server contract
                api._handle(self, "GET")

            def do_POST(self):  # noqa: N802 - http.server contract
                api._handle(self, "POST")

        self._server = ThreadingHTTPServer((host, port), Handler)
        self._server.daemon_threads = True

    # -- Lifecycle -----------------------------------------------------------
    @property
    def host(self) -> str:
        return self._server.server_address[0]

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    @property
    def queue(self) -> DurableJobQueue | None:
        return self._queue

    def resume(self) -> dict:
        """Recover the durable queue (see :meth:`DurableJobQueue.resume`).

        Call once before serving.  Returns the queue's report with
        handles flattened to job ids (JSON-friendly for the serving
        banner); ``{}`` on a server without a durable queue.
        """
        if self._queue is None:
            return {}
        report = self._queue.resume(self._service)
        resumed: list[JobHandle] = report.get("resumed", [])
        for handle in resumed:
            row = self._store.queue_row(handle.job_id)
            self._tenants[handle.job_id] = (row or {}).get("tenant")
        report["resumed"] = [handle.job_id for handle in resumed]
        return report

    def start(self) -> None:
        """Serve on a background thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name=f"debug-http-{self.port}",
            daemon=True,
        )
        self._thread.start()

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown`."""
        self._server.serve_forever()

    def shutdown(self) -> None:
        """Stop serving and join the serve thread; raises if it
        outlives 5 s."""
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            thread, self._thread = self._thread, None
            thread.join(timeout=5.0)
            if thread.is_alive():
                raise RuntimeError(f"{thread.name} did not stop within 5s")

    def __enter__(self) -> "DebugServiceHTTP":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- Request plumbing ----------------------------------------------------
    def _handle(self, handler, method: str) -> None:
        split = urlsplit(handler.path)
        segments = [part for part in split.path.split("/") if part]
        params = parse_qs(split.query)
        try:
            if method == "GET":
                self._route_get(handler, segments, params)
            else:
                self._route_post(handler, segments)
        except HTTPError as error:
            self._send_json(
                handler, error.status, {"error": error.message}
            )
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away mid-stream; nothing to answer
        except Exception as error:  # pragma: no cover - defensive
            try:
                self._send_json(handler, 500, {"error": repr(error)})
            except Exception:
                pass

    @staticmethod
    def _send_json(handler, status: int, payload) -> None:
        body = json.dumps(payload, sort_keys=True, default=repr).encode(
            "utf-8"
        )
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    @staticmethod
    def _read_body(handler) -> dict:
        length = int(handler.headers.get("Content-Length") or 0)
        raw = handler.rfile.read(length) if length else b""
        if not raw:
            raise HTTPError(400, "empty request body (expected JSON)")
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as error:
            raise HTTPError(400, f"invalid JSON body: {error}")
        if not isinstance(payload, dict):
            raise HTTPError(400, "JSON body must be an object")
        return payload

    def _route_get(self, handler, segments, params) -> None:
        if segments == ["healthz"]:
            self._send_json(handler, 200, {"status": "ok"})
            return
        if segments == ["stats"]:
            self._send_json(handler, 200, self._service.stats())
            return
        if segments == ["jobs"]:
            self._send_json(handler, 200, self.jobs_index())
            return
        if len(segments) == 2 and segments[0] == "jobs":
            self._send_json(handler, 200, self.job_detail(segments[1]))
            return
        if (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "events"
        ):
            self._stream_events(handler, segments[1], params)
            return
        if segments == ["query"]:
            self._send_json(handler, 200, self.run_query(params))
            return
        if segments == ["dashboard"]:
            self._send_json(handler, 200, self.dashboard(params))
            return
        raise HTTPError(404, f"no such resource: /{'/'.join(segments)}")

    def _route_post(self, handler, segments) -> None:
        if segments == ["jobs"]:
            self._send_json(handler, 201, self.submit_payload(
                self._read_body(handler)
            ))
            return
        if (
            len(segments) == 3
            and segments[0] == "jobs"
            and segments[2] == "cancel"
        ):
            job_id = segments[1]
            handle = self._service.jobs.get(job_id)
            if handle is None:
                raise HTTPError(404, f"unknown job {job_id!r}")
            self._send_json(
                handler, 200,
                {"job_id": job_id, "cancelled": handle.cancel()},
            )
            return
        raise HTTPError(404, f"no such resource: /{'/'.join(segments)}")

    # -- Submission ----------------------------------------------------------
    def _resolve_payload(self, payload: dict) -> dict:
        workload = payload.get("workload")
        if workload is None:
            return dict(payload)
        template = self._templates.get(str(workload))
        if template is None:
            known = ", ".join(sorted(self._templates)) or "(none)"
            raise HTTPError(
                400, f"unknown workload {workload!r}; templates: {known}"
            )
        merged = dict(template)
        merged.update(payload)
        merged.setdefault("workflow", str(workload))
        return merged

    def _quota_for(self, tenant: str | None) -> TenantQuota:
        if tenant is not None and tenant in self._quotas:
            return self._quotas[tenant]
        return self._default_quota

    def _active_jobs(self, tenant: str | None) -> int:
        return sum(
            1
            for job_id, handle in self._service.jobs.items()
            if self._tenants.get(job_id) == tenant
            and not handle.status.terminal
        )

    def submit_payload(self, payload: dict) -> dict:
        """Admit one submission (the ``POST /jobs`` body) as a job.

        Payload resolution: an optional ``workload`` template is merged
        under the payload, the tenant's quota is enforced (429), the
        spec is rebuilt via the durable codec (400 on malformed
        payloads), a live duplicate id is a conflict (409) while a
        terminal one is latest-wins (the old record is discarded), and
        on a store-backed server the job rides the durable queue.
        """
        merged = self._resolve_payload(payload)
        tenant = merged.pop("tenant", None)
        tenant = str(tenant) if tenant is not None else None
        quota = self._quota_for(tenant)
        if "priority" in merged and merged["priority"] is not None:
            priority = max(1, min(int(merged["priority"]), quota.priority))
        else:
            priority = quota.priority
        merged["priority"] = priority
        job_id = merged.get("job_id")
        if not job_id:
            raise HTTPError(400, "payload must carry a non-empty job_id")
        job_id = str(job_id)
        # Every admitted job is traced: mint a root context at this edge
        # unless the caller brought its own (joining a wider trace).
        if not isinstance(merged.get("trace"), dict):
            merged["trace"] = TraceContext.new().to_payload()
        try:
            spec = spec_from_payload(merged)
        except HTTPError:
            raise
        except Exception as error:
            raise HTTPError(400, f"cannot build job from payload: {error}")
        with self._lock:
            if quota.max_active is not None:
                active = self._active_jobs(tenant)
                if active >= quota.max_active:
                    raise HTTPError(
                        429,
                        f"tenant {tenant or 'default'!r} has {active} "
                        f"active job(s), quota allows {quota.max_active}",
                    )
            existing = self._service.jobs.get(job_id)
            if existing is not None:
                if not existing.status.terminal:
                    raise HTTPError(
                        409, f"job {job_id!r} is still {existing.status.value}"
                    )
                # Latest-wins: the durable queue resets its row and the
                # event sink purges the prior incarnation's log.
                self._service.discard_job(job_id)
            if self._queue is not None:
                handle = self._queue.submit(self._service, spec, tenant=tenant)
            else:
                handle = self._service.submit(spec)
            self._tenants[job_id] = tenant
        return {
            "job_id": job_id,
            "status": handle.status.value,
            "tenant": tenant,
            "priority": priority,
            "durable": self._queue is not None,
            "trace_id": merged["trace"].get("trace_id"),
        }

    # -- Read models ---------------------------------------------------------
    def jobs_index(self) -> list[dict]:
        """Every known job: persisted rows, live handles, queue rows."""
        entries: dict[str, dict] = {}
        if self._store is not None:
            for row in self._store.job_rows():
                entries[row["job_id"]] = {
                    "job_id": row["job_id"],
                    "status": row["status"],
                    "workflow": row["workflow"],
                }
            if hasattr(self._store, "queue_rows"):
                for row in self._store.queue_rows():
                    entries.setdefault(
                        row["job_id"],
                        {
                            "job_id": row["job_id"],
                            "status": (
                                "queued"
                                if row["status"] == "queued"
                                else row["status"]
                            ),
                            "workflow": row["payload"].get("workflow"),
                        },
                    )
        for job_id, handle in self._service.jobs.items():
            entries[job_id] = {
                "job_id": job_id,
                "status": handle.status.value,
                "workflow": handle.spec.workflow,
                "tenant": self._tenants.get(job_id),
            }
        return [entries[job_id] for job_id in sorted(entries)]

    def job_detail(self, job_id: str) -> dict:
        """One job's status -- terminal jobs serve the durable record.

        Terminal responses are built from the persisted ``jobs`` row
        and terminal event (after a flush barrier), *never* from the
        in-memory result -- so the bytes a client reads for a finished
        job are identical before and after a service restart.
        """
        handle = self._service.jobs.get(job_id)
        if handle is not None and not handle.status.terminal:
            return {
                "job_id": job_id,
                "status": handle.status.value,
                "tenant": self._tenants.get(job_id),
                "workflow": handle.spec.workflow,
            }
        if self._store is not None:
            events = self._service.events
            if isinstance(events, DurableEventBus):
                events.flush(timeout=5.0)
            row = self._store.job_row(job_id)
            if row is not None:
                detail = {
                    "job_id": job_id,
                    "status": row["status"],
                    "workflow": row["workflow"],
                    "algorithm": row["algorithm"],
                    "spec_fingerprint": row["spec_fingerprint"],
                    "report_fingerprint": row["report_fingerprint"],
                    "budget_spent": row["budget_spent"],
                    "wall_seconds": row["wall_seconds"],
                }
                rows = self._store.job_event_rows(job_id)
                payload = None
                if rows and rows[-1]["terminal"]:
                    payload = rows[-1]["payload"]
                elif not rows and hasattr(self._store, "job_summary_row"):
                    # Raw events compacted away: the summary keeps the
                    # terminal payload, so the detail stays servable.
                    summary = self._store.job_summary_row(job_id)
                    if summary is not None:
                        payload = summary.get("terminal_payload")
                        detail["compacted"] = True
                if payload is not None:
                    detail["causes"] = payload.get("causes")
                    detail["new_executions"] = payload.get("new_executions")
                    detail["error"] = payload.get("error")
                return detail
            if hasattr(self._store, "queue_row"):
                queued = self._store.queue_row(job_id)
                if queued is not None:
                    return {
                        "job_id": job_id,
                        "status": queued["status"],
                        "workflow": queued["payload"].get("workflow"),
                        "tenant": queued["tenant"],
                    }
        if handle is not None:
            return handle.result(timeout=0).to_dict()
        raise HTTPError(404, f"unknown job {job_id!r}")

    # -- Event streaming -----------------------------------------------------
    def _known_job(self, job_id: str) -> bool:
        if job_id in self._service.jobs:
            return True
        if self._store is None:
            return False
        if self._store.job_row(job_id) is not None:
            return True
        return (
            hasattr(self._store, "queue_row")
            and self._store.queue_row(job_id) is not None
        )

    def _stream_events(self, handler, job_id: str, params) -> None:
        """NDJSON (default) or SSE stream of one job's event log.

        Rides the bus's replay semantics: live logs stream to the
        terminal event; persisted logs of finished or crashed jobs
        replay their prefix-complete rows and end.  ``start`` skips,
        ``timeout`` bounds each inter-event wait (default 30s).
        """
        if not self._known_job(job_id):
            raise HTTPError(404, f"unknown job {job_id!r}")
        start = int(params.get("start", ["0"])[0])
        timeout = float(params.get("timeout", ["30"])[0])
        accept = handler.headers.get("Accept", "")
        sse = "text/event-stream" in accept
        handler.send_response(200)
        handler.send_header(
            "Content-Type",
            "text/event-stream" if sse else "application/x-ndjson",
        )
        handler.send_header("Cache-Control", "no-cache")
        handler.end_headers()
        try:
            for event in self._service.events.events(
                job_id, start=start, timeout=timeout
            ):
                data = json.dumps(
                    event.to_dict(), sort_keys=True, default=repr
                )
                if sse:
                    chunk = f"event: {event.kind}\ndata: {data}\n\n"
                else:
                    chunk = data + "\n"
                handler.wfile.write(chunk.encode("utf-8"))
                handler.wfile.flush()
        except TimeoutError:
            pass  # idle past the bound: close; the client reconnects

    # -- Process queries -----------------------------------------------------
    def run_query(self, params: dict[str, list[str]]) -> dict:
        """``/query``: delegate to :class:`~repro.obs.query.QueryEngine`.

        Query params mirror the ``repro query`` CLI: ``op`` is one of
        ``jobs``/``events``/``seq``/``agg``/``trace``; ``workflow``,
        ``kind``, ``where``, ``limit``, ``offset``, ``pattern``,
        ``metric``, ``stat``, ``group_by`` and ``trace_id`` filter as
        there.
        """
        if self._store is None:
            raise HTTPError(503, "no provenance store behind this server")
        engine = QueryEngine(self._store)
        events = self._service.events
        if isinstance(events, DurableEventBus):
            events.flush(timeout=5.0)  # query sees everything published
        op = params.get("op", ["jobs"])[0]
        workflow = params.get("workflow", [None])[0]
        offset = params.get("offset", [None])[0]
        offset = int(offset) if offset is not None else None
        try:
            if op == "jobs":
                limit = params.get("limit", [None])[0]
                return {
                    "op": op,
                    "jobs": engine.jobs(
                        workflow=workflow,
                        limit=int(limit) if limit is not None else None,
                        offset=offset,
                    ),
                }
            if op == "events":
                limit = int(params.get("limit", ["1000"])[0])
                predicates = [
                    Predicate.parse(raw) for raw in params.get("where", [])
                ]
                rows = list(
                    engine.events(
                        workflow=workflow,
                        kinds=params.get("kind") or None,
                        predicates=predicates,
                        limit=limit,
                        offset=offset,
                    )
                )
                return {"op": op, "count": len(rows), "events": rows}
            if op == "seq":
                pattern = params.get("pattern", [])
                if not pattern:
                    raise HTTPError(400, "seq needs at least one pattern step")
                limit = params.get("limit", [None])[0]
                matches = engine.sequence(
                    pattern,
                    workflow=workflow,
                    limit=int(limit) if limit is not None else None,
                    offset=offset,
                )
                return {
                    "op": op,
                    "pattern": pattern,
                    "count": len(matches),
                    "matches": matches,
                }
            if op == "trace":
                trace_id = params.get("trace_id", [None])[0]
                if not trace_id:
                    raise HTTPError(400, "trace needs a trace_id")
                return {"op": op, **engine.trace(trace_id)}
            if op == "agg":
                metric = params.get("metric", [None])[0]
                if metric is None:
                    raise HTTPError(400, "agg needs a metric")
                groups = engine.aggregate(
                    metric,
                    stat=params.get("stat", ["p95"])[0],
                    group_by=params.get("group_by", [None])[0],
                    workflow=workflow,
                )
                return {
                    "op": op,
                    "metric": metric,
                    "stat": params.get("stat", ["p95"])[0],
                    "group_by": params.get("group_by", [None])[0],
                    "groups": groups,
                    "rollup": {
                        "hits": engine.rollup_hits,
                        "misses": engine.rollup_misses,
                    },
                }
        except HTTPError:
            raise
        except ValueError as error:
            raise HTTPError(400, str(error))
        raise HTTPError(400, f"unknown query op {op!r}")

    def dashboard(self, params: dict[str, list[str]]) -> dict:
        """``/dashboard``: the longitudinal trajectories document."""
        if self._store is None:
            raise HTTPError(503, "no provenance store behind this server")
        events = self._service.events
        if isinstance(events, DurableEventBus):
            events.flush(timeout=5.0)
        bucket = float(params.get("bucket", ["3600"])[0])
        return build_dashboard(
            self._store,
            workflow=params.get("workflow", [None])[0],
            bucket_seconds=bucket,
        )
