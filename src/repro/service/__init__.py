"""Debugging job service (substrate S4): scheduler, cache, jobs, service.

The seed repo parallelized pipeline executions *within* one debugging
session (the paper's Figure 6 prototype).  This subpackage turns that
into a multi-tenant service:

* :mod:`~repro.service.cache` -- a cross-session execution cache with
  single-flight deduplication and an optional persistent tier backed
  by the provenance store;
* :mod:`~repro.service.jobs` -- the job model (spec, handle, result,
  cancellation);
* :mod:`~repro.service.service` -- :class:`DebugService`, which wires a
  per-job :class:`~repro.core.session.DebugSession` into the shared
  infrastructure while keeping the paper's per-job cost accounting
  exact;
* :mod:`~repro.service.queue` -- :class:`DurableJobQueue`, the
  crash-safe admission queue over the schema-v5 ``job_queue`` table
  plus the JobSpec <-> JSON payload codec;
* :mod:`~repro.service.http` -- :class:`DebugServiceHTTP`, the
  stdlib HTTP/JSON front-end (submit/status/cancel, NDJSON/SSE event
  streams, per-tenant quotas, ``/query``).

The raw concurrency primitives (the shared scheduler and the
single-flight cache) live below this layer in :mod:`repro.concurrency`.
"""

from .cache import CachedExecutor, ExecutionCache
from .jobs import JobCancelled, JobGoal, JobHandle, JobResult, JobSpec, JobStatus
from .queue import (
    DurableJobQueue,
    space_from_payload,
    space_to_payload,
    spec_from_payload,
    spec_to_payload,
)
from .service import DebugService
from .http import DebugServiceHTTP, HTTPError, TenantQuota

__all__ = [
    "CachedExecutor",
    "DebugService",
    "DebugServiceHTTP",
    "DurableJobQueue",
    "ExecutionCache",
    "HTTPError",
    "JobCancelled",
    "JobGoal",
    "JobHandle",
    "JobResult",
    "JobSpec",
    "JobStatus",
    "TenantQuota",
    "space_from_payload",
    "space_to_payload",
    "spec_from_payload",
    "spec_to_payload",
]
