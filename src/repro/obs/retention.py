"""Retention + compaction: roll terminal jobs' raw events into summaries.

``job_events`` grows without bound under real traffic (every run of
every job appends rows).  Operating the telemetry tables over months of
history means *compacting*: once a terminal job's raw stream has aged
past the policy's bounds, its events fold into one ``job_summaries``
row (event counts by kind, span p50/p95, first/last timestamps, the
terminal payload, solver/cache counters) and the raw rows are deleted.
What survives compaction:

* the ``jobs`` row (identity, status, fingerprints) -- ``repro query
  jobs`` is unchanged;
* ``job_rollups`` (the incrementally maintained per-job aggregates) --
  ``repro query agg`` over ``span:``/``count:`` metrics is
  byte-identical before and after;
* ``event_rollups`` (the per-window ingest ledger);
* the new ``job_summaries`` row -- the dashboard's longitudinal input.

What does not: raw per-event rows, so ``events``/``seq``/``trace``
queries only see jobs still inside the retained window.

Safety against a live writer is the store's CAS guard
(:meth:`~repro.provenance.store.SQLiteProvenanceStore.compact_job`):
the decision taken here (job X, status S, finished_at T, summary built
from its events) is re-validated inside the write transaction, so a job
resubmitted mid-sweep (latest-wins purge) is skipped, never half
compacted.  Each job commits atomically -- a ``kill -9`` mid-sweep
leaves every job fully compacted or fully raw, and re-running
``compact`` converges (it is idempotent over already-compacted jobs,
which simply have no raw events left).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

from .metrics import percentile

__all__ = ["RetentionPolicy", "RetentionThread", "compact", "summarize_job"]

#: Job statuses eligible for compaction (only terminal streams roll up).
TERMINAL_STATUSES = ("succeeded", "failed", "cancelled")


@dataclass(frozen=True)
class RetentionPolicy:
    """When a terminal job's raw events become compactable.

    Attributes:
        max_age_seconds: compact jobs whose last event is older than
            this (None disables the age bound).
        max_raw_jobs: keep at most this many terminal jobs raw; the
            *oldest* beyond the bound compact regardless of age (None
            disables the count bound).
        statuses: terminal statuses the policy applies to.
        status_max_age: per-status age overrides, e.g. keep failures
            raw 10x longer for debugging: ``{"failed": 864000}``.
    """

    max_age_seconds: float | None = None
    max_raw_jobs: int | None = None
    statuses: tuple = TERMINAL_STATUSES
    status_max_age: dict = field(default_factory=dict)

    def age_bound(self, status: str) -> float | None:
        return self.status_max_age.get(status, self.max_age_seconds)


def summarize_job(
    job_row: dict, event_rows: list[dict], compacted_at: float
) -> dict:
    """Fold a job's raw event rows into its summary columns.

    The summary keeps what the longitudinal dashboard and post-hoc
    debugging need once the raw rows are gone: per-kind counts, span
    duration distributions (p50/p95/total per span name), first/last
    wall timestamps, the terminal event's payload verbatim, and the
    operational counters (cache hits, queue latency) mined from the
    stream.
    """
    kind_counts: dict[str, int] = {}
    span_seconds: dict[str, list[float]] = {}
    counters: dict[str, float] = {}
    terminal_payload = None
    first_ts = last_ts = None
    submitted_ts = started_ts = None
    for row in event_rows:
        ts = float(row.get("ts_wall", 0.0))
        first_ts = ts if first_ts is None else min(first_ts, ts)
        last_ts = ts if last_ts is None else max(last_ts, ts)
        kind = str(row.get("kind"))
        kind_counts[kind] = kind_counts.get(kind, 0) + 1
        payload = row.get("payload") or {}
        if kind == "submitted" and submitted_ts is None:
            submitted_ts = ts
        elif kind == "started" and started_ts is None:
            started_ts = ts
        elif kind == "span":
            name = payload.get("name")
            if isinstance(name, str):
                try:
                    seconds = float(payload.get("seconds", 0.0))
                except (TypeError, ValueError):
                    continue
                span_seconds.setdefault(name, []).append(seconds)
        elif kind == "metrics_snapshot":
            cache = payload.get("cache")
            if isinstance(cache, dict):
                for key in ("hits", "misses", "executions"):
                    value = cache.get(key)
                    if isinstance(value, (int, float)):
                        counters[f"cache_{key}"] = float(value)
        if row.get("terminal"):
            terminal_payload = dict(payload)
    if submitted_ts is not None and started_ts is not None:
        counters["queue_seconds"] = started_ts - submitted_ts
    span_stats = {
        name: {
            "count": len(values),
            "total": sum(values),
            "p50": percentile(values, 0.50),
            "p95": percentile(values, 0.95),
        }
        for name, values in sorted(span_seconds.items())
    }
    return {
        "event_count": len(event_rows),
        "first_ts": first_ts,
        "last_ts": last_ts,
        "kind_counts": kind_counts,
        "span_stats": span_stats,
        "counters": counters,
        "terminal_payload": terminal_payload,
        "compacted_at": compacted_at,
    }


def compact(
    store,
    policy: RetentionPolicy,
    now: float | None = None,
    workflow: str | None = None,
    compact_all: bool = False,
) -> dict:
    """One retention sweep: compact every policy-eligible terminal job.

    ``compact_all=True`` ignores the age/count bounds and compacts
    every terminal job with raw events (the ``repro compact --all``
    maintenance path).  Returns a report dict: jobs examined /
    compacted / skipped (CAS losses), events deleted.
    """
    now = time.time() if now is None else now
    stats = {row["job_id"]: row for row in store.job_event_stats()}
    candidates = []
    terminal_raw = 0
    for job in store.job_rows(workflow=workflow):
        status = str(job.get("status"))
        if status not in policy.statuses:
            continue
        stat = stats.get(job["job_id"])
        if stat is None:
            continue  # already compacted (or never persisted events)
        terminal_raw += 1
        age = now - stat["last_ts"]
        bound = policy.age_bound(status)
        due = compact_all or (bound is not None and age >= bound)
        candidates.append((stat["last_ts"], job, due))
    candidates.sort(key=lambda item: item[0])
    if not compact_all and policy.max_raw_jobs is not None:
        overflow = terminal_raw - policy.max_raw_jobs
        if overflow > 0:
            candidates = [
                (ts, job, True) if index < overflow else (ts, job, due)
                for index, (ts, job, due) in enumerate(candidates)
            ]
    report = {"examined": terminal_raw, "compacted": 0, "skipped": 0, "events_deleted": 0}
    for __, job, due in candidates:
        if not due:
            continue
        event_rows = store.job_event_rows(job["job_id"])
        summary = summarize_job(job, event_rows, compacted_at=now)
        deleted = store.compact_job(
            job["job_id"],
            expected_status=str(job["status"]),
            expected_finished_at=job["finished_at"],
            summary=summary,
        )
        if deleted is None:
            # CAS guard lost: the job was resubmitted or re-finished
            # between the read above and the write.  Skip; a later
            # sweep sees the new incarnation.
            report["skipped"] += 1
        else:
            report["compacted"] += 1
            report["events_deleted"] += deleted
    return report


class RetentionThread:
    """Periodic background compaction inside ``repro serve``.

    Daemon thread; sweep failures are recorded (``stats()``) but never
    take the service down.  ``stop()`` wakes and joins it.
    """

    def __init__(
        self,
        store,
        policy: RetentionPolicy,
        interval_seconds: float = 300.0,
    ):
        self._store = store
        self._policy = policy
        self._interval = interval_seconds
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._stats = {"sweeps": 0, "compacted": 0, "events_deleted": 0, "errors": 0}
        self._thread = threading.Thread(
            target=self._loop, name="repro-retention", daemon=True
        )

    def start(self) -> "RetentionThread":
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            self.sweep()

    def sweep(self) -> dict | None:
        """Run one sweep now (also used by tests); None on error."""
        try:
            report = compact(self._store, self._policy)
        except Exception:
            with self._lock:
                self._stats["errors"] += 1
            return None
        with self._lock:
            self._stats["sweeps"] += 1
            self._stats["compacted"] += report["compacted"]
            self._stats["events_deleted"] += report["events_deleted"]
        return report

    def stats(self) -> dict:
        with self._lock:
            return dict(self._stats)

    def stop(self) -> None:
        """Wake and join the sweeper; raises if it outlives 5 s."""
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
            if self._thread.is_alive():
                raise RuntimeError(f"{self._thread.name} did not stop within 5s")
