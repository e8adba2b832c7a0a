"""Retention/compaction, incremental rollups, and the dashboard.

The load-bearing invariants:

* **Rollup differential** -- ``repro query agg`` over ``span:`` /
  ``count:`` metrics answers from the incrementally maintained
  ``job_rollups`` table; the answer must be *byte-identical* (JSON
  bytes, not approximately equal) to the raw-event rescan, before and
  after compaction deletes the raw rows.
* **Compaction safety** -- per-job atomic CAS: a ``kill -9`` mid-sweep
  leaves every job fully compacted or fully raw, re-running converges,
  and a concurrent resubmission (latest-wins) makes the CAS guard skip
  that job rather than half-compact it.
* **Dashboard determinism** -- the rendered document is canonical:
  byte-identical across repeated builds over the same store.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest

from repro.obs.dashboard import build_dashboard, diff_dashboards, render_dashboard
from repro.obs.query import QueryEngine
from repro.obs.retention import (
    RetentionPolicy,
    RetentionThread,
    compact,
    summarize_job,
)
from repro.provenance import SQLiteProvenanceStore

#: job -> (workflow, status, created_at, solver span seconds).  Spans
#: include awkward floats (1e-17 + 1.0 sums are order-sensitive) so the
#: byte-differential actually exercises IEEE accumulation order.
_JOBS = {
    "a1": ("alpha", "succeeded", 100.0, [1e-17, 1.0, 1e-17]),
    "a2": ("alpha", "succeeded", 200.0, [0.3, 0.1, 0.2]),
    "a3": ("alpha", "failed", 300.0, [2.5]),
    "b1": ("beta", "succeeded", 400.0, [-0.0]),
    "b2": ("beta", "cancelled", 500.0, []),
}


def _populate(store: SQLiteProvenanceStore, jobs=_JOBS) -> None:
    for job_id, (wf, status, created, spans) in jobs.items():
        store.begin_job(
            job_id, workflow=wf, algorithm="combined",
            spec_fingerprint="fp-" + wf, created_at=created,
        )
        rows = []
        seq = 0
        for kind in ("submitted", "started"):
            rows.append({
                "job_id": job_id, "seq": seq, "kind": kind,
                "ts_wall": created + seq, "ts_monotonic": seq,
                "terminal": False, "payload": {},
            })
            seq += 1
        for seconds in spans:
            rows.append({
                "job_id": job_id, "seq": seq, "kind": "span",
                "ts_wall": created + seq, "ts_monotonic": seq,
                "terminal": False,
                "payload": {"name": "solver", "seconds": seconds},
            })
            seq += 1
        rows.append({
            "job_id": job_id, "seq": seq, "kind": "metrics_snapshot",
            "ts_wall": created + seq, "ts_monotonic": seq,
            "terminal": False,
            "payload": {"cache": {"hits": 3, "misses": 1, "executions": 4}},
        })
        seq += 1
        rows.append({
            "job_id": job_id, "seq": seq, "kind": "finished",
            "ts_wall": created + seq, "ts_monotonic": seq,
            "terminal": True, "payload": {"status": status, "causes": [[1]]},
        })
        store.append_job_events(rows)
        store.finish_job(
            job_id, status=status, report_fingerprint="r-" + job_id,
            budget_spent=10, wall_seconds=float(len(rows)),
            finished_at=created + seq,
        )


@pytest.fixture()
def db_path(tmp_path):
    return tmp_path / "retention.db"


@pytest.fixture()
def store(db_path):
    store = SQLiteProvenanceStore(db_path)
    _populate(store)
    yield store
    store.close()


_METRICS = (
    ("span:solver", "sum"), ("span:solver", "mean"), ("span:solver", "p50"),
    ("span:solver", "p95"), ("span:solver", "min"), ("span:solver", "max"),
    ("span:solver", "count"), ("count:span", "sum"), ("count:finished", "count"),
    ("count:submitted", "sum"),
)


def _agg_bytes(engine: QueryEngine, group_by=None) -> bytes:
    answers = {
        f"{metric}/{stat}": engine.aggregate(metric, stat=stat, group_by=group_by)
        for metric, stat in _METRICS
    }
    return json.dumps(answers, sort_keys=True).encode()


class TestRollupDifferential:
    def test_rollup_agg_byte_identical_to_raw(self, store):
        fast = QueryEngine(store, use_rollups=True)
        slow = QueryEngine(store, use_rollups=False)
        for group_by in (None, "workflow", "status"):
            assert _agg_bytes(fast, group_by) == _agg_bytes(slow, group_by)
        assert fast.rollup_hits == 3 * len(_METRICS)
        assert fast.rollup_misses == 0
        assert slow.rollup_hits == 0
        assert slow.rollup_misses == 3 * len(_METRICS)

    def test_rollup_workflow_filter_matches_raw(self, store):
        fast = QueryEngine(store, use_rollups=True)
        slow = QueryEngine(store, use_rollups=False)
        for wf in ("alpha", "beta"):
            a = fast.aggregate("span:solver", stat="sum", workflow=wf)
            b = slow.aggregate("span:solver", stat="sum", workflow=wf)
            assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_duplicate_append_does_not_double_count(self, store):
        # ``INSERT OR IGNORE`` on the event rows must also skip the
        # rollup delta, or replayed batches inflate the aggregates.
        rows = store.job_event_rows("a1")
        store.append_job_events(rows)
        fast = QueryEngine(store, use_rollups=True)
        slow = QueryEngine(store, use_rollups=False)
        assert _agg_bytes(fast) == _agg_bytes(slow)

    def test_migration_backfill_rebuilds_rollups(self, db_path, store):
        expected = _agg_bytes(QueryEngine(store, use_rollups=False))
        # Simulate a pre-v6 store: drop the rollups, rewind the version.
        with store._lock:
            store._connection.execute("DELETE FROM job_rollups")
            store._connection.execute("DELETE FROM event_rollups")
            store._connection.execute("PRAGMA user_version = 5")
            store._connection.commit()
        store.close()
        reopened = SQLiteProvenanceStore(db_path)
        try:
            fast = QueryEngine(reopened, use_rollups=True)
            assert _agg_bytes(fast) == expected
            assert fast.rollup_hits > 0
            assert reopened.event_rollup_rows()  # ledger rebuilt too
        finally:
            reopened.close()

    def test_latest_wins_purges_rollups_and_summary(self, store):
        report = compact(store, RetentionPolicy(), compact_all=True)
        assert report["compacted"] == 5
        assert store.job_summary_row("a1") is not None
        store.begin_job("a1", workflow="alpha", created_at=900.0)
        assert store.job_summary_row("a1") is None
        assert store.rollup_values("span:solver").get("a1") is None

    def test_event_rollup_ledger_is_monotone(self, store):
        before = {
            (r["window_start"], r["kind"]): r["count"]
            for r in store.event_rollup_rows()
        }
        # Resubmission purges the job-scoped tables but the ingest
        # ledger only ever accumulates.
        store.begin_job("a1", workflow="alpha", created_at=900.0)
        compact(store, RetentionPolicy(), compact_all=True)
        after = {
            (r["window_start"], r["kind"]): r["count"]
            for r in store.event_rollup_rows()
        }
        for key, count in before.items():
            assert after[key] >= count


class TestCompaction:
    def test_compact_all_keeps_jobs_and_agg_byte_identical(self, store):
        engine = QueryEngine(store)
        jobs_before = json.dumps(engine.jobs(), sort_keys=True)
        agg_before = _agg_bytes(engine, group_by="workflow")
        report = compact(store, RetentionPolicy(), compact_all=True)
        assert report == {
            "examined": 5, "compacted": 5, "skipped": 0,
            "events_deleted": sum(
                4 + len(spans) for *_rest, spans in _JOBS.values()
            ),
        }
        assert store.job_event_count() == 0
        after = QueryEngine(store)
        assert json.dumps(after.jobs(), sort_keys=True) == jobs_before
        assert _agg_bytes(after, group_by="workflow") == agg_before
        assert after.rollup_misses == 0

    def test_partial_compact_leaves_other_workflow_queries_intact(self, store):
        engine = QueryEngine(store)
        events_before = json.dumps(
            list(engine.events(workflow="beta")), sort_keys=True
        )
        seq_before = json.dumps(
            engine.sequence(["submitted", "finished"], workflow="beta"),
            sort_keys=True,
        )
        compact(store, RetentionPolicy(), workflow="alpha", compact_all=True)
        after = QueryEngine(store)
        assert json.dumps(
            list(after.events(workflow="beta")), sort_keys=True
        ) == events_before
        assert json.dumps(
            after.sequence(["submitted", "finished"], workflow="beta"),
            sort_keys=True,
        ) == seq_before
        assert not list(after.events(workflow="alpha"))

    def test_cas_guard_skips_on_status_mismatch(self, store):
        rows = store.job_event_rows("a1")
        job = next(j for j in store.job_rows() if j["job_id"] == "a1")
        summary = summarize_job(job, rows, compacted_at=1000.0)
        deleted = store.compact_job(
            "a1", expected_status="failed",  # actually succeeded
            expected_finished_at=job["finished_at"], summary=summary,
        )
        assert deleted is None
        assert store.job_event_rows("a1") == rows
        assert store.job_summary_row("a1") is None

    def test_age_bound_and_status_override(self, store):
        policy = RetentionPolicy(
            max_age_seconds=1000.0, status_max_age={"failed": 10_000.0}
        )
        # Last events land at created+seq; with now=1400 a1 (last_ts
        # 106) and a2 (206) are past the 1000s bound -- a3 (304) is
        # older than b1 but "failed" gets the 10x debugging override.
        report = compact(store, policy, now=1400.0)
        assert report["compacted"] == 2
        assert store.job_summary_row("a1") is not None
        assert store.job_summary_row("a2") is not None
        assert store.job_summary_row("a3") is None

    def test_count_bound_compacts_oldest_overflow(self, store):
        report = compact(store, RetentionPolicy(max_raw_jobs=3), now=1e9)
        assert report["compacted"] == 2
        assert store.job_summary_row("a1") is not None
        assert store.job_summary_row("a2") is not None
        assert store.job_summary_row("a3") is None

    def test_compact_is_idempotent(self, store):
        compact(store, RetentionPolicy(), compact_all=True)
        again = compact(store, RetentionPolicy(), compact_all=True)
        assert again == {
            "examined": 0, "compacted": 0, "skipped": 0, "events_deleted": 0,
        }

    def test_summarize_job_ground_truth(self, store):
        job = next(j for j in store.job_rows() if j["job_id"] == "a2")
        summary = summarize_job(
            job, store.job_event_rows("a2"), compacted_at=42.0
        )
        assert summary["event_count"] == 7
        assert summary["first_ts"] == 200.0 and summary["last_ts"] == 206.0
        assert summary["kind_counts"] == {
            "submitted": 1, "started": 1, "span": 3,
            "metrics_snapshot": 1, "finished": 1,
        }
        solver = summary["span_stats"]["solver"]
        assert solver["count"] == 3
        assert solver["total"] == 0.3 + 0.1 + 0.2
        assert summary["counters"] == {
            "cache_hits": 3.0, "cache_misses": 1.0, "cache_executions": 4.0,
            "queue_seconds": 1.0,
        }
        assert summary["terminal_payload"]["status"] == "succeeded"
        assert summary["compacted_at"] == 42.0


_KILLER_CHILD = """
import os, signal, sys
from repro.provenance import SQLiteProvenanceStore
from repro.obs.retention import RetentionPolicy, compact

store = SQLiteProvenanceStore(sys.argv[1])
real = store.compact_job
state = {"n": 0}

def compact_then_die(*args, **kwargs):
    result = real(*args, **kwargs)
    state["n"] += 1
    if state["n"] >= 3:
        os.kill(os.getpid(), signal.SIGKILL)
    return result

store.compact_job = compact_then_die
compact(store, RetentionPolicy(), compact_all=True)
"""


class TestCrashRecovery:
    def test_kill_nine_mid_sweep_leaves_jobs_atomic(self, db_path, store):
        agg_before = _agg_bytes(QueryEngine(store), group_by="workflow")
        store.close()
        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        child = subprocess.run(
            [sys.executable, "-c", _KILLER_CHILD, str(db_path)],
            env=env,
            capture_output=True,
        )
        assert child.returncode == -signal.SIGKILL, child.stderr.decode()
        reopened = SQLiteProvenanceStore(db_path)
        try:
            # Invariant: every terminal job is fully compacted (summary,
            # no raw events) XOR fully raw (events, no summary).
            raw = {r["job_id"] for r in reopened.job_event_stats()}
            compacted = 0
            for job in reopened.job_rows():
                job_id = job["job_id"]
                summary = reopened.job_summary_row(job_id)
                assert (summary is not None) != (job_id in raw), job_id
                compacted += summary is not None
            assert compacted == 3  # the child died after its third commit
            # Re-running converges: the survivors compact, nothing skips.
            report = compact(reopened, RetentionPolicy(), compact_all=True)
            assert report["compacted"] == len(_JOBS) - 3
            assert report["skipped"] == 0
            assert reopened.job_event_count() == 0
            # And the rollup-served aggregates never flinched.
            assert _agg_bytes(
                QueryEngine(reopened), group_by="workflow"
            ) == agg_before
        finally:
            reopened.close()


class TestRetentionThread:
    def test_sweep_compacts_and_counts(self, store):
        thread = RetentionThread(
            store, RetentionPolicy(max_age_seconds=0.0), interval_seconds=3600.0
        )
        report = thread.sweep()
        assert report["compacted"] == 5
        stats = thread.stats()
        assert stats["sweeps"] == 1
        assert stats["compacted"] == 5
        assert stats["errors"] == 0
        thread.start()
        thread.stop()

    def test_sweep_error_is_contained(self, store):
        thread = RetentionThread(store, RetentionPolicy())
        store.close()
        assert thread.sweep() is None
        assert thread.stats()["errors"] == 1

    def test_idle_thread_stops_promptly(self, store):
        thread = RetentionThread(
            store, RetentionPolicy(), interval_seconds=3600.0
        ).start()
        started = time.perf_counter()
        thread.stop()
        assert time.perf_counter() - started <= 0.1
        assert not any(
            t.name == "repro-retention" for t in threading.enumerate()
        )

    def test_stop_raises_when_sweeper_outlives_join(self, store):
        thread = RetentionThread(store, RetentionPolicy())
        thread._thread = mock.Mock(**{"is_alive.return_value": True})
        thread._thread.name = "repro-retention"
        with pytest.raises(RuntimeError, match="repro-retention"):
            thread.stop()


class TestQueryPagination:
    def test_jobs_limit_offset(self, store):
        engine = QueryEngine(store)
        every = engine.jobs()
        assert engine.jobs(limit=2) == every[:2]
        assert engine.jobs(limit=2, offset=2) == every[2:4]
        assert engine.jobs(offset=4) == every[4:]

    def test_events_offset(self, store):
        engine = QueryEngine(store)
        every = list(engine.events(kinds=["span"]))
        assert list(engine.events(kinds=["span"], offset=2)) == every[2:]
        assert list(
            engine.events(kinds=["span"], limit=2, offset=1)
        ) == every[1:3]

    def test_sequence_limit_offset(self, store):
        engine = QueryEngine(store)
        every = engine.sequence(["submitted", "finished"])
        assert len(every) == 5
        assert engine.sequence(["submitted", "finished"], limit=2) == every[:2]
        assert engine.sequence(
            ["submitted", "finished"], limit=2, offset=3
        ) == every[3:]


class TestDashboard:
    def test_render_is_deterministic(self, store):
        first = render_dashboard(build_dashboard(store))
        second = render_dashboard(build_dashboard(store))
        assert first == second
        document = json.loads(first)
        assert set(document["families"]) == {"alpha", "beta"}

    def test_compaction_only_moves_the_compacted_counter(self, store):
        before = build_dashboard(store)
        compact(store, RetentionPolicy(), compact_all=True)
        after = build_dashboard(store)
        lines = diff_dashboards(before, after)
        assert lines and all(".compacted:" in line for line in lines)

    def test_diff_reports_metric_movement(self, store):
        before = build_dashboard(store)
        after = json.loads(json.dumps(before))
        after["families"]["alpha"][0]["success_rate"] = 0.0
        lines = diff_dashboards(before, after)
        assert len(lines) == 1 and "success_rate" in lines[0]
        assert diff_dashboards(before, before) == []

    def test_success_rate_and_span_stats(self, store):
        document = build_dashboard(store, bucket_seconds=1e9)
        (alpha,) = document["families"]["alpha"]
        assert alpha["jobs"] == 3
        assert alpha["succeeded"] == 2 and alpha["failed"] == 1
        assert alpha["success_rate"] == round(2 / 3, 6)
        assert alpha["spans"]["solver"]["jobs"] == 3
        assert alpha["cache_hit_rate"] == 0.75
