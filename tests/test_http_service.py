"""Tests for the HTTP/JSON service front-end (repro.service.http) --
the in-process API surface (submit/status/cancel, NDJSON/SSE event
streams, tenant quotas, /query) and the kill -9 restart-resume
guarantee of `repro serve --http` over the durable job queue."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.error
import urllib.request
from unittest import mock
from pathlib import Path

import pytest

from repro.core import Instance, Outcome, Parameter, ParameterSpace
from repro.exec import ExecutorSpec
from repro.provenance import SQLiteProvenanceStore
from repro.service import (
    DebugService,
    DebugServiceHTTP,
    TenantQuota,
    space_to_payload,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


def _space() -> ParameterSpace:
    return ParameterSpace(
        [
            Parameter("a", (0, 1, 2, 3)),
            Parameter("b", ("x", "y")),
        ]
    )


def _oracle(instance: Instance) -> Outcome:
    return Outcome.FAIL if instance["a"] == 0 else Outcome.SUCCEED


def make_http_oracle():
    """Importable executor builder (resolved via this test module)."""
    return _oracle


def make_slow_oracle(delay=0.2):
    """Oracle with a per-execution sleep: keeps a job reliably live
    while a test probes its in-flight behavior (409s, quotas, cancel)."""
    def slow(instance: Instance) -> Outcome:
        time.sleep(delay)
        return _oracle(instance)

    return slow


def _payload(job_id: str, **extra) -> dict:
    payload = {
        "job_id": job_id,
        "workflow": extra.pop("workflow", "http"),
        "algorithm": "decision_trees",
        "goal": "find_all",
        "budget": 40,
        "executor_spec": ExecutorSpec.from_builder(
            "test_http_service:make_http_oracle"
        ).to_wire(),
        "space": space_to_payload(_space()),
    }
    payload.update(extra)
    return payload


def _get(port: int, path: str, headers: dict | None = None):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", headers=headers or {}
    )
    with urllib.request.urlopen(request, timeout=60) as response:
        return response.status, response.read()


def _post(port: int, path: str, payload: dict):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


@pytest.fixture
def api(tmp_path):
    store = SQLiteProvenanceStore(tmp_path / "http.db")
    service = DebugService(
        workers=2, store=store, weighted_fairness=True, max_concurrent_jobs=2
    )
    api = DebugServiceHTTP(
        service,
        store=store,
        quotas={
            "capped": TenantQuota(max_active=1, priority=2),
            "blocked": TenantQuota(max_active=0),
        },
    )
    api.start()
    yield api
    api.shutdown()
    service.shutdown()
    store.close()


class TestHTTPAPI:
    def test_shutdown_raises_when_serve_thread_outlives_join(self, api):
        serving = api._thread
        api._thread = mock.Mock(**{"is_alive.return_value": True})
        api._thread.name = "debug-http"
        with pytest.raises(RuntimeError, match="debug-http"):
            api.shutdown()
        serving.join(5.0)
        assert not serving.is_alive()

    def test_health_and_stats(self, api):
        status, body = _get(api.port, "/healthz")
        assert (status, json.loads(body)) == (200, {"status": "ok"})
        status, body = _get(api.port, "/stats")
        assert status == 200
        assert "admission" in json.loads(body)

    def test_submit_stream_and_detail(self, api):
        status, accepted = _post(api.port, "/jobs", _payload("j1"))
        assert status == 201
        assert accepted["job_id"] == "j1"
        assert accepted["durable"] is True

        # NDJSON stream rides the bus to the terminal event.
        status, body = _get(api.port, "/jobs/j1/events?timeout=30")
        lines = [json.loads(line) for line in body.decode().splitlines()]
        assert status == 200
        assert lines[0]["kind"] == "submitted"
        assert lines[-1]["kind"] == "finished"
        assert lines[-1]["terminal"] is True
        # seq-prefix completeness: no gaps in the replayed stream.
        assert [line["seq"] for line in lines] == list(range(len(lines)))

        # Terminal detail is served from the persisted record.
        status, body = _get(api.port, "/jobs/j1")
        detail = json.loads(body)
        assert status == 200
        assert detail["status"] == "succeeded"
        assert detail["causes"] and "a" in detail["causes"][0]
        assert detail["new_executions"] >= 1

        status, body = _get(api.port, "/jobs")
        assert status == 200
        assert [job["job_id"] for job in json.loads(body)] == ["j1"]

    def test_sse_stream_frames_events(self, api):
        _post(api.port, "/jobs", _payload("sse"))
        status, body = _get(
            api.port,
            "/jobs/sse/events?timeout=30",
            headers={"Accept": "text/event-stream"},
        )
        assert status == 200
        frames = [f for f in body.decode().split("\n\n") if f]
        assert frames[0].startswith("event: submitted\ndata: ")
        assert frames[-1].startswith("event: finished\ndata: ")
        json.loads(frames[-1].splitlines()[1].removeprefix("data: "))

    def test_unknown_routes_and_jobs_are_404(self, api):
        for path in ("/nope", "/jobs/missing", "/jobs/missing/events"):
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                _get(api.port, path)
            assert excinfo.value.code == 404

    def test_malformed_submissions_are_400(self, api):
        status, body = _post(api.port, "/jobs", {"workflow": "x"})
        assert status == 400
        assert "job_id" in body["error"]
        payload = _payload("bad")
        del payload["executor_spec"]
        status, body = _post(api.port, "/jobs", payload)
        assert status == 400

    def test_live_duplicate_conflicts_terminal_duplicate_replaces(self, api):
        slow = ExecutorSpec.from_builder(
            "test_http_service:make_slow_oracle"
        ).to_wire()
        # Live duplicate: the slow job is reliably in flight when the
        # duplicate arrives.
        status, _ = _post(
            api.port, "/jobs", _payload("dup2", executor_spec=slow)
        )
        assert status == 201
        status, body = _post(api.port, "/jobs", _payload("dup2"))
        assert status == 409
        assert "dup2" in body["error"]
        # Terminal duplicate: latest-wins resubmission is accepted.
        _post(api.port, "/jobs", _payload("dup"))
        _get(api.port, "/jobs/dup/events?timeout=30")
        status, body = _post(api.port, "/jobs", _payload("dup"))
        assert status == 201

    def test_tenant_quota_enforced_and_priority_capped(self, api):
        status, body = _post(
            api.port, "/jobs", _payload("q0", tenant="blocked")
        )
        assert status == 429
        assert "quota" in body["error"]

        # priority requests are capped at the tenant's quota priority.
        slow = ExecutorSpec.from_builder(
            "test_http_service:make_slow_oracle"
        ).to_wire()
        status, body = _post(
            api.port,
            "/jobs",
            _payload("q1", tenant="capped", priority=99, executor_spec=slow),
        )
        assert status == 201
        assert body["priority"] == 2
        # Second in-flight job for the capped tenant hits max_active=1
        # while the slow job is live.
        status, body = _post(
            api.port, "/jobs", _payload("q2", tenant="capped")
        )
        assert status == 429
        # Other tenants are unaffected by that tenant's quota.
        status, body = _post(
            api.port, "/jobs", _payload("q3", tenant="other")
        )
        assert status == 201

    def test_cancel_endpoint(self, api):
        slow = ExecutorSpec.from_builder(
            "test_http_service:make_slow_oracle"
        ).to_wire()
        _post(api.port, "/jobs", _payload("c1", executor_spec=slow))
        status, body = _post(api.port, "/jobs/c1/cancel", {})
        assert status == 200
        assert body["job_id"] == "c1"
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(api.port, "/jobs/missing/cancel")
        assert excinfo.value.code == 404

    def test_query_endpoint_delegates_to_engine(self, api):
        _post(api.port, "/jobs", _payload("qq", workflow="wq"))
        _get(api.port, "/jobs/qq/events?timeout=30")

        status, body = _get(api.port, "/query?op=jobs")
        jobs = json.loads(body)["jobs"]
        assert status == 200
        assert [job["job_id"] for job in jobs] == ["qq"]

        status, body = _get(
            api.port,
            "/query?op=agg&metric=budget_spent&stat=count&group_by=workflow",
        )
        agg = json.loads(body)
        assert status == 200
        assert agg["groups"]["wq"]["jobs"] == 1

        status, body = _get(
            api.port, "/query?op=events&kind=finished&limit=5"
        )
        events = json.loads(body)
        assert status == 200
        assert events["count"] == 1
        assert events["events"][0]["kind"] == "finished"

        status, body = _get(
            api.port, "/query?op=seq&pattern=submitted&pattern=finished"
        )
        assert json.loads(body)["count"] == 1

        with pytest.raises(urllib.error.HTTPError) as excinfo:
            _get(api.port, "/query?op=agg")  # agg without metric
        assert excinfo.value.code == 400


SLEEPY_WORKLOAD = '''\
"""Marker-file workload for the restart-resume test: every pipeline
execution appends its instance to a per-job marker file, so the test
can count real executions across service incarnations."""

import time

from repro.core import Instance, Outcome


def make_executor(marker=None, delay=0.0):
    def executor(instance: Instance) -> Outcome:
        if marker:
            with open(marker, "a") as handle:
                handle.write(
                    ",".join(f"{k}={instance[k]}" for k in sorted(instance))
                    + "\\n"
                )
        if delay:
            time.sleep(delay)
        return Outcome.FAIL if instance["a"] == 0 else Outcome.SUCCEED

    return executor
'''


def _marker_lines(path: Path) -> list[str]:
    if not path.exists():
        return []
    return path.read_text().splitlines()


class TestRestartResume:
    """Satellite 4 / the PR's acceptance criterion: a kill -9'd
    `repro serve --http` restarted on the same store resumes every
    queued job exactly once and serves byte-identical results for
    already-finished jobs."""

    @staticmethod
    def _launch(db: Path, env: dict):
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--http",
                "0",
                "--store",
                str(db),
                "--workers",
                "1",
            ],
            stdout=subprocess.PIPE,
            cwd=REPO_ROOT,
            env=env,
            text=True,
        )
        banner = json.loads(process.stdout.readline())["serving"]
        return process, banner

    @staticmethod
    def _sleepy_payload(job_id: str, marker: Path, delay: float, **extra):
        space = ParameterSpace(
            [
                Parameter("a", tuple(range(10))),
                Parameter("b", tuple(range(10))),
            ]
        )
        payload = {
            "job_id": job_id,
            "workflow": job_id,
            "algorithm": "decision_trees",
            "goal": "find_all",
            "budget": 25,
            "executor_spec": ExecutorSpec.from_builder(
                "sleepy_workload:make_executor",
                marker=str(marker),
                delay=delay,
            ).to_wire(),
            "space": space_to_payload(space),
        }
        payload.update(extra)
        return payload

    def test_sigkill_restart_resumes_queued_jobs_exactly_once(
        self, tmp_path
    ):
        (tmp_path / "sleepy_workload.py").write_text(SLEEPY_WORKLOAD)
        db = tmp_path / "serve.db"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(tmp_path)]
        )
        fin_marker = tmp_path / "fin.marker"
        stuck_marker = tmp_path / "stuck.marker"
        queued_marker = tmp_path / "queued.marker"

        process, banner = self._launch(db, env)
        try:
            port = banner["port"]
            assert banner["durable"] is True

            # fin: completes and streams before the crash.
            status, _ = _post(
                port, "/jobs", self._sleepy_payload("fin", fin_marker, 0.0)
            )
            assert status == 201
            _get(port, "/jobs/fin/events?timeout=60")
            status, fin_before = _get(port, "/jobs/fin")
            assert status == 200
            assert json.loads(fin_before)["status"] == "succeeded"
            fin_runs_before = _marker_lines(fin_marker)
            assert fin_runs_before

            # stuck: slow job hogging the single worker when the
            # service dies; queued: admitted behind it, never started.
            status, _ = _post(
                port,
                "/jobs",
                self._sleepy_payload("stuck", stuck_marker, 0.15, budget=30),
            )
            assert status == 201
            status, _ = _post(
                port,
                "/jobs",
                self._sleepy_payload("queued", queued_marker, 0.0),
            )
            assert status == 201

            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                if _marker_lines(stuck_marker):
                    break
                time.sleep(0.05)
            assert _marker_lines(stuck_marker), "stuck job never started"
            # The queued job must still be waiting for the worker.
            assert _marker_lines(queued_marker) == []
            status, body = _get(port, "/jobs/queued")
            assert json.loads(body)["status"] == "pending"

            os.kill(process.pid, signal.SIGKILL)
            process.wait(timeout=30)
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=30)

        process, banner = self._launch(db, env)
        try:
            port = banner["port"]
            # Both non-terminal jobs were claimed rows without terminal
            # results: the restart re-queues and resumes each once.
            assert banner["resume"]["requeued"] == 2
            assert sorted(banner["resume"]["resumed"]) == ["queued", "stuck"]
            assert banner["resume"]["replayed"] == 0
            assert banner["resume"]["corrupt"] == []

            deadline = time.monotonic() + 120
            status_now = None
            while time.monotonic() < deadline:
                status_now = json.loads(_get(port, "/jobs/queued")[1])[
                    "status"
                ]
                if status_now in ("succeeded", "failed", "cancelled"):
                    break
                time.sleep(0.2)
            assert status_now == "succeeded"

            # Exactly once: every pipeline execution of the queued job
            # happened in the second incarnation, with no duplicates.
            queued_runs = _marker_lines(queued_marker)
            assert queued_runs
            assert len(queued_runs) == len(set(queued_runs))

            # The finished job replays byte-identically with zero
            # re-execution.
            status, fin_after = _get(port, "/jobs/fin")
            assert status == 200
            assert fin_after == fin_before
            assert _marker_lines(fin_marker) == fin_runs_before
        finally:
            process.terminate()
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=30)
