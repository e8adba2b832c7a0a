"""The service process of one benchmark run.

Started by ``run.py`` in a fresh interpreter, it sets the workload's
system up (``import repro``, store, service, pool or fleet, HTTP
server, one warm-up job), reports ``ready``, and then follows the
orchestrator's one command on stdin:

* ``run`` (``solver``, ``dispatch``): one in-process client submits the
  fixed job list through ``DebugService.submit``, waiting for each
  report before the next submit, then the system is torn down;
* ``stop``: tear down -- after the orchestrator's HTTP clients have
  finished (``http-fleet``) or right away (a set-up probe).

It answers with one JSON line: timings, each job's report, layer
counters and, in the traced run, the span analysis.  Protocol lines go
to a private copy of stdout; anything else printed lands on stderr.

The job list is regenerated here from the seed rather than shipped:
pickled instances would carry hashes from the orchestrator's process.

Usage (normally only from run.py):
    python3 e2e_bench/service_proc.py WORKLOAD SEED JOBS TRACE WORKDIR
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _children() -> list[int]:
    """Pids whose parent is this process (zombies included)."""
    me = str(os.getpid())
    found = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[1] == me:
            found.append(int(entry))
    return found


def _lifecycle() -> dict:
    return {
        "threads": threading.active_count(),
        "children": len(_children()),
        "fds": len(os.listdir("/proc/self/fd")),
    }


def _hwm_mb(pid: int) -> float:
    """A process's peak resident set (VmHWM) in MiB; 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


class System:
    """The workload's service stack, built the way ``repro serve`` does."""

    def __init__(self, workload: str, workdir: str, cores: int):
        from repro.exec import ProcessPool, RemoteWorkerPool
        from repro.provenance import SQLiteProvenanceStore
        from repro.service import DebugService, DebugServiceHTTP

        self.cores = cores
        self.store = self.pool = self.api = None
        self.fleet: list[subprocess.Popen] = []
        self.spawn_s = 0.0
        started = time.perf_counter()
        if workload == "solver":
            self.store = SQLiteProvenanceStore(os.path.join(workdir, "solver.db"))
            self.service = DebugService(workers=cores, store=self.store)
        elif workload == "dispatch":
            self.pool = ProcessPool(max_workers=cores, prewarm=cores)
            self.spawn_s = time.perf_counter() - started
            self.service = DebugService(workers=cores, pool=self.pool)
        else:
            self.store = SQLiteProvenanceStore(os.path.join(workdir, "fleet.db"))
            self.pool = RemoteWorkerPool(store=self.store, max_dispatch=cores)
            self._spawn_fleet(workdir)
            self.service = DebugService(
                workers=cores,
                store=self.store,
                pool=self.pool,
                weighted_fairness=True,
                max_concurrent_jobs=cores,
            )
            self.api = DebugServiceHTTP(self.service, store=self.store)
            self.api.resume()
            self.api.start()

    def _spawn_fleet(self, workdir: str) -> None:
        started = time.perf_counter()
        env = dict(os.environ)
        src = os.path.join(os.getcwd(), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log = open(os.path.join(workdir, "fleet.log"), "ab")
        try:
            for index in range(self.cores):
                self.fleet.append(
                    subprocess.Popen(
                        [sys.executable, "-m", "repro", "worker",
                         "--connect", self.pool.endpoint,
                         "--name", f"bench-w{index}", "--reconnect", "0"],
                        env=env,
                        stdin=subprocess.DEVNULL,
                        stdout=log,
                        stderr=log,
                    )
                )
        finally:
            log.close()
        if not self.pool.wait_for_workers(self.cores, timeout=60.0):
            raise RuntimeError("fleet workers did not join within 60s")
        self.spawn_s = time.perf_counter() - started

    def warm_up(self, workload: str) -> None:
        """One job through the full path, outside the measured list."""
        from workloads import warm_up_job

        spec = warm_up_job(workload).spec()
        result = self.service.submit(spec).result(timeout=120)
        if not result.succeeded:
            raise RuntimeError(f"warm-up job failed: {result.error!r}")

    def worker_pids(self) -> list[int]:
        if self.fleet:
            return [proc.pid for proc in self.fleet]
        return _children() if self.pool is not None else []

    def teardown(self) -> None:
        if self.api is not None:
            self.api.shutdown()
        self.service.shutdown()
        if self.pool is not None:
            self.pool.shutdown()
        for proc in self.fleet:
            proc.wait(timeout=60)
        if self.store is not None:
            self.store.close()


def _closed_loop(service, jobs) -> tuple[list[float], float, float]:
    """One client: submit, wait for the report, submit the next."""
    latencies = []
    start = time.monotonic()
    for job in jobs:
        submitted = time.monotonic()
        try:
            service.submit(job.spec()).result(timeout=120)
        except TimeoutError:
            continue  # no report: the gate counts the job as failed
        latencies.append(time.monotonic() - submitted)
    return latencies, start, time.monotonic()


def _admission_waits(service, job_ids) -> list[float]:
    """Per job: ``submitted`` event to ``started`` event."""
    waits = []
    for job_id in job_ids:
        stamps = {
            event.kind: event.monotonic
            for event in service.events.log(job_id)
            if event.kind in ("submitted", "started")
        }
        if len(stamps) == 2:
            waits.append(stamps["started"] - stamps["submitted"])
    return waits


def _layer_counters(system, job_ids) -> dict:
    """Counters the layers keep themselves, read before teardown."""
    from repro.obs.sink import DurableEventBus

    service = system.service
    stats = service.stats()
    cache = service.cache.stats
    pool = stats.get("pool", {})
    events = service.events
    sink = events.sink.stats() if isinstance(events, DurableEventBus) else {}
    logs = [len(events.log(job_id)) for job_id in job_ids]
    rss = [_hwm_mb(pid) for pid in system.worker_pids()]
    return {
        "concurrency.dispatched": stats["scheduler"]["dispatched"],
        "concurrency.skipped": stats["scheduler"]["skipped"],
        "service.cache_hit_ratio": cache.hit_rate,
        "service.cache_coalesced": cache.coalesced,
        "exec.retries": pool.get("retries", 0),
        "exec.redispatches": pool.get("redispatches", 0),
        "exec.local_runs": pool.get("local_runs", 0),
        "exec.worker_rss_mb": max(rss, default=0.0),
        "obs.events_per_job": statistics.fmean(logs) if logs else 0.0,
        "obs.events_dropped": sink.get("dropped", 0),
        "obs.sink_errors": sink.get("errors", 0),
    }


def _reports(service, job_ids) -> dict:
    from repro.service.service import report_fingerprint

    reports = {}
    for job_id in job_ids:
        handle = service.jobs.get(job_id)
        if handle is None or not handle.wait(0):
            continue  # never arrived or never finished: counted as failed
        result = handle.result()
        reports[job_id] = {
            "status": result.status.value,
            "fingerprint": report_fingerprint(result),
            "budget_spent": result.budget_spent,
            "causes": [] if result.report is None else result.report.causes,
        }
    return reports


def main(argv: list[str]) -> int:
    workload, seed, count, traced, workdir = argv
    seed, count, traced = int(seed), int(count), traced == "1"
    channel = os.fdopen(os.dup(1), "w", encoding="utf-8")
    os.dup2(2, 1)  # stray prints must not corrupt the protocol

    def send(message: dict) -> None:
        channel.write(json.dumps(message) + "\n")
        channel.flush()

    before = _lifecycle()
    started = time.perf_counter()
    sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH_DIR]
    import repro  # noqa: F401 - the import cost is what setup.import_s times
    import repro.cli  # noqa: F401

    import_s = time.perf_counter() - started
    tracer = None
    if traced:
        import spans as bench_trace
        from workloads import InlinePipeline

        tracer = bench_trace.Tracer()
        bench_trace.install(
            tracer, extra=[(InlinePipeline, "__call__", "pipeline.compute")]
        )
    cores = len(os.sched_getaffinity(0))
    os.makedirs(workdir, exist_ok=True)
    system = System(workload, workdir, cores)
    system.warm_up(workload)
    send({
        "event": "ready",
        "port": system.api.port if system.api is not None else None,
        "import_s": import_s,
        "spawn_s": system.spawn_s,
    })

    command = json.loads(sys.stdin.readline() or "{}")
    jobs = []
    latencies: list[float] = []
    window = None
    if command.get("cmd") == "run" or command.get("window"):
        from workloads import make_jobs

        jobs = make_jobs(workload, seed, count)
    if command.get("cmd") == "run":
        latencies, *window = _closed_loop(system.service, jobs)
    elif jobs:
        window = command["window"]
    job_ids = [job.job_id for job in jobs]
    queue_not_done = []
    if system.api is not None:
        queue_not_done = [
            job_id
            for job_id in job_ids
            if (system.store.queue_row(job_id) or {}).get("status") != "done"
        ]
    admission = _admission_waits(system.service, job_ids)
    counters = _layer_counters(system, job_ids)

    teardown_started = time.monotonic()
    system.teardown()
    teardown_window = (teardown_started, time.monotonic())
    teardown_s = teardown_window[1] - teardown_window[0]
    after = _lifecycle()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reports = _reports(system.service, job_ids)
    result = {
        "event": "done",
        "teardown_s": teardown_s,
        "peak_rss_mb": peak_rss_mb,
        "latencies": latencies,
        "window": window,
        "admission_waits": admission,
        "counters": counters,
        "import_s": import_s,
        "spawn_s": system.spawn_s,
        "lifecycle": {key: after[key] - before[key] for key in before},
        "queue_not_done": queue_not_done,
    }
    if jobs:
        from workloads import f_measure

        result["f_measure"] = f_measure(
            jobs, {job_id: report.pop("causes") for job_id, report in reports.items()}
        )
    result["reports"] = reports
    if tracer is not None and window is not None:
        analysis = bench_trace.Analysis(tracer.spans, tuple(window))
        shutdown = bench_trace.Analysis(tracer.spans, teardown_window)
        spans_dir = os.path.join(os.getcwd(), ".bench_work", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        tracer.dump(os.path.join(spans_dir, f"{workload}.jsonl"))
        result["trace"] = {
            "wall": analysis.wall,
            "total": dict(analysis.total),
            "calls": dict(analysis.calls),
            "self": dict(analysis.self_time),
            "shares": dict(analysis.shares),
            "unattributed": analysis.unattributed,
            "table": analysis.table(),
            "rows_appended": tracer.rows_appended,
            "appends": tracer.appends,
            "shutdown": dict(shutdown.total),
        }
    send(result)
    channel.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
