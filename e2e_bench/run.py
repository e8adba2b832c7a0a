"""Repository benchmark: one workload, one seed, every job finished.

Run from the repository root::

    python3 e2e_bench/run.py --workload dispatch --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints the per-layer metrics (and a table of each layer's
share of the traced wall time).  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

The job list is fixed by ``--workload``, ``--seed`` and ``--seconds``
(``JOBS_PER_SECOND`` jobs per requested second, not a time box), so a
run always finishes the same work.  The service runs in a child
process started from a fresh interpreter (``service_proc.py``), which
is what ``setup_s`` and ``peak_rss_mb`` measure.  See README.md for
the workloads, the metric map and the noise lessons behind this shape.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

from spans import LAYERS

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = pathlib.Path.cwd()

# Fixed work per requested second, sized so a run's measured phase takes
# about --seconds on a 2-core host.  Constants, never measured: the job
# list must not depend on how fast this host happens to be.  ``solver``
# is not in BENCHMARK.json (too host-sensitive to gate on, see
# README.md) but runs the same way by hand.
JOBS_PER_SECOND = {"solver": 85, "dispatch": 55, "http-fleet": 14}
# Extra cold set-ups per run, half before and half after the measured
# phase so they sample more of the host's moods; setup_s and teardown_s
# summarise probes + 1 samples.  A dispatch teardown (~80 ms of worker
# exits) is the noisiest and its probes the cheapest.
SETUP_PROBES = {"solver": 6, "dispatch": 10, "http-fleet": 6}
CHILD_TIMEOUT = 150.0

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_latency_p50_s": "s",
    "job_latency_p90_s": "s",
    "teardown_s": "s",
    "instances_per_job": "count",
    "f_measure": "ratio",
    "peak_rss_mb": "MiB",
}


class Child:
    """One service process: set up, one command, one answer."""

    def __init__(self, args, traced, workdir):
        self.started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "service_proc.py"),
             args.workload, str(args.seed), str(args.count),
             "1" if traced else "0", str(workdir)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        # A wedged child must not outlive the run's time limit.
        self._watchdog = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self._watchdog.daemon = True
        self._watchdog.start()
        self.ready = self._read()
        self.setup_s = time.monotonic() - self.started

    def _read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.close()
            raise RuntimeError(f"service process exited ({self.proc.returncode})")
        return json.loads(line)

    def command(self, **command) -> dict:
        self.proc.stdin.write(json.dumps(command) + "\n")
        self.proc.stdin.flush()
        answer = self._read()
        self.close()
        return answer

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        self.proc.wait(timeout=CHILD_TIMEOUT)
        self._watchdog.cancel()
        self.proc.stdout.close()


def _fleet_clients(port: int, jobs, clients: int):
    """``clients`` closed-loop HTTP clients sharing one job list."""
    base = f"http://127.0.0.1:{port}"
    pending = collections.deque(jobs)
    seen: dict[str, dict] = {}

    def client() -> None:
        while True:
            try:
                job = pending.popleft()
            except IndexError:
                return
            started = time.monotonic()
            record = {"error": None}
            try:
                request = urllib.request.Request(
                    f"{base}/jobs",
                    data=json.dumps(job.payload()).encode("utf-8"),
                    method="POST",
                )
                with urllib.request.urlopen(request, timeout=60) as response:
                    if response.status != 201:
                        raise RuntimeError(f"POST /jobs: {response.status}")
                url = f"{base}/jobs/{job.job_id}/events?timeout=60"
                last = None
                with urllib.request.urlopen(url, timeout=90) as response:
                    for line in response:
                        last = json.loads(line)
                received = time.time()
                if last is None or not last["terminal"]:
                    raise RuntimeError("stream ended before the terminal event")
                record.update(
                    latency=time.monotonic() - started,
                    stream_lag=received - last["timestamp"],
                    fingerprint=last["data"]["report_fingerprint"],
                )
            except Exception as error:  # counted as a failed job
                record["error"] = repr(error)
            seen[job.job_id] = record

    threads = [threading.Thread(target=client) for __ in range(clients)]
    start = time.monotonic()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return seen, (start, time.monotonic())


def _cpu_times() -> list[int]:
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def host_record(cpu_before: list[int]) -> dict:
    cpu_after = _cpu_times()
    delta = [after - before for before, after in zip(cpu_before, cpu_after)]
    steal = delta[7] if len(delta) > 7 else 0
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "loadavg": os.getloadavg(),
        "cpu_steal_share": steal / sum(delta) if sum(delta) else 0.0,
    }


def measure(args, traced, workdir, jobs):
    """One measured phase in a fresh service process."""
    child = Child(args, traced, workdir)
    if args.workload == "http-fleet":
        clients = len(os.sched_getaffinity(0))
        seen, window = _fleet_clients(child.ready["port"], jobs, clients)
        done = child.command(cmd="stop", window=window)
        done["latencies"] = [
            seen[job.job_id]["latency"]
            for job in jobs
            if seen.get(job.job_id, {}).get("error") is None
        ]
        done["clients"] = seen
    else:
        done = child.command(cmd="run")
    done["setup_s"] = child.setup_s
    return done


def failures(jobs, references, done) -> dict[str, str]:
    """Job id -> what is wrong, for each job whose report is wrong or
    missing."""
    bad = {}
    clients = done.get("clients")
    for job in jobs:
        report = done["reports"].get(job.job_id)
        expected = references[job.job_id]
        problems = []
        if report is None or report["status"] != "succeeded":
            problems.append("did not succeed")
        elif report["fingerprint"] != expected:
            problems.append("report differs from the inline reference")
        if clients is not None:
            seen = clients.get(job.job_id, {})
            if seen.get("error") is not None:
                problems.append(seen["error"])
            elif seen.get("fingerprint") != expected:
                problems.append("streamed report differs from the reference")
        if job.job_id in done.get("queue_not_done", ()):
            problems.append("durable queue row not done")
        if problems:
            bad[job.job_id] = "; ".join(problems)
    return bad


def interquartile_mean(values) -> float:
    """Mean of the middle half.  Dispatch teardowns cluster near 65 and
    85 ms, so their median jumps between the clusters from run to run;
    this stays between them and still ignores a stalled sample."""
    values = sorted(values)
    quarter = len(values) // 4
    return statistics.fmean(values[quarter:len(values) - quarter])


def end_to_end(done, setups, teardowns, jobs) -> dict:
    latencies = sorted(done["latencies"])
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    window = done["window"]
    spent = [report["budget_spent"] for report in done["reports"].values()]
    return {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(jobs) / (window[1] - window[0]),
        "job_latency_p50_s": statistics.median(latencies),
        "job_latency_p90_s": deciles[8],
        "teardown_s": interquartile_mean(teardowns),
        "instances_per_job": statistics.fmean(spent),
        "f_measure": done["f_measure"],
        "peak_rss_mb": done["peak_rss_mb"],
    }


def per_layer(traced, untraced, jobs) -> dict[str, tuple[float, str]]:
    trace = traced["trace"]
    total, calls, own = trace["total"], trace["calls"], trace["self"]
    counters = traced["counters"]
    search = total.get("core.search", 0.0)
    evaluate = total.get("core.evaluate", 0.0)
    window = untraced["window"]
    untraced_rate = len(jobs) / (window[1] - window[0])
    traced_rate = len(jobs) / trace["wall"]
    stream_lags = [
        seen["stream_lag"]
        for seen in traced.get("clients", {}).values()
        if seen.get("error") is None
    ]
    waits = traced["admission_waits"]
    appends = trace["appends"]
    metrics = {
        "core.search_s": (search, "s"),
        "core.solver_self_s": (search - evaluate, "s"),
        "core.engine_s": (total.get("core.engine", 0.0), "s"),
        "core.engine_calls": (calls.get("core.engine", 0), "count"),
        "core.evaluations": (calls.get("core.evaluate", 0), "count"),
        "core.evaluate_s": (evaluate, "s"),
        "concurrency.scheduler_wait_s": (
            own.get("concurrency.scheduled", 0.0), "s"),
        "concurrency.dispatched": (counters["concurrency.dispatched"], "count"),
        "concurrency.skipped": (counters["concurrency.skipped"], "count"),
        "service.admission_wait_s": (
            statistics.fmean(waits) if waits else 0.0, "s"),
        "service.cache_s": (own.get("service.cache", 0.0), "s"),
        "service.cache_hit_ratio": (counters["service.cache_hit_ratio"], "ratio"),
        "service.cache_coalesced": (counters["service.cache_coalesced"], "count"),
        "service.http_submit_s": (total.get("service.http_submit", 0.0), "s"),
        "service.http_stream_lag_s": (
            statistics.fmean(stream_lags) if stream_lags else 0.0, "s"),
        "service.queue_s": (total.get("service.queue", 0.0), "s"),
        "service.shutdown_s": (
            trace["shutdown"].get("service.shutdown", 0.0), "s"),
        "exec.runs": (calls.get("exec.run", 0), "count"),
        "exec.run_s": (total.get("exec.run", 0.0), "s"),
        "exec.retries": (counters["exec.retries"], "count"),
        "exec.redispatches": (counters["exec.redispatches"], "count"),
        "exec.local_runs": (counters["exec.local_runs"], "count"),
        "exec.spawn_s": (traced["spawn_s"], "s"),
        "exec.worker_rss_mb": (counters["exec.worker_rss_mb"], "MiB"),
        "exec.shutdown_s": (trace["shutdown"].get("exec.shutdown", 0.0), "s"),
        "pipeline.executions": (calls.get("pipeline.compute", 0), "count"),
        "pipeline.compute_s": (total.get("pipeline.compute", 0.0), "s"),
        "obs.events_per_job": (counters["obs.events_per_job"], "count"),
        "obs.events_dropped": (counters["obs.events_dropped"], "count"),
        "obs.sink_errors": (counters["obs.sink_errors"], "count"),
        "provenance.append_events_s": (
            total.get("provenance.append_events", 0.0), "s"),
        "provenance.append_events_calls": (
            calls.get("provenance.append_events", 0), "count"),
        "provenance.rows_per_append": (
            trace["rows_appended"] / appends if appends else 0.0, "count"),
        "provenance.outcome_write_s": (
            total.get("provenance.outcome_write", 0.0), "s"),
        "provenance.lookup_s": (total.get("provenance.lookup", 0.0), "s"),
        "setup.import_s": (traced["import_s"], "s"),
        "trace.wall_s": (trace["wall"], "s"),
        "trace.unattributed_s": (trace["unattributed"], "s"),
        "trace.overhead": (1.0 - traced_rate / untraced_rate, "ratio"),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = (trace["shares"].get(layer, 0.0), "s")
    for key, value in traced["lifecycle"].items():
        metrics[f"lifecycle.{key}_left"] = (value, "count")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=JOBS_PER_SECOND)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT} holds no repro sources (src/repro); run from the"
            " repository root",
            file=sys.stderr,
        )
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import make_jobs, reference_fingerprint

    args.count = max(4, round(JOBS_PER_SECOND[args.workload] * args.seconds))
    jobs = make_jobs(args.workload, args.seed, args.count)
    references = {job.job_id: reference_fingerprint(job) for job in jobs}

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    fresh = (workdir / f"process-{index}" for index in itertools.count())
    cpu_before = _cpu_times()
    try:
        if args.trace:
            phases = {}
            for traced in (False, True):
                phases[traced] = measure(args, traced, next(fresh), jobs)
            done = phases[True]
            layered = per_layer(phases[True], phases[False], jobs)
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in layered.items()}
            print(f"per-layer wall shares, {args.workload} (traced run):")
            print(done["trace"]["table"])
            bad = failures(jobs, references, phases[False])
            bad.update(failures(jobs, references, done))
        else:
            setups, teardowns = [], []

            def probe() -> None:
                child = Child(args, False, next(fresh))
                setups.append(child.setup_s)
                teardowns.append(child.command(cmd="stop")["teardown_s"])

            probes = SETUP_PROBES[args.workload]
            for __ in range(probes // 2):
                probe()
            done = measure(args, False, next(fresh), jobs)
            setups.append(done["setup_s"])
            teardowns.append(done["teardown_s"])
            for __ in range(probes - probes // 2):
                probe()
            values = end_to_end(done, setups, teardowns, jobs)
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
            bad = failures(jobs, references, done)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": not bad,
        "attempted": len(jobs),
        "failed": len(bad),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "latency_samples": len(done["latencies"]),
        "host": host_record(cpu_before),
        **result,
    }
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    for job_id, problem in list(bad.items())[:20]:
        print(f"FAILED {job_id}: {problem}", file=sys.stderr)
    print(f"host: {json.dumps(record['host'])}")
    print(f"{len(jobs)} jobs, {record['latency_samples']} latency samples")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
