"""Command-line interface: debug the bundled workloads and rerun figures.

Usage (after ``pip install -e .``, which provides the ``repro`` script)::

    repro list
    repro debug gan --algorithm decision_trees --budget 200
    repro debug ml --algorithm shortcut --output json
    repro debug ml --watch
    repro debug dbsherlock --anomaly cpu_saturation
    repro synth --scenario disjunction --pipelines 5
    repro serve ml gan --replicas 3 --workers 8 --output json
    repro serve ml --events jsonl --backend process
    repro serve ml --store runs.db --metrics json
    repro serve ml gan --http 8080 --store runs.db --workers 4
    repro query jobs --store runs.db
    repro query seq suspect_confirmed suspect_refuted --store runs.db
    repro query agg --metric span:solver --stat p95 --group-by workflow \
        --store runs.db

``debug`` runs BugDoc on one of the Section 5.3 workloads and prints
the asserted minimal definitive root causes next to the planted ground
truth (``--output json`` emits the same report machine-readably for
service clients; ``--watch`` streams live progress events while the
search runs, durably when ``--store`` is given).  ``synth`` generates a
synthetic suite and reports FindOne metrics for the chosen algorithm.
``serve`` runs a batch of debugging jobs concurrently on one
:class:`~repro.service.DebugService` -- the shared scheduler and
cross-job execution cache -- and reports per-job results plus
service-level statistics; ``--events jsonl`` streams every job event
as a JSON line while the batch runs, ``--backend process`` executes
the pipelines on a :class:`~repro.exec.ProcessPool` of worker
processes, ``--store`` additionally persists every job's event log
(schema v4), and ``--metrics json`` appends the service metrics
snapshot.  ``serve --http PORT`` runs the always-on HTTP/JSON
front-end instead of a batch: jobs arrive over ``POST /jobs``, stream
their event logs over NDJSON/SSE, and -- with ``--store`` -- ride the
schema-v5 durable job queue, so a killed server resumes queued work
exactly once on restart.  ``query`` is the process-query engine over persisted logs:
``jobs`` lists job rows, ``events`` streams filtered events as JSON
lines, ``seq`` finds jobs matching an ordered event pattern
(SIGNAL-style eventually-follows), and ``agg`` computes grouped
aggregates (count/sum/mean/min/max/p50/p95) over span durations,
event counts, or job columns.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time

from .core import Algorithm, BugDoc, DDTConfig, DebugSession
from .eval import format_table, match_synthetic, score_find_one
from .exec import EventBus, ExecutorSpec, ProcessPool
from .service import DebugService, JobGoal, JobSpec
from .synth import Scenario, make_suite
from .workloads import data_polygamy, dbsherlock, gan_training, ml_pipeline

WORKLOADS = ("ml", "data_polygamy", "gan", "dbsherlock")
# Workloads with executable simulators (dbsherlock is replay-only, so a
# shared execution pool cannot create new instances for it).
SERVE_WORKLOADS = ("ml", "data_polygamy", "gan")
# Spawn-safe executor builders for --backend process (worker processes
# rebuild the pipeline from these import paths).
WORKLOAD_BUILDERS = {
    "ml": "repro.workloads.ml_pipeline:make_executor",
    "data_polygamy": "repro.workloads.data_polygamy:make_executor",
    "gan": "repro.workloads.gan_training:make_executor",
}


def _algorithm(name: str) -> Algorithm:
    try:
        return Algorithm(name)
    except ValueError:
        valid = ", ".join(a.value for a in Algorithm)
        raise SystemExit(f"unknown algorithm {name!r}; choose from: {valid}")


def _workload_bundle(workload: str):
    """(executor, space, history, true causes, label) for an executable
    workload -- shared by ``debug`` and ``serve``."""
    if workload == "ml":
        executor = ml_pipeline.make_executor()
        return (
            executor,
            ml_pipeline.make_space(),
            ml_pipeline.table1_history(executor),
            [ml_pipeline.true_cause()],
            "ml-classification",
        )
    if workload == "data_polygamy":
        return (
            data_polygamy.make_executor(),
            data_polygamy.make_space(),
            None,
            data_polygamy.true_causes(),
            "data-polygamy",
        )
    return (
        gan_training.make_executor(),
        gan_training.make_space(),
        None,
        gan_training.true_causes(),
        "gan-training",
    )


def _build_debug_target(args):
    """Return (session, true causes, label)."""
    if args.workload == "dbsherlock":
        case = dbsherlock.build_case(args.anomaly, seed=args.seed)
        session = case.make_session(budget=args.budget)
        return session, case.true_causes, f"dbsherlock/{args.anomaly}"
    executor, space, history, true_causes, label = _workload_bundle(
        args.workload
    )
    session = DebugSession(executor, space, history=history)
    return session, true_causes, label


def cmd_list(args) -> int:
    rows = [
        ["ml", "Figure 1 classification pipeline (library-version bug)"],
        ["data_polygamy", "crash debugging, 12 parameters (Section 5.3)"],
        ["gan", "mode-collapse hunting, 6x5 parameters (Section 5.3)"],
        ["dbsherlock", "OLTP anomalies, historical mode (Section 5.3)"],
    ]
    print(format_table(["workload", "description"], rows, title="Workloads"))
    print()
    print("Algorithms: " + ", ".join(a.value for a in Algorithm))
    return 0


def _format_event(event, started: float) -> str:
    """One human-readable progress line for ``repro debug --watch``.

    ``started`` is a ``time.monotonic()`` reading: offsets are computed
    monotonic-minus-monotonic (events stamp ``event.monotonic`` at
    publish).  Wall clocks (``event.timestamp``) can step backwards
    under NTP and must never be subtracted to produce a duration.
    """
    offset = event.monotonic - started
    details = " ".join(f"{k}={v}" for k, v in event.payload.items())
    return f"[{offset:7.2f}s] {event.kind:<18} {details}".rstrip()


def cmd_debug(args) -> int:
    session, true_causes, label = _build_debug_target(args)
    if args.budget is not None and session.budget.limit is None:
        session.budget._limit = args.budget  # noqa: SLF001 - CLI convenience
    algorithm = _algorithm(args.algorithm)
    bugdoc = BugDoc(session=session, seed=args.seed)

    def run_search():
        if algorithm in (Algorithm.SHORTCUT, Algorithm.STACKED_SHORTCUT):
            return bugdoc.find_one(algorithm)
        return bugdoc.find_all(
            algorithm,
            ddt_config=DDTConfig(
                find_all=True, tests_per_suspect=args.tests_per_suspect,
                seed=args.seed,
            ),
        )

    started = time.perf_counter()
    mono_started = time.monotonic()
    if args.watch:
        # Live progress: the search runs on a worker thread publishing
        # to a local event bus; the main thread streams the events.
        # With --output json the event lines go to stderr so stdout
        # stays a single machine-readable document.  With --store the
        # bus is durable: the watch stream is also written through to
        # the schema-v4 event log, queryable later via `repro query`
        # (a rerun under the same label replaces the prior log).
        store = None
        if getattr(args, "store", None) is not None:
            from .obs import DurableEventBus
            from .provenance import SQLiteProvenanceStore

            store = SQLiteProvenanceStore(args.store)
            bus: EventBus = DurableEventBus(store)
            bus.publish(
                label,
                "submitted",
                {"workflow": label, "algorithm": algorithm.value},
            )
        else:
            bus = EventBus()
        session.progress = bus.publisher(label)
        sink = sys.stderr if args.output == "json" else sys.stdout
        box: dict[str, object] = {}

        def worker() -> None:
            try:
                box["report"] = run_search()
            except BaseException as error:
                box["error"] = error
            finally:
                try:
                    bus.publish(
                        label,
                        "finished",
                        {
                            "status": (
                                "failed" if "error" in box else "succeeded"
                            ),
                            "budget_spent": session.budget.spent,
                            "wall_seconds": time.perf_counter() - started,
                        },
                        close=True,
                    )
                except Exception:
                    pass

        thread = threading.Thread(
            target=worker, name="repro-debug-watch", daemon=True
        )
        thread.start()
        for event in bus.events(label):
            if not event.terminal:
                print(_format_event(event, mono_started), file=sink, flush=True)
        thread.join()
        if store is not None:
            bus.close()  # type: ignore[union-attr]
            store.close()
        if "error" in box:
            raise box["error"]  # type: ignore[misc]
        report = box["report"]
    else:
        report = run_search()
    elapsed = time.perf_counter() - started

    if args.output == "json":
        payload = {
            "workload": label,
            "algorithm": algorithm.value,
            "causes": [str(cause) for cause in report.causes],
            "ground_truth": [str(cause) for cause in true_causes],
            "instances_executed": report.instances_executed,
            "budget": {
                "limit": session.budget.limit,
                "spent": session.budget.spent,
                "exhausted": report.budget_exhausted,
            },
            "wall_seconds": elapsed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0

    print(f"workload: {label}")
    print(f"algorithm: {algorithm.value}")
    print(f"instances executed: {report.instances_executed}  "
          f"({elapsed:.2f}s wall)")
    print("\nasserted minimal definitive root causes:")
    if report.causes:
        for cause in report.causes:
            print(f"  - {cause}")
    else:
        print("  (none)")
    print("\nplanted ground truth:")
    for cause in true_causes:
        print(f"  - {cause}")
    return 0


def _serve_specs(workload: str, args) -> list[JobSpec]:
    """Build all replica jobs for one workload.

    The (deterministic) executor and any seed history are built once
    and shared: replicas are separate jobs, but re-running e.g. the ml
    Table 1 instances per replica would waste the very executions the
    service deduplicates.  (The service copies the history per session,
    so sharing the object across specs is safe.)
    """
    executor, space, history, _, _ = _workload_bundle(workload)
    algorithm = _algorithm(args.algorithm)
    goal = (
        JobGoal.FIND_ONE
        if algorithm in (Algorithm.SHORTCUT, Algorithm.STACKED_SHORTCUT)
        else JobGoal.FIND_ALL
    )
    executor_spec = None
    if getattr(args, "backend", "inline") in ("process", "remote"):
        executor_spec = ExecutorSpec.from_builder(WORKLOAD_BUILDERS[workload])
    from .obs.trace import TraceContext

    return [
        JobSpec(
            job_id=f"{workload}-r{replica}",
            executor=executor,
            executor_spec=executor_spec,
            space=space,
            workflow=workload,
            algorithm=algorithm,
            goal=goal,
            budget=args.budget,
            history=history,
            seed=args.seed + replica,
            parallel_batches=args.parallel_batches,
            # One root context per job, minted here at the CLI edge:
            # every event the job publishes anywhere (service, pool
            # worker, fleet worker) carries this trace_id.
            trace=TraceContext.new().to_payload(),
        )
        for replica in range(args.replicas)
    ]


def _http_templates(workloads) -> dict:
    """Named submit templates for the HTTP front-end, one per workload.

    Each template is a durable-queue payload skeleton (executor wire
    spec + parameter-space tables); a ``POST /jobs`` body that names
    the workload inherits it and only has to add a ``job_id``.  Spaces
    come from ``make_space()`` directly -- templates must stay cheap,
    so no executor (or ml Table 1 history) is built here.
    """
    from .service import space_to_payload

    spaces = {
        "ml": ml_pipeline.make_space,
        "data_polygamy": data_polygamy.make_space,
        "gan": gan_training.make_space,
    }
    return {
        workload: {
            "workflow": workload,
            "algorithm": "combined",
            "goal": "find_all",
            "executor_spec": ExecutorSpec.from_builder(
                WORKLOAD_BUILDERS[workload]
            ).to_wire(),
            "space": space_to_payload(spaces[workload]()),
        }
        for workload in workloads
    }


def _cmd_serve_http(args, workloads) -> int:
    """``repro serve --http PORT``: the always-on HTTP/JSON service.

    Jobs arrive over HTTP instead of as a fixed batch.  With --store
    the durable job queue makes submissions crash-safe: on start-up
    the queue is recovered, so jobs queued when a previous incarnation
    was killed resume exactly once and finished jobs replay from the
    persisted ``jobs``/``job_events`` tables with zero re-execution.
    """
    import signal

    from .service import DebugServiceHTTP, TenantQuota

    store = None
    if args.store is not None:
        from .provenance import SQLiteProvenanceStore

        store = SQLiteProvenanceStore(args.store)
    pool = None
    fleet_procs = []
    if args.backend == "process":
        pool = ProcessPool(
            max_workers=args.workers,
            prewarm=min(2, args.workers),
            store_path=args.store,
        )
    elif args.backend == "remote":
        import subprocess

        from .exec import RemoteWorkerPool

        pool = RemoteWorkerPool(store=store, max_dispatch=args.workers)
        for index in range(args.fleet):
            fleet_procs.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--connect",
                        pool.endpoint,
                        "--name",
                        f"http-w{index}",
                        "--reconnect",
                        "3",
                    ]
                )
            )
        if args.fleet and not pool.wait_for_workers(1, timeout=30.0):
            print(
                "warning: no fleet worker joined; runs fall back locally",
                file=sys.stderr,
            )
    quotas = {}
    for raw in args.quota or []:
        try:
            tenant, caps = raw.split("=", 1)
            max_active_text, __, priority_text = caps.partition(":")
            quotas[tenant] = TenantQuota(
                max_active=int(max_active_text),
                priority=int(priority_text) if priority_text else 1,
            )
        except ValueError:
            raise SystemExit(
                f"--quota must be TENANT=MAX_ACTIVE[:PRIORITY], got {raw!r}"
            )
    service = DebugService(
        workers=args.workers,
        store=store,
        pool=pool,
        autoscale=args.autoscale,
        # The HTTP tier maps tenant quotas onto JobSpec.priority, so
        # the scheduler must honor priorities as proportional weights;
        # the controller pool is sized to the worker count.
        weighted_fairness=True,
        max_concurrent_jobs=max(args.workers, 1),
    )
    api = DebugServiceHTTP(
        service,
        store=store,
        port=args.http,
        templates=_http_templates(workloads),
        quotas=quotas,
    )
    resume_report = api.resume()
    retention = None
    if store is not None and args.compact_interval > 0:
        from .obs.retention import RetentionPolicy, RetentionThread

        retention = RetentionThread(
            store,
            RetentionPolicy(max_age_seconds=args.compact_max_age),
            interval_seconds=args.compact_interval,
        ).start()

    def _terminate(signum, frame):  # noqa: ARG001 - signal contract
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _terminate)
    # The banner is machine-readable: smoke tests bind port 0 and read
    # the real port back from this line.
    print(
        json.dumps(
            {
                "serving": {
                    "host": api.host,
                    "port": api.port,
                    "workloads": list(workloads),
                    "durable": api.queue is not None,
                    "resume": resume_report,
                }
            },
            sort_keys=True,
        ),
        flush=True,
    )
    try:
        api.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if retention is not None:
            retention.stop()
        api.shutdown()
        service.shutdown()
        if pool is not None:
            pool.shutdown()
        for proc in fleet_procs:
            proc.terminate()
        for proc in fleet_procs:
            try:
                proc.wait(timeout=5.0)
            except Exception:
                proc.kill()
        if store is not None:
            store.close()
    return 0


def cmd_serve(args) -> int:
    """Run many debugging jobs concurrently on one DebugService."""
    if args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.replicas < 1:
        raise SystemExit("--replicas must be at least 1")
    # Dedupe while preserving order: `serve gan gan` would otherwise
    # build colliding job ids.
    workloads = list(dict.fromkeys(args.workloads or SERVE_WORKLOADS))
    for workload in workloads:
        if workload not in SERVE_WORKLOADS:
            raise SystemExit(
                f"workload {workload!r} not servable; choose from: "
                + ", ".join(SERVE_WORKLOADS)
            )
    if args.http is not None:
        return _cmd_serve_http(args, workloads)
    store = None
    if args.store is not None:
        from .provenance import SQLiteProvenanceStore

        store = SQLiteProvenanceStore(args.store)
    specs = [
        spec for workload in workloads for spec in _serve_specs(workload, args)
    ]
    pool = None
    fleet_procs = []
    if args.backend == "process":
        pool = ProcessPool(
            max_workers=args.workers,
            prewarm=min(2, args.workers),
            store_path=args.store,
        )
    elif args.backend == "remote":
        import subprocess

        from .exec import RemoteWorkerPool

        pool = RemoteWorkerPool(store=store, max_dispatch=args.workers)
        for index in range(args.fleet):
            fleet_procs.append(
                subprocess.Popen(
                    [
                        sys.executable,
                        "-m",
                        "repro",
                        "worker",
                        "--connect",
                        pool.endpoint,
                        "--name",
                        f"serve-w{index}",
                        "--reconnect",
                        "3",
                    ]
                )
            )
        if args.fleet and not pool.wait_for_workers(1, timeout=30.0):
            print(
                "warning: no fleet worker joined; runs fall back locally",
                file=sys.stderr,
            )
    started = time.perf_counter()
    try:
        with DebugService(
            workers=args.workers,
            store=store,
            pool=pool,
            autoscale=args.autoscale,
        ) as service:
            if args.events == "jsonl":
                # Subscribe before submitting: the firehose has no
                # replay, so the subscription must exist before the
                # first event can fire.
                stream = service.events.stream()
                handles = [service.submit(spec) for spec in specs]
                finished = 0
                for event in stream:
                    print(
                        json.dumps(event.to_dict(), sort_keys=True),
                        flush=True,
                    )
                    if event.kind == "finished":
                        finished += 1
                        if finished == len(handles):
                            break
                results = [handle.result() for handle in handles]
            else:
                results = service.run_all(specs)
            elapsed = time.perf_counter() - started
            cache_stats = service.cache.stats.snapshot()
            scheduler_stats = service.scheduler.stats_snapshot()
            service_stats = service.stats()
            metrics_snapshot = (
                service.metrics.snapshot() if args.metrics == "json" else None
            )
    finally:
        if pool is not None:
            pool.shutdown()
        for proc in fleet_procs:
            proc.terminate()
        for proc in fleet_procs:
            try:
                proc.wait(timeout=5.0)
            except Exception:
                proc.kill()
        if store is not None:
            store.close()

    if args.output == "json":
        # Per-job entries carry their own wall_seconds and cache stats
        # (requests / hits / executions), so the batch summary agrees
        # with the per-job progress events instead of reporting only
        # service-wide aggregates.
        print(
            json.dumps(
                {
                    "jobs": [result.to_dict() for result in results],
                    "service": {
                        "workers": args.workers,
                        "backend": args.backend,
                        "wall_seconds": elapsed,
                        "cache": cache_stats,
                        "scheduler": scheduler_stats,
                        "pool": pool.stats() if pool is not None else None,
                        "events": service_stats.get("events"),
                    },
                    "metrics": metrics_snapshot,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0 if all(result.succeeded for result in results) else 1

    rows = [
        [
            result.job_id,
            result.status.value,
            "; ".join(str(c) for c in result.report.causes)
            if result.report is not None and result.report.causes
            else "(none)",
            str(result.new_executions),
            str(result.cache_stats.get("hits", 0))
            if result.cache_stats
            else "-",
            # Per-job columnar-engine health: reference-path fallbacks
            # (0 on clean runs) / compile-cache hits / store shards.
            f"{result.engine_stats['fallbacks']}"
            f"/{result.engine_stats['compile_hits']}"
            f"/{result.engine_stats.get('shards', 1)}"
            if result.engine_stats
            else "-",
            f"{result.wall_seconds:.2f}s",
        ]
        for result in results
    ]
    print(
        format_table(
            [
                "job",
                "status",
                "causes",
                "executed",
                "cache hits",
                "fb/ch/sh",
                "wall",
            ],
            rows,
            title=f"DebugService: {len(results)} jobs, {args.workers} workers",
        )
    )
    print()
    print(
        f"service wall: {elapsed:.2f}s  "
        f"pipeline executions: {cache_stats['executions']:.0f}  "
        f"cache hit rate: {cache_stats['hit_rate']:.0%}  "
        f"coalesced in-flight: {cache_stats['coalesced']:.0f}"
    )
    print(
        f"scheduler: {scheduler_stats['dispatched']} dispatched, "
        f"{scheduler_stats['skipped']} budget-skipped"
    )
    pool_stats = service_stats.get("pool")
    if pool_stats is not None and "spawned" in pool_stats:
        print(
            f"pool: {pool_stats['runs']} runs, "
            f"{pool_stats['store_hits']} store hits, "
            f"{pool_stats['spawned']} spawned, "
            f"{pool_stats['crashes']} crashes, "
            f"{pool_stats['timeouts']} timeouts, "
            f"{pool_stats['retries']} retries"
        )
    elif pool_stats is not None:
        print(
            f"fleet: {pool_stats['runs']} runs "
            f"({pool_stats['local_runs']} local), "
            f"{pool_stats['store_hits']} store hits, "
            f"{pool_stats['workers_joined']} joined, "
            f"{pool_stats['workers_evicted']} evicted, "
            f"{pool_stats['workers_rejoined']} rejoined, "
            f"{pool_stats['redispatches']} redispatched"
        )
    event_stats = service_stats.get("events")
    if event_stats is not None:
        print(
            f"event log: {event_stats['flushed']} persisted, "
            f"{event_stats['dropped']} dropped, "
            f"{event_stats['errors']} errors"
        )
    if metrics_snapshot is not None:
        print(json.dumps({"metrics": metrics_snapshot}, sort_keys=True))
    for result in results:
        if result.error is not None:
            print(f"{result.job_id} error: {result.error!r}")
    return 0 if all(result.succeeded for result in results) else 1


def cmd_worker(args) -> int:
    """Join a remote execution fleet and serve runs until dismissed."""
    host, __, port_text = args.connect.rpartition(":")
    try:
        port = int(port_text)
    except ValueError:
        raise SystemExit(f"--connect must be HOST:PORT, got {args.connect!r}")
    from .exec.remote import FleetWorker

    worker = FleetWorker(
        host or "127.0.0.1",
        port,
        name=args.name,
        reconnect_attempts=args.reconnect,
        max_runs=args.max_runs,
    )
    try:
        worker.run_forever()
    except KeyboardInterrupt:
        worker.stop()
    except ConnectionError as error:
        raise SystemExit(str(error))
    return 0


def cmd_query(args) -> int:
    """Process queries over a store's persisted job event logs."""
    from .obs.query import Predicate, QueryEngine
    from .provenance import SQLiteProvenanceStore

    store = SQLiteProvenanceStore(args.store)
    try:
        return _run_query(args, QueryEngine(store), Predicate)
    except BrokenPipeError:
        # Downstream pipe (head, grep -q) closed early; not an error.
        sys.stderr.close()
        return 0
    finally:
        store.close()


def _run_query(args, engine, Predicate) -> int:
    if args.query_command == "jobs":
        rows = engine.jobs(
            workflow=args.workflow, limit=args.limit, offset=args.offset
        )
        print(json.dumps(rows, indent=2, sort_keys=True))
        return 0
    if args.query_command == "events":
        try:
            predicates = [Predicate.parse(e) for e in args.where]
        except ValueError as error:
            raise SystemExit(str(error))
        for row in engine.events(
            workflow=args.workflow,
            kinds=args.kind or None,
            predicates=predicates,
            limit=args.limit,
            offset=args.offset,
        ):
            print(json.dumps(row, sort_keys=True))
        return 0
    if args.query_command == "seq":
        matches = engine.sequence(
            args.pattern,
            workflow=args.workflow,
            limit=args.limit,
            offset=args.offset,
        )
        print(
            json.dumps(
                {
                    "pattern": args.pattern,
                    "count": len(matches),
                    "matches": matches,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    if args.query_command == "trace":
        print(json.dumps(engine.trace(args.trace_id), indent=2, sort_keys=True))
        return 0
    try:
        groups = engine.aggregate(
            args.metric,
            stat=args.stat,
            group_by=args.group_by,
            workflow=args.workflow,
        )
    except ValueError as error:
        raise SystemExit(str(error))
    print(
        json.dumps(
            {
                "metric": args.metric,
                "stat": args.stat,
                "group_by": args.group_by,
                "groups": groups,
                "rollup": {
                    "hits": engine.rollup_hits,
                    "misses": engine.rollup_misses,
                },
            },
            indent=2,
            sort_keys=True,
        )
    )
    return 0


def cmd_compact(args) -> int:
    """One retention sweep: roll aged terminal jobs into summaries."""
    from .obs.retention import RetentionPolicy, compact
    from .provenance import SQLiteProvenanceStore

    if not args.compact_all and args.max_age is None and args.max_raw_jobs is None:
        raise SystemExit(
            "pass --max-age and/or --max-raw-jobs (or --all to compact"
            " every terminal job)"
        )
    policy = RetentionPolicy(
        max_age_seconds=args.max_age, max_raw_jobs=args.max_raw_jobs
    )
    store = SQLiteProvenanceStore(args.store)
    try:
        report = compact(
            store, policy, workflow=args.workflow, compact_all=args.compact_all
        )
    finally:
        store.close()
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def cmd_dashboard(args) -> int:
    """Render the longitudinal regression dashboard (canonical JSON)."""
    from .obs.dashboard import build_dashboard, diff_dashboards, render_dashboard
    from .provenance import SQLiteProvenanceStore

    store = SQLiteProvenanceStore(args.store)
    try:
        document = build_dashboard(
            store, workflow=args.workflow, bucket_seconds=args.bucket
        )
    finally:
        store.close()
    if args.diff is not None:
        with open(args.diff, encoding="utf-8") as handle:
            baseline = json.load(handle)
        lines = diff_dashboards(baseline, document)
        if not lines:
            print("dashboard matches baseline")
            return 0
        for line in lines:
            print(line)
        return 1
    sys.stdout.write(render_dashboard(document))
    return 0


def cmd_synth(args) -> int:
    scenario = Scenario(args.scenario)
    suite = make_suite(
        scenario,
        args.pipelines,
        seed=args.seed,
        min_parameters=3,
        max_parameters=7,
        min_values=5,
        max_values=10,
    )
    algorithm = _algorithm(args.algorithm)
    reports = []
    budgets = []
    import random as random_module

    for index, pipeline in enumerate(suite):
        rng = random_module.Random(args.seed + index)
        session = DebugSession(
            pipeline.oracle,
            pipeline.space,
            history=pipeline.initial_history(rng),
        )
        bugdoc = BugDoc(session=session, seed=args.seed + index)
        if algorithm in (Algorithm.SHORTCUT, Algorithm.STACKED_SHORTCUT):
            result = bugdoc.find_one(algorithm)
        else:
            result = bugdoc.find_one(
                algorithm, ddt_config=DDTConfig(find_all=False, seed=index)
            )
        budgets.append(result.instances_executed)
        reports.append(
            match_synthetic(
                result.causes,
                pipeline.true_causes,
                pipeline.space,
                pipeline.oracle,
                seed=index,
            )
        )
    prf = score_find_one(reports)
    print(f"scenario: {scenario.value}  pipelines: {len(suite)}")
    print(f"algorithm: {algorithm.value}")
    print(f"mean instances executed: {sum(budgets) / len(budgets):.1f}")
    print(f"FindOne {prf}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="BugDoc reproduction CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and algorithms")

    debug = sub.add_parser("debug", help="debug a bundled workload")
    debug.add_argument("workload", choices=WORKLOADS)
    debug.add_argument(
        "--algorithm", default="combined", help="shortcut | stacked_shortcut | decision_trees | combined"
    )
    debug.add_argument("--budget", type=int, default=None)
    debug.add_argument("--seed", type=int, default=0)
    debug.add_argument("--tests-per-suspect", type=int, default=24)
    debug.add_argument(
        "--anomaly",
        default="cpu_saturation",
        choices=dbsherlock.ANOMALY_CLASSES,
        help="dbsherlock anomaly class",
    )
    debug.add_argument(
        "--output",
        default="text",
        choices=("text", "json"),
        help="report format (json is machine-readable for service clients)",
    )
    debug.add_argument(
        "--watch",
        action="store_true",
        help="stream live progress events (rounds, confirmations, budget)"
        " while the search runs; with --output json they go to stderr",
    )
    debug.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="with --watch: persist the event stream to this SQLite"
        " store so 'repro query' can replay it later",
    )

    serve = sub.add_parser(
        "serve", help="run a batch of debugging jobs on one shared service"
    )
    serve.add_argument(
        "workloads",
        nargs="*",
        metavar="workload",
        help=f"workloads to serve (default: all of {', '.join(SERVE_WORKLOADS)})",
    )
    serve.add_argument(
        "--replicas",
        type=int,
        default=2,
        help="jobs per workload (distinct seeds; they share the cache)",
    )
    serve.add_argument("--algorithm", default="combined")
    serve.add_argument("--budget", type=int, default=None)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--workers", type=int, default=5)
    serve.add_argument(
        "--store",
        default=None,
        metavar="PATH",
        help="SQLite provenance database backing the persistent cache tier",
    )
    serve.add_argument(
        "--parallel-batches",
        action="store_true",
        help="fan each job's speculative batches out on the shared pool",
    )
    serve.add_argument(
        "--backend",
        default="inline",
        choices=("inline", "process", "remote"),
        help="where pipelines execute: in-process (inline), on a pool"
        " of worker processes sized to --workers (process), or on a"
        " remote worker fleet joined over sockets (remote)",
    )
    serve.add_argument(
        "--fleet",
        type=int,
        default=2,
        help="with --backend remote: local worker subprocesses spawned"
        " to join the fleet (0 spawns none; point external 'repro"
        " worker --connect' members at the printed endpoint instead)",
    )
    serve.add_argument(
        "--autoscale",
        action="store_true",
        help="grow/shrink the execution pool from live scheduler queue"
        " depth instead of keeping its construction size",
    )
    serve.add_argument(
        "--events",
        default="none",
        choices=("none", "jsonl"),
        help="stream every job progress event as a JSON line to stdout"
        " while the batch runs",
    )
    serve.add_argument(
        "--metrics",
        default="none",
        choices=("none", "json"),
        help="print the service metrics snapshot (counters, gauges,"
        " histogram percentiles) after the batch",
    )
    serve.add_argument(
        "--http",
        type=int,
        default=None,
        metavar="PORT",
        help="serve an HTTP/JSON API on this port instead of running a"
        " batch (0 picks an ephemeral port, echoed in the banner);"
        " with --store, submissions ride the durable job queue and a"
        " restart resumes queued work exactly once",
    )
    serve.add_argument(
        "--quota",
        action="append",
        default=None,
        metavar="TENANT=MAX_ACTIVE[:PRIORITY]",
        help="with --http: per-tenant admission quota (max in-flight"
        " jobs, 429 beyond) and default scheduler weight (repeatable)",
    )
    serve.add_argument(
        "--compact-interval",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="with --http and --store: run a background retention sweep"
        " this often (0 disables); terminal jobs older than"
        " --compact-max-age roll into summaries",
    )
    serve.add_argument(
        "--compact-max-age",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="age bound for the background sweep (last event older than"
        " this compacts)",
    )
    serve.add_argument(
        "--output", default="text", choices=("text", "json")
    )

    worker = sub.add_parser(
        "worker", help="join a remote execution fleet as one worker"
    )
    worker.add_argument(
        "--connect",
        required=True,
        metavar="HOST:PORT",
        help="the coordinator's fleet endpoint (see 'repro serve"
        " --backend remote')",
    )
    worker.add_argument(
        "--name",
        default=None,
        help="stable fleet identity (rejoining under the same name"
        " resumes the membership slot); default: hostname-pid",
    )
    worker.add_argument(
        "--reconnect",
        type=int,
        default=5,
        help="redial attempts after a dead transport before giving up",
    )
    worker.add_argument(
        "--max-runs",
        type=int,
        default=None,
        help="leave the fleet after executing this many runs",
    )

    query = sub.add_parser(
        "query", help="process queries over persisted job event logs"
    )
    query_sub = query.add_subparsers(dest="query_command", required=True)

    def _query_common(p) -> None:
        p.add_argument(
            "--store",
            required=True,
            metavar="PATH",
            help="SQLite store holding the persisted event logs",
        )
        p.add_argument(
            "--workflow", default=None, help="restrict to one workflow"
        )

    def _query_paging(p) -> None:
        p.add_argument(
            "--limit",
            type=int,
            default=None,
            help="return at most this many results (paged in the store,"
            " not materialized)",
        )
        p.add_argument(
            "--offset",
            type=int,
            default=None,
            help="skip this many results first (page with --limit)",
        )

    q_jobs = query_sub.add_parser("jobs", help="list persisted jobs")
    _query_common(q_jobs)
    _query_paging(q_jobs)

    q_events = query_sub.add_parser(
        "events", help="stream matching events as JSON lines"
    )
    _query_common(q_events)
    q_events.add_argument(
        "--kind",
        action="append",
        default=None,
        metavar="KIND",
        help="event kind filter (repeatable)",
    )
    q_events.add_argument(
        "--where",
        action="append",
        default=[],
        metavar="FIELD OP VALUE",
        help="predicate like 'data.remaining<100' or 'kind=span'"
        " (repeatable; all must hold)",
    )
    _query_paging(q_events)

    q_seq = query_sub.add_parser(
        "seq",
        help="find jobs whose stream contains the kinds in order"
        " (eventually-follows)",
    )
    _query_common(q_seq)
    _query_paging(q_seq)
    q_seq.add_argument(
        "pattern",
        nargs="+",
        metavar="KIND[ FIELD OP VALUE]",
        help="ordered event steps; a step may carry a payload predicate,"
        " e.g. 'suspect_confirmed' 'suspect_refuted'",
    )

    q_trace = query_sub.add_parser(
        "trace",
        help="rebuild the causal span tree for one trace id (spans from"
        " every process/machine the job touched)",
    )
    _query_common(q_trace)
    q_trace.add_argument("trace_id", help="the trace_id stamped on events")

    q_agg = query_sub.add_parser(
        "agg", help="aggregate span durations / event counts across jobs"
    )
    _query_common(q_agg)
    q_agg.add_argument(
        "--metric",
        required=True,
        help="span:<name> (seconds), count:<kind>, or a numeric jobs"
        " column such as budget_spent",
    )
    q_agg.add_argument(
        "--stat",
        default="p95",
        choices=("count", "sum", "mean", "min", "max", "p50", "p95"),
    )
    q_agg.add_argument(
        "--group-by",
        default=None,
        choices=("workflow", "spec_fingerprint", "algorithm", "status"),
    )

    compact_p = sub.add_parser(
        "compact",
        help="roll terminal jobs' raw events into summaries (retention)",
    )
    compact_p.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="SQLite store to compact (safe while a service is writing)",
    )
    compact_p.add_argument(
        "--workflow", default=None, help="restrict to one workflow"
    )
    compact_p.add_argument(
        "--max-age",
        type=float,
        default=None,
        metavar="SECONDS",
        help="compact terminal jobs whose last event is older than this",
    )
    compact_p.add_argument(
        "--max-raw-jobs",
        type=int,
        default=None,
        metavar="N",
        help="keep at most N terminal jobs raw; oldest beyond compact",
    )
    compact_p.add_argument(
        "--all",
        dest="compact_all",
        action="store_true",
        help="compact every terminal job regardless of age/count bounds",
    )

    dash = sub.add_parser(
        "dashboard",
        help="longitudinal per-workflow trajectories from job summaries",
    )
    dash.add_argument(
        "--store",
        required=True,
        metavar="PATH",
        help="SQLite store holding jobs and summaries",
    )
    dash.add_argument(
        "--workflow", default=None, help="restrict to one workflow"
    )
    dash.add_argument(
        "--bucket",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="time-bucket width for the trajectories",
    )
    dash.add_argument(
        "--diff",
        default=None,
        metavar="PATH",
        help="compare against a baseline dashboard JSON; exit 1 and"
        " print the differences when the trajectories moved",
    )

    synth = sub.add_parser("synth", help="run a synthetic FindOne experiment")
    synth.add_argument(
        "--scenario",
        default="single",
        choices=[s.value for s in Scenario],
    )
    synth.add_argument("--pipelines", type=int, default=5)
    synth.add_argument("--algorithm", default="decision_trees")
    synth.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return cmd_list(args)
    if args.command == "debug":
        return cmd_debug(args)
    if args.command == "serve":
        return cmd_serve(args)
    if args.command == "worker":
        return cmd_worker(args)
    if args.command == "query":
        return cmd_query(args)
    if args.command == "compact":
        return cmd_compact(args)
    if args.command == "dashboard":
        return cmd_dashboard(args)
    return cmd_synth(args)


if __name__ == "__main__":
    sys.exit(main())
