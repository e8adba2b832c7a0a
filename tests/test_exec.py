"""Tests for the process-level execution subsystem (repro.exec).

Four contracts:

1. **Event streams are complete and ordered.**  Per-job events carry
   consecutive ``seq`` numbers, replay from the beginning for late
   subscribers, and always end with a terminal ``finished`` event --
   on success, failure, and cancellation alike.
2. **Process execution is transparent.**  An end-to-end debug run whose
   pipeline executes on worker processes produces byte-identical
   reports and exact per-job budgets vs the in-process backends --
   including under injected worker crashes and per-run timeouts
   (bounded retry on replacement workers).
3. **Faults are contained and accounted.**  A dead or hung worker is
   killed and replaced; a run that ultimately fails surfaces a
   deterministic error whose budget charge is refunded, never a
   corrupted count.
4. **The pool is warm and elastic**: prewarmed workers serve
   immediately, the pool grows under load, shrinks to ``min_workers``
   after the idle timeout, and regrows on demand.
"""

from __future__ import annotations

import os
import random
import threading
import time

import pytest

from repro.core import (
    Algorithm,
    BugDoc,
    DDTConfig,
    DebugSession,
    ExecutionHistory,
    Instance,
    InstanceBudget,
    Outcome,
)
from repro.core.ddt import debugging_decision_trees
from repro.exec import (
    EventBus,
    ExecutorSpec,
    PoolShutDown,
    ProcessPool,
    RemoteRunError,
    RunTimedOut,
    WorkerCrashed,
)
from repro.exec.spec import resolve_reference
from repro.exec.synthetic import build_pipeline, build_space
from repro.pipeline import Module, Workflow
from repro.pipeline.runner import ParallelDebugSession
from repro.provenance import SQLiteProvenanceStore
from repro.service import DebugService, JobGoal, JobSpec, JobStatus

SYNTH = "repro.exec.synthetic:build_pipeline"
SPACE = build_space(n_params=4, domain=4)
FAIL_WHEN = {"p0": 1, "p1": 2}


def synth_spec(**kwargs) -> ExecutorSpec:
    return ExecutorSpec.from_builder(SYNTH, fail_when=FAIL_WHEN, **kwargs)


def seed_history(executor) -> ExecutionHistory:
    """A deterministic informative history: one planted failure plus a
    spread of other instances (some succeed, tree has signal)."""
    history = ExecutionHistory()
    rng = random.Random(11)
    history.record(
        Instance({"p0": 1, "p1": 2, "p2": 0, "p3": 3}), Outcome.FAIL
    )
    for __ in range(8):
        instance = SPACE.random_instance(rng)
        if instance not in history:
            history.record(instance, executor(instance))
    return history


def ddt_fingerprint(session, seed: int = 3):
    """Run DDT FindAll and fingerprint everything report-shaped."""
    result = debugging_decision_trees(
        session,
        DDTConfig(
            find_all=True,
            tests_per_suspect=6,
            exploration_per_round=4,
            max_rounds=20,
            seed=seed,
        ),
    )
    history = session.history
    return (
        tuple(str(c) for c in result.causes),
        str(result.explanation),
        result.instances_executed,
        result.rounds,
        session.budget.spent,
        session.new_executions,
        tuple(
            sorted(
                (repr(i), history.outcome_of(i).value)
                for i in history.instances
            )
        ),
    )


# ---------------------------------------------------------------------------
# Event bus
# ---------------------------------------------------------------------------

class TestEventBus:
    def test_per_job_order_and_replay(self):
        bus = EventBus()
        bus.publish("a", "submitted")
        bus.publish("b", "submitted")
        bus.publish("a", "budget_spent", {"spent": 1})
        bus.publish("a", "finished", {}, close=True)
        bus.publish("b", "finished", {}, close=True)
        events = list(bus.events("a"))
        assert [e.kind for e in events] == [
            "submitted",
            "budget_spent",
            "finished",
        ]
        assert [e.seq for e in events] == [0, 1, 2]
        assert events[-1].terminal
        # Replay is repeatable and complete for late subscribers.
        assert [e.seq for e in bus.events("a")] == [0, 1, 2]
        assert [e.kind for e in bus.events("b")] == ["submitted", "finished"]

    def test_publish_after_close_raises_and_publisher_swallows(self):
        bus = EventBus()
        bus.publish("job", "finished", {}, close=True)
        with pytest.raises(ValueError):
            bus.publish("job", "late")
        bus.publisher("job")("late", {})  # must not raise
        assert [e.kind for e in bus.events("job")] == ["finished"]

    def test_events_blocks_until_terminal(self):
        bus = EventBus()
        seen: list[str] = []

        def consume():
            for event in bus.events("job"):
                seen.append(event.kind)

        thread = threading.Thread(target=consume)
        thread.start()
        time.sleep(0.05)
        bus.publish("job", "started")
        bus.publish("job", "finished", {}, close=True)
        thread.join(5.0)
        assert not thread.is_alive()
        assert seen == ["started", "finished"]

    def test_events_timeout(self):
        bus = EventBus()
        bus.publish("job", "started")
        iterator = bus.events("job", timeout=0.05)
        assert next(iterator).kind == "started"
        with pytest.raises(TimeoutError):
            next(iterator)

    def test_stream_subscription_is_eager(self):
        bus = EventBus()
        stream = bus.stream()  # subscribed here, before any publish
        bus.publish("a", "submitted")
        bus.publish("a", "finished", {}, close=True)
        assert next(stream).kind == "submitted"
        assert next(stream).kind == "finished"
        bus.shutdown()
        assert list(stream) == []

    def test_events_start_past_end_of_closed_log_returns(self):
        bus = EventBus()
        bus.publish("job", "started")
        bus.publish("job", "finished", {}, close=True)
        # start beyond the closed log's end: nothing will ever arrive
        # there, so the iterator must end instead of waiting.
        assert list(bus.events("job", start=2)) == []
        assert list(bus.events("job", start=99)) == []

    def test_events_after_discard_of_closed_log_returns(self):
        bus = EventBus()
        bus.publish("job", "started")
        bus.publish("job", "finished", {}, close=True)
        bus.discard("job")
        # The terminal event passed before the reader attached and the
        # log is gone; without the tombstone this blocked forever.
        assert list(bus.events("job")) == []
        assert list(bus.events("job", start=5)) == []
        # Resubmission under the same id clears the tombstone -- the
        # fresh log replays live again.
        bus.publish("job", "submitted")
        bus.publish("job", "finished", {}, close=True)
        assert [e.kind for e in bus.events("job")] == [
            "submitted",
            "finished",
        ]
        # Discarding an *open* log leaves no tombstone: a brand-new
        # unknown job id must still block (the live-wait contract).
        bus.publish("open-job", "started")
        bus.discard("open-job")
        iterator = bus.events("open-job", timeout=0.05)
        with pytest.raises(TimeoutError):
            next(iterator)


# ---------------------------------------------------------------------------
# Executor specs
# ---------------------------------------------------------------------------

def _gen(x):
    return [x * i for i in range(4)]


def _agg(data, mode):
    return sum(data) if mode == "sum" else max(data)


class TestExecutorSpec:
    def test_from_builder_builds_and_runs(self):
        spec = synth_spec()
        executor = spec.build()
        assert executor(Instance({"p0": 1, "p1": 2, "p2": 0, "p3": 0})) is (
            Outcome.FAIL
        )
        assert executor(Instance({"p0": 0, "p1": 2, "p2": 0, "p3": 0})) is (
            Outcome.SUCCEED
        )

    def test_fingerprint_is_canonical(self):
        a = ExecutorSpec.from_builder(SYNTH, mode="cpu", work_iterations=5)
        b = ExecutorSpec.from_builder(SYNTH, work_iterations=5, mode="cpu")
        c = ExecutorSpec.from_builder(SYNTH, work_iterations=6, mode="cpu")
        assert a == b and a.fingerprint == b.fingerprint
        assert a.fingerprint != c.fingerprint

    def test_fingerprint_survives_pickle_and_wire(self):
        import pickle

        spec = synth_spec(crash_on={"p0": 1}, mode="sleep")
        cold = ExecutorSpec.from_builder(
            SYNTH, fail_when=FAIL_WHEN, crash_on={"p0": 1}, mode="sleep"
        )
        fingerprint = spec.fingerprint  # computed (and kept) before pickling
        for copy in (
            pickle.loads(pickle.dumps(spec)),
            pickle.loads(pickle.dumps(cold)),
            ExecutorSpec.from_wire(spec.to_wire()),
        ):
            assert copy == spec
            assert copy.fingerprint == fingerprint
        assert cold.fingerprint == fingerprint

    def test_bad_reference_errors(self):
        with pytest.raises(ValueError):
            ExecutorSpec(builder="no-colon")
        with pytest.raises(ImportError):
            ExecutorSpec.from_builder("no.such.module:thing").build()
        with pytest.raises(AttributeError):
            ExecutorSpec.from_builder("repro.exec.synthetic:nope").build()
        with pytest.raises(ValueError):
            resolve_reference("missingqualname:")

    def test_from_workflow_roundtrip(self):
        from repro.core import Parameter, ParameterKind, ParameterSpace

        space = ParameterSpace(
            [
                Parameter("x", (1, 2, 3), ParameterKind.ORDINAL),
                Parameter("mode", ("sum", "max")),
            ]
        )
        workflow = Workflow("toy", space, sink=("agg", "out"))
        workflow.add_module(Module("gen", _gen, parameters=("x",)))
        workflow.add_module(
            Module("agg", _agg, inputs=("data",), parameters=("mode",))
        )
        workflow.connect("gen", "out", "agg", "data")
        spec = ExecutorSpec.from_workflow(
            workflow,
            registry={"gen": "test_exec:_gen", "agg": "test_exec:_agg"},
            threshold=4.0,
        )
        executor = spec.build()
        # sum(0+2+4+6)=12 >= 4 -> succeed; max(0,1,2,3)=3 < 4 -> fail.
        assert executor(Instance({"x": 2, "mode": "sum"})) is Outcome.SUCCEED
        assert executor(Instance({"x": 1, "mode": "max"})) is Outcome.FAIL


# ---------------------------------------------------------------------------
# Process pool basics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def shared_pool():
    """One 2-worker pool shared by the cheap tests (spawn is ~0.2s)."""
    with ProcessPool(max_workers=2, prewarm=1, idle_timeout=120.0) as pool:
        yield pool


class TestProcessPool:
    def test_outcomes_match_in_process(self, shared_pool):
        spec = synth_spec()
        reference = build_pipeline(fail_when=FAIL_WHEN)
        rng = random.Random(0)
        instances = [SPACE.random_instance(rng) for __ in range(6)]
        instances.append(Instance({"p0": 1, "p1": 2, "p2": 3, "p3": 3}))
        for instance in instances:
            assert shared_pool.run(spec, "wf", instance) is reference(instance)

    def test_prewarm_and_executor_adapter(self, shared_pool):
        assert shared_pool.live_workers >= 1
        executor = shared_pool.executor(synth_spec(), workflow="wf")
        assert executor(Instance({"p0": 1, "p1": 2, "p2": 0, "p3": 0})) is (
            Outcome.FAIL
        )

    def test_remote_error_is_contained(self, shared_pool):
        broken = ExecutorSpec.from_builder(SYNTH, mode="no-such-mode")
        instance = Instance({"p0": 0, "p1": 0, "p2": 0, "p3": 0})
        replaced_before = shared_pool.stats()["replaced"]
        with pytest.raises(RemoteRunError):
            shared_pool.run(broken, "wf", instance)
        # The worker answered and survived: no replacement happened and
        # the pool keeps serving healthy runs.
        assert shared_pool.stats()["replaced"] == replaced_before
        assert shared_pool.run(synth_spec(), "wf", instance) is Outcome.SUCCEED

    def test_budget_refunded_on_remote_error(self, shared_pool):
        broken = ExecutorSpec.from_builder(SYNTH, mode="no-such-mode")
        session = DebugSession(
            shared_pool.executor(broken, workflow="wf"),
            SPACE,
            budget=InstanceBudget(5),
        )
        with pytest.raises(RemoteRunError):
            session.evaluate(Instance({"p0": 0, "p1": 0, "p2": 0, "p3": 0}))
        assert session.budget.spent == 0  # charge refunded
        assert session.new_executions == 0

    def test_sqlite_tier_dedupes_across_pools(self, tmp_path):
        db = str(tmp_path / "provenance.db")
        instance = Instance({"p0": 1, "p1": 2, "p2": 1, "p3": 1})
        with ProcessPool(max_workers=1, store_path=db) as first:
            assert first.run(synth_spec(), "wf", instance) is Outcome.FAIL
            assert first.stats()["store_hits"] == 0
        # A different pool (fresh worker processes) sees the outcome
        # through the shared SQLite tier instead of re-executing.
        with ProcessPool(max_workers=1, store_path=db) as second:
            assert second.run(synth_spec(), "wf", instance) is Outcome.FAIL
            assert second.stats()["store_hits"] == 1
        store = SQLiteProvenanceStore(db)
        try:
            assert len(store) == 1
        finally:
            store.close()

    def test_shutdown_rejects_runs(self):
        pool = ProcessPool(max_workers=1)
        pool.shutdown()
        with pytest.raises(PoolShutDown):
            pool.run(
                synth_spec(), "wf", Instance({"p0": 0, "p1": 0, "p2": 0, "p3": 0})
            )

    def test_max_workers_cap_holds_under_concurrent_acquires(self):
        """Racing acquires must not overshoot the hard cap: the slot is
        reserved under the pool lock before the (slow) spawn."""
        spec = synth_spec(mode="sleep", sleep_seconds=0.2)
        rng = random.Random(9)
        with ProcessPool(max_workers=1) as pool:
            threads = [
                threading.Thread(
                    target=pool.run,
                    args=(spec, "wf", SPACE.random_instance(rng)),
                )
                for __ in range(3)
            ]
            for thread in threads:
                thread.start()
            peak = 0
            for __ in range(20):
                peak = max(peak, pool.live_workers)
                time.sleep(0.02)
            for thread in threads:
                thread.join(30.0)
            assert peak == 1
            assert pool.stats()["spawned"] == 1


class TestElasticity:
    def test_grow_shrink_regrow(self):
        with ProcessPool(
            max_workers=2, min_workers=1, prewarm=0, idle_timeout=0.2
        ) as pool:
            spec = synth_spec(mode="sleep", sleep_seconds=0.3)
            rng = random.Random(1)
            instances = [SPACE.random_instance(rng) for __ in range(2)]
            peak = {"workers": 0}

            def run(instance):
                pool.run(spec, "wf", instance)
                peak["workers"] = max(peak["workers"], pool.live_workers)

            threads = [
                threading.Thread(target=run, args=(i,)) for i in instances
            ]
            for thread in threads:
                thread.start()
            time.sleep(0.15)
            peak["workers"] = max(peak["workers"], pool.live_workers)
            for thread in threads:
                thread.join(30.0)
            assert peak["workers"] == 2  # grew under concurrent load
            time.sleep(0.25)
            pool.reap_idle()
            assert pool.live_workers == 1  # shrank to the floor
            assert pool.stats()["retired"] >= 1
            # Regrow on demand: concurrent load is served again.
            threads = [
                threading.Thread(target=run, args=(i,)) for i in instances
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
            assert pool.stats()["spawned"] >= 3


# ---------------------------------------------------------------------------
# Fault injection: crashes, timeouts, and exact budgets
# ---------------------------------------------------------------------------

class TestFaultInjection:
    def test_crash_once_retries_and_report_is_identical(self, tmp_path):
        """A worker dying mid-run is replaced; the bounded retry reruns
        the deterministic pipeline, so the end-to-end report and budget
        are byte-identical to a fault-free in-process run."""
        reference = build_pipeline(fail_when=FAIL_WHEN)
        expected = ddt_fingerprint(
            DebugSession(
                build_pipeline(fail_when=FAIL_WHEN),
                SPACE,
                history=seed_history(reference),
            )
        )
        crash_spec = synth_spec(
            crash_on=FAIL_WHEN,
            crash_once_path=str(tmp_path / "crash-once"),
        )
        with ProcessPool(max_workers=2, crash_retries=1) as pool:
            session = pool.session(
                crash_spec,
                SPACE,
                history=seed_history(reference),
                parallel=False,
            )
            assert ddt_fingerprint(session) == expected
            stats = pool.stats()
        assert os.path.exists(tmp_path / "crash-once")  # fault fired
        assert stats["crashes"] == 1
        assert stats["replaced"] == 1
        assert stats["retries"] == 1

    def test_crash_retries_exhausted_refunds_budget(self):
        always_crash = synth_spec(crash_on=FAIL_WHEN)
        with ProcessPool(max_workers=1, crash_retries=1) as pool:
            session = DebugSession(
                pool.executor(always_crash, workflow="wf"),
                SPACE,
                budget=InstanceBudget(5),
            )
            with pytest.raises(WorkerCrashed):
                session.evaluate(Instance({"p0": 1, "p1": 2, "p2": 0, "p3": 0}))
            assert session.budget.spent == 0  # deterministic failed run,
            assert session.new_executions == 0  # never charged
            # The pool recovered: healthy instances still execute.
            assert (
                session.evaluate(Instance({"p0": 0, "p1": 0, "p2": 0, "p3": 0}))
                is Outcome.SUCCEED
            )
            assert session.budget.spent == 1
            assert pool.stats()["crashes"] == 2  # initial + retry

    def test_timeout_kills_hung_worker_and_refunds(self):
        hang = synth_spec(hang_on=FAIL_WHEN, hang_seconds=60.0)
        with ProcessPool(
            max_workers=1, run_timeout=0.5, timeout_retries=0
        ) as pool:
            session = DebugSession(
                pool.executor(hang, workflow="wf"),
                SPACE,
                budget=InstanceBudget(5),
            )
            with pytest.raises(RunTimedOut):
                session.evaluate(Instance({"p0": 1, "p1": 2, "p2": 0, "p3": 0}))
            assert session.budget.spent == 0
            stats = pool.stats()
            assert stats["timeouts"] == 1
            assert stats["replaced"] == 1
            # The hung worker was killed; a replacement serves new runs.
            assert (
                session.evaluate(Instance({"p0": 0, "p1": 0, "p2": 0, "p3": 0}))
                is Outcome.SUCCEED
            )

    def test_hang_once_with_timeout_retry_keeps_report_identical(
        self, tmp_path
    ):
        reference = build_pipeline(fail_when=FAIL_WHEN)
        expected = ddt_fingerprint(
            DebugSession(
                build_pipeline(fail_when=FAIL_WHEN),
                SPACE,
                history=seed_history(reference),
            )
        )
        hang_spec = synth_spec(
            hang_on=FAIL_WHEN,
            hang_once_path=str(tmp_path / "hang-once"),
            hang_seconds=60.0,
        )
        with ProcessPool(
            max_workers=2, run_timeout=1.0, timeout_retries=1
        ) as pool:
            session = pool.session(
                hang_spec,
                SPACE,
                history=seed_history(reference),
                parallel=False,
            )
            assert ddt_fingerprint(session) == expected
            assert pool.stats()["timeouts"] == 1


# ---------------------------------------------------------------------------
# End-to-end differential: process backend vs in-process backends
# ---------------------------------------------------------------------------

class TestProcessBackendDifferential:
    def test_process_backends_match_their_in_process_twins(self):
        """Byte-identical fingerprints between in-process and process
        execution under both dispatch disciplines: a serial session
        (deterministic, early-stopping) and a speculative parallel
        session (whole batches execute, Section 4.3).  Serial and
        parallel legitimately differ from *each other* in execution
        counts -- speculation trades waste for latency -- but must
        agree on the causes."""
        reference = build_pipeline(fail_when=FAIL_WHEN)
        serial_inproc = ddt_fingerprint(
            DebugSession(
                build_pipeline(fail_when=FAIL_WHEN),
                SPACE,
                history=seed_history(reference),
            )
        )
        parallel_threads = ddt_fingerprint(
            ParallelDebugSession(
                build_pipeline(fail_when=FAIL_WHEN),
                SPACE,
                history=seed_history(reference),
                workers=2,
            )
        )
        with ProcessPool(max_workers=2) as pool:
            serial_procs = ddt_fingerprint(
                pool.session(
                    synth_spec(),
                    SPACE,
                    history=seed_history(reference),
                    parallel=False,
                )
            )
            parallel_procs = ddt_fingerprint(
                pool.session(
                    synth_spec(), SPACE, history=seed_history(reference)
                )
            )
            assert pool.stats()["crashes"] == 0
        assert serial_procs == serial_inproc
        assert parallel_procs == parallel_threads
        # Cross-discipline: identical causes and explanation.
        assert parallel_procs[:2] == serial_inproc[:2]

    def test_crash_during_parallel_batch_keeps_report_identical(
        self, tmp_path
    ):
        reference = build_pipeline(fail_when=FAIL_WHEN)
        expected = ddt_fingerprint(
            ParallelDebugSession(
                build_pipeline(fail_when=FAIL_WHEN),
                SPACE,
                history=seed_history(reference),
                workers=2,
            )
        )
        crash_spec = synth_spec(
            crash_on=FAIL_WHEN,
            crash_once_path=str(tmp_path / "crash-once"),
        )
        with ProcessPool(max_workers=2, crash_retries=1) as pool:
            session = pool.session(
                crash_spec, SPACE, history=seed_history(reference)
            )
            assert ddt_fingerprint(session) == expected
            assert pool.stats()["crashes"] == 1


# ---------------------------------------------------------------------------
# Service integration: job events + process jobs + cancellation
# ---------------------------------------------------------------------------

def _in_process_spec(job_id: str, budget=None, **kwargs) -> JobSpec:
    executor = build_pipeline(fail_when=FAIL_WHEN)
    return JobSpec(
        job_id=job_id,
        executor=executor,
        space=SPACE,
        workflow="synthetic",
        algorithm=Algorithm.DECISION_TREES,
        goal=JobGoal.FIND_ALL,
        budget=budget,
        history=seed_history(executor),
        seed=3,
        ddt_config=DDTConfig(
            find_all=True,
            tests_per_suspect=6,
            exploration_per_round=4,
            max_rounds=20,
            seed=3,
        ),
        **kwargs,
    )


class TestServiceEvents:
    def test_stream_is_complete_ordered_and_agrees_with_result(self):
        with DebugService(workers=2) as service:
            handle = service.submit(_in_process_spec("events"))
            result = handle.result(60.0)
            events = list(handle.events())
        assert result.status is JobStatus.SUCCEEDED
        kinds = [e.kind for e in events]
        assert kinds[0] == "submitted"
        assert kinds[1] == "started"
        assert kinds[-1] == "finished"
        assert events[-1].terminal
        assert [e.seq for e in events] == list(range(len(events)))
        # Exactly one budget_spent event per charged execution.
        spends = [e for e in events if e.kind == "budget_spent"]
        assert len(spends) == result.new_executions
        assert spends[-1].payload["spent"] == result.budget_spent
        # The terminal event agrees with the batch summary.
        final = events[-1].payload
        assert final["status"] == "succeeded"
        assert final["budget_spent"] == result.budget_spent
        assert final["causes"] == [str(c) for c in result.report.causes]
        assert any(e.kind == "round_started" for e in events)
        assert any(e.kind == "partial_causes" for e in events)
        # Progress snapshots fold the same stream into current state.
        snapshots = list(handle.progress())
        assert snapshots[-1]["status"] == "succeeded"
        assert snapshots[-1]["causes"] == final["causes"]
        assert snapshots[-1]["budget_spent"] == result.budget_spent

    def test_stream_closes_on_failure(self):
        def explode(session):
            raise RuntimeError("boom")

        with DebugService(workers=1) as service:
            handle = service.submit(
                JobSpec(
                    job_id="fails",
                    executor=build_pipeline(),
                    space=SPACE,
                    run=explode,
                )
            )
            result = handle.result(30.0)
            events = list(handle.events())
        assert result.status is JobStatus.FAILED
        assert events[-1].kind == "finished"
        assert events[-1].payload["status"] == "failed"
        assert "boom" in events[-1].payload["error"]

    def test_cancellation_with_in_flight_process_work(self):
        """Cancel a job whose pipeline runs are live on worker
        processes: in-flight runs complete (and are charged exactly),
        queued ones are refused, the stream closes with CANCELLED."""
        spec = ExecutorSpec.from_builder(
            SYNTH, fail_when=FAIL_WHEN, mode="sleep", sleep_seconds=0.3
        )
        rng = random.Random(5)
        instances = [SPACE.random_instance(rng) for __ in range(8)]

        def body(session):
            for instance in instances:
                session.evaluate(instance)

        with ProcessPool(max_workers=2, prewarm=2) as pool:
            with DebugService(workers=2, pool=pool) as service:
                handle = service.submit(
                    JobSpec(
                        job_id="cancel-me",
                        executor=None,
                        executor_spec=spec,
                        space=SPACE,
                        workflow="sleepy",
                        run=body,
                    )
                )
                # Synchronize on real progress, not wall clock: cancel
                # once the first execution has been charged.
                stream = handle.events(timeout=30.0)
                for event in stream:
                    if event.kind == "budget_spent":
                        break
                assert handle.cancel() is True
                result = handle.result(60.0)
        assert result.status is JobStatus.CANCELLED
        assert result.accounting_settled
        # Exact accounting: only completed runs are charged.
        assert result.budget_spent == result.new_executions
        assert 1 <= result.budget_spent < len(instances)
        events = list(handle.events())
        assert events[-1].kind == "finished"
        assert events[-1].payload["status"] == "cancelled"
        assert events[-1].terminal


class TestServiceProcessJobs:
    def test_process_jobs_match_in_process_reports(self):
        in_process = [
            _in_process_spec("inproc-0"),
            _in_process_spec("inproc-1"),
        ]
        with DebugService(workers=2) as service:
            baseline = service.run_all(in_process, timeout=120.0)
        with ProcessPool(max_workers=2, prewarm=2) as pool:
            with DebugService(workers=2, pool=pool) as service:
                results = service.run_all(
                    [
                        _in_process_spec("proc-0", executor_spec=synth_spec()),
                        _in_process_spec("proc-1", executor_spec=synth_spec()),
                    ],
                    timeout=120.0,
                )
            assert pool.stats()["crashes"] == 0
        for base, proc in zip(baseline, results):
            assert proc.status is JobStatus.SUCCEEDED
            assert [str(c) for c in proc.report.causes] == [
                str(c) for c in base.report.causes
            ]
            assert str(proc.report.explanation) == str(base.report.explanation)
            assert proc.budget_spent == base.budget_spent
            assert proc.new_executions == base.new_executions
            assert proc.cache_stats is not None
            assert proc.cache_stats["requests"] >= proc.cache_stats["executions"]

    def test_executor_spec_without_pool_fails_job(self):
        with DebugService(workers=1) as service:
            handle = service.submit(
                JobSpec(
                    job_id="no-pool",
                    executor=None,
                    executor_spec=synth_spec(),
                    space=SPACE,
                )
            )
            result = handle.result(30.0)
        assert result.status is JobStatus.FAILED
        assert isinstance(result.error, ValueError)

    def test_spec_requires_some_executor(self):
        with pytest.raises(ValueError):
            JobSpec(job_id="neither", executor=None, space=SPACE)

    def test_shutdown_ends_firehose_but_keeps_logs_replayable(self):
        service = DebugService(workers=1)
        stream = service.events.stream()
        handle = service.submit(_in_process_spec("drain"))
        handle.result(60.0)
        service.shutdown()
        # The firehose terminates instead of blocking forever...
        kinds = [event.kind for event in stream]
        assert kinds[-1] == "finished"
        # ...and the per-job log still replays completely afterwards.
        replay = list(handle.events())
        assert replay[0].kind == "submitted"
        assert replay[-1].terminal

    def test_discard_job_frees_handle_and_event_log(self):
        with DebugService(workers=1) as service:
            handle = service.submit(_in_process_spec("discard"))
            handle.result(60.0)
            assert "discard" in service.jobs
            service.discard_job("discard")
            assert "discard" not in service.jobs
            assert service.events.log("discard") == []
            with pytest.raises(KeyError):
                service.discard_job("discard")
