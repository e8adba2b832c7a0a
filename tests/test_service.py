"""Tests for the debugging job service (repro.service): the single-flight
execution cache, the shared scheduler, and DebugService end-to-end --
including the >= 8-concurrent-job stress test over a shared
flaky/latency executor."""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.concurrency import SharedScheduler, SingleFlightCache
from repro.core import (
    Algorithm,
    BudgetExhausted,
    BugDoc,
    DebugSession,
    Instance,
    Outcome,
    Parameter,
    ParameterSpace,
)
from repro.core.ddt import DDTConfig
from repro.pipeline import CountingExecutor, FlakyExecutor, LatencyExecutor
from repro.provenance import ProvenanceRecord, SQLiteProvenanceStore
from repro.provenance.store import InMemoryProvenanceStore
from repro.service import (
    DebugService,
    ExecutionCache,
    JobCancelled,
    JobGoal,
    JobSpec,
    JobStatus,
)


def _space() -> ParameterSpace:
    return ParameterSpace(
        [
            Parameter("a", (0, 1, 2, 3, 4, 5)),
            Parameter("b", ("x", "y", "z")),
            Parameter("c", (0, 1, 2)),
        ]
    )


def _oracle(instance: Instance) -> Outcome:
    return Outcome.FAIL if instance["a"] == 0 else Outcome.SUCCEED


def _instances(seed: int, count: int) -> list[Instance]:
    rng = random.Random(seed)
    space = _space()
    return [space.random_instance(rng) for _ in range(count)]


class TestSingleFlightCache:
    def test_concurrent_requests_execute_once(self):
        cache = SingleFlightCache()
        barrier = threading.Barrier(6)
        calls = []
        lock = threading.Lock()

        def produce():
            with lock:
                calls.append(threading.get_ident())
            time.sleep(0.05)
            return "value"

        results = []

        def request():
            barrier.wait()
            results.append(cache.get_or_execute("key", produce))

        threads = [threading.Thread(target=request) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == ["value"] * 6
        assert len(calls) == 1
        assert cache.stats.executions == 1
        assert cache.stats.coalesced == 5

    def test_leader_failure_hands_flight_to_waiter(self):
        cache = SingleFlightCache()
        started = threading.Event()
        release = threading.Event()
        attempts = []
        lock = threading.Lock()

        def produce():
            with lock:
                attempts.append(None)
                attempt = len(attempts)
            if attempt == 1:
                started.set()
                release.wait(2.0)
                raise RuntimeError("leader crashed")
            return "recovered"

        errors = []
        values = []

        def leader():
            try:
                cache.get_or_execute("key", produce)
            except RuntimeError as error:
                errors.append(error)

        def waiter():
            started.wait(2.0)
            values.append(cache.get_or_execute("key", produce))

        leader_thread = threading.Thread(target=leader)
        waiter_thread = threading.Thread(target=waiter)
        leader_thread.start()
        waiter_thread.start()
        started.wait(2.0)
        time.sleep(0.05)  # let the waiter join the in-flight request
        release.set()
        leader_thread.join()
        waiter_thread.join()
        # The leader's exception reached only the leader; the waiter
        # retried, became the new leader, and got a value.
        assert len(errors) == 1
        assert values == ["recovered"]
        assert len(attempts) == 2
        assert cache.stats.failures == 1
        assert cache.peek("key") == "recovered"
        # Stats: two logical requests (one miss, one coalesced) even
        # though the waiter retried and became the second leader.
        assert cache.stats.requests == 2
        assert cache.stats.misses == 1
        assert cache.stats.coalesced == 1
        assert cache.stats.executions == 1


class TestExecutionCache:
    def test_persistent_tier_hit_skips_execution(self):
        store = SQLiteProvenanceStore(":memory:")
        instance = Instance({"a": 0, "b": "x", "c": 1})
        store.upsert(
            ProvenanceRecord(
                workflow="w", instance=instance, outcome=Outcome.FAIL
            )
        )
        counting = CountingExecutor(_oracle)
        cache = ExecutionCache(store=store)
        assert cache.evaluate("w", instance, counting) is Outcome.FAIL
        assert counting.calls == 0
        assert cache.stats.persistent_hits == 1
        assert cache.stats.executions == 0
        # Second request is a pure memory hit.
        assert cache.evaluate("w", instance, counting) is Outcome.FAIL
        assert cache.stats.hits == 1

    def test_write_through_to_store(self):
        store = InMemoryProvenanceStore()
        cache = ExecutionCache(store=store)
        instance = Instance({"a": 1, "b": "y", "c": 0})
        assert cache.evaluate("w", instance, _oracle) is Outcome.SUCCEED
        record = store.lookup("w", instance)
        assert record is not None
        assert record.outcome is Outcome.SUCCEED

    def test_workflows_are_isolated(self):
        counting = CountingExecutor(_oracle)
        cache = ExecutionCache()
        instance = Instance({"a": 1, "b": "y", "c": 0})
        cache.evaluate("w1", instance, counting)
        cache.evaluate("w2", instance, counting)
        assert counting.calls == 2
        cache.evaluate("w1", instance, counting)
        assert counting.calls == 2


class TestSharedScheduler:
    def test_round_robin_fairness_across_jobs(self):
        """A late job's two requests are not starved by an early job's ten."""
        completed = []
        lock = threading.Lock()
        gate = threading.Event()

        def task(job, index):
            def thunk():
                gate.wait(5.0)
                with lock:
                    completed.append((job, index))

            return thunk

        with SharedScheduler(workers=1) as scheduler:
            blocker = scheduler.submit("warmup", lambda: gate.wait(5.0))
            requests = [
                scheduler.submit("big", task("big", index)) for index in range(10)
            ]
            requests += [
                scheduler.submit("small", task("small", index))
                for index in range(2)
            ]
            gate.set()
            for request in requests:
                request.result()
            blocker.result()
        small_positions = [
            position
            for position, (job, _) in enumerate(completed)
            if job == "small"
        ]
        # Round-robin: small's requests interleave near the front rather
        # than waiting for all ten of big's.
        assert small_positions[0] <= 2
        assert small_positions[1] <= 4

    def test_skip_resolves_without_dispatch(self):
        with SharedScheduler(workers=2) as scheduler:
            request = scheduler.submit(
                "job", lambda: "ran", skip=lambda: True
            )
            assert request.result() is None
            assert request.skipped is True
            assert scheduler.stats.skipped == 1

    def test_errors_are_delivered_to_the_waiter(self):
        def boom():
            raise ValueError("task failed")

        with SharedScheduler(workers=2) as scheduler:
            request = scheduler.submit("job", boom)
            with pytest.raises(ValueError, match="task failed"):
                request.result()
            assert scheduler.stats.errors == 1

    def test_pool_is_elastic(self):
        scheduler = SharedScheduler(workers=4, idle_timeout=0.1)
        scheduler.run_batch("job", [lambda: None for _ in range(8)])
        deadline = time.time() + 3.0
        while scheduler.live_workers > 0 and time.time() < deadline:
            time.sleep(0.05)
        assert scheduler.live_workers == 0
        # ...and respawns on demand.
        assert scheduler.run_batch("job", [lambda: 7])[0] == 7
        scheduler.shutdown()

    def test_shutdown_rejects_new_work(self):
        scheduler = SharedScheduler(workers=1)
        scheduler.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            scheduler.submit("job", lambda: None)


class TestBackendHook:
    def test_session_parallel_flag_follows_backend(self):
        serial = DebugSession(_oracle, _space())
        assert serial.parallel is False
        with SharedScheduler(workers=2) as scheduler:
            parallel = DebugSession(
                _oracle, _space(), backend=scheduler.backend("job")
            )
            assert parallel.parallel is True

    def test_budget_aware_skip_in_batches(self):
        """Batch items beyond the budget are never submitted: the session
        admits the batch against the budget before dispatch."""
        from repro.core import InstanceBudget

        counting = CountingExecutor(_oracle)
        with SharedScheduler(workers=1) as scheduler:
            session = DebugSession(
                counting,
                _space(),
                budget=InstanceBudget(2),
                backend=scheduler.backend("job"),
            )
            batch = [
                Instance({"a": a, "b": "x", "c": 0}) for a in (0, 1, 2, 3, 4, 5)
            ]
            results = session.evaluate_many(batch)
            assert session.budget.spent == 2
            assert results[:2] == [Outcome.FAIL, Outcome.SUCCEED]
            assert results[2:] == [None] * 4
            assert counting.calls == 2
            stats = scheduler.stats_snapshot()
            assert stats["submitted"] == 2
            assert stats["skipped"] == 0


def _custom_job(spec_id, instances, budget=None, **kwargs):
    """A JobSpec with a deterministic custom body evaluating `instances`."""

    def run(session):
        evaluated = 0
        for instance in instances:
            try:
                session.evaluate(instance)
                evaluated += 1
            except BudgetExhausted:
                break
            except RuntimeError:
                continue  # injected executor failure; budget refunded
        return evaluated

    return JobSpec(
        job_id=spec_id,
        executor=kwargs.pop("executor"),
        space=_space(),
        workflow=kwargs.pop("workflow", "shared"),
        budget=budget,
        run=run,
        **kwargs,
    )


class TestDebugServiceStress:
    """The satellite stress test: >= 8 concurrent jobs over one shared
    flaky/latency executor."""

    def test_stress_eight_jobs_flaky_latency_executor(self):
        inner = CountingExecutor(_oracle)
        latency = LatencyExecutor(inner, 0.002)
        flaky = FlakyExecutor(latency, lambda call, inst: call % 13 == 7)
        job_instances = {
            f"job-{index}": _instances(seed=index % 4, count=30)
            for index in range(10)
        }
        budgets = {
            job_id: (8 if index % 2 == 0 else None)
            for index, job_id in enumerate(job_instances)
        }
        with DebugService(workers=6) as service:
            handles = [
                service.submit(
                    _custom_job(
                        job_id,
                        instances,
                        budget=budgets[job_id],
                        executor=flaky,
                    )
                )
                for job_id, instances in job_instances.items()
            ]
            results = {
                handle.job_id: handle.result(timeout=60) for handle in handles
            }

            assert all(r.status is JobStatus.SUCCEEDED for r in results.values())

            total_charged = 0
            for handle in handles:
                result = results[handle.job_id]
                session = handle.session
                assert session is not None
                # Budget accounting is exact per job: every charge
                # corresponds to one instance new to the job's history,
                # crashed executions were refunded.
                assert result.budget_spent == result.new_executions
                assert result.budget_spent == len(session.history.instances)
                limit = budgets[handle.job_id]
                if limit is not None:
                    assert result.budget_spent <= limit
                total_charged += result.budget_spent

            # Cross-job dedup: 10 jobs drew from 4 seed pools, so the
            # shared cache served most requests without executing.
            assert inner.calls < total_charged
            stats = service.cache.stats
            assert stats.hits + stats.coalesced > 0
            # Failed executions never poisoned the cache: successful
            # inner calls are at least the distinct cached instances.
            assert stats.executions == len(service.cache)

    def test_results_and_budgets_match_serial_baseline(self):
        """Service-run jobs report exactly what standalone sessions do."""
        seeds = [0, 0, 1, 1, 2, 2, 3, 3]
        specs = []
        for index, seed in enumerate(seeds):
            specs.append(
                JobSpec(
                    job_id=f"job-{index}",
                    executor=LatencyExecutor(_oracle, 0.001),
                    space=_space(),
                    workflow="shared",
                    algorithm=Algorithm.DECISION_TREES,
                    goal=JobGoal.FIND_ALL,
                    budget=60,
                    seed=seed,
                    ddt_config=DDTConfig(find_all=True, seed=seed),
                )
            )

        from repro.core import InstanceBudget

        baselines = {}
        for spec in specs:
            session = DebugSession(
                _oracle, _space(), budget=InstanceBudget(spec.budget)
            )
            bugdoc = BugDoc(session=session, seed=spec.seed)
            report = bugdoc.find_all(
                Algorithm.DECISION_TREES, ddt_config=spec.ddt_config
            )
            baselines[spec.job_id] = (
                sorted(str(c) for c in report.causes),
                report.instances_executed,
                session.budget.spent,
            )

        inner = CountingExecutor(_oracle)
        with DebugService(workers=8) as service:
            results = service.run_all(
                [
                    JobSpec(
                        job_id=spec.job_id,
                        executor=inner,
                        space=spec.space,
                        workflow=spec.workflow,
                        algorithm=spec.algorithm,
                        goal=spec.goal,
                        budget=spec.budget,
                        seed=spec.seed,
                        ddt_config=spec.ddt_config,
                    )
                    for spec in specs
                ],
                timeout=120,
            )

        total_charged = 0
        for result in results:
            causes, instances_executed, spent = baselines[result.job_id]
            assert result.status is JobStatus.SUCCEEDED
            assert sorted(str(c) for c in result.report.causes) == causes
            assert result.new_executions == instances_executed
            assert result.budget_spent == spent
            total_charged += result.budget_spent
        # Paired seeds ran identical searches: the cache halved (at
        # least) the real pipeline executions.
        assert inner.calls <= total_charged - total_charged // 4

    def test_cache_dedupes_identical_jobs_to_one_execution_each(self):
        inner = CountingExecutor(_oracle)
        latency = LatencyExecutor(inner, 0.005)
        instances = _instances(seed=7, count=15)
        distinct = len(set(instances))
        with DebugService(workers=8) as service:
            results = service.run_all(
                [
                    _custom_job(f"job-{index}", instances, executor=latency)
                    for index in range(8)
                ],
                timeout=60,
            )
        assert all(result.succeeded for result in results)
        # Single-flight: globally exactly one inner execution per
        # distinct instance, even though 8 jobs raced on the same list.
        assert inner.calls == distinct
        for result in results:
            assert result.budget_spent == distinct


class TestDebugService:
    def test_find_all_rejects_shortcut_algorithms(self):
        with pytest.raises(ValueError, match="FindOne"):
            JobSpec(
                job_id="bad-combo",
                executor=_oracle,
                space=_space(),
                algorithm=Algorithm.SHORTCUT,
                goal=JobGoal.FIND_ALL,
            )

    def test_duplicate_job_id_rejected(self):
        with DebugService(workers=2) as service:
            spec = _custom_job("dup", _instances(0, 3), executor=_oracle)
            service.submit(spec)
            with pytest.raises(ValueError, match="duplicate"):
                service.submit(
                    _custom_job("dup", _instances(0, 3), executor=_oracle)
                )

    def test_failed_job_is_isolated(self):
        def broken(instance):
            raise OSError("pipeline host unreachable")

        def run(session):
            return session.evaluate(Instance({"a": 1, "b": "x", "c": 0}))

        with DebugService(workers=2) as service:
            bad = service.submit(
                JobSpec(
                    job_id="bad",
                    executor=broken,
                    space=_space(),
                    workflow="broken",
                    run=run,
                )
            )
            good = service.submit(
                _custom_job("good", _instances(1, 5), executor=_oracle)
            )
            bad_result = bad.result(timeout=30)
            good_result = good.result(timeout=30)
        assert bad_result.status is JobStatus.FAILED
        assert isinstance(bad_result.error, OSError)
        assert bad_result.budget_spent == 0  # refunded on failure
        assert good_result.status is JobStatus.SUCCEEDED

    def test_admission_control_limits_concurrency(self):
        active = []
        peak = []
        lock = threading.Lock()

        def slow(instance):
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.02)
            with lock:
                active.pop()
            return _oracle(instance)

        with DebugService(workers=8, max_concurrent_jobs=2) as service:
            results = service.run_all(
                [
                    _custom_job(
                        f"job-{index}",
                        _instances(index, 4),
                        executor=slow,
                        workflow=f"w{index}",  # no cache sharing
                    )
                    for index in range(6)
                ],
                timeout=60,
            )
        assert all(result.succeeded for result in results)
        assert max(peak) <= 2

    def test_shutdown_cancels_running_jobs(self):
        """Jobs torn down by service shutdown report CANCELLED, not FAILED."""
        gate = threading.Event()

        def slow(instance):
            gate.wait(5.0)
            return _oracle(instance)

        def run(session):
            for instance in _instances(0, 5):
                session.evaluate(instance)

        service = DebugService(workers=1)
        handle = service.submit(
            JobSpec(
                job_id="torn-down",
                executor=slow,
                space=_space(),
                workflow="w",
                run=run,
            )
        )
        time.sleep(0.05)  # let the first evaluation reach the pool
        service.shutdown()
        gate.set()
        result = handle.result(timeout=30)
        assert result.status is JobStatus.CANCELLED
        assert isinstance(result.error, RuntimeError)

    def test_persistent_store_warms_next_service(self):
        store = SQLiteProvenanceStore(":memory:")
        instances = _instances(seed=3, count=12)
        first_counting = CountingExecutor(_oracle)
        with DebugService(workers=4, store=store) as service:
            service.run_all(
                [_custom_job("first", instances, executor=first_counting)],
                timeout=30,
            )
        assert first_counting.calls == len(set(instances))

        second_counting = CountingExecutor(_oracle)
        with DebugService(workers=4, store=store) as service:
            results = service.run_all(
                [_custom_job("second", instances, executor=second_counting)],
                timeout=30,
            )
        # The second service never executed the pipeline: every request
        # was served by the persistent provenance tier.
        assert second_counting.calls == 0
        assert results[0].budget_spent == len(set(instances))

    def test_worker_cap_bounds_parallel_batch_jobs(self):
        """The service-wide workers cap holds even for parallel_batches
        jobs mixing single evaluations and speculative batches."""
        active = []
        peak = []
        lock = threading.Lock()

        def slow(instance):
            with lock:
                active.append(1)
                peak.append(len(active))
            time.sleep(0.01)
            with lock:
                active.pop()
            return _oracle(instance)

        def make_run(index):
            def run(session):
                instances = _instances(seed=index, count=6)
                for instance in instances[:2]:
                    session.evaluate(instance)  # singles: routed via pool
                session.evaluate_many(instances[2:])  # batch: fans out on pool
                return None

            return run

        with DebugService(workers=2) as service:
            results = service.run_all(
                [
                    JobSpec(
                        job_id=f"job-{index}",
                        executor=slow,
                        space=_space(),
                        workflow=f"w{index}",  # no cache sharing
                        parallel_batches=True,
                        run=make_run(index),
                    )
                    for index in range(4)
                ],
                timeout=60,
            )
        assert all(result.succeeded for result in results)
        assert max(peak) <= 2

    def test_job_history_warms_shared_cache(self):
        """One job's prior provenance saves every other job's executions."""
        from repro.core import ExecutionHistory

        counting = CountingExecutor(_oracle)
        instances = _instances(seed=11, count=10)
        history = ExecutionHistory.from_pairs(
            [(instance, _oracle(instance)) for instance in set(instances)]
        )
        with DebugService(workers=4) as service:
            seeded = service.submit(
                JobSpec(
                    job_id="seeded",
                    executor=counting,
                    space=_space(),
                    workflow="w",
                    history=history,
                    run=lambda session: None,
                )
            )
            assert seeded.result(timeout=30).succeeded
            other = service.run_all(
                [_custom_job("other", instances, executor=counting, workflow="w")],
                timeout=30,
            )[0]
        # The second job never ran the pipeline: the warmed shared
        # cache served everything, yet its own budget was still charged
        # (instances new to *its* history).
        assert counting.calls == 0
        assert other.budget_spent == len(set(instances))

    def test_parallel_batches_job_uses_shared_pool(self):
        spec = JobSpec(
            job_id="batchy",
            executor=_oracle,
            space=_space(),
            workflow="w",
            algorithm=Algorithm.DECISION_TREES,
            goal=JobGoal.FIND_ALL,
            seed=0,
            parallel_batches=True,
        )
        with DebugService(workers=4) as service:
            result = service.run_all([spec], timeout=60)[0]
            assert result.status is JobStatus.SUCCEEDED
            assert result.report is not None
            assert any(
                "a = 0" == str(cause) for cause in result.report.causes
            )
            assert service.scheduler.stats.dispatched > 0


class TestCancellation:
    def test_cancel_mid_run_yields_cancelled_status_and_refunds(self):
        space = _space()
        started = threading.Event()

        def slow_oracle(instance):
            started.set()
            time.sleep(0.03)
            return _oracle(instance)

        with DebugService(workers=2) as service:
            handle = service.submit(
                JobSpec(
                    job_id="doomed",
                    executor=slow_oracle,
                    space=space,
                    budget=500,
                )
            )
            assert started.wait(10)
            time.sleep(0.1)
            assert service.cancel("doomed") is True
            result = handle.result(timeout=30)
        assert result.status is JobStatus.CANCELLED
        assert isinstance(result.error, JobCancelled)
        # The aborted slice was refunded: only completed executions are
        # charged, so spend equals the session's completed new runs.
        assert result.budget_spent == result.new_executions
        assert result.budget_spent < 500

    def test_cancel_queued_job_never_executes(self):
        space = _space()
        release = threading.Event()

        def gated_oracle(instance):
            release.wait(10)
            return _oracle(instance)

        with DebugService(workers=1, max_concurrent_jobs=1) as service:
            blocker = service.submit(
                JobSpec(
                    job_id="blocker", executor=gated_oracle, space=space, budget=3
                )
            )
            queued = service.submit(
                JobSpec(
                    job_id="queued", executor=gated_oracle, space=space, budget=3
                )
            )
            assert service.cancel("queued") is True
            release.set()
            queued_result = queued.result(timeout=30)
            blocker_result = blocker.result(timeout=30)
        assert queued_result.status is JobStatus.CANCELLED
        assert queued_result.new_executions == 0
        assert queued_result.budget_spent == 0
        assert blocker_result.status is not JobStatus.CANCELLED

    def test_cancel_after_completion_returns_false(self):
        with DebugService(workers=2) as service:
            handle = service.submit(
                JobSpec(job_id="fast", executor=_oracle, space=_space(), budget=40)
            )
            result = handle.result(timeout=30)
            assert result.status is JobStatus.SUCCEEDED
            assert service.cancel("fast") is False
            assert handle.result(timeout=1).status is JobStatus.SUCCEEDED

    def test_cancel_unknown_job_raises(self):
        with DebugService(workers=1) as service:
            with pytest.raises(KeyError):
                service.cancel("nobody")

    def test_parallel_batches_job_cancels_cleanly(self):
        space = _space()
        started = threading.Event()

        def slow_oracle(instance):
            started.set()
            time.sleep(0.02)
            return _oracle(instance)

        with DebugService(workers=3) as service:
            handle = service.submit(
                JobSpec(
                    job_id="batchy-cancel",
                    executor=slow_oracle,
                    space=space,
                    algorithm=Algorithm.DECISION_TREES,
                    goal=JobGoal.FIND_ALL,
                    budget=500,
                    parallel_batches=True,
                )
            )
            assert started.wait(10)
            time.sleep(0.08)
            service.cancel("batchy-cancel")
            result = handle.result(timeout=30)
        assert result.status is JobStatus.CANCELLED
        assert result.budget_spent == result.new_executions

    def test_custom_run_body_can_poll_cancellation(self):
        ticks = []
        handle_ready = threading.Event()
        holder = {}

        def body(session):
            assert handle_ready.wait(10)
            handle = holder["handle"]
            while True:
                ticks.append(None)
                handle.check_cancelled()
                time.sleep(0.01)

        with DebugService(workers=1) as service:
            spec = JobSpec(
                job_id="poller", executor=_oracle, space=_space(), run=body
            )
            handle = service.submit(spec)
            holder["handle"] = handle
            handle_ready.set()
            time.sleep(0.1)
            service.cancel("poller")
            result = handle.result(timeout=30)
        assert result.status is JobStatus.CANCELLED
        assert ticks


class TestPriorities:
    def test_jobspec_rejects_non_positive_priority(self):
        with pytest.raises(ValueError, match="priority"):
            JobSpec(job_id="p", executor=_oracle, space=_space(), priority=0)

    def test_weighted_fairness_serves_heavier_job_more_per_turn(self):
        order = []
        lock = threading.Lock()

        def make(tag):
            def thunk():
                with lock:
                    order.append(tag)

            return thunk

        gate = threading.Event()
        with SharedScheduler(workers=1, weighted_fairness=True) as scheduler:
            scheduler.submit("warm", gate.wait)
            scheduler.set_priority("heavy", 3)
            requests = []
            for __ in range(6):
                requests.append(scheduler.submit("heavy", make("H")))
                requests.append(scheduler.submit("light", make("L")))
            gate.set()
            for request in requests:
                request.result()
        # The first fairness turn serves three consecutive heavy
        # requests before the light job gets its slice.
        assert "".join(order).startswith("HHHL")
        assert order.count("H") == order.count("L") == 6

    def test_unweighted_scheduler_ignores_priorities(self):
        order = []
        lock = threading.Lock()

        def make(tag):
            def thunk():
                with lock:
                    order.append(tag)

            return thunk

        gate = threading.Event()
        with SharedScheduler(workers=1) as scheduler:
            scheduler.submit("warm", gate.wait)
            scheduler.set_priority("heavy", 5)
            requests = []
            for __ in range(4):
                requests.append(scheduler.submit("heavy", make("H")))
                requests.append(scheduler.submit("light", make("L")))
            gate.set()
            for request in requests:
                request.result()
        assert "".join(order) == "HLHLHLHL"  # exactly the historical FIFO

    def test_all_weight_one_matches_fifo_round_robin(self):
        order = []
        lock = threading.Lock()

        def make(tag):
            def thunk():
                with lock:
                    order.append(tag)

            return thunk

        gate = threading.Event()
        with SharedScheduler(workers=1, weighted_fairness=True) as scheduler:
            scheduler.submit("warm", gate.wait)
            requests = []
            for __ in range(4):
                requests.append(scheduler.submit("A", make("A")))
                requests.append(scheduler.submit("B", make("B")))
            gate.set()
            for request in requests:
                request.result()
        assert "".join(order) == "ABABABAB"

    def test_service_runs_prioritized_jobs_to_completion(self):
        specs = [
            JobSpec(
                job_id=f"job-{index}",
                executor=_oracle,
                space=_space(),
                workflow="w",
                budget=30,
                priority=3 if index == 0 else 1,
            )
            for index in range(3)
        ]
        with DebugService(workers=2, weighted_fairness=True) as service:
            results = service.run_all(specs, timeout=60)
        assert all(r.status is JobStatus.SUCCEEDED for r in results)
        # Identical specs produce identical per-job reports regardless
        # of dispatch weighting (serial sessions are deterministic).
        causes = [[str(c) for c in r.report.causes] for r in results]
        assert causes[0] == causes[1] == causes[2]


class TestSubmitShutdownRace:
    def test_submit_racing_shutdown_never_leaks_a_job(self):
        """Hammer submit against shutdown: every submission either raises
        the shutdown RuntimeError or yields a handle that reaches a
        terminal state -- no job may be accepted-then-stranded (the old
        code published the submitted event and started the controller
        after releasing the lock, so a concurrent shutdown could drain
        the event bus and strand the handle forever PENDING)."""
        for round_index in range(10):
            service = DebugService(workers=2)
            barrier = threading.Barrier(3)
            handles = []
            errors = []
            lock = threading.Lock()

            def submit_many(offset):
                barrier.wait()
                for index in range(8):
                    spec = JobSpec(
                        job_id=f"r{round_index}-s{offset}-{index}",
                        executor=_oracle,
                        space=_space(),
                        workflow="race",
                        budget=10,
                    )
                    try:
                        handle = service.submit(spec)
                    except RuntimeError:
                        return  # shutdown won the race; acceptable
                    with lock:
                        handles.append(handle)

            def shut_down():
                barrier.wait()
                time.sleep(0.0005 * round_index)
                service.shutdown()

            threads = [
                threading.Thread(target=submit_many, args=(0,)),
                threading.Thread(target=submit_many, args=(1,)),
                threading.Thread(target=shut_down),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(30.0)
                assert not thread.is_alive()
            # Every accepted handle must reach a terminal state: either
            # it ran to completion before shutdown or the teardown
            # cancelled it -- never a forever-PENDING orphan.
            for handle in handles:
                result = handle.result(timeout=30)
                assert result.status in (
                    JobStatus.SUCCEEDED,
                    JobStatus.FAILED,
                    JobStatus.CANCELLED,
                )


class TestRunAllBatchTimeout:
    def test_timeout_names_all_unfinished_jobs_and_keeps_partials(self):
        """A mid-batch timeout must (a) name every unfinished job -- not
        just the one whose result() call tripped -- and (b) leave the
        finished partial results retrievable via service.jobs."""
        release = threading.Event()

        def gated(instance):
            release.wait(30.0)
            return _oracle(instance)

        specs = [
            _custom_job("fast", _instances(1, 3), executor=_oracle),
            _custom_job(
                "slow-a", _instances(2, 3), executor=gated, workflow="wa"
            ),
            _custom_job(
                "slow-b", _instances(3, 3), executor=gated, workflow="wb"
            ),
        ]
        service = DebugService(workers=4)
        try:
            with pytest.raises(TimeoutError) as excinfo:
                service.run_all(specs, timeout=0.8)
            message = str(excinfo.value)
            # The deadline sweep visits every handle, so both stragglers
            # are reported -- the old code raised on the first pending
            # handle and never looked at the rest of the batch.
            assert "slow-a" in message
            assert "slow-b" in message
            assert "fast" not in message
            # The finished job's result is retrievable immediately...
            fast = service.jobs["fast"].result(timeout=5)
            assert fast.status is JobStatus.SUCCEEDED
            # ...and the stragglers keep running to completion.
            release.set()
            for job_id in ("slow-a", "slow-b"):
                result = service.jobs[job_id].result(timeout=30)
                assert result.status is JobStatus.SUCCEEDED
        finally:
            release.set()
            service.shutdown()

    def test_run_all_returns_submission_order_after_stragglers(self):
        """Out-of-order completion must not reorder run_all results."""
        first_gate = threading.Event()

        def gated_first(instance):
            first_gate.wait(10.0)
            return _oracle(instance)

        def release_then_run(session):
            # The last-submitted job unblocks the first, so completion
            # order is roughly reversed submission order.
            first_gate.set()
            for instance in _instances(9, 2):
                session.evaluate(instance)
            return 2

        specs = [
            _custom_job("g0", _instances(5, 2), executor=gated_first),
            _custom_job("g1", _instances(6, 2), executor=_oracle),
            JobSpec(
                job_id="g2",
                executor=_oracle,
                space=_space(),
                workflow="shared",
                run=release_then_run,
            ),
        ]
        with DebugService(workers=4) as service:
            results = service.run_all(specs, timeout=30)
        assert [r.job_id for r in results] == ["g0", "g1", "g2"]
        assert all(r.status is JobStatus.SUCCEEDED for r in results)
