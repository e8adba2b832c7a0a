"""Tests for the distributed fleet tier (repro.exec.remote).

Five contracts:

1. **The protocol is exact.**  Frames round-trip byte-for-byte, spec
   wire forms preserve fingerprints, and a version-mismatched hello is
   rejected instead of half-joining.
2. **Retry is one policy.**  ``RetryPolicy`` defaults reproduce the
   historical ``ProcessPool`` integers exactly; backoff is exponential,
   capped, and jittered within bounds.
3. **Fleet execution is transparent.**  A debug run dispatched over the
   fleet produces byte-identical reports and exact budgets vs the
   in-process session -- including under injected network faults
   (drop/delay/duplicate/reorder), mid-run worker kills, and
   partition-and-rejoin.
4. **Membership is elastic and consensus-free.**  Workers join and
   leave mid-job; silence turns them suspect then evicted; any frame
   (or a redial under the same name) rejoins them; no run is lost and
   none is double-executed (duplicated frames are idempotent).
5. **Capacity is adaptive.**  The sizer grows on queue depth, shrinks
   only after sustained idleness, and leaves a readable decision trail
   in the pool's stats.
"""

from __future__ import annotations

import os
import pathlib
import random
import socket
import subprocess
import sys
import threading
import time
from unittest import mock

import pytest

from repro.core import (
    Algorithm,
    DebugSession,
    DDTConfig,
    ExecutionHistory,
    Instance,
    Outcome,
)
from repro.core.ddt import debugging_decision_trees
from repro.exec import (
    AdaptiveSizer,
    ExecutorSpec,
    FaultPlan,
    FaultyConnection,
    FleetWorker,
    PoolShutDown,
    ProcessPool,
    RemoteWorkerPool,
    RetryPolicy,
    RunTimedOut,
)
from repro.exec.remote import protocol
from repro.exec.spec import artifact_cache_stats, clear_artifact_cache
from repro.exec.synthetic import build_pipeline, build_space
from repro.pipeline import Module, Workflow
from repro.pipeline.runner import ParallelDebugSession
from repro.provenance import InMemoryProvenanceStore
from repro.service import DebugService, JobGoal, JobSpec, JobStatus

SYNTH = "repro.exec.synthetic:build_pipeline"
SPACE = build_space(n_params=4, domain=4)
FAIL_WHEN = {"p0": 1, "p1": 2}

#: Fast liveness timings for in-thread fleets (suspect at 2.5x = 0.15s,
#: evict at 5x = 0.3s).
HB = 0.06


def synth_spec(**kwargs) -> ExecutorSpec:
    return ExecutorSpec.from_builder(SYNTH, fail_when=FAIL_WHEN, **kwargs)


def seed_history(executor) -> ExecutionHistory:
    """Same deterministic seeding as tests/test_exec.py (rng seed 11)."""
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


def make_pool(**kwargs) -> RemoteWorkerPool:
    kwargs.setdefault("heartbeat_interval", HB)
    if "store" not in kwargs:
        kwargs["store"] = InMemoryProvenanceStore()
    return RemoteWorkerPool(**kwargs)


def start_workers(
    pool: RemoteWorkerPool, count: int, **kwargs
) -> list[FleetWorker]:
    """Join ``count`` in-thread workers and wait until all are active."""
    host, port = pool.address
    workers = [
        FleetWorker(host, port, name=kwargs.pop("name", None) or f"w{i}", **kwargs)
        for i in range(count)
    ]
    for worker in workers:
        worker.start()
    assert pool.wait_for_workers(count, timeout=10.0)
    return workers


def stop_workers(workers) -> None:
    for worker in workers:
        worker.stop()
    for worker in workers:
        worker.join(timeout=5.0)


def wait_until(predicate, timeout: float = 5.0, message: str = "condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.01)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture(scope="module")
def serial_expected():
    """The in-process serial reference fingerprint every fleet scenario
    must reproduce byte-for-byte."""
    reference = build_pipeline(fail_when=FAIL_WHEN)
    return ddt_fingerprint(
        DebugSession(
            build_pipeline(fail_when=FAIL_WHEN),
            SPACE,
            history=seed_history(reference),
        )
    )


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_frame_roundtrip_and_eof(self):
        left_sock, right_sock = socket.socketpair()
        left = protocol.Connection(left_sock)
        right = protocol.Connection(right_sock)
        message = {
            "type": "probe",
            "nested": {"a": [1, 2.5, "x", None, True]},
            "text": "unicode éü",
        }
        left.send(message)
        assert right.recv() == message
        left.close()
        assert right.recv() is None  # EOF reads as a clean None
        right.close()

    def test_value_codec_preserves_types(self):
        values = {"i": 3, "f": 1.5, "s": "two", "b": True, "n": None}
        decoded = protocol.decode_values(protocol.encode_values(values))
        assert decoded == values
        for key in values:
            assert type(decoded[key]) is type(values[key])

    def test_spec_wire_roundtrip_preserves_fingerprint(self):
        spec = synth_spec(work_iterations=5, mode="cpu")
        clone = ExecutorSpec.from_wire(spec.to_wire())
        assert clone.fingerprint == spec.fingerprint
        executor = clone.build()
        assert executor(Instance({"p0": 1, "p1": 2, "p2": 3, "p3": 0}))\
            is Outcome.FAIL
        assert executor(Instance({"p0": 0, "p1": 0, "p2": 0, "p3": 0}))\
            is Outcome.SUCCEED

    def test_version_mismatch_is_rejected(self):
        with make_pool(store=None) as pool:
            conn = protocol.connect(*pool.address)
            conn.send({"type": "hello", "name": "old", "protocol": 99})
            reply = conn.recv()
            assert reply is not None and reply["type"] == "reject"
            conn.close()
            assert pool.stats()["workers_joined"] == 0


# ---------------------------------------------------------------------------
# Unified retry policy
# ---------------------------------------------------------------------------

class TestRetryPolicy:
    def test_defaults_preserve_legacy_pool_behavior(self):
        policy = RetryPolicy()
        assert (policy.crash_retries, policy.timeout_retries) == (1, 0)
        state = policy.start()
        assert state.next_delay("crash") == 0.0  # immediate, once
        assert state.next_delay("crash") is None
        assert state.next_delay("timeout") is None
        assert state.retries_used == 1

    def test_legacy_ints_still_configure_process_pool(self):
        pool = ProcessPool(max_workers=1, crash_retries=2, timeout_retries=1)
        try:
            assert pool.retry_policy.crash_retries == 2
            assert pool.retry_policy.timeout_retries == 1
            assert pool.retry_policy.base_delay == 0.0
            assert (pool.crash_retries, pool.timeout_retries) == (2, 1)
        finally:
            pool.shutdown()

    def test_exponential_backoff_capped(self):
        policy = RetryPolicy(
            crash_retries=4, base_delay=0.1, factor=2.0, max_delay=0.25
        )
        state = policy.start()
        delays = [state.next_delay("crash") for __ in range(5)]
        assert delays[:4] == pytest.approx([0.1, 0.2, 0.25, 0.25])
        assert delays[4] is None

    def test_jitter_stays_within_bounds(self):
        policy = RetryPolicy(
            crash_retries=50, base_delay=0.1, factor=1.0, jitter=0.5, seed=7
        )
        state = policy.start()
        for __ in range(50):
            delay = state.next_delay("crash")
            assert 0.1 <= delay <= 0.15

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(crash_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)
        with pytest.raises(ValueError):
            RetryPolicy().budget("cosmic-ray")


# ---------------------------------------------------------------------------
# Fleet basics: dispatch, dedup, elasticity, degradation
# ---------------------------------------------------------------------------

class TestFleetBasics:
    def test_idle_pool_shuts_down_promptly_without_threads_left(self):
        """Shutdown wakes the blocked accept() and the monitor's wait
        instead of timing out their joins."""
        before = set(threading.enumerate())
        pool = make_pool(heartbeat_interval=1.0)
        threads = [
            t for t in set(threading.enumerate()) - before
            if t.name in ("fleet-accept", "fleet-monitor")
        ]
        assert len(threads) == 2
        started = time.perf_counter()
        pool.shutdown()
        assert time.perf_counter() - started <= 0.1
        assert not any(thread.is_alive() for thread in threads)

    def test_outcomes_match_in_process(self):
        reference = build_pipeline(fail_when=FAIL_WHEN)
        rng = random.Random(0)
        instances = [SPACE.random_instance(rng) for __ in range(6)]
        instances.append(Instance({"p0": 1, "p1": 2, "p2": 3, "p3": 3}))
        with make_pool() as pool:
            workers = start_workers(pool, 2)
            spec = synth_spec()
            for instance in instances:
                assert pool.run(spec, "wf", instance) is reference(instance)
            stats = pool.stats()
            stop_workers(workers)
        assert stats["runs"] == len(instances)
        assert stats["local_runs"] == 0
        assert stats["workers_joined"] == 2

    def test_provenance_dedup_across_the_fleet(self):
        instance = Instance({"p0": 1, "p1": 2, "p2": 0, "p3": 0})
        with make_pool() as pool:
            workers = start_workers(pool, 2)
            spec = synth_spec()
            for __ in range(3):
                assert pool.run(spec, "wf", instance) is Outcome.FAIL
            stats = pool.stats()
            stop_workers(workers)
        # First run executes; repeats are answered from the shared store
        # regardless of which worker they landed on.
        assert stats["store_hits"] >= 2
        executions = sum(w.runner.stats["executions"] for w in workers)
        assert executions == 1

    def test_drain_falls_back_to_local_execution(self):
        instance = Instance({"p0": 0, "p1": 0, "p2": 0, "p3": 0})
        with make_pool() as pool:
            workers = start_workers(pool, 1)
            assert pool.run(synth_spec(), "wf", instance) is Outcome.SUCCEED
            stop_workers(workers)
            wait_until(
                lambda: pool.stats()["workers_left"] == 1,
                message="graceful leave",
            )
            # Fleet drained: execution degrades to the local path.
            assert pool.run(synth_spec(), "wf", instance) is Outcome.SUCCEED
            stats = pool.stats()
        assert stats["local_runs"] == 1
        assert stats["workers_left"] == 1
        # The local path shares the provenance dedup with the fleet.
        assert stats["store_hits"] >= 1

    def test_worker_joining_mid_stream_takes_over(self):
        instance = Instance({"p0": 2, "p1": 2, "p2": 0, "p3": 0})
        with make_pool() as pool:
            assert pool.run(synth_spec(), "wf", instance) is Outcome.SUCCEED
            assert pool.stats()["local_runs"] == 1
            workers = start_workers(pool, 1)
            other = Instance({"p0": 3, "p1": 1, "p2": 0, "p3": 0})
            assert pool.run(synth_spec(), "wf", other) is Outcome.SUCCEED
            stats = pool.stats()
            stop_workers(workers)
        assert stats["local_runs"] == 1  # the second run went remote
        assert workers[0].executed == 1

    def test_latest_registration_wins(self):
        with make_pool(store=None) as pool:
            first = FleetWorker(*pool.address, name="dup").start()
            assert pool.wait_for_workers(1)
            second = FleetWorker(*pool.address, name="dup").start()
            wait_until(
                lambda: pool.stats()["workers_joined"] == 2,
                message="duplicate registration",
            )
            roster = pool.workers()
            assert [w["name"] for w in roster] == ["dup"]
            instance = Instance({"p0": 0, "p1": 1, "p2": 0, "p3": 0})
            assert pool.run(synth_spec(), "wf", instance) is Outcome.SUCCEED
            assert second.executed == 1
            second.stop()
            first.kill()

    def test_shutdown_dismisses_fleet_and_blocks_runs(self):
        pool = make_pool(store=None)
        workers = start_workers(pool, 1)
        pool.shutdown()
        with pytest.raises(PoolShutDown):
            pool.run(synth_spec(), "wf", Instance({"p0": 0, "p1": 0,
                                                   "p2": 0, "p3": 0}))
        # The bye frame (or the closed socket) stops the worker.
        wait_until(
            lambda: not workers[0].connected.is_set(), message="worker stop"
        )
        stop_workers(workers)


# ---------------------------------------------------------------------------
# Liveness: heartbeats, suspicion, eviction, redispatch
# ---------------------------------------------------------------------------

class TestLiveness:
    def test_silent_worker_turns_suspect_then_recovers(self):
        with make_pool(store=None) as pool:
            workers = start_workers(pool, 1)
            workers[0].pause_heartbeats()
            wait_until(
                lambda: pool.stats()["suspects"] >= 1, message="suspicion"
            )
            workers[0].resume_heartbeats()
            wait_until(
                lambda: pool.stats()["suspect_recoveries"] >= 1,
                message="recovery",
            )
            stats = pool.stats()
            assert stats["active_workers"] == 1
            assert stats["workers_evicted"] == 0
            stop_workers(workers)

    def test_prolonged_silence_evicts_then_heartbeat_rejoins(self):
        with make_pool(store=None) as pool:
            workers = start_workers(pool, 1)
            workers[0].pause_heartbeats()
            wait_until(
                lambda: pool.stats()["workers_evicted"] >= 1,
                message="eviction",
            )
            assert pool.stats()["active_workers"] == 0
            # The connection was kept (partition, not death): the next
            # frame is proof of life and rejoins in-band.
            workers[0].resume_heartbeats()
            wait_until(
                lambda: pool.stats()["workers_rejoined"] >= 1,
                message="in-band rejoin",
            )
            assert pool.stats()["active_workers"] == 1
            stop_workers(workers)

    def test_mid_run_kill_redispatches_to_surviving_worker(self):
        instance = Instance({"p0": 1, "p1": 2, "p2": 1, "p3": 1})
        with make_pool(store=None, local_fallback=False) as pool:
            workers = start_workers(
                pool, 2, heartbeat_interval=HB
            )
            spec = synth_spec(mode="sleep", sleep_seconds=0.4)
            outcome: list = []
            runner = threading.Thread(
                target=lambda: outcome.append(pool.run(spec, "wf", instance))
            )
            runner.start()
            # Dispatch targets the least-loaded worker: w0.  Kill it
            # once the run is in flight.
            wait_until(
                lambda: any(w["inflight"] for w in pool.workers()),
                message="dispatch",
            )
            victim = next(
                w for w in workers
                if any(
                    r["name"] == w.name and r["inflight"]
                    for r in pool.workers()
                )
            )
            victim.kill()
            runner.join(timeout=15.0)
            assert not runner.is_alive()
            assert outcome == [Outcome.FAIL]
            stats = pool.stats()
            stop_workers(workers)
        assert stats["workers_lost"] >= 1
        assert stats["redispatches"] >= 1
        assert stats["runs"] == 1

    def test_hung_run_times_out_and_evicts_the_worker(self):
        with make_pool(
            store=None,
            local_fallback=False,
            run_timeout=0.3,
            retry_policy=RetryPolicy(crash_retries=0, timeout_retries=0),
        ) as pool:
            workers = start_workers(pool, 1)
            with pytest.raises(RunTimedOut):
                pool.run(
                    synth_spec(mode="sleep", sleep_seconds=1.5),
                    "wf",
                    Instance({"p0": 0, "p1": 0, "p2": 0, "p3": 0}),
                )
            stats = pool.stats()
        assert stats["timeouts"] == 1
        assert stats["workers_evicted"] == 1
        stop_workers(workers)


# ---------------------------------------------------------------------------
# Differential identity under network faults (the headline contract)
# ---------------------------------------------------------------------------

class TestFaultDifferential:
    def _fleet_fingerprint(
        self,
        pool: RemoteWorkerPool,
        spec_kwargs: dict | None = None,
        parallel: bool = False,
    ):
        reference = build_pipeline(fail_when=FAIL_WHEN)
        session = pool.session(
            synth_spec(**(spec_kwargs or {})),
            SPACE,
            history=seed_history(reference),
            parallel=parallel,
        )
        return ddt_fingerprint(session)

    def test_chaotic_network_keeps_report_byte_identical(
        self, serial_expected
    ):
        """Drop/delay/duplicate/reorder on both directions of the wire:
        the debug report, the budget, and the execution counts stay
        byte-identical to the serial in-process run."""
        worker_taps: list[FaultyConnection] = []

        def worker_wrapper(conn):
            tap = FaultyConnection(
                conn,
                FaultPlan(
                    drop=0.05,
                    delay=0.10,
                    duplicate=0.10,
                    reorder=0.05,
                    delay_seconds=0.02,
                    seed=7 + len(worker_taps),
                ),
            )
            worker_taps.append(tap)
            return tap

        def coordinator_filter(conn):
            return FaultyConnection(
                conn,
                FaultPlan(
                    drop=0.03,
                    delay=0.08,
                    duplicate=0.08,
                    delay_seconds=0.02,
                    seed=11,
                ),
            )

        with make_pool(
            heartbeat_interval=0.1,
            suspect_after=0.3,
            evict_after=0.6,
            run_timeout=0.8,
            retry_policy=RetryPolicy(
                crash_retries=8,
                timeout_retries=8,
                base_delay=0.01,
                factor=1.5,
                max_delay=0.1,
                jitter=0.25,
                seed=5,
            ),
            connection_filter=coordinator_filter,
        ) as pool:
            workers = [
                FleetWorker(
                    *pool.address,
                    name=f"chaos-w{i}",
                    connection_wrapper=worker_wrapper,
                    reconnect_attempts=6,
                    reconnect_delay=0.05,
                    store_timeout=0.3,
                ).start()
                for i in range(2)
            ]
            assert pool.wait_for_workers(1, timeout=10.0)
            fleet = self._fleet_fingerprint(pool)
            stats = pool.stats()
            stop_workers(workers)
        assert fleet == serial_expected
        assert stats["runs"] + stats["local_runs"] > 0
        injected = sum(
            sum(tap.faults.values()) for tap in worker_taps
        )
        assert injected > 0, "the chaos plan never fired"

    def test_mid_run_worker_death_keeps_report_identical(
        self, serial_expected
    ):
        with make_pool() as pool:
            workers = start_workers(pool, 2)
            killer = threading.Timer(0.15, workers[0].kill)
            killer.daemon = True
            killer.start()
            fleet = self._fleet_fingerprint(
                pool, spec_kwargs={"mode": "sleep", "sleep_seconds": 0.01}
            )
            killer.join()
            stats = pool.stats()
            stop_workers(workers)
        assert fleet == serial_expected
        assert stats["workers_lost"] >= 1

    def test_partition_and_rejoin_keeps_report_identical(
        self, serial_expected
    ):
        taps: list[FaultyConnection] = []

        def tap_wrapper(conn):
            tap = FaultyConnection(conn, FaultPlan())
            taps.append(tap)
            return tap

        with make_pool(
            run_timeout=0.5,
            retry_policy=RetryPolicy(
                crash_retries=6, timeout_retries=6, base_delay=0.01
            ),
        ) as pool:
            workers = [
                FleetWorker(
                    *pool.address,
                    name=f"part-w{i}",
                    connection_wrapper=tap_wrapper,
                    reconnect_attempts=6,
                    reconnect_delay=0.05,
                    store_timeout=0.3,
                ).start()
                for i in range(2)
            ]
            assert pool.wait_for_workers(2, timeout=10.0)

            def chaos():
                taps[0].partition()
                time.sleep(0.5)
                taps[0].heal()

            saboteur = threading.Timer(0.1, chaos)
            saboteur.daemon = True
            saboteur.start()
            fleet = self._fleet_fingerprint(
                pool, spec_kwargs={"mode": "sleep", "sleep_seconds": 0.01}
            )
            saboteur.join()
            # Heartbeats outlive the job: the healed (or redialed)
            # member must end up back in the fleet.
            wait_until(
                lambda: pool.stats()["workers_rejoined"] >= 1,
                timeout=10.0,
                message="partition heal rejoin",
            )
            stats = pool.stats()
            stop_workers(workers)
        assert fleet == serial_expected
        assert stats["workers_evicted"] >= 1
        assert stats["workers_rejoined"] >= 1

    def test_duplicated_frames_never_double_execute(self):
        """duplicate=1.0 on both directions: every run frame arrives
        twice at the worker, every result twice at the coordinator.
        Exactly one execution per distinct instance happens."""
        plan_kwargs = {"duplicate": 1.0, "seed": 3}
        with make_pool(
            store=None,
            connection_filter=lambda c: FaultyConnection(
                c, FaultPlan(**plan_kwargs)
            ),
        ) as pool:
            workers = [
                FleetWorker(
                    *pool.address,
                    name="dup-w0",
                    connection_wrapper=lambda c: FaultyConnection(
                        c, FaultPlan(**plan_kwargs)
                    ),
                ).start()
            ]
            assert pool.wait_for_workers(1)
            reference = build_pipeline(fail_when=FAIL_WHEN)
            rng = random.Random(2)
            instances = {SPACE.random_instance(rng) for __ in range(8)}
            for instance in instances:
                assert (
                    pool.run(synth_spec(), "wf", instance)
                    is reference(instance)
                )
            stats = pool.stats()
            stop_workers(workers)
        assert workers[0].runner.stats["executions"] == len(instances)
        assert stats["runs"] == len(instances)
        assert stats["duplicate_results"] >= 1

    def test_parallel_fleet_matches_thread_parallel_twin(self):
        """The speculative parallel discipline on the fleet (batches
        fanned out over max_dispatch) matches the thread-parallel twin
        byte-for-byte, even with a mildly faulty wire."""
        reference = build_pipeline(fail_when=FAIL_WHEN)
        expected = ddt_fingerprint(
            ParallelDebugSession(
                build_pipeline(fail_when=FAIL_WHEN),
                SPACE,
                history=seed_history(reference),
                workers=2,
            )
        )
        plan = FaultPlan(delay=0.15, duplicate=0.15, delay_seconds=0.01,
                         seed=13)
        with make_pool(
            max_dispatch=2,
            connection_filter=lambda c: FaultyConnection(c, plan),
        ) as pool:
            workers = start_workers(pool, 2)
            fleet = self._fleet_fingerprint(pool, parallel=True)
            stop_workers(workers)
        assert fleet == expected


# ---------------------------------------------------------------------------
# Service integration: fleet-backed jobs + fleet events
# ---------------------------------------------------------------------------

def _job(job_id: str, **kwargs) -> JobSpec:
    executor = build_pipeline(fail_when=FAIL_WHEN)
    spec = {
        "job_id": job_id,
        "executor": executor,
        "space": SPACE,
        "workflow": "synthetic",
        "algorithm": Algorithm.DECISION_TREES,
        "goal": JobGoal.FIND_ALL,
        "history": seed_history(executor),
        "seed": 3,
        "ddt_config": DDTConfig(
            find_all=True,
            tests_per_suspect=6,
            exploration_per_round=4,
            max_rounds=20,
            seed=3,
        ),
    }
    spec.update(kwargs)
    return JobSpec(**spec)


class TestServiceOnFleet:
    def test_fleet_jobs_match_inline_jobs_and_publish_fleet_events(self):
        with DebugService(workers=2) as service:
            baseline = service.run_all(
                [_job("inline-0"), _job("inline-1")], timeout=120.0
            )
        with make_pool() as pool:
            with DebugService(workers=2, pool=pool) as service:
                workers = start_workers(pool, 2)
                results = service.run_all(
                    [
                        _job("fleet-0", executor_spec=synth_spec()),
                        _job("fleet-1", executor_spec=synth_spec()),
                    ],
                    timeout=120.0,
                )
                # Membership changes land in the service's event log
                # under the fleet job id.
                kinds = {e.kind for e in service.events.log("fleet")}
                stop_workers(workers)
        assert "worker_joined" in kinds
        for base, fleet in zip(baseline, results):
            assert fleet.status is JobStatus.SUCCEEDED
            assert [str(c) for c in fleet.report.causes] == [
                str(c) for c in base.report.causes
            ]
            assert str(fleet.report.explanation) == str(
                base.report.explanation
            )
            assert fleet.budget_spent == base.budget_spent
            assert fleet.new_executions == base.new_executions

    def test_autoscaling_service_records_decisions(self):
        with make_pool() as pool:
            with DebugService(workers=2, pool=pool, autoscale=True) as service:
                workers = start_workers(pool, 1)
                result = service.run_all(
                    [
                        _job(
                            "scaled",
                            executor_spec=synth_spec(
                                mode="sleep", sleep_seconds=0.01
                            ),
                        )
                    ],
                    timeout=120.0,
                )[0]
                assert result.status is JobStatus.SUCCEEDED
                wait_until(
                    lambda: pool.stats().get("autoscale", {}).get("ticks", 0)
                    >= 1,
                    message="sizer tick",
                )
                autoscale = pool.stats()["autoscale"]
                stop_workers(workers)
        assert autoscale["ticks"] >= 1
        assert set(autoscale) >= {
            "ticks",
            "scale_ups",
            "scale_downs",
            "decisions",
            "min_workers",
            "max_workers",
        }


# ---------------------------------------------------------------------------
# Adaptive sizing
# ---------------------------------------------------------------------------

class _FakePool:
    """Minimal scale_to/live_workers/max_workers contract for unit tests."""

    def __init__(self, max_workers: int = 4):
        self.live = 0
        self.max_workers = max_workers
        self.min_workers = 0
        self.sizer = None

    @property
    def live_workers(self) -> int:
        return self.live

    def scale_to(self, target: int) -> int:
        before = self.live
        self.live = max(self.min_workers, min(target, self.max_workers))
        return self.live - before

    def attach_sizer(self, sizer) -> None:
        self.sizer = sizer


class TestAdaptiveSizer:
    def test_grows_eagerly_and_shrinks_with_hysteresis(self):
        pool = _FakePool(max_workers=4)
        depth = {"value": 0}
        sizer = AdaptiveSizer(
            pool, depth=lambda: depth["value"], shrink_after=3, start=False
        )
        assert pool.sizer is sizer  # self-attached for stats surfacing
        assert sizer.tick() is None  # idle, nothing to do
        depth["value"] = 10
        decision = sizer.tick()
        assert decision["action"] == "grow"
        assert pool.live == 4  # clamped to max_workers
        depth["value"] = 2
        assert sizer.tick() is None  # demand < capacity: hold
        depth["value"] = 0
        assert sizer.tick() is None  # idle tick 1
        assert sizer.tick() is None  # idle tick 2
        decision = sizer.tick()  # idle tick 3: hysteresis satisfied
        assert decision["action"] == "shrink"
        assert pool.live == 0
        stats = sizer.stats()
        assert stats["scale_ups"] == 1 and stats["scale_downs"] == 1
        assert [d["action"] for d in stats["decisions"]] == ["grow", "shrink"]

    def test_brief_idleness_does_not_shrink(self):
        pool = _FakePool()
        depth = {"value": 3}
        sizer = AdaptiveSizer(
            pool, depth=lambda: depth["value"], shrink_after=4, start=False
        )
        sizer.tick()
        assert pool.live == 3
        for __ in range(3):
            depth["value"] = 0
            sizer.tick()
            depth["value"] = 1  # burst resumes: idle streak resets
            sizer.tick()
        assert pool.live == 3  # never shrank

    def test_idle_sizer_stops_promptly(self):
        sizer = AdaptiveSizer(_FakePool(), depth=lambda: 0, interval=3600.0)
        started = time.perf_counter()
        sizer.stop()
        assert time.perf_counter() - started <= 0.1
        assert not any(
            t.name == "pool-autoscale" for t in threading.enumerate()
        )

    def test_stop_raises_when_loop_outlives_join(self):
        sizer = AdaptiveSizer(_FakePool(), depth=lambda: 0, start=False)
        sizer._thread = mock.Mock(**{"is_alive.return_value": True})
        sizer._thread.name = "pool-autoscale"
        with pytest.raises(RuntimeError, match="pool-autoscale"):
            sizer.stop()

    def test_process_pool_scale_to_is_symmetric(self):
        with ProcessPool(max_workers=2, prewarm=0) as pool:
            assert pool.scale_to(2) == 2
            assert pool.live_workers == 2
            assert pool.scale_to(0) == -2
            assert pool.live_workers == 0
            assert pool.scale_to(5) == 2  # clamped to max_workers

    def test_remote_pool_scale_to_moves_fallback_capacity(self):
        with make_pool(store=None, fallback_limit=4) as pool:
            assert pool.scale_to(2) == -2
            assert pool.stats()["fallback_limit"] == 2
            assert pool.scale_to(6) == 4
            assert pool.stats()["fallback_limit"] == 6


# ---------------------------------------------------------------------------
# Warm artifact cache
# ---------------------------------------------------------------------------

def _gen(x):
    return [x * i for i in range(4)]


def _agg(data, mode):
    return sum(data) if mode == "sum" else max(data)


def _toy_workflow_spec(threshold: float = 4.0) -> ExecutorSpec:
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
    return ExecutorSpec.from_workflow(
        workflow,
        registry={"gen": "test_remote:_gen", "agg": "test_remote:_agg"},
        threshold=threshold,
    )


class TestWarmArtifactCache:
    def test_repeated_builds_hit_the_cache(self):
        clear_artifact_cache()
        spec = _toy_workflow_spec()
        executor = spec.build()
        assert executor(Instance({"x": 2, "mode": "sum"})) is Outcome.SUCCEED
        after_first = artifact_cache_stats()
        assert after_first["misses"] >= 1
        spec.build()
        assert artifact_cache_stats()["hits"] == after_first["hits"] + 1

    def test_wire_roundtrip_still_hits_the_warm_cache(self):
        clear_artifact_cache()
        spec = _toy_workflow_spec()
        spec.build()
        clone = ExecutorSpec.from_wire(spec.to_wire())
        assert clone.fingerprint == spec.fingerprint
        before = artifact_cache_stats()["hits"]
        executor = clone.build()
        assert artifact_cache_stats()["hits"] == before + 1
        assert executor(Instance({"x": 1, "mode": "max"})) is Outcome.FAIL

    def test_different_workflows_do_not_collide(self):
        clear_artifact_cache()
        a = _toy_workflow_spec(threshold=4.0)
        b = _toy_workflow_spec(threshold=100.0)
        assert a.build()(Instance({"x": 2, "mode": "sum"})) is Outcome.SUCCEED
        assert b.build()(Instance({"x": 2, "mode": "sum"})) is Outcome.FAIL
        assert artifact_cache_stats()["entries"] >= 1


# ---------------------------------------------------------------------------
# The `repro worker` CLI entry point
# ---------------------------------------------------------------------------

class TestWorkerCLI:
    def test_subprocess_worker_serves_runs_and_exits_on_bye(self):
        repo = pathlib.Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src")
        pool = make_pool(store=None)
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                "--connect",
                pool.endpoint,
                "--name",
                "cli-w0",
                "--reconnect",
                "0",
            ],
            env=env,
            cwd=str(repo),
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            assert pool.wait_for_workers(1, timeout=30.0)
            instance = Instance({"p0": 1, "p1": 2, "p2": 2, "p3": 2})
            assert pool.run(synth_spec(), "wf", instance) is Outcome.FAIL
            stats = pool.stats()
            assert stats["runs"] == 1 and stats["local_runs"] == 0
            assert stats["workers"][0]["name"] == "cli-w0"
        finally:
            pool.shutdown()
            try:
                assert process.wait(timeout=15.0) == 0
            finally:
                if process.poll() is None:
                    process.kill()
