"""Speculative batches as pipe frames: differential and accounting tests.

A parallel session (Section 4.3, Fig. 6) admits a whole batch against
its budget, hands a batch-capable executor the charged instances as one
task, and records outcomes in batch order.  On a
:class:`~repro.exec.pool.ProcessPool` the batch crosses the process
boundary as one pipe frame per worker.  Contracts:

1. **Byte-identical to the inline serial twin.**  Reports, budgets,
   execution counts and history order match a session that runs each
   batch item in order on one thread -- on ``pool.session`` and on
   ``DebugService(pool=..., parallel_batches=True)`` alike, including
   budget exhaustion mid-batch, raising items (refunded; the freed
   budget admits the next dropped items in order), and a worker lost
   mid-frame.
2. **Exact accounting under cancellation.**  Every unrecorded charge is
   refunded before the cancellation propagates.
3. **One frame per worker.**  N new instances on k idle workers cost k
   pipe round trips; a lost worker costs one more frame carrying only
   its unanswered items.
4. **Batch single-flight.**  A batch claims every miss at once; items in
   flight elsewhere are joined, and a failed item never poisons the
   cache.
"""

from __future__ import annotations

import random
import sys
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
from repro.core.stacked import DEFAULT_STACK_WIDTH
from repro.exec import ExecutorSpec, ProcessPool, RemoteWorkerPool
from repro.exec.synthetic import build_pipeline, build_space
from repro.service import (
    DebugService,
    ExecutionCache,
    JobGoal,
    JobResult,
    JobSpec,
    JobStatus,
)
from repro.service.service import report_fingerprint

SYNTH = "repro.exec.synthetic:build_pipeline"
SPACE = build_space(n_params=4, domain=4)
FAIL_WHEN = {"p0": 1, "p1": 2}
CONFIG = DDTConfig(
    find_all=True,
    tests_per_suspect=6,
    exploration_per_round=4,
    max_rounds=20,
    seed=3,
)


class SerialTwin(DebugSession):
    """Speculative-batch semantics run serially inline: each item is
    evaluated in order, and a raising or over-budget item resolves to
    None.  Written without the batch admission code it checks."""

    @property
    def parallel(self) -> bool:
        return True

    def evaluate_many(self, instances):
        results = []
        for instance in instances:
            try:
                results.append(self.evaluate(instance))
            except Exception:
                results.append(None)
        return results


class InlineBatches:
    """A backend running batch tasks serially on the calling thread."""

    parallel = True

    @staticmethod
    def run_batch(tasks):
        return [task() for task in tasks]


def _history() -> ExecutionHistory:
    """One planted failure plus a spread of other instances."""
    reference = build_pipeline(fail_when=FAIL_WHEN)
    history = ExecutionHistory()
    history.record(Instance({"p0": 1, "p1": 2, "p2": 0, "p3": 3}), Outcome.FAIL)
    rng = random.Random(11)
    for __ in range(8):
        instance = SPACE.random_instance(rng)
        if instance not in history:
            history.record(instance, reference(instance))
    return history


def _spec(**faults) -> ExecutorSpec:
    return ExecutorSpec.from_builder(SYNTH, fail_when=FAIL_WHEN, **faults)


def _twin(budget: int | None, **faults) -> DebugSession:
    return SerialTwin(
        build_pipeline(fail_when=FAIL_WHEN, **faults),
        SPACE,
        history=_history(),
        budget=InstanceBudget(budget),
    )


def _fingerprint(session: DebugSession) -> tuple:
    """DDT FindAll, then everything report-shaped -- history in record
    order, so batch-order recording is checked too."""
    result = debugging_decision_trees(session, CONFIG)
    return (
        tuple(str(cause) for cause in result.causes),
        str(result.explanation),
        result.rounds,
        session.budget.spent,
        session.new_executions,
        tuple(
            (repr(e.instance), e.outcome.value) for e in session.history
        ),
    )


def _twin_report(job_id: str, budget: int | None, **faults) -> str:
    session = _twin(budget, **faults)
    report = BugDoc(session=session, seed=3).find_all(
        Algorithm.DECISION_TREES,
        stack_width=DEFAULT_STACK_WIDTH,
        ddt_config=CONFIG,
    )
    return report_fingerprint(
        JobResult(
            job_id=job_id,
            status=JobStatus.SUCCEEDED,
            report=report,
            budget_spent=session.budget.spent,
            new_executions=session.new_executions,
        )
    )


def _job(job_id: str, spec: ExecutorSpec, budget: int | None, **kwargs) -> JobSpec:
    return JobSpec(
        job_id=job_id,
        executor=None,
        executor_spec=spec,
        space=SPACE,
        workflow=job_id,  # no cross-job cache sharing
        algorithm=Algorithm.DECISION_TREES,
        goal=JobGoal.FIND_ALL,
        budget=budget,
        history=_history(),
        seed=3,
        ddt_config=CONFIG,
        parallel_batches=True,
        **kwargs,
    )


@pytest.fixture(scope="module")
def pool():
    with ProcessPool(max_workers=2, prewarm=2) as shared:
        yield shared


# (budget, faults): plain, budget exhausted mid-batch, raising items
# with a tight budget (refund + top-up), raising items unbounded.
CASES = {
    "plain": (None, {}),
    "budget": (9, {}),
    "raising-budget": (12, {"raise_on": {"p2": 3}}),
    "raising": (None, {"raise_on": {"p1": 3}}),
}


class TestDifferential:
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_pool_session_matches_inline_twin(self, pool, case):
        budget, faults = CASES[case]
        expected = _fingerprint(_twin(budget, **faults))
        session = pool.session(
            _spec(**faults),
            SPACE,
            history=_history(),
            budget=InstanceBudget(budget),
            parallel=True,
        )
        assert _fingerprint(session) == expected
        if budget is not None:
            assert session.budget.spent == budget  # ran out mid-search

    def test_service_jobs_match_inline_twin(self, pool):
        jobs = {
            f"svc-{case}": (budget, faults)
            for case, (budget, faults) in CASES.items()
        }
        before = pool.stats()
        with DebugService(workers=2, pool=pool) as service:
            results = service.run_all(
                [
                    _job(job_id, _spec(**faults), budget)
                    for job_id, (budget, faults) in jobs.items()
                ],
                timeout=120.0,
            )
        after = pool.stats()
        # Batches travel as frames: fewer round trips than runs.
        assert after["frames"] - before["frames"] < after["runs"] - before["runs"]
        for result in results:
            budget, faults = jobs[result.job_id]
            assert result.status is JobStatus.SUCCEEDED, result.error
            assert report_fingerprint(result) == _twin_report(
                result.job_id, budget, **faults
            )

    def test_worker_lost_mid_frame_matches_inline_twin(self, tmp_path):
        expected = _fingerprint(_twin(None))
        crash = {"crash_on": {"p2": 3}}
        with ProcessPool(max_workers=2, prewarm=2, crash_retries=1) as pool:
            session = pool.session(
                _spec(**crash, crash_once_path=str(tmp_path / "session")),
                SPACE,
                history=_history(),
                parallel=True,
            )
            assert _fingerprint(session) == expected
            with DebugService(workers=2, pool=pool) as service:
                result = service.run_all(
                    [
                        _job(
                            "svc-crash",
                            _spec(**crash, crash_once_path=str(tmp_path / "svc")),
                            None,
                        )
                    ],
                    timeout=120.0,
                )[0]
            stats = pool.stats()
        assert result.status is JobStatus.SUCCEEDED
        assert report_fingerprint(result) == _twin_report("svc-crash", None)
        assert (tmp_path / "session").exists() and (tmp_path / "svc").exists()
        assert stats["crashes"] == 2
        assert stats["retries"] == 2


def _batch(count: int, seed: int = 5) -> list[Instance]:
    rng = random.Random(seed)
    batch: list[Instance] = []
    while len(batch) < count:
        instance = SPACE.random_instance(rng)
        if instance not in batch:
            batch.append(instance)
    return batch


class TestBatchAccounting:
    def test_raising_item_refund_admits_next_dropped_items_in_order(self, pool):
        """Budget 3 over [a, r, b, c, d] where r raises: the serial twin
        charges a, r (refunded), b, c and drops d -- so must a batch."""
        raising = Instance({"p0": 0, "p1": 0, "p2": 3, "p3": 3})
        batch = _batch(4)
        batch.insert(1, raising)
        faults = {"raise_on": {"p2": 3, "p3": 3}}
        expected = _twin(3, **faults).evaluate_many(batch)
        assert expected[1] is None and expected[4] is None
        assert None not in expected[:1] + expected[2:4]

        def body(session):
            return session.evaluate_many(batch)

        session = pool.session(
            _spec(**faults), SPACE, history=_history(),
            budget=InstanceBudget(3), parallel=True,
        )
        assert session.evaluate_many(batch) == expected
        assert session.budget.spent == session.new_executions == 3
        with DebugService(workers=2, pool=pool) as service:
            handle = service.submit(
                JobSpec(
                    job_id="svc-topup",
                    executor=None,
                    executor_spec=_spec(**faults),
                    space=SPACE,
                    workflow="svc-topup",
                    history=_history(),
                    budget=3,
                    parallel_batches=True,
                    run=body,
                )
            )
            result = handle.result(60.0)
        assert result.value == expected
        assert result.budget_spent == result.new_executions == 3

    def test_in_batch_repeats_and_history_hits_are_free(self, pool):
        history = _history()
        known = history.instances[0]
        fresh = _batch(2, seed=9)
        batch = [fresh[0], known, fresh[0], fresh[1], fresh[1]]
        session = pool.session(_spec(), SPACE, history=history, parallel=True)
        before = pool.stats()["runs"]
        outcomes = session.evaluate_many(batch)
        reference = build_pipeline(fail_when=FAIL_WHEN)
        assert outcomes == [reference(instance) for instance in batch]
        assert session.budget.spent == session.new_executions == 2
        assert pool.stats()["runs"] - before == 2

    def test_cancellation_refunds_every_unrecorded_charge(self):
        """An item ending in a non-Exception error (a cancellation
        unwind) propagates after its round is recorded: completed items
        stay charged, every other charge is refunded."""

        class Cancelled(BaseException):
            pass

        reference = build_pipeline(fail_when=FAIL_WHEN)

        class BatchExecutor:
            def __call__(self, instance):
                return reference(instance)

            def many(self, instances):
                return [
                    Cancelled() if instance["p3"] == 0 else reference(instance)
                    for instance in instances
                ]

        batch = _batch(12)
        cancelled = sum(1 for instance in batch if instance["p3"] == 0)
        assert 0 < cancelled < len(batch)
        session = DebugSession(
            BatchExecutor(), SPACE, budget=InstanceBudget(8),
            backend=InlineBatches(),
        )
        with pytest.raises(Cancelled):
            session.evaluate_many(batch)
        assert session.budget.spent == session.new_executions
        assert session.new_executions == sum(
            1 for instance in batch[:8] if instance["p3"] != 0
        )

    def test_service_cancel_mid_batch_is_settled(self):
        spec = ExecutorSpec.from_builder(
            SYNTH, fail_when=FAIL_WHEN, mode="sleep", sleep_seconds=0.05
        )
        with ProcessPool(max_workers=2, prewarm=2) as pool:
            with DebugService(workers=2, pool=pool) as service:
                handle = service.submit(_job("svc-cancel", spec, None))
                for event in handle.events(timeout=60.0):
                    if event.kind == "budget_spent":
                        break
                assert handle.cancel() is True
                result = handle.result(60.0)
                assert service.scheduler.wait_quiescent("svc-cancel", 0.0)
        assert result.status is JobStatus.CANCELLED
        assert result.accounting_settled
        assert result.budget_spent == result.new_executions >= 1


class TestFrames:
    def test_only_batch_capable_pools_offer_many(self, pool):
        """The fleet keeps per-run socket frames: its executors (and so
        parallel sessions on it) keep the per-instance fan-out."""
        assert hasattr(pool.executor(_spec()), "many")
        with RemoteWorkerPool() as fleet:
            executor = fleet.executor(_spec())
            assert not hasattr(executor, "many")
            cache = ExecutionCache()
            assert not hasattr(cache.executor("w", executor), "many")

    def test_batch_costs_one_frame_per_idle_worker(self):
        with ProcessPool(max_workers=3, prewarm=3) as pool:
            session = pool.session(_spec(), SPACE, parallel=True)
            batch = _batch(12)
            frames = pool.stats()["frames"]
            session.evaluate_many(batch[:9])
            assert pool.stats()["frames"] - frames == 3
            frames = pool.stats()["frames"]
            session.evaluate_many(batch[9:11])  # fewer items than workers
            assert pool.stats()["frames"] - frames == 2
            frames = pool.stats()["frames"]
            session.evaluate(batch[11])  # a single run is a frame of one
            assert pool.stats()["frames"] - frames == 1
            assert pool.stats()["runs"] == 12

    def test_batches_grow_a_cold_pool_without_waiting(self):
        """A batch short of idle workers runs on what it has and starts
        more for the next batch, up to ``max_workers``."""
        with ProcessPool(max_workers=3) as pool:
            session = pool.session(_spec(), SPACE, parallel=True)
            batches = iter(_batch(60)[i : i + 3] for i in range(0, 60, 3))
            session.evaluate_many(next(batches))
            assert pool.stats()["frames"] == 1  # one worker, spawned on demand
            assert pool.stats()["spawned"] == 3  # two more started, not awaited
            deadline = time.monotonic() + 30
            while True:
                frames = pool.stats()["frames"]
                session.evaluate_many(next(batches))
                if pool.stats()["frames"] - frames == 3:
                    break
                assert time.monotonic() < deadline
                time.sleep(0.1)
            assert pool.stats()["spawned"] == 3 == pool.live_workers

    def test_lost_worker_redispatches_only_unanswered_items(self, tmp_path):
        batch = _batch(6)
        crash_on = batch[1].as_dict()
        spec = _spec(crash_on=crash_on, crash_once_path=str(tmp_path / "once"))
        reference = build_pipeline(fail_when=FAIL_WHEN)
        with ProcessPool(max_workers=2, prewarm=2, crash_retries=1) as pool:
            results = pool.run_many(spec, "wf", batch)
            stats = pool.stats()
        assert [result[0] for result in results] == [
            reference(instance) for instance in batch
        ]
        # Frames [0,1,2] and [3,4,5]; item 1 kills its worker after item
        # 0 answered, so only [1, 2] travel again.
        assert stats["frames"] == 3
        assert stats["runs"] == 6
        assert stats["crashes"] == 1 and stats["retries"] == 1

    def test_timed_out_item_ends_alone(self):
        batch = _batch(4)
        spec = _spec(hang_on=batch[1].as_dict(), hang_seconds=60.0)
        with ProcessPool(max_workers=1, run_timeout=0.5) as pool:
            session = pool.session(spec, SPACE, parallel=True)
            outcomes = session.evaluate_many(batch)
            stats = pool.stats()
        reference = build_pipeline(fail_when=FAIL_WHEN)
        assert outcomes[1] is None  # RunTimedOut: refunded, dropped
        assert [outcomes[i] for i in (0, 2, 3)] == [
            reference(batch[i]) for i in (0, 2, 3)
        ]
        assert session.budget.spent == session.new_executions == 3
        assert stats["timeouts"] == 1 and stats["frames"] == 2


class TestBatchSingleFlight:
    def test_batch_claims_misses_once_and_serves_hits(self):
        cache = ExecutionCache()
        calls: list[list[int]] = []

        def many(instances):
            calls.append(list(instances))
            return [Outcome.SUCCEED for __ in instances]

        def single(instance):
            raise AssertionError("batch misses never run one by one")

        assert cache.evaluate_many("w", [1, 2, 3], many, single) == [
            Outcome.SUCCEED
        ] * 3
        assert cache.evaluate_many("w", [2, 3, 4, 4], many, single) == [
            Outcome.SUCCEED
        ] * 4
        assert calls == [[1, 2, 3], [4]]
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.coalesced) == (2, 4, 1)
        assert stats.executions == 4

    def test_failed_item_is_not_cached_and_follower_takes_over(self):
        cache = ExecutionCache()
        leader_running = threading.Event()
        release = threading.Event()
        results: dict[str, object] = {}

        def many(instances):
            leader_running.set()
            release.wait(10)
            return [
                RuntimeError("boom") if instance == "bad" else Outcome.FAIL
                for instance in instances
            ]

        def single(instance):
            return Outcome.SUCCEED

        def run_batch():
            results["batch"] = cache.evaluate_many("w", ["ok", "bad"], many, single)

        def run_follower():
            results["follower"] = cache.evaluate("w", "bad", single)

        threads = [threading.Thread(target=run_batch)]
        threads[0].start()
        assert leader_running.wait(10)
        threads.append(threading.Thread(target=run_follower))
        threads[1].start()
        deadline = time.monotonic() + 10
        while cache.stats.coalesced < 1:  # the follower joined the flight
            assert time.monotonic() < deadline
            time.sleep(0.001)
        release.set()
        for thread in threads:
            thread.join(10)
            assert not thread.is_alive()
        assert results["batch"][0] is Outcome.FAIL
        assert isinstance(results["batch"][1], RuntimeError)
        assert results["follower"] is Outcome.SUCCEED  # re-led the flight
        stats = cache.stats
        assert (stats.failures, stats.executions) == (1, 2)
        assert cache.evaluate("w", "bad", single) is Outcome.SUCCEED
        assert cache.stats.hits == 1

    def test_overlapping_batches_and_singles_execute_each_key_once(self):
        """Stress: more threads than cores mixing batch claims and single
        requests over overlapping keys, with a short switch interval; a
        lost update would run some key twice."""
        cache = ExecutionCache()
        counts: dict[int, int] = {}
        lock = threading.Lock()

        def execute(instance):
            with lock:
                counts[instance] = counts.get(instance, 0) + 1
            return Outcome.SUCCEED

        def many(instances):
            return [execute(instance) for instance in instances]

        served: list[bool] = []

        def client(seed):
            rng = random.Random(seed)
            for __ in range(40):
                keys = [rng.randrange(60) for __ in range(rng.randint(1, 8))]
                if rng.random() < 0.5:
                    outcomes = cache.evaluate_many("w", keys, many, execute)
                else:
                    outcomes = [cache.evaluate("w", keys[0], execute)]
                served.append(all(o is Outcome.SUCCEED for o in outcomes))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=client, args=(seed,)) for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert len(served) == 8 * 40 and all(served)
        assert counts and set(counts.values()) == {1}
        assert cache.stats.executions == len(counts)
