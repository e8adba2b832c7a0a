"""LRU eviction for the service execution cache (ROADMAP open item).

The critical property: bounding the memory tier must not break
single-flight semantics.  Eviction only removes *settled* values;
in-flight executions live in a separate table, waiters receive the
outcome from the flight itself (the entry may be evicted before they
wake), and an evicted key is an ordinary miss that concurrent callers
coalesce on again.
"""

from __future__ import annotations

import threading

import pytest

from repro.concurrency import SingleFlightCache
from repro.core.types import Instance, Outcome
from repro.service.cache import ExecutionCache


class TestSingleFlightLRU:
    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError, match="max_entries"):
            SingleFlightCache(max_entries=0)

    def test_evicts_least_recently_used(self):
        cache = SingleFlightCache(max_entries=2)
        cache.get_or_execute("a", lambda: 1)
        cache.get_or_execute("b", lambda: 2)
        cache.get_or_execute("a", lambda: 1)  # touch: "b" is now LRU
        cache.get_or_execute("c", lambda: 3)  # evicts "b"
        assert "a" in cache and "c" in cache and "b" not in cache
        assert cache.stats.evictions == 1
        # Evicted key re-executes (a miss, not an error).
        calls = []
        assert cache.get_or_execute("b", lambda: calls.append(1) or 20) == 20
        assert calls == [1]

    def test_unbounded_by_default(self):
        cache = SingleFlightCache()
        for i in range(500):
            cache.put(i, i)
        assert len(cache) == 500
        assert cache.stats.evictions == 0

    def test_put_applies_bound(self):
        cache = SingleFlightCache(max_entries=3)
        for i in range(10):
            cache.put(i, i)
        assert len(cache) == 3
        assert cache.stats.evictions == 7

    def test_single_flight_survives_eviction_of_inflight_result(self):
        """Waiters still receive the leader's value even when churn
        evicts the freshly-inserted entry before they wake."""
        cache = SingleFlightCache(max_entries=1)
        leader_running = threading.Event()
        release_leader = threading.Event()
        executions = []

        def slow_produce():
            executions.append("leader")
            leader_running.set()
            release_leader.wait(timeout=5)
            return "value"

        results = []

        def request():
            results.append(cache.get_or_execute("hot", slow_produce))

        leader = threading.Thread(target=request)
        leader.start()
        assert leader_running.wait(timeout=5)
        waiters = [threading.Thread(target=request) for __ in range(4)]
        for w in waiters:
            w.start()
        release_leader.set()
        leader.join(timeout=5)
        for w in waiters:
            w.join(timeout=5)
        assert results == ["value"] * 5
        assert executions == ["leader"]  # exactly one inner execution
        # Now churn the one-entry cache so "hot" is evicted ...
        cache.get_or_execute("cold", lambda: "other")
        assert "hot" not in cache
        # ... and the next request coalesces on a fresh single flight.
        assert cache.get_or_execute("hot", slow_produce) == "value"
        assert executions == ["leader", "leader"]

    def test_concurrent_churn_keeps_results_correct(self):
        cache = SingleFlightCache(max_entries=4)
        errors = []

        def worker(worker_id):
            try:
                for i in range(200):
                    key = i % 16
                    value = cache.get_or_execute(key, lambda k=key: k * 10)
                    if value != key * 10:
                        errors.append((worker_id, key, value))
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append((worker_id, exc))

        threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors
        assert len(cache) <= 4


class TestExecutionCacheLRU:
    def test_bounded_memory_tier_still_deduplicates(self):
        executions = []

        def executor(instance: Instance) -> Outcome:
            executions.append(instance["i"])
            return Outcome.SUCCEED

        cache = ExecutionCache(max_entries=2)
        bound = cache.executor("wf", executor)
        a, b, c = (Instance({"i": i}) for i in range(3))
        assert bound(a) is Outcome.SUCCEED
        assert bound(a) is Outcome.SUCCEED  # memory hit
        assert bound(b) is Outcome.SUCCEED
        assert bound(c) is Outcome.SUCCEED  # evicts a
        assert executions == [0, 1, 2]
        assert bound(a) is Outcome.SUCCEED  # re-executed after eviction
        assert executions == [0, 1, 2, 0]
        stats = cache.stats
        assert stats.evictions >= 1
        assert stats.hits >= 1
