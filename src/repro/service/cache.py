"""Cross-session execution cache with single-flight deduplication.

BugDoc's cost model is dominated by black-box pipeline executions
(Section 3), so the service layer never runs the same instance twice
when it can help it.  :class:`ExecutionCache` provides two tiers:

* an in-memory tier keyed by ``(workflow, instance)`` shared by every
  job the service is running, and
* an optional persistent tier backed by a
  :class:`~repro.provenance.store.ProvenanceStore` (typically the
  SQLite store), so outcomes survive across service restarts and are
  shared between *sessions of different processes* over one database.

Both tiers sit *below* the per-job :class:`~repro.core.session.DebugSession`:
the session still charges its own budget for instances new to its
history (the paper charges each algorithm only for instances new *to
it*), the cache merely makes the charge cheap and keeps the global
execution count minimal.

Both tiers are built on the single-flight primitive
(:class:`~repro.concurrency.singleflight.SingleFlightCache`): when
several threads ask for the same uncached key concurrently, exactly one
of them (the *leader*) runs the inner executor; the others block until
the leader finishes and then share its outcome.  If the leader's
execution raises, the flight is abandoned and one waiter takes over as
the new leader -- a transient failure never poisons the cache and never
fails bystander jobs.
"""

from __future__ import annotations

import threading
import time

from ..concurrency.singleflight import CacheStats, SingleFlightCache
from ..core.types import Executor, Instance, Outcome
from ..provenance.record import ProvenanceRecord
from ..provenance.store import ProvenanceStore

__all__ = ["ExecutionCache", "CachedExecutor"]

DEFAULT_WORKFLOW = "service"


def instance_cache_key(workflow: str, instance: Instance) -> tuple:
    """Canonical cross-job cache key for one pipeline instance."""
    return (workflow, instance)


class ExecutionCache:
    """The service's shared executor cache: memory tier + provenance tier.

    Args:
        store: optional persistent tier.  Lookups that miss the memory
            tier consult ``store.lookup(workflow, instance)``; fresh
            executions are written through with ``store.upsert`` so a
            later service (or another process sharing the database)
            starts warm.
        record_cost: when True (default), the wall-clock seconds of each
            inner execution are recorded on the provenance record.
        max_entries: optional LRU bound on the in-memory tier for
            long-lived services.  Evicted outcomes are re-served from
            the persistent tier when one is configured, re-executed
            otherwise; single-flight dedup is preserved either way.
    """

    def __init__(
        self,
        store: ProvenanceStore | None = None,
        record_cost: bool = True,
        max_entries: int | None = None,
    ):
        self._flights = SingleFlightCache(max_entries=max_entries)
        self._store = store
        self._stats_lock = threading.Lock()
        self._record_cost = record_cost
        self._persistent_hits = 0

    @property
    def stats(self) -> CacheStats:
        """A consistent snapshot across both tiers.

        The single-flight layer counts a persistent-tier hit as a miss
        plus an execution (its ``produce`` ran); this view reclassifies
        those so ``executions`` means *pipeline* executions only.
        """
        flight = self._flights.stats
        with self._stats_lock:
            persistent = self._persistent_hits
        # Clamp: a persistent hit increments before the flight layer
        # books its execution, so a snapshot taken mid-flight could
        # otherwise go briefly negative.
        return CacheStats(
            hits=flight.hits,
            persistent_hits=persistent,
            misses=max(0, flight.misses - persistent),
            executions=max(0, flight.executions - persistent),
            coalesced=flight.coalesced,
            failures=flight.failures,
            evictions=flight.evictions,
        )

    @property
    def store(self) -> ProvenanceStore | None:
        return self._store

    def __len__(self) -> int:
        return len(self._flights)

    def warm(self, workflow: str, history) -> int:
        """Seed the memory tier from an iterable of evaluations.

        Accepts anything yielding objects with ``instance`` and
        ``outcome`` attributes (``Evaluation``/``ProvenanceRecord``).
        Returns the number of entries loaded.
        """
        loaded = 0
        for evaluation in history:
            self._flights.put(
                instance_cache_key(workflow, evaluation.instance), evaluation.outcome
            )
            loaded += 1
        return loaded

    def evaluate(
        self, workflow: str, instance: Instance, executor: Executor
    ) -> Outcome:
        """Evaluate ``instance`` through the cache tiers.

        Order: memory tier -> persistent tier -> single-flight inner
        execution (written through to the persistent tier).
        """
        outcome = self._flights.get_or_execute(
            instance_cache_key(workflow, instance),
            self._producer(workflow, instance, executor),
        )
        assert isinstance(outcome, Outcome)
        return outcome

    def _producer(self, workflow: str, instance: Instance, executor: Executor):
        """The single-item leader's ``produce``: tiers, then ``executor``."""
        return lambda: self._produce(
            workflow, [instance], lambda batch: [executor(batch[0])]
        )[0]

    def evaluate_many(
        self,
        workflow: str,
        instances: list[Instance],
        many,
        executor: Executor,
    ) -> list[Outcome | BaseException]:
        """Evaluate a batch through the cache tiers, one result per item.

        Every miss is claimed (single-flight leadership) up front and
        produced by ONE ``many(instances)`` call; items already in
        flight elsewhere are joined afterwards, so two batches leading
        each other's keys cannot deadlock.  A joined item whose leader
        failed contends to lead again through the single-item
        ``executor``.  An item that raised comes back as its error.
        """
        keys = [instance_cache_key(workflow, instance) for instance in instances]
        results: list[Outcome | BaseException | None] = [None] * len(keys)
        led: list[tuple[int, object]] = []
        joined: list[tuple[int, str, object]] = []
        for index, key in enumerate(keys):
            state, found = self._flights.claim(key)
            if state == "hit":
                results[index] = found  # type: ignore[assignment]
            elif state == "lead":
                led.append((index, found))
            else:
                joined.append((index, state, found))
        if led:
            try:
                produced = self._produce(
                    workflow, [instances[index] for index, __ in led], many
                )
            except BaseException as error:
                produced = [error] * len(led)
            for (index, flight), value in zip(led, produced):
                if isinstance(value, BaseException):
                    self._flights.abandon(keys[index], flight)
                else:
                    self._flights.resolve(keys[index], flight, value)
                results[index] = value
        for index, state, found in joined:
            try:
                results[index] = self._flights.settle(
                    keys[index],
                    state,
                    found,
                    self._producer(workflow, instances[index], executor),
                )
            except BaseException as error:
                results[index] = error
        return results  # type: ignore[return-value]

    def _produce(
        self, workflow: str, instances: list[Instance], many
    ) -> list[Outcome | BaseException]:
        """Led misses: persistent tier, then one inner batch execution
        written through to the persistent tier."""
        results: list[Outcome | BaseException | None] = [None] * len(instances)
        misses = list(range(len(instances)))
        if self._store is not None:
            misses = []
            # The stores are internally thread-safe; no cache-level lock
            # around them, or one slow/contended store call would stall
            # every other worker's persistent-tier access.
            for index, instance in enumerate(instances):
                try:
                    record = self._store.lookup(workflow, instance)
                except Exception:
                    record = None  # store trouble reads as a miss
                if record is None:
                    misses.append(index)
                    continue
                with self._stats_lock:
                    self._persistent_hits += 1
                results[index] = record.outcome
        if misses:
            started = time.perf_counter()
            produced = many([instances[index] for index in misses])
            cost = (
                (time.perf_counter() - started) / len(misses)
                if self._record_cost
                else 0.0
            )
            for index, outcome in zip(misses, produced):
                results[index] = outcome
                if self._store is None or isinstance(outcome, BaseException):
                    continue
                try:
                    self._store.upsert(
                        ProvenanceRecord(
                            workflow=workflow,
                            instance=instances[index],
                            outcome=outcome,
                            cost=cost,
                            created_at=time.time(),
                        )
                    )
                except Exception:
                    # The outcome is already in hand (and will live in
                    # the memory tier); a contended or full store must
                    # not fail the job over a lost write-through.
                    pass
        return results  # type: ignore[return-value]

    def executor(self, workflow: str, inner: Executor) -> "CachedExecutor":
        """Bind the cache to one workflow + inner executor pair."""
        return CachedExecutor(self, workflow, inner)


class CachedExecutor:
    """An :class:`~repro.core.types.Executor` view over a shared cache.

    Many jobs each hold their own ``CachedExecutor`` (with their own
    inner executor object), but all views with the same ``workflow``
    share outcomes -- this is what makes cross-job deduplication work
    even though every job constructs its executor independently.

    Because the view is per job, its counters are the *per-job* cache
    accounting the service reports (``repro serve`` JSON): ``requests``
    is every evaluation the job routed through the cache, and
    ``executions`` is how often the job's own inner executor actually
    ran -- the difference is requests served by the shared tiers
    (memory hits, coalesced in-flight leaders, persistent-tier hits).
    """

    def __init__(self, cache: ExecutionCache, workflow: str, inner: Executor):
        self._cache = cache
        self._workflow = workflow
        self._inner = inner
        self._counter_lock = threading.Lock()
        self.requests = 0
        self.executions = 0
        if hasattr(inner, "many"):
            self.many = self._many  # batch entry point, only if inner has one

    @property
    def workflow(self) -> str:
        return self._workflow

    @property
    def cache(self) -> ExecutionCache:
        return self._cache

    def stats_snapshot(self) -> dict[str, int]:
        """Per-job view: requests, own executions, and tier-served hits."""
        with self._counter_lock:
            requests = self.requests
            executions = self.executions
        return {
            "requests": requests,
            "executions": executions,
            "hits": requests - executions,
        }

    def _counted_inner(self, instance: Instance) -> Outcome:
        with self._counter_lock:
            self.executions += 1
        return self._inner(instance)

    def __call__(self, instance: Instance) -> Outcome:
        with self._counter_lock:
            self.requests += 1
        return self._cache.evaluate(self._workflow, instance, self._counted_inner)

    def _counted_many(self, instances: list[Instance]):
        with self._counter_lock:
            self.executions += len(instances)
        return self._inner.many(instances)  # type: ignore[attr-defined]

    def _many(self, instances: list[Instance]) -> list[Outcome | BaseException]:
        with self._counter_lock:
            self.requests += len(instances)
        return self._cache.evaluate_many(
            self._workflow, instances, self._counted_many, self._counted_inner
        )
