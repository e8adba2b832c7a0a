"""Keyed memoization with single-flight execution.

:class:`SingleFlightCache` is the primitive under both the service
layer's cross-session :class:`~repro.service.cache.ExecutionCache` and
the pipeline layer's :class:`~repro.pipeline.runner.CachingExecutor`.
It knows nothing about workflows, instances, or provenance: keys are
arbitrary hashables and values are produced by caller-supplied thunks.

Single-flight semantics: when several threads ask for the same uncached
key concurrently, exactly one of them (the *leader*) runs the producer;
the others block until the leader finishes and then share its value.
If the leader's execution raises, the flight is abandoned and one
waiter takes over as the new leader -- a transient failure never
poisons the cache and never fails bystander callers.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

__all__ = ["CacheStats", "SingleFlightCache"]


@dataclass
class CacheStats:
    """Counters describing how much work a cache saved.

    Attributes:
        hits: requests served from the in-memory tier.
        persistent_hits: requests served from a persistent tier (used by
            the service layer's two-tier cache; always 0 for a bare
            :class:`SingleFlightCache`).
        misses: requests that required an inner execution.
        executions: inner executions actually performed (>= misses is
            impossible; < misses happens only via persistent hits).
        coalesced: requests that joined an in-flight execution instead
            of starting their own (the single-flight savings).
        failures: inner executions that raised.
        evictions: memory-tier entries dropped by the LRU bound.
    """

    hits: int = 0
    persistent_hits: int = 0
    misses: int = 0
    executions: int = 0
    coalesced: int = 0
    failures: int = 0
    evictions: int = 0

    @property
    def requests(self) -> int:
        return self.hits + self.persistent_hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        """Fraction of requests that did not execute the producer."""
        total = self.requests
        if total == 0:
            return 0.0
        return 1.0 - (self.executions / total)

    def snapshot(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "persistent_hits": self.persistent_hits,
            "misses": self.misses,
            "executions": self.executions,
            "coalesced": self.coalesced,
            "failures": self.failures,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class _Flight:
    """One in-progress execution that concurrent callers may join."""

    __slots__ = ("done", "outcome", "error")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.outcome: object = None
        self.error: BaseException | None = None


class SingleFlightCache:
    """A minimal keyed memoizer with single-flight execution.

    Args:
        max_entries: optional LRU bound on stored values for long-lived
            services.  Only settled values are evicted -- in-flight
            executions are tracked separately, so single-flight
            semantics are unaffected: a request for an evicted key is an
            ordinary miss whose re-execution concurrent callers join.
    """

    def __init__(self, max_entries: int | None = None) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        self._lock = threading.Lock()
        self._values: OrderedDict[object, object] = OrderedDict()
        self._flights: dict[object, _Flight] = {}
        self._max_entries = max_entries
        self.stats = CacheStats()

    @property
    def max_entries(self) -> int | None:
        return self._max_entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._values)

    def __contains__(self, key: object) -> bool:
        with self._lock:
            return key in self._values

    def peek(self, key: object) -> object | None:
        """The cached value for ``key``, or None (no execution, no stats)."""
        with self._lock:
            return self._values.get(key)

    def put(self, key: object, value: object) -> None:
        """Seed the cache (e.g. from prior provenance) free of charge."""
        with self._lock:
            self._insert(key, value)

    def _insert(self, key: object, value: object) -> None:
        """Store a value and apply the LRU bound.  Caller holds the lock."""
        self._values[key] = value
        self._values.move_to_end(key)
        if self._max_entries is not None:
            while len(self._values) > self._max_entries:
                self._values.popitem(last=False)
                self.stats.evictions += 1

    # -- Single-flight primitives ------------------------------------------
    def claim(self, key: object, count: bool = True) -> tuple[str, object]:
        """Book one request for ``key`` and say how it will be served.

        Returns ``("hit", value)``; ``("lead", flight)`` -- the caller
        must produce the value and settle the flight with
        :meth:`resolve` or :meth:`abandon`; or ``("join", flight)`` --
        another leader is producing it (:meth:`settle` waits for it).
        ``count=False`` re-claims without booking a second stat (a
        follower whose leader failed).
        """
        with self._lock:
            if key in self._values:
                if count:
                    self.stats.hits += 1
                self._values.move_to_end(key)
                return "hit", self._values[key]
            flight = self._flights.get(key)
            if flight is None:
                flight = self._flights[key] = _Flight()
                if count:
                    self.stats.misses += 1
                return "lead", flight
            if count:
                self.stats.coalesced += 1
            return "join", flight

    def resolve(self, key: object, flight: _Flight, value: object) -> None:
        """Settle a led flight with its value (cached, followers served)."""
        with self._lock:
            self.stats.executions += 1
            self._insert(key, value)
            self._flights.pop(key, None)
        flight.outcome = value
        flight.done.set()

    def abandon(self, key: object, flight: _Flight) -> None:
        """Settle a led flight as failed: its followers contend to lead
        again, so a transient failure never poisons the cache."""
        with self._lock:
            self.stats.failures += 1
            self._flights.pop(key, None)
        flight.error = RuntimeError("leader execution failed")
        flight.done.set()

    def settle(self, key: object, state: str, found: object, produce):
        """Serve a claimed request to the end: return a hit, lead the
        flight with ``produce``, or join it -- contending to lead again
        whenever the leader fails.  A raise propagates only to the
        caller whose own ``produce`` raised."""
        while True:
            if state == "hit":
                return found
            if state == "lead":
                try:
                    value = produce()
                except BaseException:
                    self.abandon(key, found)  # type: ignore[arg-type]
                    raise
                self.resolve(key, found, value)  # type: ignore[arg-type]
                return value
            found.done.wait()  # type: ignore[union-attr]
            if found.error is None:  # type: ignore[union-attr]
                # The flight carries the value directly: with a bounded
                # cache the entry may already have been evicted.
                with self._lock:
                    if key in self._values:
                        self._values.move_to_end(key)
                return found.outcome  # type: ignore[union-attr]
            state, found = self.claim(key, count=False)

    def get_or_execute(self, key: object, produce):
        """Return the cached value for ``key``, executing ``produce`` at
        most once across all concurrent callers."""
        state, found = self.claim(key)
        return self.settle(key, state, found, produce)
