"""Adaptive pool sizing from scheduler queue depth.

``--workers N`` is a guess frozen at startup; the scheduler's queue
depth is the live truth.  :class:`AdaptiveSizer` closes the loop: a
background thread samples a depth source (normally
:attr:`~repro.concurrency.scheduler.SharedScheduler.pending`) and calls
the pool's ``scale_to`` mechanism -- growing eagerly when demand
outruns capacity, shrinking only after the queue has stayed empty for
``shrink_after`` consecutive ticks (hysteresis: debugging workloads
arrive in bursts, and re-spawning a worker costs a process start).

Every non-hold decision lands in a bounded trail surfaced through the
pool's ``stats()["autoscale"]`` (the sizer attaches itself), so an
operator can read *why* the pool is its current size, not just what
size it is.  Works against both pools through the same two-method
contract: ``scale_to(target) -> delta`` plus the ``live_workers`` /
``max_workers`` capacity signals.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from collections.abc import Callable

__all__ = ["AdaptiveSizer"]


class AdaptiveSizer:
    """Grow/shrink a pool from a live queue-depth signal.

    Args:
        pool: anything with ``scale_to(int) -> int``, ``live_workers``,
            ``max_workers``, and (optionally) ``attach_sizer``.
        depth: zero-argument callable returning the current queued+
            running demand (e.g. ``lambda: scheduler.pending``).
        min_workers / max_workers: sizing bounds; default 0 /
            ``pool.max_workers``.
        interval: sampling period, seconds.
        shrink_after: consecutive zero-depth ticks before shrinking.
        trail: retained decision count.
        start: spawn the sampling thread immediately (False for tests
            driving :meth:`tick` manually).
    """

    def __init__(
        self,
        pool,
        depth: Callable[[], int],
        min_workers: int | None = None,
        max_workers: int | None = None,
        interval: float = 0.25,
        shrink_after: int = 8,
        trail: int = 64,
        start: bool = True,
    ):
        self._pool = pool
        self._depth = depth
        self.min_workers = (
            min_workers
            if min_workers is not None
            else getattr(pool, "min_workers", 0)
        )
        self.max_workers = (
            max_workers if max_workers is not None else pool.max_workers
        )
        if not 0 <= self.min_workers <= self.max_workers:
            raise ValueError("need 0 <= min_workers <= max_workers")
        self.interval = interval
        self.shrink_after = shrink_after
        self._idle_ticks = 0
        self._lock = threading.Lock()
        self._trail: deque = deque(maxlen=trail)
        self._stats = {"ticks": 0, "scale_ups": 0, "scale_downs": 0}
        self._started = time.monotonic()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        attach = getattr(pool, "attach_sizer", None)
        if attach is not None:
            attach(self)
        if start:
            self._thread = threading.Thread(
                target=self._loop, name="pool-autoscale", daemon=True
            )
            self._thread.start()

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            try:
                self.tick()
            except Exception:
                # A sizing hiccup (e.g. a spawn failure) must not kill
                # the control loop; the next tick re-observes.
                continue

    def tick(self) -> dict | None:
        """One observe-decide-act cycle; returns the decision, if any."""
        depth = int(self._depth())
        live = self._pool.live_workers
        action = None
        target = live
        if depth > live and live < self.max_workers:
            target = min(self.max_workers, depth)
            action = "grow"
            self._idle_ticks = 0
        elif depth == 0:
            self._idle_ticks += 1
            if self._idle_ticks >= self.shrink_after and live > self.min_workers:
                target = self.min_workers
                action = "shrink"
                self._idle_ticks = 0
        else:
            self._idle_ticks = 0
        with self._lock:
            self._stats["ticks"] += 1
        if action is None:
            return None
        delta = self._pool.scale_to(target)
        decision = {
            "at": round(time.monotonic() - self._started, 3),
            "depth": depth,
            "live": live,
            "target": target,
            "action": action,
            "delta": delta,
        }
        with self._lock:
            if action == "grow":
                self._stats["scale_ups"] += 1
            else:
                self._stats["scale_downs"] += 1
            self._trail.append(decision)
        return decision

    def stats(self) -> dict[str, object]:
        """Counters plus the bounded decision trail (most recent last)."""
        with self._lock:
            snapshot: dict[str, object] = dict(self._stats)
            snapshot["decisions"] = list(self._trail)
        snapshot["min_workers"] = self.min_workers
        snapshot["max_workers"] = self.max_workers
        return snapshot

    def stop(self) -> None:
        """Wake and join the control loop; raises if it outlives 2 s."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            if self._thread.is_alive():
                raise RuntimeError(f"{self._thread.name} did not stop within 2s")

    def __enter__(self) -> "AdaptiveSizer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
