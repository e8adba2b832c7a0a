"""Debugging sessions: the shared execution context of all algorithms.

A :class:`DebugSession` bundles the three things every BugDoc algorithm
needs -- the black-box :class:`~repro.core.types.Executor`, the growing
:class:`~repro.core.history.ExecutionHistory`, and an
:class:`~repro.core.budget.InstanceBudget` -- behind a single
``evaluate`` call that implements the paper's cost model: looking up a
previously-run instance is free; executing a new one costs one budget
unit and is recorded in the history.
"""

from __future__ import annotations

import functools
import threading
import time
from collections.abc import Callable, Iterable, Sequence
from typing import Protocol, runtime_checkable

from .budget import InstanceBudget
from .history import ExecutionHistory
from .types import Evaluation, Executor, Instance, Outcome, ParameterSpace

__all__ = ["DebugSession", "ExecutionBackend", "InstanceUnavailable"]


class InstanceUnavailable(LookupError):
    """Raised in historical (replay-only) mode for never-logged instances.

    Section 5.3 (DBSherlock): when new instances cannot be created, the
    algorithms "early stop" the hypothesis that required the missing
    instance instead of fabricating an outcome.
    """

    def __init__(self, instance: Instance):
        super().__init__(f"instance not available in historical log: {instance!r}")
        self.instance = instance


@runtime_checkable
class ExecutionBackend(Protocol):
    """Pluggable batch-execution strategy for a :class:`DebugSession`.

    The session stays the single owner of budget/history accounting: it
    admits (charges) a batch before handing it over and records the
    outcomes afterwards, so a backend only decides *where and with what
    concurrency* the batch tasks run.  Implementations live in
    :mod:`repro.concurrency.scheduler` (a per-job view of a shared
    worker pool) -- the parallel dispatcher of Section 4.3.

    Each task is a zero-argument callable; ``run_batch`` returns their
    results in order and propagates a task's raise.
    """

    @property
    def parallel(self) -> bool:  # pragma: no cover - protocol
        """Whether batches run concurrently (drives algorithm strategy)."""
        ...

    def run_batch(
        self, tasks: Sequence[Callable[[], object]]
    ) -> list[object]:  # pragma: no cover - protocol
        """Run independent tasks, returning their results in order."""
        ...


def _attempt(executor: Executor, instance: Instance) -> Outcome | BaseException:
    """One fan-out task: the outcome, or the error the executor raised."""
    try:
        return executor(instance)
    except BaseException as error:  # settled by the session, not here
        return error


class DebugSession:
    """Execution context shared by the debugging algorithms.

    Thread-safe: the lock protects the history/budget pair, and a
    speculative batch (Section 4.3) is admitted and recorded under it
    in batch order, so the paper's cost accounting stays exact however
    the backend runs the batch.

    Args:
        executor: black-box pipeline (instance -> outcome).
        space: the parameter space instances are drawn from.
        history: previously-run instances; shared, mutated in place.
        budget: cap on *new* executions; defaults to unlimited.
        candidate_source: optional hypothesis-testing oracle for
            *historical mode* -- given a conjunction and a count, return
            logged-but-unread instances satisfying it.  The paper's
            DBSherlock experiment "simulated the creation of new
            instances by reading only part of provenance": algorithms
            draw their test instances from this source instead of the
            full Cartesian space, and early-stop when it is empty.
        backend: optional :class:`ExecutionBackend` that ``evaluate_many``
            fans batches out to (e.g. the shared service scheduler).
            Without one, batches run serially inline.
        progress: optional ``(kind, payload)`` callable -- the neutral
            progress hook.  The session publishes ``budget_spent`` after
            every *charged, completed* execution, and the strategies
            publish their own events through it (via
            :meth:`StrategyContext.emit`); the service layer plugs an
            event bus in here without the core importing it.  The hook
            is a plain mutable attribute, so callers may also attach it
            after construction.  A raising hook is swallowed: progress
            reporting must never corrupt accounting.
    """

    def __init__(
        self,
        executor: Executor,
        space: ParameterSpace,
        history: ExecutionHistory | None = None,
        budget: InstanceBudget | None = None,
        candidate_source=None,
        backend: ExecutionBackend | None = None,
        progress=None,
    ):
        self._executor = executor
        self._space = space
        self._history = history if history is not None else ExecutionHistory()
        self._budget = budget if budget is not None else InstanceBudget()
        self._lock = threading.Lock()
        self._executions = 0
        self._backend = backend
        self.candidate_source = candidate_source
        self.progress = progress

    # -- Accessors ---------------------------------------------------------
    @property
    def space(self) -> ParameterSpace:
        return self._space

    @property
    def history(self) -> ExecutionHistory:
        return self._history

    @property
    def budget(self) -> InstanceBudget:
        return self._budget

    @property
    def new_executions(self) -> int:
        """Count of instances actually executed (not served from history)."""
        return self._executions

    @property
    def backend(self) -> ExecutionBackend | None:
        """The pluggable batch-execution backend, if any."""
        return self._backend

    @property
    def parallel(self) -> bool:
        """True when ``evaluate_many`` runs a batch concurrently.

        The DDT suspect test inspects this: a serial session evaluates
        variations one at a time with an early stop on the first
        refutation; a parallel session speculatively executes the whole
        batch (Section 4.3's latency-for-waste trade-off).
        """
        return bool(self._backend is not None and self._backend.parallel)

    # -- Core operation -------------------------------------------------------
    def evaluate(self, instance: Instance) -> Outcome:
        """Evaluate an instance, executing it only if it is not in history.

        Raises:
            BudgetExhausted: when a new execution would exceed the budget.
            InstanceUnavailable: in replay-only mode for unknown instances.
        """
        with self._lock:
            known = self._history.outcome_of(instance)
            if known is not None:
                return known
            self._budget.charge()
        # Execute outside the lock: pipeline runs are the expensive part
        # and are independent (Section 4.3).
        started = time.perf_counter()
        try:
            outcome = self._executor(instance)
        except BaseException:
            # BaseException: cancellation unwinds (service layer) travel
            # as non-Exception errors precisely so batch error-swallowing
            # cannot absorb them; their charge must be refunded too.
            with self._lock:
                self._refund(1)
            raise
        elapsed = time.perf_counter() - started
        with self._lock:
            known = self._record(instance, outcome)
            if known is not None:
                return known
            spent = self._budget.spent
            executions = self._executions
        self._publish(elapsed, spent, executions)
        return outcome

    def evaluate_many(self, instances: Sequence[Instance]) -> list[Outcome | None]:
        """Evaluate a batch; the backend (if any) decides the concurrency.

        Without a backend the batch runs serially inline and exceptions
        propagate (strict per-item semantics).  With a backend, items
        are speculatively independent (Section 4.3) and the batch costs
        exactly what the inline serial twin -- each item evaluated in
        order, a raising or over-budget item resolving to None -- would:

        * **Admission** (under the lock, in batch order): history hits
          resolve free, a repeat of an item charged in this round waits
          for that item's outcome, and new items are charged while the
          budget lasts; the rest wait.
        * **Dispatch**: the charged items go to the backend as one task
          when the executor has a batch entry point
          (``many(instances) -> list[Outcome | BaseException]``), else
          as one task per item.
        * **Recording** (in batch order): outcomes enter the history;
          an item that raised is refunded and resolves to None.  A
          refund frees budget, so admission runs again over the items
          still waiting -- the top-up that admits exactly the items the
          serial twin would have charged next.

        A non-``Exception`` error (a cancellation unwind) propagates
        once its round is recorded and every unrecorded charge refunded.
        """
        if self._backend is None:
            return [self.evaluate(instance) for instance in instances]
        results: list[Outcome | None] = [None] * len(instances)
        waiting = list(range(len(instances)))
        while waiting:
            charged, waiting = self._admit(instances, waiting, results)
            if not charged:
                break  # nothing affordable is left: the rest drop
            batch = [instances[index] for index in charged]
            started = time.perf_counter()
            try:
                outcomes = self._dispatch(batch)
            except BaseException:
                with self._lock:
                    self._refund(len(charged))
                raise
            share = (time.perf_counter() - started) / len(charged)
            fatal: BaseException | None = None
            published: list[tuple[int, int]] = []
            with self._lock:
                spent = self._budget.spent - len(charged)
                for index, outcome in zip(charged, outcomes):
                    if isinstance(outcome, BaseException):
                        self._refund(1)
                        if fatal is None and not isinstance(outcome, Exception):
                            fatal = outcome
                        continue
                    known = self._record(instances[index], outcome)
                    if known is not None:
                        results[index] = known
                        continue
                    results[index] = outcome
                    spent += 1
                    published.append((spent, self._executions))
            for spent, executions in published:
                self._publish(share, spent, executions)
            if fatal is not None:
                raise fatal
        return results

    def _admit(
        self,
        instances: Sequence[Instance],
        waiting: list[int],
        results: list[Outcome | None],
    ) -> tuple[list[int], list[int]]:
        """One admission pass over ``waiting`` (batch order).

        Returns the indices charged this round and those still waiting:
        repeats of a charged item and items the budget could not cover.
        """
        charged: list[int] = []
        still: list[int] = []
        seen: set[Instance] = set()
        with self._lock:
            for index in waiting:
                instance = instances[index]
                known = self._history.outcome_of(instance)
                if known is not None:
                    results[index] = known
                elif instance in seen or self._budget.exhausted():
                    still.append(index)
                else:
                    self._budget.charge()
                    seen.add(instance)
                    charged.append(index)
        return charged, still

    def _dispatch(
        self, batch: list[Instance]
    ) -> list[Outcome | BaseException]:
        """Run charged instances on the backend; one result per item."""
        many = getattr(self._executor, "many", None)
        if many is not None:
            return self._backend.run_batch([lambda: many(batch)])[0]
        executor = self._executor
        return self._backend.run_batch(
            [functools.partial(_attempt, executor, instance) for instance in batch]
        )

    def _record(self, instance: Instance, outcome: Outcome) -> Outcome | None:
        """Record a charged execution (caller holds the lock).

        Returns None when recorded, or the outcome a concurrent
        evaluation already recorded -- the charge is then refunded so
        accounting matches the deduplicated history.
        """
        known = self._history.outcome_of(instance)
        if known is not None:
            self._refund(1)
            return known
        self._history.record(instance, outcome)
        self._executions += 1
        return None

    def _refund(self, count: int) -> None:
        """Return uncompleted charges (caller holds the lock): the
        paper's cost measure counts completed instance runs only."""
        self._budget._spent -= count  # noqa: SLF001 - deliberate refund

    def _publish(self, elapsed: float, spent: int, executions: int) -> None:
        """One execution span and one ``budget_spent`` event per charged,
        completed execution, from a snapshot taken under the lock.

        Published outside the lock so a slow subscriber cannot stall
        evaluation; a broken progress sink must never fail the run.
        """
        progress = self.progress
        if progress is None:
            return
        try:
            progress("span", {"name": "execution", "seconds": elapsed})
            progress(
                "budget_spent",
                {
                    "spent": spent,
                    "limit": self._budget.limit,
                    "new_executions": executions,
                },
            )
        except Exception:
            pass

    def try_evaluate(self, instance: Instance) -> Outcome | None:
        """Evaluate, mapping replay-unavailability to None (early stop)."""
        try:
            return self.evaluate(instance)
        except InstanceUnavailable:
            return None

    # -- Columnar engine integration -----------------------------------------
    def columnar_store(self, plan=None):
        """The history's columnar store for this session's space, synced.

        Syncing happens under the session lock, so the engine's bitsets
        never observe a half-recorded evaluation even when a parallel
        backend is appending to the history concurrently.  ``plan``
        optionally pins the :class:`~repro.core.shards.ShardPlan` used
        when the store is (re)built.
        """
        with self._lock:
            return self._history.columnar_store(self._space, plan=plan)

    # -- Seeding ------------------------------------------------------------
    def seed(self, evaluations: Iterable[Evaluation]) -> None:
        """Load prior provenance into the history free of charge."""
        with self._lock:
            for evaluation in evaluations:
                if self._history.outcome_of(evaluation.instance) is None:
                    self._history.append(evaluation)
