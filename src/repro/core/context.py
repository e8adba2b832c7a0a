"""StrategyContext: the one seam between search strategies and the engine.

BugDoc runs three cooperating strategies -- Shortcut, Stacked Shortcut,
and Debugging Decision Trees -- and each needs the same three services:

* **engine selection**: whether history queries (refutes/supports,
  subsumption, disjointness scans, tree induction) run on the columnar
  bitset engine of :mod:`repro.core.engine` or on the dict-based
  reference implementations;
* **budget charging**: every new execution goes through the session's
  ``evaluate``/``evaluate_many`` so the paper's cost accounting stays
  the single source of truth;
* **history access**: the scans that pick good instances
  (``disjoint_successes``, Hamming-distance ranking, mutual
  disjointness) and the sanity checks over successes.

Before this module each strategy resolved those ad hoc -- DDT built its
own :class:`~repro.core.engine.ColumnarEngine` while Shortcut and
Stacked scanned instance dicts directly, so mixed-strategy runs paid
the quadratic scan cost the engine was built to remove.  A
:class:`StrategyContext` wraps one :class:`~repro.core.session.DebugSession`
plus one engine choice and serves all strategies; every accelerated
query degrades transparently to the reference path (byte-identical
results, automatic fallback for uncompilable histories), exactly like
the engine itself.

The batch extension (PR 4): strategies that hold *many* hypotheses --
the DDT confirmation loop screening every pending suspect, suspect
minimization testing all single-predicate drops, Quine-McCluskey cover
checks -- call the ``*_many`` methods here, which route to the engine's
one-pass batch evaluation (shared per-literal match tables) on the
columnar engine and degrade to exact one-at-a-time loops otherwise.
``StrategyContext(batch=False)`` reproduces the pre-batch scalar code
paths bit for bit, which the batch benchmark uses as its baseline.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Mapping, Sequence

from .engine import ColumnarEngine
from .predicates import Conjunction
from .rootcause import prune_to_minimal
from .types import Instance, Outcome, Value

__all__ = ["StrategyContext", "validate_engine"]

ENGINES = ("columnar", "reference")


def validate_engine(engine: str) -> str:
    """Validate an engine name, returning it (shared error message)."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}: expected 'columnar' or 'reference'"
        )
    return engine


class StrategyContext:
    """Execution context + engine selection shared by all strategies.

    Args:
        session: the :class:`~repro.core.session.DebugSession` owning
            history, budget, and executor.
        engine: ``"columnar"`` (default) routes history queries through
            the bitset engine; ``"reference"`` keeps the original dict
            implementations.  Both produce identical results.
        batch: enable the batch evaluation layer (default).  The
            ``*_many`` methods then run whole hypothesis sets in one
            store pass with shared per-literal match tables, and
            satisfying-value lists are memoized per conjunction.
            ``batch=False`` reproduces the pre-batch one-at-a-time code
            paths exactly (same answers, no shared tables) -- the batch
            benchmark's baseline.  Results are identical either way.
    """

    __slots__ = ("session", "engine_name", "batch", "_engine", "_value_lists")

    def __init__(
        self,
        session,
        engine: str = "columnar",
        batch: bool = True,
        shard_plan=None,
    ):
        self.session = session
        self.engine_name = validate_engine(engine)
        self.batch = bool(batch)
        self._engine = (
            ColumnarEngine.for_session(
                session, use_match_cache=self.batch, plan=shard_plan
            )
            if engine == "columnar"
            else None
        )
        self._value_lists: dict | None = {} if self.batch else None

    @classmethod
    def for_session(
        cls,
        session,
        engine: str = "columnar",
        batch: bool = True,
        shard_plan=None,
    ) -> "StrategyContext":
        return cls(session, engine=engine, batch=batch, shard_plan=shard_plan)

    @property
    def columnar(self) -> bool:
        """True when the columnar engine serves (compilable) queries."""
        return self._engine is not None

    @property
    def fallback_count(self) -> int:
        """Reference-path degradations served by the columnar engine so
        far (0 for the reference engine, where everything is reference
        by construction).  Tests assert this stays 0 on clean runs."""
        return 0 if self._engine is None else self._engine.fallbacks

    def engine_stats(self) -> dict[str, int] | None:
        """The columnar engine's counter snapshot (fallbacks, compile
        cache hits/misses, match-table reuse/footprint, shard layout),
        or None on the reference engine.  This is the per-job view the
        service reports:
        ``ColumnarEngine.for_session`` builds a fresh engine per
        context, so these counters cover exactly this job's queries.
        """
        return None if self._engine is None else self._engine.stats()

    # -- Session passthrough (the budget-charging seam) -----------------------
    @property
    def space(self):
        return self.session.space

    @property
    def history(self):
        return self.session.history

    @property
    def budget(self):
        return self.session.budget

    @property
    def parallel(self) -> bool:
        return self.session.parallel

    @property
    def candidate_source(self):
        return self.session.candidate_source

    @property
    def new_executions(self) -> int:
        return self.session.new_executions

    def evaluate(self, instance: Instance) -> Outcome:
        return self.session.evaluate(instance)

    def evaluate_many(self, instances: Sequence[Instance]):
        return self.session.evaluate_many(instances)

    def emit(self, kind: str, **payload) -> None:
        """Publish one progress event through the session's neutral hook.

        A no-op without a ``session.progress`` subscriber, so strategies
        emit unconditionally.  The hook's contract (see
        :class:`~repro.core.session.DebugSession`) is that a raising
        subscriber is the subscriber's bug; the session swallows its own
        ``budget_spent`` failures, and we mirror that here.
        """
        progress = getattr(self.session, "progress", None)
        if progress is not None:
            try:
                progress(kind, payload)
            except Exception:
                pass

    @contextlib.contextmanager
    def span(self, name: str):
        """Emit a ``span`` event timing the enclosed block.

        The event's payload is ``{"name": name, "seconds": elapsed}``
        -- the same shape the session uses for ``execution`` spans --
        so the durable log can answer per-job wall-time breakdowns
        (solver vs execution vs persistence) without sampling.
        """
        started = time.perf_counter()
        try:
            yield
        finally:
            self.emit("span", name=name, seconds=time.perf_counter() - started)

    # -- Engine-selected history queries --------------------------------------
    def refutes(self, conjunction: Conjunction) -> bool:
        if self._engine is not None:
            return self._engine.refutes(conjunction)
        return self.session.history.refutes(conjunction)

    def supports(self, conjunction: Conjunction) -> bool:
        if self._engine is not None:
            return self._engine.supports(conjunction)
        return self.session.history.supports(conjunction)

    def is_hypothetical_root_cause(self, conjunction: Conjunction) -> bool:
        return self.supports(conjunction) and not self.refutes(conjunction)

    def subsumes(self, general: Conjunction, specific: Conjunction) -> bool:
        if self._engine is not None:
            return self._engine.subsumes(general, specific)
        return general.subsumes(specific, self.session.space)

    def tree(self, max_depth: int | None = None):
        """The engine-maintained debugging tree, or None when the caller
        must build a reference :class:`~repro.core.tree.DebuggingTree`
        (reference engine, or degraded columnar store)."""
        if self._engine is not None:
            return self._engine.tree(max_depth=max_depth)
        return None

    # -- Batch history queries -------------------------------------------------
    def refutes_many(self, conjunctions: Sequence[Conjunction]) -> list[bool]:
        """``[refutes(c) for c in conjunctions]``; one store pass when
        the batch layer is on, exact scalar loop otherwise."""
        conjunctions = list(conjunctions)
        if self._engine is not None and self.batch:
            return self._engine.refutes_many(conjunctions)
        return [self.refutes(c) for c in conjunctions]

    def supports_many(self, conjunctions: Sequence[Conjunction]) -> list[bool]:
        """``[supports(c) for c in conjunctions]``, batched when on."""
        conjunctions = list(conjunctions)
        if self._engine is not None and self.batch:
            return self._engine.supports_many(conjunctions)
        return [self.supports(c) for c in conjunctions]

    def subsumes_matrix(
        self,
        generals: Sequence[Conjunction],
        specifics: Sequence[Conjunction],
    ) -> list[list[bool]]:
        """``matrix[i][j] = subsumes(generals[i], specifics[j])``."""
        generals, specifics = list(generals), list(specifics)
        if self._engine is not None and self.batch:
            return self._engine.subsumes_matrix(generals, specifics)
        return [[self.subsumes(g, s) for s in specifics] for g in generals]

    def filter_unsubsumed(
        self,
        generals: Sequence[Conjunction],
        candidates: Sequence[Conjunction],
    ) -> list[Conjunction]:
        """The candidates no general conjunction subsumes, in order.

        This is the DDT round filter (skip suspects an already-confirmed
        cause covers); the batch path answers the whole
        ``generals x candidates`` grid from per-conjunction canonical
        masks computed once.
        """
        generals, candidates = list(generals), list(candidates)
        if not generals or not candidates:
            return candidates
        if self._engine is not None and self.batch:
            covered = self._engine.subsumed_by_any(generals, candidates)
            return [
                candidate
                for candidate, is_covered in zip(candidates, covered)
                if not is_covered
            ]
        return [
            candidate
            for candidate in candidates
            if not any(self.subsumes(g, candidate) for g in generals)
        ]

    def any_satisfied(
        self, conjunctions: Sequence[Conjunction], instance: Instance
    ) -> bool:
        """``any(c.satisfied_by(instance) for c in conjunctions)``.

        The transpose of the row-matching batch: one instance screened
        against many conjunctions.  The DDT FindAll convergence probe
        (:func:`~repro.core.ddt._explore_complement`) asks this for
        every sampled candidate against the whole confirmed-cause list;
        the batch path answers from the engine's memoized compiled masks
        (one integer test per constrained parameter) instead of
        re-running every predicate per candidate.  Order of evaluation
        and short-circuit semantics match the scalar expression exactly.
        """
        conjunctions = list(conjunctions)
        if self._engine is not None and self.batch:
            return self._engine.any_satisfied_by(conjunctions, instance)
        return any(c.satisfied_by(instance) for c in conjunctions)

    def prune_to_minimal(
        self, conjunctions: Sequence[Conjunction]
    ) -> list[Conjunction]:
        """:func:`repro.core.rootcause.prune_to_minimal` over this space,
        answered from one batched subsumption matrix when the batch
        layer is on (identical kept-list either way)."""
        if self._engine is not None and self.batch:
            unique = list(dict.fromkeys(conjunctions))
            if len(unique) <= 1:
                return unique
            matrix = self._engine.subsumes_matrix(unique, unique)
            size = len(unique)
            return [
                candidate
                for j, candidate in enumerate(unique)
                if not any(
                    matrix[i][j] and not matrix[j][i]
                    for i in range(size)
                    if i != j
                )
            ]
        return prune_to_minimal(conjunctions, self.session.space)

    def satisfying_value_lists(
        self, conjunction: Conjunction
    ) -> list[tuple[str, list[Value]]] | None:
        """Per-parameter ``(name, repr-sorted satisfying values)`` lists
        for every space parameter, or None when the conjunction is
        unsatisfiable -- exactly the scan the DDT variation sampler
        performs on :meth:`Conjunction.canonical`, memoized per
        conjunction when the batch layer is on (suspects are re-sampled
        many times across minimization rounds).  ValueError propagates
        for predicates the reference scan rejects.
        """
        cache = self._value_lists
        if cache is not None:
            try:
                return cache[conjunction]
            except KeyError:
                pass
        result = self._compute_value_lists(conjunction)
        if cache is not None:
            cache[conjunction] = result
        return result

    def _compute_value_lists(self, conjunction: Conjunction):
        if self._engine is not None and self.batch:
            compiled = self._engine.satisfying_value_lists(conjunction)
            if compiled is not None:
                satisfiable, per_parameter = compiled
                return per_parameter if satisfiable else None
        space = self.session.space
        sets = conjunction.canonical(space)
        per_parameter: list[tuple[str, list[Value]]] = []
        for name in space.names:
            allowed = sets.get(name)
            if allowed is None:
                per_parameter.append((name, list(space.domain(name))))
            else:
                if not allowed:
                    return None
                per_parameter.append((name, sorted(allowed, key=repr)))
        return per_parameter

    # -- Engine-selected history scans ----------------------------------------
    def disjoint_successes(self, failing: Instance) -> list[Instance]:
        if self._engine is not None:
            return self._engine.disjoint_successes(failing)
        return self.session.history.disjoint_successes(failing)

    def most_different_success(self, failing: Instance) -> Instance | None:
        if self._engine is not None:
            return self._engine.most_different_success(failing)
        return self.session.history.most_different_success(failing)

    def mutually_disjoint_successes(
        self, failing: Instance, limit: int | None = None
    ) -> list[Instance]:
        if self._engine is not None:
            return self._engine.mutually_disjoint_successes(failing, limit)
        return self.session.history.mutually_disjoint_successes(failing, limit)

    def success_superset_of(self, assignment: Mapping[str, object]) -> bool:
        if self._engine is not None:
            return self._engine.success_superset_of(assignment)
        return self.session.history.success_superset_of(assignment)
