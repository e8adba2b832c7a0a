"""The Debugging Decision Trees algorithm (Section 4.2).

The search loop:

1. Build a complete (unpruned) decision tree over all executed
   instances, with outcomes as the target.
2. Every root-to-pure-``fail``-leaf path is a *suspect* conjunction
   (possibly containing inequalities).
3. Each suspect is tested by fixing a satisfying *prototype* value for
   every constrained parameter and sampling new instances from the
   Cartesian product of the remaining parameters' values.  If every
   sampled instance fails, the suspect is asserted as a definitive root
   cause; if any succeeds, the refuting instance joins the history, the
   tree is rebuilt, and the search restarts with fresh suspects.

The final explanation is the disjunction of asserted suspects,
simplified with Quine-McCluskey (:mod:`repro.core.quine_mccluskey`).

Worst-case cost is exponential in the number of parameters, but the
algorithm "does well heuristically even with a small budget" -- budgets
are enforced through the session, and partial results are returned on
exhaustion.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field
from collections.abc import Sequence

from .budget import BudgetExhausted
from .context import StrategyContext, validate_engine
from .predicates import Conjunction, Disjunction
from .quine_mccluskey import simplify_disjunction
from .session import DebugSession, InstanceUnavailable
from .tree import DebuggingTree
from .types import Instance, Outcome

__all__ = ["DDTConfig", "DDTResult", "debugging_decision_trees"]


@dataclass(frozen=True)
class DDTConfig:
    """Tuning knobs for the Debugging Decision Trees search.

    Attributes:
        tests_per_suspect: how many variations of the non-suspect
            parameters are sampled to try to refute each suspect.  The
            full Cartesian product is used instead whenever it is
            smaller.
        max_rounds: cap on tree rebuilds (each refutation triggers one);
            guarantees termination alongside the instance budget.
        find_all: assert every surviving suspect (FindAll) instead of
            stopping at the first confirmation (FindOne).
        simplify: run Quine-McCluskey simplification on the final
            disjunction (ablatable).
        shortest_first: test short suspects before long ones
            (ablatable; False preserves tree order).
        minimize_confirmed: after confirming a suspect, greedily drop
            predicates while the generalization still survives
            refutation (Definition 5 asks for *minimal* causes; tree
            paths often carry redundant conjuncts).  Ablatable.
        exploration_per_round: in FindAll mode, when a round ends with
            every suspect confirmed (nothing refuted), sample up to this
            many instances *outside* all confirmed causes.  A surprise
            failure there reveals a bug the current evidence cannot see
            and reopens the search; all-success confirms convergence.
            Set to 0 to disable (ablatable).
        seed: RNG seed for prototype and variation sampling.
        max_tree_depth: optional cap forwarded to tree induction.
        engine: evaluation engine for the search's own hot loops.
            ``"columnar"`` (default) runs history queries, subsumption
            checks, and tree induction on the integer-coded bitset
            engine of :mod:`repro.core.engine`; ``"reference"`` keeps
            the original per-instance dict implementations.  Both
            produce identical reports; the columnar engine transparently
            falls back to the reference path for anything it cannot
            compile faithfully.
        batch_suspects: screen suspect sets, minimization candidates,
            and the final confirmed-cause filters through the context's
            batch evaluation layer (one store pass per set, shared
            per-literal match tables) instead of one history query per
            conjunction.  Default on; ``False`` reproduces the
            one-at-a-time code paths exactly.  Reports are identical
            either way (the batch layer is a pure evaluation strategy).
    """

    tests_per_suspect: int = 12
    max_rounds: int = 60
    find_all: bool = True
    simplify: bool = True
    shortest_first: bool = True
    minimize_confirmed: bool = True
    exploration_per_round: int = 8
    seed: int = 0
    max_tree_depth: int | None = None
    engine: str = "columnar"
    batch_suspects: bool = True

    def __post_init__(self) -> None:
        validate_engine(self.engine)


@dataclass
class DDTResult:
    """Outcome of a Debugging Decision Trees run.

    Attributes:
        causes: asserted root-cause conjunctions (post-simplification
            components when ``simplify`` is on).
        explanation: the full disjunction-of-conjunctions explanation.
        rounds: number of tree builds performed.
        instances_executed: new executions charged to the session.
        budget_exhausted: True when the search stopped on budget.
        trees_sizes: size of each built tree (diagnostics).
    """

    causes: list[Conjunction] = field(default_factory=list)
    explanation: Disjunction = field(default_factory=Disjunction)
    rounds: int = 0
    instances_executed: int = 0
    budget_exhausted: bool = False
    tree_sizes: list[int] = field(default_factory=list)

    @property
    def asserted(self) -> bool:
        return bool(self.causes)


def _variation_instances(
    suspect: Conjunction,
    context: StrategyContext,
    count: int,
    rng: random.Random,
) -> list[Instance] | None:
    """Sample instances from the suspect's satisfying set (Step 3).

    Equality-constrained parameters are pinned to their value.  For
    inequality-constrained parameters, values are drawn across the full
    satisfying range -- testing only one prototype value would let an
    over-general inequality (e.g. ``a > 0`` when the true cause is
    ``a > 2``) survive unrefuted.  Unconstrained parameters vary over
    their whole domain ("all other parameters will be varied").

    The full Cartesian product of satisfying sets x free domains is
    enumerated when it fits in ``count``; otherwise sampled without
    replacement (best effort).  Returns None when the suspect is
    unsatisfiable.
    """
    if context.candidate_source is not None:
        # Historical mode: test instances come from unread provenance.
        candidates = context.candidate_source(suspect, count)
        fresh = [c for c in candidates if c not in context.history]
        return fresh if fresh else []
    # The per-parameter satisfying-value scan is served by the context
    # (memoized per suspect on the batch layer; the same lists as the
    # direct ``suspect.canonical(space)`` scan either way).
    per_parameter = context.satisfying_value_lists(suspect)
    if per_parameter is None:
        return None

    product_size = 1
    for __, values in per_parameter:
        product_size *= len(values)
        if product_size > count:
            break

    if product_size <= count:
        names = [name for name, __ in per_parameter]
        return [
            Instance(dict(zip(names, combo)))
            for combo in itertools.product(
                *(values for __, values in per_parameter)
            )
        ]

    seen: set[Instance] = set()
    ordered: list[Instance] = []
    attempts = 0
    while len(ordered) < count and attempts < count * 5:
        attempts += 1
        candidate = Instance(
            {name: rng.choice(values) for name, values in per_parameter}
        )
        if candidate not in seen:
            seen.add(candidate)
            ordered.append(candidate)
    return ordered


def debugging_decision_trees(
    session: DebugSession,
    config: DDTConfig | None = None,
    context: StrategyContext | None = None,
) -> DDTResult:
    """Run the Debugging Decision Trees search loop.

    The session's history must contain at least one failing and one
    succeeding instance for the tree to produce informative suspects;
    with a degenerate history the result is empty (all-fail histories
    yield the trivial always-fail explanation only if the caller opts to
    interpret it, which this function does not assert).

    Args:
        session: execution context (history, budget, executor).
        config: tuning knobs; defaults to :class:`DDTConfig`.
        context: the engine-selection/budget seam.  When omitted, one is
            built over ``session`` with ``config.engine``; an explicitly
            passed context takes precedence over ``config.engine``.

    Returns:
        A :class:`DDTResult`; partial results are returned when the
        instance budget runs out mid-search.
    """
    config = config or DDTConfig()
    rng = random.Random(config.seed)
    result = DDTResult()
    confirmed: list[Conjunction] = []
    refuted: set[Conjunction] = set()
    if context is None:
        context = StrategyContext.for_session(
            session, engine=config.engine, batch=config.batch_suspects
        )
    executed_before = context.new_executions

    try:
        for _round in range(config.max_rounds):
            # The solver span covers the pure-reasoning part of a round
            # (tree induction + suspect derivation + subsumption filter);
            # execution time is accounted by the session's per-execution
            # spans, so the two are separable in the event log.
            with context.span("solver"):
                tree = context.tree(max_depth=config.max_tree_depth)
                if tree is None:  # reference engine, or degraded store
                    samples = [
                        (instance, outcome)
                        for instance in context.history.instances
                        if (outcome := context.history.outcome_of(instance))
                        is not None
                    ]
                    tree = DebuggingTree(
                        context.space, samples, max_depth=config.max_tree_depth
                    )
                result.rounds += 1
                result.tree_sizes.append(tree.size)

                suspects = [
                    s
                    for s in tree.fail_paths()
                    if s not in refuted and not s.is_trivial()
                ]
                if not config.shortest_first:
                    rng.shuffle(suspects)
                # Skip suspects already covered by a confirmed cause --
                # one batched confirmed x suspects subsumption grid per
                # round (screening the suspects against the history
                # itself would be vacuous: a pure-fail tree path cannot
                # be refuted by the evidence it was induced from; the
                # batch screens run where refutation is possible --
                # minimization candidates and the final confirmed-cause
                # filter).
                suspects = context.filter_unsubsumed(confirmed, suspects)
            context.emit(
                "round_started",
                round=result.rounds,
                tree_size=tree.size,
                history=context.history.distinct_count,
                suspects=len(suspects),
                confirmed=len(confirmed),
            )
            if not suspects:
                if config.find_all and _explore_complement(
                    context, confirmed, config, rng
                ):
                    continue  # a surprise failure reopened the search
                break

            any_refuted = False
            for suspect in suspects:
                verdict = _test_suspect(suspect, context, config, rng)
                if verdict is _Verdict.CONFIRMED:
                    if config.minimize_confirmed:
                        suspect = _minimize_suspect(
                            suspect, context, config, rng
                        )
                    confirmed.append(suspect)
                    context.emit("suspect_confirmed", suspect=str(suspect))
                    context.emit(
                        "partial_causes",
                        causes=[str(c) for c in confirmed],
                    )
                    if not config.find_all:
                        raise _StopSearch
                elif verdict is _Verdict.REFUTED:
                    refuted.add(suspect)
                    context.emit("suspect_refuted", suspect=str(suspect))
                    any_refuted = True
                    break  # rebuild the tree with the refuting evidence
                else:  # UNDECIDED (historical mode could not test)
                    refuted.add(suspect)
            if not any_refuted:
                if config.find_all and _explore_complement(
                    context, confirmed, config, rng
                ):
                    continue
                break
    except _StopSearch:
        pass
    except BudgetExhausted:
        result.budget_exhausted = True

    result.instances_executed = context.new_executions - executed_before
    # Evidence gathered for later suspects can retroactively refute an
    # earlier confirmation; the final explanation must be a hypothetical
    # root cause w.r.t. everything executed (Definition 3).  Both passes
    # are batched: one refutation screen, one subsumption matrix.
    screened = context.refutes_many(confirmed)
    confirmed = [
        c for c, already in zip(confirmed, screened) if not already
    ]
    confirmed = context.prune_to_minimal(confirmed)
    if config.simplify and confirmed:
        explanation = simplify_disjunction(Disjunction(confirmed), context.space)
    else:
        explanation = Disjunction(confirmed)
    result.causes = list(explanation)
    result.explanation = explanation
    return result


def _explore_complement(
    context: StrategyContext,
    confirmed: list[Conjunction],
    config: DDTConfig,
    rng: random.Random,
) -> bool:
    """FindAll convergence check: probe outside the confirmed causes.

    Samples instances that satisfy no confirmed cause (rejection
    sampling) and executes them.  Returns True when a new *failure* was
    found -- evidence of an undiscovered cause -- so the caller rebuilds
    the tree; False means the probe saw only successes (or could not
    run), which is the best available evidence of convergence.

    The per-candidate "covered by a confirmed cause?" rejection test is
    served by the context's :meth:`~repro.core.context.StrategyContext.any_satisfied`
    batch seam: one encoded candidate probed against the whole
    confirmed list's memoized compiled masks.  ``batch=False`` reproduces the original
    per-predicate scan exactly (same answers either way).
    """
    if config.exploration_per_round <= 0:
        return False
    if context.candidate_source is not None:
        # Historical mode: nothing outside the log can be probed.
        return False
    space = context.space
    found_failure = False
    probes = 0
    attempts = 0
    while (
        probes < config.exploration_per_round
        and attempts < config.exploration_per_round * 10
    ):
        attempts += 1
        candidate = space.random_instance(rng)
        if candidate in context.history:
            continue
        if context.any_satisfied(confirmed, candidate):
            continue
        try:
            outcome = context.evaluate(candidate)
        except InstanceUnavailable:
            continue
        probes += 1
        if outcome is Outcome.FAIL:
            found_failure = True
            break
    context.emit(
        "exploration", probes=probes, found_failure=found_failure
    )
    return found_failure


def _minimize_suspect(
    suspect: Conjunction,
    context: StrategyContext,
    config: DDTConfig,
    rng: random.Random,
) -> Conjunction:
    """Greedy Definition-5 minimization of a confirmed suspect.

    Repeatedly drops one predicate if the generalized conjunction also
    survives refutation sampling, until no single drop survives.  All
    single-drop candidates of a pass are screened against the history
    in one batched ``refutes_many`` call (free checks) before any
    executions are spent; because a refutation test can append new
    evidence, the remaining screens are recomputed whenever the history
    grew, so every candidate sees exactly the history state the
    one-at-a-time scan would have consulted.
    """
    current = suspect
    improved = True
    while improved and len(current) > 1:
        improved = False
        if not context.batch:
            # Pre-batch loop, preserved as the benchmark baseline: one
            # lazy history check right before each candidate's test.
            for predicate in current:
                candidate = Conjunction(
                    p for p in current.predicates if p != predicate
                )
                if context.refutes(candidate):
                    continue
                if (
                    _test_suspect(candidate, context, config, rng)
                    is _Verdict.CONFIRMED
                ):
                    current = candidate
                    improved = True
                    break
            continue
        candidates = [
            Conjunction(p for p in current.predicates if p != predicate)
            for predicate in current
        ]
        screened = context.refutes_many(candidates)
        watermark = context.history.distinct_count
        for position, candidate in enumerate(candidates):
            if context.history.distinct_count != watermark:
                # A refutation test recorded new evidence; the pending
                # screens are stale, so re-batch the remainder.
                screened[position:] = context.refutes_many(
                    candidates[position:]
                )
                watermark = context.history.distinct_count
            if screened[position]:
                continue
            if _test_suspect(candidate, context, config, rng) is _Verdict.CONFIRMED:
                current = candidate
                improved = True
                break
    return current


class _StopSearch(Exception):
    """Internal: FindOne confirmed its first cause."""


class _Verdict(enum.Enum):
    CONFIRMED = "confirmed"
    REFUTED = "refuted"
    UNDECIDED = "undecided"


def _test_suspect(
    suspect: Conjunction,
    context: StrategyContext,
    config: DDTConfig,
    rng: random.Random,
) -> "_Verdict":
    """Step 3 of the algorithm: try to refute one suspect.

    Executes sampled variations; CONFIRMED when all fail, REFUTED on the
    first success, UNDECIDED when historical replay could not serve any
    variation.
    """
    variations = _variation_instances(
        suspect, context, config.tests_per_suspect, rng
    )
    if variations is None:
        return _Verdict.REFUTED  # unsatisfiable suspect explains nothing
    if not variations:
        return _Verdict.UNDECIDED

    if context.parallel:
        # Speculative batch execution (Section 4.3): all variations run
        # concurrently even though an early refutation would have let a
        # serial search skip the rest.
        outcomes = context.evaluate_many(variations)
        tested = sum(1 for o in outcomes if o is not None)
        if context.budget.exhausted() and tested == 0:
            raise BudgetExhausted(context.budget.limit or 0)
        if any(o is Outcome.SUCCEED for o in outcomes):
            return _Verdict.REFUTED
        if tested == 0:
            return _Verdict.UNDECIDED
        return _Verdict.CONFIRMED

    tested = 0
    for instance in variations:
        try:
            outcome = context.evaluate(instance)
        except InstanceUnavailable:
            continue
        tested += 1
        if outcome is Outcome.SUCCEED:
            return _Verdict.REFUTED
    if tested == 0:
        return _Verdict.UNDECIDED
    return _Verdict.CONFIRMED
