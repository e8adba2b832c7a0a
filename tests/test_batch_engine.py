"""Differential tests for the batch evaluation layer.

The contract of the batch layer (PR 4) is threefold:

1. **Batch == one-at-a-time == reference.**  ``refutes_many`` /
   ``supports_many`` / ``subsumes_matrix`` return exactly what per-conjunction engine calls return, which in
   turn return exactly what the dict-based reference implementations
   return -- over arbitrary histories and conjunction batches,
   including duplicate, contradictory (unsatisfiable), and
   out-of-domain conjunctions.
2. **Fallbacks are visible.**  Every query a degraded or uncompilable
   input pushes onto the reference path increments
   ``ColumnarEngine.fallbacks``; a clean columnar run ends with the
   counter at zero.  End-to-end reports are byte-identical either way.
3. **Caches are coherent.**  The compiled-conjunction memo is
   history-independent and never recompiles; the per-literal match
   tables survive history growth by *incremental extension* (each
   appended row's bit is OR-ed into the entries whose mask contains its
   code), staying exactly equal to a from-scratch recomputation.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Algorithm,
    BugDoc,
    Comparator,
    Conjunction,
    DDTConfig,
    DebugSession,
    ExecutionHistory,
    Instance,
    Outcome,
    Parameter,
    ParameterKind,
    ParameterSpace,
    Predicate,
    StrategyContext,
)
from repro.core.engine import (
    ColumnarEngine,
    ShardPlan,
    SpaceCodec,
    compile_conjunction,
)


# ---------------------------------------------------------------------------
# Random-model strategies (mirrors tests/test_engine.py)
# ---------------------------------------------------------------------------

def _space_from_blueprint(blueprint: list[tuple[bool, int]]) -> ParameterSpace:
    parameters = []
    for index, (ordinal, n_values) in enumerate(blueprint):
        if ordinal:
            domain = tuple(float(v) for v in range(n_values))
            parameters.append(
                Parameter(f"p{index}", domain, ParameterKind.ORDINAL)
            )
        else:
            domain = tuple(f"v{j}" for j in range(n_values))
            parameters.append(Parameter(f"p{index}", domain))
    return ParameterSpace(parameters)


_spaces = st.lists(
    st.tuples(st.booleans(), st.integers(2, 5)), min_size=2, max_size=4
).map(_space_from_blueprint)


def _random_history(space, rng, size):
    history = ExecutionHistory()
    for __ in range(size):
        instance = space.random_instance(rng)
        if instance not in history:
            history.record(
                instance,
                Outcome.FAIL if rng.random() < 0.4 else Outcome.SUCCEED,
            )
    return history


def _random_batch(space, rng, size):
    """A conjunction batch exercising the tricky shapes: plain random
    conjunctions, exact duplicates, contradictory (unsatisfiable)
    conjunctions, and predicates with out-of-domain values."""
    batch: list[Conjunction] = []
    for __ in range(size):
        shape = rng.random()
        name = rng.choice(space.names)
        parameter = space[name]
        if shape < 0.15 and batch:
            batch.append(rng.choice(batch))  # duplicate of an earlier one
            continue
        if shape < 0.3 and len(parameter.domain) >= 2:
            # Contradictory: two different equality pins on one parameter.
            batch.append(
                Conjunction(
                    [
                        Predicate(name, Comparator.EQ, parameter.domain[0]),
                        Predicate(name, Comparator.EQ, parameter.domain[1]),
                    ]
                )
            )
            continue
        predicates = []
        for __ in range(rng.randint(1, 3)):
            pick = rng.choice(space.names)
            chosen = space[pick]
            comparators = (
                list(Comparator)
                if chosen.is_ordinal
                else [Comparator.EQ, Comparator.NEQ]
            )
            if chosen.is_ordinal and rng.random() < 0.2:
                value = 1e9  # out-of-domain value, still comparable
            else:
                value = rng.choice(chosen.domain)
            predicates.append(Predicate(pick, rng.choice(comparators), value))
        batch.append(Conjunction(predicates))
    return batch


# ---------------------------------------------------------------------------
# Batch == scalar == reference
# ---------------------------------------------------------------------------

class TestBatchDifferential:
    @settings(max_examples=50, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_refutes_supports_many_match_scalar_and_reference(self, space, seed):
        rng = random.Random(seed)
        history = _random_history(space, rng, size=rng.randint(0, 25))
        batch = _random_batch(space, rng, size=rng.randint(0, 12))
        engine = ColumnarEngine(space, history)
        scalar = ColumnarEngine(space, history, use_match_cache=False)
        # A multi-shard store over a copy (a history interns one store).
        sharded = ColumnarEngine(
            space, history.copy(), plan=ShardPlan(shard_rows=4)
        )
        assert engine.refutes_many(batch) == sharded.refutes_many(batch) == [
            scalar.refutes(c) for c in batch
        ] == [history.refutes(c) for c in batch]
        assert engine.supports_many(batch) == sharded.supports_many(batch) == [
            scalar.supports(c) for c in batch
        ] == [history.supports(c) for c in batch]
        assert sharded.fallbacks == 0

    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_subsumes_matrix_matches_scalar_and_reference(self, space, seed):
        rng = random.Random(seed)
        generals = _random_batch(space, rng, size=rng.randint(1, 6))
        specifics = _random_batch(space, rng, size=rng.randint(1, 6))
        engine = ColumnarEngine(space, ExecutionHistory())
        matrix = engine.subsumes_matrix(generals, specifics)
        for i, general in enumerate(generals):
            for j, specific in enumerate(specifics):
                assert matrix[i][j] == engine.subsumes(general, specific)
                assert matrix[i][j] == general.subsumes(specific, space)

    @settings(max_examples=30, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_context_batch_helpers_match_nonbatch(self, space, seed):
        rng = random.Random(seed)
        history = _random_history(space, rng, size=rng.randint(1, 20))

        def oracle(instance):
            return Outcome.SUCCEED

        batched = StrategyContext(
            DebugSession(oracle, space, history=history.copy()), batch=True
        )
        scalar = StrategyContext(
            DebugSession(oracle, space, history=history.copy()), batch=False
        )
        reference = StrategyContext(
            DebugSession(oracle, space, history=history.copy()),
            engine="reference",
        )
        batch = _random_batch(space, rng, size=rng.randint(1, 8))
        for context in (scalar, reference):
            assert batched.refutes_many(batch) == context.refutes_many(batch)
            assert batched.supports_many(batch) == context.supports_many(batch)
            assert batched.subsumes_matrix(batch, batch) == context.subsumes_matrix(
                batch, batch
            )
            assert batched.filter_unsubsumed(batch[:2], batch) == (
                context.filter_unsubsumed(batch[:2], batch)
            )
            assert batched.prune_to_minimal(batch) == context.prune_to_minimal(
                batch
            )
        for conjunction in batch:
            assert batched.satisfying_value_lists(conjunction) == (
                scalar.satisfying_value_lists(conjunction)
            ) == reference.satisfying_value_lists(conjunction)

    @settings(max_examples=50, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_any_satisfied_matches_scalar_any(self, space, seed):
        """The instance-vs-many screen (behind ``_explore_complement``)
        equals the scalar
        ``any`` expression -- same verdicts, same short-circuit
        semantics, same raised exceptions -- across random conjunction
        lists and instances (in-domain, out-of-domain, foreign keys)."""
        rng = random.Random(seed)
        history = _random_history(space, rng, size=rng.randint(0, 10))
        batch = _random_batch(space, rng, size=rng.randint(0, 8))
        engine = ColumnarEngine(space, history)
        batched = StrategyContext(
            DebugSession(lambda i: Outcome.SUCCEED, space, history=history),
            batch=True,
        )
        instances = [space.random_instance(rng) for __ in range(4)]
        shape = rng.random()
        if shape < 0.4 and instances:
            # Out-of-domain value on one parameter.
            name = rng.choice(space.names)
            instances.append(instances[0].with_value(name, "out-of-domain"))
        elif shape < 0.7:
            # Foreign parameter set (strict encode refuses).
            instances.append(
                Instance({**instances[0].as_dict(), "stranger": 1})
            )
        for instance in instances:
            try:
                expected = any(c.satisfied_by(instance) for c in batch)
            except Exception as error:
                with pytest.raises(type(error)):
                    engine.any_satisfied_by(batch, instance)
                with pytest.raises(type(error)):
                    batched.any_satisfied(batch, instance)
                continue
            assert engine.any_satisfied_by(batch, instance) == expected
            assert batched.any_satisfied(batch, instance) == expected

    def test_unknown_parameter_raises_like_reference_mid_batch(self):
        space = ParameterSpace([Parameter("a", (0, 1))])
        history = ExecutionHistory()
        history.record(Instance({"a": 0}), Outcome.SUCCEED)
        engine = ColumnarEngine(space, history)
        good = Conjunction([Predicate("a", Comparator.EQ, 0)])
        stranger = Conjunction([Predicate("zzz", Comparator.EQ, 1)])
        # The reference loop raises KeyError for a predicate on a
        # parameter the instances do not assign; the batch replays it.
        with pytest.raises(KeyError):
            [history.refutes(c) for c in (good, stranger)]
        with pytest.raises(KeyError):
            engine.refutes_many([good, stranger])
        assert engine.fallbacks == 1  # the stranger was routed to reference


# ---------------------------------------------------------------------------
# Cache coherence: compile memo and match tables
# ---------------------------------------------------------------------------

class TestCacheCoherence:
    def _setup(self):
        space = ParameterSpace(
            [
                Parameter("a", (0.0, 1.0, 2.0, 3.0), ParameterKind.ORDINAL),
                Parameter("b", ("x", "y", "z")),
            ]
        )
        history = ExecutionHistory()
        rng = random.Random(3)
        for __ in range(30):
            instance = space.random_instance(rng)
            if instance not in history:
                history.record(
                    instance,
                    Outcome.FAIL if rng.random() < 0.5 else Outcome.SUCCEED,
                )
        return space, history

    def test_repeated_conjunction_never_recompiles(self, monkeypatch):
        space, history = self._setup()
        engine = ColumnarEngine(space, history)
        conjunction = Conjunction(
            [
                Predicate("a", Comparator.LE, 2.0),
                Predicate("b", Comparator.EQ, "y"),
            ]
        )
        calls = {"mask": 0}
        original = Predicate.satisfying_code_mask

        def counting(self, parameter):
            calls["mask"] += 1
            return original(self, parameter)

        monkeypatch.setattr(Predicate, "satisfying_code_mask", counting)
        first = engine.refutes(conjunction)
        after_first = calls["mask"]
        assert after_first == 2  # one mask per predicate, once
        for __ in range(5):
            assert engine.refutes(conjunction) == first
        assert calls["mask"] == after_first  # memo hit: zero recompiles
        assert engine.compile_misses == 1
        assert engine.compile_hits == 5

    def test_shared_literals_compile_once_across_conjunctions(self, monkeypatch):
        space, history = self._setup()
        engine = ColumnarEngine(space, history)
        shared = Predicate("a", Comparator.LE, 2.0)
        batch = [
            Conjunction([shared]),
            Conjunction([shared, Predicate("b", Comparator.EQ, "y")]),
            Conjunction([shared, Predicate("b", Comparator.EQ, "z")]),
        ]
        calls = {"mask": 0}
        original = Predicate.satisfying_code_mask

        def counting(self, parameter):
            calls["mask"] += 1
            return original(self, parameter)

        monkeypatch.setattr(Predicate, "satisfying_code_mask", counting)
        engine.refutes_many(batch)
        assert calls["mask"] == 3  # one per *distinct* literal, not five

    def test_match_tables_extend_on_history_growth(self):
        space = ParameterSpace(
            [
                Parameter("a", (0.0, 1.0, 2.0, 3.0), ParameterKind.ORDINAL),
                Parameter("b", ("x", "y", "z")),
            ]
        )
        history = ExecutionHistory()
        history.record(Instance({"a": 0.0, "b": "x"}), Outcome.SUCCEED)
        history.record(Instance({"a": 1.0, "b": "y"}), Outcome.FAIL)
        engine = ColumnarEngine(space, history)
        conjunction = Conjunction([Predicate("b", Comparator.EQ, "y")])
        store = history.columnar_store(space)
        assert engine.refutes_many([conjunction]) == [False]
        assert store.match_misses >= 1
        hits_before = store.match_hits
        assert engine.refutes_many([conjunction, conjunction]) == [False, False]
        assert store.match_hits > hits_before  # warm table reused
        # Append a row that flips the answer; the table must be
        # *extended in place* with the new row -- correct new answer,
        # served as a hit (no recompute), extension counted.
        history.record(Instance({"a": 2.0, "b": "y"}), Outcome.SUCCEED)
        misses_before = store.match_misses
        hits_before = store.match_hits
        assert engine.refutes_many([conjunction]) == [True]
        assert engine.refutes(conjunction) is True
        assert store.match_misses == misses_before  # no cold recompute
        assert store.match_hits > hits_before
        assert store.match_extensions >= 1
        assert engine.stats()["match_extensions"] == store.match_extensions

    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_extended_match_tables_equal_fresh_recomputation(self, space, seed):
        """Grow the history in stages with live match tables; every
        cached entry must equal what a cold store would compute."""
        rng = random.Random(seed)
        history = _random_history(space, rng, rng.randint(1, 8))
        store = history.columnar_store(space)
        queried: set[tuple[int, int]] = set()

        def query_some():
            for __ in range(rng.randint(1, 5)):
                index = rng.randrange(len(space.names))
                size = len(space[space.names[index]].domain)
                allowed = rng.randrange(1, 1 << size)
                queried.add((index, allowed))
                store.match_rows(index, allowed)

        query_some()
        for __ in range(3):
            for __ in range(rng.randint(1, 6)):
                instance = space.random_instance(rng)
                if instance not in history:
                    history.record(
                        instance,
                        Outcome.FAIL if rng.random() < 0.4 else Outcome.SUCCEED,
                    )
            store.sync()
            query_some()
            fresh = ExecutionHistory()
            for evaluation in history:
                fresh.append(evaluation)
            cold = fresh.columnar_store(space)
            for index, allowed in queried:
                assert store.match_rows(index, allowed) == cold.match_rows(
                    index, allowed
                ), (index, allowed)

    def test_any_satisfied_fallbacks_are_visible(self):
        space, history = self._setup()
        engine = ColumnarEngine(space, history)
        causes = [Conjunction([Predicate("b", Comparator.EQ, "y")])]
        in_domain = Instance({"a": 1.0, "b": "y"})
        assert engine.any_satisfied_by(causes, in_domain) is True
        assert engine.fallbacks == 0
        # An instance with a foreign parameter set cannot be encoded
        # strictly; the screen degrades to the reference path, visibly.
        foreign = Instance({"a": 1.0, "b": "y", "extra": 1})
        assert engine.any_satisfied_by(causes, foreign) is True
        assert engine.fallbacks == 1

    def test_stats_snapshot_exposes_counters(self):
        space, history = self._setup()
        engine = ColumnarEngine(space, history)
        conjunction = Conjunction([Predicate("b", Comparator.EQ, "x")])
        engine.refutes(conjunction)
        engine.refutes(conjunction)
        stats = engine.stats()
        assert stats["fallbacks"] == 0
        assert stats["compile_misses"] == 1
        assert stats["compile_hits"] == 1
        assert stats["match_hits"] >= 1


# ---------------------------------------------------------------------------
# Fallback regression: degraded mid-batch, byte-identical reports
# ---------------------------------------------------------------------------

def _ddt_fingerprint(session, seed, **config_kwargs):
    bugdoc = BugDoc(session=session, seed=seed)
    report = bugdoc.find_all(
        Algorithm.DECISION_TREES,
        ddt_config=DDTConfig(find_all=True, **config_kwargs),
    )
    return (
        [str(c) for c in report.causes],
        str(report.explanation),
        report.instances_executed,
        report.budget_exhausted,
        report.ddt_result.rounds,
        report.ddt_result.tree_sizes,
        session.budget.spent,
        len(session.history),
    )


class TestFallbackRegression:
    def _degraded_setup(self):
        """A session whose seeded history contains an out-of-domain row
        mid-stream: the columnar store degrades, and every engine query
        must fall back -- visibly -- without changing any report."""
        space = ParameterSpace(
            [
                Parameter("a", (0, 1, 2, 3), ParameterKind.ORDINAL),
                Parameter("b", ("x", "y")),
            ]
        )

        def oracle(instance):
            bad = instance["a"] >= 2 and instance["b"] == "y"
            return Outcome.FAIL if bad else Outcome.SUCCEED

        history = ExecutionHistory()
        history.record(Instance({"a": 0, "b": "x"}), Outcome.SUCCEED)
        history.record(Instance({"a": 99, "b": "y"}), Outcome.SUCCEED)  # alien
        history.record(Instance({"a": 3, "b": "y"}), Outcome.FAIL)
        return space, oracle, history

    def test_degraded_history_reports_identical_with_visible_fallbacks(self):
        space, oracle, history = self._degraded_setup()
        fingerprints = {}
        for engine_name in ("columnar", "reference"):
            for batch in (True, False):
                session = DebugSession(oracle, space, history=history.copy())
                context = StrategyContext(
                    session, engine=engine_name, batch=batch
                )
                from repro.core.ddt import debugging_decision_trees

                result = debugging_decision_trees(
                    session,
                    DDTConfig(find_all=True, engine=engine_name),
                    context=context,
                )
                fingerprints[(engine_name, batch)] = (
                    tuple(str(c) for c in result.causes),
                    str(result.explanation),
                    result.instances_executed,
                    result.rounds,
                    tuple(result.tree_sizes),
                    len(session.history),
                )
                if engine_name == "columnar":
                    # The degradation is visible, not silent.
                    assert context.fallback_count > 0
                else:
                    assert context.fallback_count == 0
        assert len(set(fingerprints.values())) == 1

    def test_clean_columnar_run_has_zero_fallbacks(self):
        """The CI tripwire: a compilable workload must be served entirely
        by the fast path.  If a refactor silently pushes queries onto
        the reference implementations, this fails."""
        space = ParameterSpace(
            [
                Parameter("a", (0, 1, 2, 3), ParameterKind.ORDINAL),
                Parameter("b", ("x", "y")),
                Parameter("c", ("u", "v", "w")),
            ]
        )

        def oracle(instance):
            bad = instance["a"] >= 2 and instance["b"] == "y"
            return Outcome.FAIL if bad else Outcome.SUCCEED

        session = DebugSession(oracle, space)
        context = StrategyContext(session)
        from repro.core.ddt import debugging_decision_trees

        result = debugging_decision_trees(
            session, DDTConfig(find_all=True), context=context
        )
        assert result.asserted
        assert context.fallback_count == 0

    def test_uncompilable_conjunction_mid_batch_falls_back_per_item(self):
        """A conjunction whose comparator raises on part of the domain is
        uncompilable; the rest of the batch stays on the fast path and
        the fallback is counted."""

        class Spiky:
            """Equality probe that raises against one specific value."""

            def __eq__(self, other):
                if other == "x":
                    raise RuntimeError("cannot compare against 'x'")
                return False

            def __hash__(self):
                return 7

        space = ParameterSpace([Parameter("m", ("x", "y", "z"))])
        history = ExecutionHistory()
        history.record(Instance({"m": "y"}), Outcome.SUCCEED)
        history.record(Instance({"m": "z"}), Outcome.FAIL)
        engine = ColumnarEngine(space, history)
        tricky = Conjunction([Predicate("m", Comparator.EQ, "z")])
        # Building the code mask scans the whole domain -- including the
        # "x" the probe raises on -- so compilation fails; the reference
        # path only ever compares against recorded row values ("y"/"z"),
        # so it answers fine.
        uncompilable = Conjunction([Predicate("m", Comparator.EQ, Spiky())])
        assert compile_conjunction(uncompilable, SpaceCodec(space)) is None
        answers = engine.refutes_many([tricky, uncompilable, tricky])
        assert answers == [
            history.refutes(c) for c in (tricky, uncompilable, tricky)
        ]
        assert answers == [False, False, False]
        assert engine.fallbacks == 1

    def test_batch_toggle_reports_identical_end_to_end(self):
        space = ParameterSpace(
            [
                Parameter("a", (0, 1, 2, 3, 4), ParameterKind.ORDINAL),
                Parameter("b", ("x", "y", "z")),
                Parameter("c", (0, 1), ParameterKind.ORDINAL),
            ]
        )

        def oracle(instance):
            bad = (instance["a"] >= 3 and instance["b"] != "x") or (
                instance["c"] == 1 and instance["b"] == "z"
            )
            return Outcome.FAIL if bad else Outcome.SUCCEED

        fingerprints = []
        for batch in (True, False):
            session = DebugSession(oracle, space)
            fingerprints.append(
                _ddt_fingerprint(session, seed=5, batch_suspects=batch)
            )
        assert fingerprints[0] == fingerprints[1]
