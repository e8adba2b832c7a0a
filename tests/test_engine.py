"""Equivalence tests for the columnar evaluation engine.

The engine's contract (repro.core.engine) is *exact* agreement with the
dict-based reference implementations: same refutes/supports answers,
bit-identical trees, identical suspects, minimized disjunctions, and
DebugReports.  These tests drive random spaces, histories, oracles, and
seeds through both paths and require equality, not similarity.
"""

from __future__ import annotations

import random

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
    build_tree,
)
from repro.core.engine import (
    ColumnarEngine,
    ShardPlan,
    SpaceCodec,
    compile_conjunction,
)
from repro.core.tree import TreeNode


# ---------------------------------------------------------------------------
# Random-model strategies
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


def _random_conjunction(space: ParameterSpace, rng: random.Random) -> Conjunction:
    predicates = []
    for __ in range(rng.randint(1, 3)):
        name = rng.choice(space.names)
        parameter = space[name]
        comparators = (
            list(Comparator)
            if parameter.is_ordinal
            else [Comparator.EQ, Comparator.NEQ]
        )
        predicates.append(
            Predicate(name, rng.choice(comparators), rng.choice(parameter.domain))
        )
    return Conjunction(predicates)


def _random_history(
    space: ParameterSpace, rng: random.Random, size: int
) -> ExecutionHistory:
    history = ExecutionHistory()
    for __ in range(size):
        instance = space.random_instance(rng)
        if instance not in history:
            history.record(
                instance,
                Outcome.FAIL if rng.random() < 0.4 else Outcome.SUCCEED,
            )
    return history


def _trees_equal(a: TreeNode, b: TreeNode) -> bool:
    if (a.predicate, a.leaf_kind, a.n_fail, a.n_succeed, a.depth) != (
        b.predicate,
        b.leaf_kind,
        b.n_fail,
        b.n_succeed,
        b.depth,
    ):
        return False
    if a.is_leaf:
        return b.is_leaf
    return _trees_equal(a.true_branch, b.true_branch) and _trees_equal(
        a.false_branch, b.false_branch
    )


# ---------------------------------------------------------------------------
# History queries
# ---------------------------------------------------------------------------

class TestCompiledQueries:
    @settings(max_examples=60, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_refutes_supports_match_reference(self, space, seed):
        rng = random.Random(seed)
        history = _random_history(space, rng, size=rng.randint(0, 25))
        engine = ColumnarEngine(space, history)
        # A multi-shard store over a copy (a history interns one store).
        sharded = ColumnarEngine(
            space, history.copy(), plan=ShardPlan(shard_rows=4)
        )
        for __ in range(15):
            conjunction = _random_conjunction(space, rng)
            for columnar in (engine, sharded):
                assert columnar.refutes(conjunction) == history.refutes(
                    conjunction
                )
                assert columnar.supports(conjunction) == history.supports(
                    conjunction
                )
                assert columnar.is_hypothetical_root_cause(
                    conjunction
                ) == history.is_hypothetical_root_cause(conjunction)

    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_subsumes_matches_reference(self, space, seed):
        rng = random.Random(seed)
        engine = ColumnarEngine(space, ExecutionHistory())
        for __ in range(15):
            a = _random_conjunction(space, rng)
            b = _random_conjunction(space, rng)
            assert engine.subsumes(a, b) == a.subsumes(b, space)
            assert engine.subsumes(b, a) == b.subsumes(a, space)

    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_compiled_conjunction_matches_satisfied_by(self, space, seed):
        rng = random.Random(seed)
        codec = SpaceCodec(space)
        history = _random_history(space, rng, size=10)
        store = history.columnar_store(space)
        for __ in range(10):
            conjunction = _random_conjunction(space, rng)
            compiled = compile_conjunction(conjunction, codec)
            assert compiled is not None
            rows = store.rows_matching(compiled, store.all_mask)
            for row, instance in enumerate(history.instances):
                expected = conjunction.satisfied_by(instance)
                assert bool(rows & (1 << row)) == expected

    def test_queries_fall_back_on_irregular_history(self):
        space = ParameterSpace([Parameter("a", (0, 1)), Parameter("b", ("x", "y"))])
        history = ExecutionHistory()
        history.record(Instance({"a": 0, "b": "x"}), Outcome.SUCCEED)
        # A row with an out-of-domain value degrades the columnar store.
        history.record(Instance({"a": 99, "b": "y"}), Outcome.SUCCEED)
        history.record(Instance({"a": 1, "b": "y"}), Outcome.FAIL)
        engine = ColumnarEngine(space, history)
        assert history.columnar_store(space).degraded
        for conjunction in (
            Conjunction([Predicate("a", Comparator.EQ, 99)]),
            Conjunction([Predicate("b", Comparator.EQ, "y")]),
        ):
            assert engine.refutes(conjunction) == history.refutes(conjunction)
            assert engine.supports(conjunction) == history.supports(conjunction)
        assert engine.tree() is None  # caller falls back to reference trees

    def test_unknown_parameter_falls_back(self):
        import pytest

        space = ParameterSpace([Parameter("a", (0, 1))])
        history = ExecutionHistory()
        history.record(Instance({"a": 0}), Outcome.SUCCEED)
        engine = ColumnarEngine(space, history)
        stranger = Conjunction([Predicate("zzz", Comparator.EQ, 1)])
        assert compile_conjunction(stranger, SpaceCodec(space)) is None
        # The fallback reproduces the reference behavior exactly --
        # including the KeyError the dict path raises for a predicate
        # on a parameter the instances do not assign.
        with pytest.raises(KeyError):
            history.refutes(stranger)
        with pytest.raises(KeyError):
            engine.refutes(stranger)


# ---------------------------------------------------------------------------
# Incremental tree induction
# ---------------------------------------------------------------------------

class TestIncrementalTrees:
    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32), st.sampled_from([None, 1, 2, 4]))
    def test_incremental_tree_equals_full_rebuild(self, space, seed, max_depth):
        rng = random.Random(seed)
        history = ExecutionHistory()
        engine = ColumnarEngine(space, history)
        # The same stream into a multi-shard store: splits and repairs
        # over composed columns must give the same tree.
        sharded_history = ExecutionHistory()
        sharded = ColumnarEngine(
            space, sharded_history, plan=ShardPlan(shard_rows=4)
        )
        seen = set()
        for step in range(rng.randint(5, 30)):
            instance = space.random_instance(rng)
            if instance in seen:
                continue
            seen.add(instance)
            outcome = Outcome.FAIL if rng.random() < 0.4 else Outcome.SUCCEED
            history.record(instance, outcome)
            sharded_history.record(instance, outcome)
            # Rebuild the reference tree from scratch; the engine only
            # repairs the paths the new row touches.
            samples = [
                (i, history.outcome_of(i)) for i in history.instances
            ]
            reference = build_tree(space, samples, max_depth=max_depth)
            columnar = engine.tree(max_depth=max_depth)
            assert columnar is not None
            assert _trees_equal(reference, columnar.root), f"diverged at step {step}"
            assert columnar.root.size == reference.size
            assert _trees_equal(reference, sharded.tree(max_depth=max_depth).root)

    def test_fail_paths_identical(self):
        space = ParameterSpace(
            [
                Parameter("a", (0, 1, 2, 3), ParameterKind.ORDINAL),
                Parameter("b", ("x", "y")),
            ]
        )
        rng = random.Random(5)
        history = ExecutionHistory()
        for __ in range(40):
            instance = space.random_instance(rng)
            if instance not in history:
                outcome = (
                    Outcome.FAIL
                    if (instance["a"] >= 2 and instance["b"] == "y")
                    else Outcome.SUCCEED
                )
                history.record(instance, outcome)
        engine = ColumnarEngine(space, history)
        from repro.core import DebuggingTree

        samples = [(i, history.outcome_of(i)) for i in history.instances]
        reference = DebuggingTree(space, samples)
        columnar = engine.tree()
        assert [str(c) for c in columnar.fail_paths()] == [
            str(c) for c in reference.fail_paths()
        ]


# ---------------------------------------------------------------------------
# End-to-end: identical reports from both engines
# ---------------------------------------------------------------------------

def _report_fingerprint(space, oracle, seed, budget, goal):
    results = []
    for engine in ("columnar", "reference"):
        history = ExecutionHistory()
        rng = random.Random(seed)
        for __ in range(6):
            instance = space.random_instance(rng)
            if instance not in history:
                history.record(instance, oracle(instance))
        session = DebugSession(oracle, space, history=history, budget=None)
        if budget is not None:
            from repro.core import InstanceBudget

            session = DebugSession(
                oracle, space, history=history, budget=InstanceBudget(budget)
            )
        bugdoc = BugDoc(session=session, seed=seed, engine=engine)
        if goal == "find_all":
            report = bugdoc.find_all(Algorithm.DECISION_TREES)
        else:
            report = bugdoc.find_one(Algorithm.DECISION_TREES)
        results.append(
            (
                [str(c) for c in report.causes],
                str(report.explanation),
                report.instances_executed,
                report.budget_exhausted,
                report.ddt_result.rounds,
                report.ddt_result.tree_sizes,
                session.budget.spent,
                len(session.history),
            )
        )
    return results


class TestEndToEndEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(
        _spaces,
        st.integers(0, 2**32),
        st.sampled_from([None, 10, 40]),
        st.sampled_from(["find_all", "find_one"]),
    )
    def test_ddt_reports_identical_across_engines(
        self, space, seed, budget, goal
    ):
        rng = random.Random(seed)
        law = {
            instance: rng.random() < 0.3 for instance in space.instances()
        }

        def oracle(instance):
            return Outcome.FAIL if law[instance] else Outcome.SUCCEED

        columnar, reference = _report_fingerprint(
            space, oracle, seed, budget, goal
        )
        assert columnar == reference

    def test_explicit_config_engines_identical(self, mixed_space):
        def oracle(instance):
            bad = instance["a"] >= 3 and instance["b"] != "x"
            return Outcome.FAIL if bad else Outcome.SUCCEED

        fingerprints = []
        for engine in ("columnar", "reference"):
            session = DebugSession(oracle, mixed_space)
            bugdoc = BugDoc(session=session, seed=11)
            report = bugdoc.find_all(
                Algorithm.DECISION_TREES,
                ddt_config=DDTConfig(find_all=True, engine=engine),
            )
            fingerprints.append(
                ([str(c) for c in report.causes], report.instances_executed)
            )
        assert fingerprints[0] == fingerprints[1]

    def test_rejects_unknown_engine(self):
        import pytest

        with pytest.raises(ValueError, match="unknown engine"):
            DDTConfig(engine="warp")
        with pytest.raises(ValueError, match="unknown engine"):
            BugDoc(executor=lambda i: Outcome.SUCCEED,
                   space=ParameterSpace([Parameter("a", (0, 1))]),
                   engine="warp")


# ---------------------------------------------------------------------------
# Satellite invariants: history incrementals and instance keying
# ---------------------------------------------------------------------------

class TestIncrementalHistoryDerivations:
    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_value_universe_matches_recompute(self, space, seed):
        rng = random.Random(seed)
        history = ExecutionHistory()
        for __ in range(rng.randint(1, 20)):
            instance = space.random_instance(rng)
            if instance not in history:
                history.record(
                    instance,
                    Outcome.FAIL if rng.random() < 0.5 else Outcome.SUCCEED,
                )
            expected: dict = {}
            for recorded in history.instances:
                for name, value in recorded.items():
                    expected.setdefault(name, set()).add(value)
            assert history.value_universe() == expected

    def test_universe_copies_are_isolated(self):
        history = ExecutionHistory()
        history.record(Instance({"a": 1}), Outcome.FAIL)
        universe = history.value_universe()
        universe["a"].add(999)
        assert history.value_universe() == {"a": {1}}

    def test_observed_space_cached_until_append(self):
        history = ExecutionHistory()
        history.record(Instance({"a": 1, "b": "x"}), Outcome.FAIL)
        first = history.observed_space()
        assert history.observed_space() is first  # cache hit
        history.record(Instance({"a": 2, "b": "x"}), Outcome.SUCCEED)
        rebuilt = history.observed_space()
        assert rebuilt is not first
        assert set(rebuilt.domain("a")) == {1, 2}
        # Re-recording an already-known instance keeps the cache.
        history.record(Instance({"a": 2, "b": "x"}), Outcome.SUCCEED)
        assert history.observed_space() is rebuilt


class TestInstanceKeying:
    def test_hash_is_order_insensitive_and_cached(self):
        a = Instance({"x": 1, "y": 2})
        b = Instance({"y": 2, "x": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a.canonical_items == (("x", 1), ("y", 2))
        assert a.canonical_items is a.canonical_items  # computed once

    def test_provenance_key_computed_once_and_stable(self):
        from repro.provenance.store import instance_key

        a = Instance({"b": 2, "a": 1})
        key = instance_key(a)
        assert key == instance_key(Instance({"a": 1, "b": 2}))
        assert instance_key(a) is key  # memoized on the instance
