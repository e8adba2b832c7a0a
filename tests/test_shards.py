"""Differential tests for the sharded columnar store.

The sharding refactor's contract is three-way equality: for every
engine entry point, a multi-shard store (tiny ``shard_rows`` forcing
many boundary crossings) must answer exactly like a single-shard store
over the same rows, which in turn must answer exactly like the
dict-based reference implementations.  These tests drive random
spaces/histories through all three paths -- including appends that
straddle shard boundaries mid-query and degraded histories -- and
require equality, not similarity.  The bit helpers are property-tested
against naive loops, and the LRU match-table cap is checked to evict
without ever changing an answer.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    Comparator,
    Conjunction,
    ExecutionHistory,
    Outcome,
    Parameter,
    ParameterKind,
    ParameterSpace,
    Predicate,
)
from repro.core.engine import (
    ColumnarEngine,
    ColumnarStore,
    ShardPlan,
    compile_conjunction,
)
from repro.core.shards import (
    AUTO_SHARDS,
    MIN_AUTO_SHARD_ROWS,
    accumulate_codes,
    iter_bits,
    lowest_bit,
)


# ---------------------------------------------------------------------------
# Random-model strategies (the engine suite's, kept local on purpose so
# this file documents the sharded contract on its own)
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

# Tiny shards: every history beyond a few rows crosses shard
# boundaries, so every query exercises the shard-ordered scan.
_SHARDED = ShardPlan(shard_rows=4)
_UNSHARDED = ShardPlan(shard_rows=1 << 62)


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


def _record(histories, space, rng, outcomes):
    """Record one random instance into every history, deterministically.

    ``outcomes`` keeps a repeated instance on its first outcome (the
    deterministic-evaluation assumption histories enforce)."""
    instance = space.random_instance(rng)
    key = tuple(sorted(instance.items()))
    outcome = outcomes.setdefault(
        key, Outcome.FAIL if rng.random() < 0.4 else Outcome.SUCCEED
    )
    for history in histories:
        history.record(instance, outcome)
    return instance


def _twin_histories(space, rng, size):
    """Identical evaluation streams recorded into two histories.

    Separate history objects let the sharded and unsharded engines each
    keep their own incremental store (a history interns one store)."""
    sharded_history = ExecutionHistory()
    unsharded_history = ExecutionHistory()
    outcomes: dict = {}
    for __ in range(size):
        _record((sharded_history, unsharded_history), space, rng, outcomes)
    return sharded_history, unsharded_history


def _trees_equal(a, b) -> bool:
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
# Bit helpers
# ---------------------------------------------------------------------------

class TestBitKernel:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=(1 << 200) - 1))
    def test_lowest_bit_and_iter_bits(self, mask):
        bits = list(iter_bits(mask))
        assert bits == sorted(bits)
        assert bits[0] == lowest_bit(mask)
        assert sum(1 << bit for bit in bits) == mask

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, (1 << 64) - 1), min_size=1, max_size=8),
        st.integers(min_value=0),
    )
    def test_accumulate_codes_matches_naive_or(self, column, allowed_seed):
        allowed = allowed_seed % (1 << len(column))
        expected = 0
        for code in range(len(column)):
            if (allowed >> code) & 1:
                expected |= column[code]
        assert accumulate_codes(column, allowed) == expected


# ---------------------------------------------------------------------------
# Shard plan
# ---------------------------------------------------------------------------

class TestShardPlan:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShardPlan(shard_rows=0)

    def test_auto_keeps_small_histories_single_shard(self):
        plan = ShardPlan.auto(row_hint=500)
        assert plan.shard_rows >= MIN_AUTO_SHARD_ROWS

    def test_auto_scales_shard_rows_with_history(self):
        plan = ShardPlan.auto(row_hint=1 << 21)
        assert plan.shard_rows == (1 << 21) // AUTO_SHARDS


# ---------------------------------------------------------------------------
# Store-level equivalence
# ---------------------------------------------------------------------------

class TestShardedStore:
    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_composed_views_match_unsharded(self, space, seed):
        rng = random.Random(seed)
        sharded_history, unsharded_history = _twin_histories(
            space, rng, size=rng.randint(0, 30)
        )
        sharded = sharded_history.columnar_store(space, plan=_SHARDED)
        unsharded = unsharded_history.columnar_store(space, plan=_UNSHARDED)
        assert len(unsharded.shards) == 1
        assert sharded.n_rows == unsharded.n_rows
        assert sharded.fail_mask == unsharded.fail_mask
        assert sharded.all_mask == unsharded.all_mask
        assert sharded.succeed_mask == unsharded.succeed_mask
        assert sharded.value_rows == unsharded.value_rows
        assert sharded.row_codes == unsharded.row_codes
        # Shard row ranges tile [0, n_rows) exactly.
        position = 0
        for shard in sharded.shards:
            assert shard.start == position
            position += shard.n_rows
        assert position == sharded.n_rows

    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_match_and_row_queries_match_unsharded(self, space, seed):
        rng = random.Random(seed)
        sharded_history, unsharded_history = _twin_histories(
            space, rng, size=rng.randint(1, 30)
        )
        sharded = sharded_history.columnar_store(space, plan=_SHARDED)
        unsharded = unsharded_history.columnar_store(space, plan=_UNSHARDED)
        codec = sharded.codec
        for __ in range(10):
            index = rng.randrange(codec.n_params)
            allowed = rng.randrange(1 << codec.domain_sizes[index])
            assert sharded.match_rows(index, allowed) == unsharded.match_rows(
                index, allowed
            )
        conjunctions = [_random_conjunction(space, rng) for __ in range(8)]
        compiled = [compile_conjunction(c, codec) for c in conjunctions]
        within = sharded.all_mask
        for entry in compiled:
            if entry is None:
                continue
            assert sharded.rows_matching(entry, within) == unsharded.rows_matching(
                entry, within
            )
            assert sharded.any_match(entry, within_fail=False) == bool(
                unsharded.rows_matching(entry, unsharded.succeed_mask)
            )
            assert sharded.any_match(entry, within_fail=True) == bool(
                unsharded.rows_matching(entry, unsharded.fail_mask)
            )

    def test_boundary_straddling_appends_extend_tail_only(self):
        space = _space_from_blueprint([(True, 4), (False, 3)])
        rng = random.Random(7)
        history = ExecutionHistory()
        store = history.columnar_store(space, plan=ShardPlan(shard_rows=4))
        index, allowed = 0, 0b0101
        seen: set[tuple] = set()
        while store.n_rows < 11:  # crosses two shard boundaries
            instance = space.random_instance(rng)
            key = tuple(sorted(instance.items()))
            if key in seen:
                continue
            seen.add(key)
            history.record(
                instance, Outcome.FAIL if rng.random() < 0.5 else Outcome.SUCCEED
            )
            store = history.columnar_store(space, plan=ShardPlan(shard_rows=4))
            expected = 0
            for row, codes in enumerate(store.row_codes):
                if (allowed >> codes[index]) & 1:
                    expected |= 1 << row
            assert store.match_rows(index, allowed) == expected
        assert len(store.shards) == 3
        assert all(shard.sealed for shard in store.shards[:-1])
        assert not store.shards[-1].sealed
        # Sealed shards' match tables were extended only while they were
        # the tail; their entries stay at their final row counts.
        for shard in store.shards[:-1]:
            for __, built in shard._match.values():
                assert built <= shard.n_rows

    def test_lru_cap_evicts_without_changing_answers(self):
        space = _space_from_blueprint([(True, 5), (False, 4)])
        rng = random.Random(11)
        history = ExecutionHistory()
        outcomes: dict = {}
        for __ in range(20):
            _record((history,), space, rng, outcomes)
        store = ColumnarStore(
            history, space, plan=ShardPlan(shard_rows=6), match_table_limit=2
        )
        store.sync()
        reference = ColumnarStore(history, space, plan=_UNSHARDED)
        reference.sync()
        queries = [(i, a) for i in range(2) for a in range(1, 1 << 4)]
        rng.shuffle(queries)
        for index, allowed in queries * 2:
            allowed %= 1 << store.codec.domain_sizes[index]
            if not allowed:
                continue
            assert store.match_rows(index, allowed) == reference.match_rows(
                index, allowed
            )
        assert store.match_evictions > 0
        stats = store.stats()
        assert stats["match_evictions"] == store.match_evictions
        assert stats["match_entries"] > 0
        assert stats["match_bytes"] > 0

    def test_stats_shape(self):
        space = _space_from_blueprint([(True, 3), (False, 3)])
        history = ExecutionHistory()
        store = history.columnar_store(space, plan=_SHARDED)
        stats = store.stats()
        for key in (
            "n_rows",
            "shards",
            "shard_rows",
            "match_hits",
            "match_misses",
            "match_extensions",
            "match_evictions",
            "match_entries",
            "match_bytes",
        ):
            assert key in stats


# ---------------------------------------------------------------------------
# Engine-level three-way equivalence
# ---------------------------------------------------------------------------

class TestShardedEngine:
    def _engines(self, space, rng, size):
        sharded_history, unsharded_history = _twin_histories(space, rng, size)
        sharded = ColumnarEngine(space, sharded_history, plan=_SHARDED)
        unsharded = ColumnarEngine(space, unsharded_history, plan=_UNSHARDED)
        return sharded, unsharded, sharded_history

    @settings(max_examples=40, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_screening_matches_unsharded_and_reference(self, space, seed):
        rng = random.Random(seed)
        sharded, unsharded, history = self._engines(
            space, rng, size=rng.randint(0, 30)
        )
        conjunctions = [_random_conjunction(space, rng) for __ in range(10)]
        assert (
            sharded.refutes_many(conjunctions)
            == unsharded.refutes_many(conjunctions)
            == [history.refutes(c) for c in conjunctions]
        )
        assert (
            sharded.supports_many(conjunctions)
            == unsharded.supports_many(conjunctions)
            == [history.supports(c) for c in conjunctions]
        )
        for conjunction in conjunctions:
            assert sharded.refutes(conjunction) == history.refutes(conjunction)
            assert sharded.supports(conjunction) == history.supports(conjunction)
        assert sharded.fallbacks == 0
        assert unsharded.fallbacks == 0

    @settings(max_examples=30, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_screening_with_interleaved_appends(self, space, seed):
        """Appends that straddle shard boundaries mid-query stream."""
        rng = random.Random(seed)
        sharded_history = ExecutionHistory()
        unsharded_history = ExecutionHistory()
        sharded = ColumnarEngine(space, sharded_history, plan=_SHARDED)
        unsharded = ColumnarEngine(space, unsharded_history, plan=_UNSHARDED)
        outcomes: dict = {}
        for __ in range(6):
            for ___ in range(rng.randint(1, 6)):  # often crosses a boundary
                _record(
                    (sharded_history, unsharded_history), space, rng, outcomes
                )
            conjunctions = [_random_conjunction(space, rng) for ____ in range(5)]
            assert (
                sharded.refutes_many(conjunctions)
                == unsharded.refutes_many(conjunctions)
                == [sharded_history.refutes(c) for c in conjunctions]
            )
            assert (
                sharded.supports_many(conjunctions)
                == unsharded.supports_many(conjunctions)
                == [sharded_history.supports(c) for c in conjunctions]
            )
        assert sharded.fallbacks == 0

    @settings(max_examples=30, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_scans_and_supersets_match_reference(self, space, seed):
        rng = random.Random(seed)
        sharded, unsharded, history = self._engines(
            space, rng, size=rng.randint(1, 30)
        )
        for __ in range(8):
            failing = space.random_instance(rng)
            assert (
                sharded.disjoint_successes(failing)
                == unsharded.disjoint_successes(failing)
                == history.disjoint_successes(failing)
            )
            assert (
                sharded.most_different_success(failing)
                == unsharded.most_different_success(failing)
                == history.most_different_success(failing)
            )
            limit = rng.choice([None, 1, 2])
            assert (
                sharded.mutually_disjoint_successes(failing, limit)
                == unsharded.mutually_disjoint_successes(failing, limit)
                == history.mutually_disjoint_successes(failing, limit)
            )
            names = rng.sample(space.names, rng.randint(1, len(space.names)))
            assignment = {name: rng.choice(space[name].domain) for name in names}
            assert (
                sharded.success_superset_of(assignment)
                == unsharded.success_superset_of(assignment)
                == history.success_superset_of(assignment)
            )

    @settings(max_examples=25, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_subsumption_and_value_lists_match(self, space, seed):
        rng = random.Random(seed)
        sharded, unsharded, __ = self._engines(space, rng, size=rng.randint(0, 20))
        generals = [_random_conjunction(space, rng) for ___ in range(5)]
        specifics = [_random_conjunction(space, rng) for ___ in range(5)]
        expected = [
            [g.subsumes(s, space) for s in specifics] for g in generals
        ]
        assert sharded.subsumes_matrix(generals, specifics) == expected
        assert unsharded.subsumes_matrix(generals, specifics) == expected
        assert sharded.subsumed_by_any(generals, specifics) == [
            any(row[j] for row in expected) for j in range(len(specifics))
        ]
        for conjunction in generals:
            assert sharded.satisfying_value_lists(
                conjunction
            ) == unsharded.satisfying_value_lists(conjunction)

    @settings(max_examples=25, deadline=None)
    @given(_spaces, st.integers(0, 2**32))
    def test_trees_match_unsharded(self, space, seed):
        rng = random.Random(seed)
        sharded, unsharded, __ = self._engines(space, rng, size=rng.randint(0, 30))
        for max_depth in (None, 2):
            a = sharded.tree(max_depth)
            b = unsharded.tree(max_depth)
            assert (a is None) == (b is None)
            if a is not None:
                assert _trees_equal(a.root, b.root)

    def test_degraded_history_falls_back_identically(self):
        space = _space_from_blueprint([(True, 3), (False, 3)])
        rng = random.Random(3)
        history = ExecutionHistory()
        outcomes: dict = {}
        for __ in range(6):
            _record((history,), space, rng, outcomes)
        # A row the codec cannot encode (extra parameter) degrades the
        # store; every query must still answer via the reference path.
        from repro.core import Instance

        history.record(
            Instance({**space.random_instance(rng), "rogue": 1}), Outcome.FAIL
        )
        engine = ColumnarEngine(space, history, plan=_SHARDED)
        conjunctions = [_random_conjunction(space, rng) for __ in range(6)]
        assert engine.refutes_many(conjunctions) == [
            history.refutes(c) for c in conjunctions
        ]
        assert engine.supports_many(conjunctions) == [
            history.supports(c) for c in conjunctions
        ]
        assert engine.fallbacks >= len(conjunctions)
        assert engine.tree() is None

    def test_stats_expose_shard_and_kernel_counters(self):
        space = _space_from_blueprint([(True, 4), (False, 3)])
        rng = random.Random(5)
        history = ExecutionHistory()
        outcomes: dict = {}
        for __ in range(20):
            _record((history,), space, rng, outcomes)
        engine = ColumnarEngine(space, history, plan=_SHARDED)
        conjunctions = [_random_conjunction(space, rng) for __ in range(8)]
        engine.refutes_many(conjunctions)
        stats = engine.stats()
        assert stats["shards"] >= 2
        for key in ("match_evictions", "match_entries", "match_bytes"):
            assert key in stats
        assert stats["fallbacks"] == 0


class TestShardedEndToEnd:
    def test_bugdoc_reports_identical_across_plans(self):
        """Full-pipeline differential: sharded vs default-plan reports."""
        from repro.core import Algorithm, BugDoc

        space = _space_from_blueprint([(True, 4), (True, 3), (False, 3)])

        def oracle(instance):
            return (
                Outcome.FAIL
                if instance["p0"] >= 2.0 and instance["p2"] == "v1"
                else Outcome.SUCCEED
            )

        reports = []
        for plan in (None, ShardPlan(shard_rows=4)):
            bugdoc = BugDoc(oracle, space, budget=120, seed=13, shard_plan=plan)
            reports.append(bugdoc.find_all(Algorithm.DECISION_TREES))
        assert reports[0].causes == reports[1].causes
        assert reports[0].explanation == reports[1].explanation
        assert reports[0].instances_executed == reports[1].instances_executed
        assert reports[0].asserted
