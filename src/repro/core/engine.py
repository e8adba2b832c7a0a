"""Columnar evaluation engine: the bitset fast path of the debugger.

The reference implementations in :mod:`repro.core.history` and
:mod:`repro.core.tree` evaluate hypotheses by walking Python dicts: a
``refutes`` call applies every predicate to every successful instance,
and every Debugging-Decision-Trees round re-partitions instance dicts at
every tree node.  On large parameter sweeps the debugger's own CPU time
then dominates (the paper's Figure 5 regime), exactly the situation
SMBO-style tools handle by compiling the search's inner loop to array
operations.

This module provides that compiled path:

* :class:`SpaceCodec` interns every domain value of a
  :class:`~repro.core.types.ParameterSpace` to a small integer code
  (its domain position, so ordinal code order equals value order).
* :class:`ColumnarStore` maintains, per parameter and per value code,
  a bitset of history rows holding that code, plus fail/succeed row
  bitsets.  It appends incrementally as the history grows.
* Conjunctions compile to per-parameter *allowed-code masks*; testing
  one against the whole history is a handful of big-int ANDs
  (:meth:`ColumnarEngine.refutes` / :meth:`ColumnarEngine.supports`).
* Whole *batches* of conjunctions evaluate against shared state
  (:meth:`ColumnarEngine.refutes_many` / :meth:`~ColumnarEngine.supports_many`
  / :meth:`~ColumnarEngine.subsumes_matrix`): conjunctions sharing
  literals share one per-``(parameter, allowed-mask)`` *match table*
  (:meth:`ColumnarStore.match_rows`), memoized on the store and
  extended in place whenever the history grows.
* :class:`IncrementalTreeBuilder` induces the debugging decision tree
  over index bitsets, and *repairs* the previous round's tree on append
  instead of rebuilding it: only nodes whose row set changed are
  re-scored, and a subtree is rebuilt only when its best split changed.
* The store is **row-range sharded** (:mod:`repro.core.shards`): rows
  live in per-shard per-(parameter, code) bitsets with per-shard fail
  masks and per-shard LRU match tables.  Appends touch only the tail
  shard; sealed shards -- and everything cached against them -- are
  immutable.  Existence queries (``refutes``/``supports`` and their
  batches) walk shards in row order and stop at the first witness, so
  a refutation found in the first shard never scans the rest of a
  multi-million-row history; global bitset views (for the tree builder
  and the legacy uncached paths) are composed lazily from shard-local
  masks and memoized.  Every query runs serially on the calling thread.

Correctness contract: every public operation returns **exactly** what
the dict-based reference path returns.  The encoders therefore refuse
anything they cannot mirror faithfully -- a history row whose parameter
set differs from the space, an out-of-domain value, a predicate whose
comparator raises -- and the engine transparently falls back to the
reference implementation for that query (or entirely, when the store is
degraded).  The equivalence is property-tested in
``tests/test_engine.py``.

The incremental-tree invariant: after ``sync``, the shadow tree equals
the tree a full rebuild over the current rows would produce.  This
holds because tree induction is a pure function of a node's row bitset
(and depth): repaired nodes re-run the full candidate scan, children
that received no new rows keep bit-identical row sets, and a node whose
best split changed is rebuilt from scratch.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Mapping, Sequence

from .predicates import Comparator, Conjunction, Predicate
from .shards import (
    DEFAULT_MATCH_TABLE_LIMIT,
    Shard,
    ShardPlan,
    iter_bits,
    lowest_bit,
)
from .tree import DebuggingTree, LeafKind, TreeNode, _gini, _predicate_rank
from .types import Instance, Outcome, ParameterSpace

__all__ = [
    "SpaceCodec",
    "ColumnarStore",
    "ColumnarEngine",
    "IncrementalTreeBuilder",
    "ShardPlan",
    "compile_conjunction",
]


class SpaceCodec:
    """Value-interning tables for one parameter space.

    Codes are domain positions: ``codec`` work is a handful of dict
    lookups per instance, done once, after which every engine operation
    is integer arithmetic.
    """

    __slots__ = (
        "space",
        "names",
        "parameters",
        "n_params",
        "index_of_name",
        "domain_sizes",
        "full_masks",
        "repr_orders",
        "unique_reprs",
    )

    def __init__(self, space: ParameterSpace):
        self.space = space
        self.names = space.names
        self.parameters = space.parameters
        self.n_params = len(self.names)
        self.index_of_name = {name: i for i, name in enumerate(self.names)}
        self.domain_sizes = tuple(len(p.domain) for p in self.parameters)
        self.full_masks = tuple((1 << size) - 1 for size in self.domain_sizes)
        # Candidate order for categorical splits: codes sorted by value
        # repr, mirroring ``sorted(observed, key=repr)`` in the
        # reference ``_candidate_splits``.
        self.repr_orders = tuple(
            tuple(sorted(range(len(p.domain)), key=lambda c, p=p: repr(p.domain[c])))
            for p in self.parameters
        )
        # Whether the domain's value reprs are pairwise distinct: only
        # then is ``sorted(values, key=repr)`` a total order, letting
        # mask->value decoding reproduce the reference's repr-sorted
        # value lists exactly (ties in the reference depend on set
        # iteration order, which codes cannot mirror).
        self.unique_reprs = tuple(
            len({repr(v) for v in p.domain}) == len(p.domain)
            for p in self.parameters
        )

    def encode(self, instance: Mapping[str, object]) -> tuple[int, ...] | None:
        """Instance -> per-parameter value codes, or None when the
        instance is not exactly one in-domain value per space parameter.
        """
        codes = self.encode_lenient(instance)
        if codes is None or None in codes:
            return None
        return codes  # type: ignore[return-value]

    def encode_lenient(
        self, instance: Mapping[str, object]
    ) -> tuple[int | None, ...] | None:
        """Like :meth:`encode`, but tolerant of out-of-domain values.

        Out-of-domain values encode to None *per parameter* -- for
        distance/disjointness purposes such a value simply differs from
        every in-domain row value, which keeps Hamming and disjointness
        queries exact without falling back.  Returns None (uncodable)
        only when the instance's parameter-name set is not exactly the
        space's, because then the reference semantics (shared-parameter
        counting, Definition 6's common-parameter-set requirement)
        cannot be mirrored column-wise.
        """
        if len(instance) != self.n_params:
            return None
        codes: list[int | None] = []
        for parameter in self.parameters:
            try:
                value = instance[parameter.name]
            except KeyError:
                return None
            codes.append(parameter.code_of(value))
        return tuple(codes)


# Sentinel for "this predicate cannot be compiled" in shared memos (a
# plain None entry would be indistinguishable from a cache miss).
_UNCOMPILABLE = object()


def compile_conjunction(
    conjunction: Conjunction,
    codec: SpaceCodec,
    predicate_masks: dict[Predicate, object] | None = None,
) -> list[tuple[int, int]] | None:
    """Compile to ``[(parameter_index, allowed_code_mask), ...]``.

    Mirrors :meth:`Conjunction.satisfied_by` exactly over in-domain
    rows: a row satisfies the conjunction iff, for every entry, the
    row's code bit is inside the allowed mask.  Entries whose mask is
    the full domain are kept out (no constraint).  Returns None when
    the conjunction cannot be compiled faithfully (a predicate on a
    parameter outside the space, or a comparator that raises on some
    domain value); callers must fall back to the reference path.

    ``predicate_masks`` is an optional per-predicate memo shared across
    calls (the batch layer's literal table): conjunctions sharing a
    literal then share one :meth:`Predicate.satisfying_code_mask`
    evaluation instead of re-scanning the domain per conjunction.
    """
    masks: dict[int, int] = {}
    for predicate in conjunction.predicates:
        entry = None if predicate_masks is None else predicate_masks.get(predicate)
        if entry is None:
            index = codec.index_of_name.get(predicate.parameter)
            if index is None:
                entry = _UNCOMPILABLE
            else:
                try:
                    entry = (index, predicate.satisfying_code_mask(codec.parameters[index]))
                except Exception:
                    entry = _UNCOMPILABLE
            if predicate_masks is not None:
                predicate_masks[predicate] = entry
        if entry is _UNCOMPILABLE:
            return None
        index, mask = entry  # type: ignore[misc]
        previous = masks.get(index)
        masks[index] = mask if previous is None else previous & mask
    return sorted(
        (index, mask)
        for index, mask in masks.items()
        if mask != codec.full_masks[index]
    )


class ColumnarStore:
    """Integer-coded columns + outcome bitsets over one history.

    Row ``i`` is the ``i``-th *distinct* instance of the history (the
    exact sample set the DDT induction consumes).  Rows live in
    row-range :class:`~repro.core.shards.Shard` objects sized by the
    store's :class:`~repro.core.shards.ShardPlan`: ``shards[k]`` holds
    local per-(parameter, code) bitsets and a local fail mask for its
    row range, and only the tail shard grows.  :meth:`sync` appends
    rows for history entries recorded since the last call -- nothing is
    ever recomputed from scratch, and sealing a full tail shard folds
    its columns into the sealed-prefix caches exactly once.

    Global views (``value_rows``, ``fail_mask``, ``all_mask``,
    ``succeed_mask``, :meth:`match_rows`) are *composed lazily* from
    the shard-local masks and memoized against the row count, so
    single-shard stores -- every store below
    :data:`~repro.core.shards.MIN_AUTO_SHARD_ROWS` rows under the auto
    plan -- behave (and count match-table traffic) exactly like the
    pre-shard store.

    A row the codec cannot encode marks the store *degraded*: every
    engine operation then falls back to the reference path (answers
    from a partial column store would silently diverge).
    """

    def __init__(
        self,
        history,
        space: ParameterSpace,
        plan: ShardPlan | None = None,
        match_table_limit: int = DEFAULT_MATCH_TABLE_LIMIT,
    ):
        self.history = history
        self.space = space
        self.codec = SpaceCodec(space)
        if plan is None:
            plan = ShardPlan.auto(getattr(history, "distinct_count", 0) or 0)
        self.plan = plan
        self.match_table_limit = match_table_limit
        self.shards: list[Shard] = [Shard(0, self.codec.domain_sizes)]
        self.n_rows = 0
        self.rows: list[Instance] = []
        self.row_codes: list[tuple[int, ...]] = []
        self.degraded = False
        self._synced = 0
        self._builders: dict[int | None, IncrementalTreeBuilder] = {}
        # Sealed-prefix composed caches: global-position bitsets folded
        # from every *sealed* shard, extended once per seal.  The tail
        # shard's contribution is shifted in on demand and memoized
        # against the row count (appends only ever touch the tail).
        self._sealed_columns: dict[tuple[int, int], int] = {}
        self._sealed_fail = 0
        self._columns: dict[tuple[int, int], list[int]] = {}
        self._fail_cache = 0
        self._fail_rows = 0
        self._all_cache = 0
        self._all_rows = 0
        self._succeed_cache = 0
        self._succeed_rows = 0
        # Composed match tables for multi-shard stores: global bitsets
        # assembled from the per-shard tables, LRU-capped like them.
        self._composed_match: OrderedDict[tuple[int, int], list[int]] = (
            OrderedDict()
        )
        self._composed_evictions = 0

    # -- Composed global views ------------------------------------------------
    @property
    def fail_mask(self) -> int:
        if self._fail_rows != self.n_rows or not self.n_rows:
            tail = self.shards[-1]
            self._fail_cache = self._sealed_fail | (tail.fail_mask << tail.start)
            self._fail_rows = self.n_rows
        return self._fail_cache

    @property
    def all_mask(self) -> int:
        if self._all_rows != self.n_rows or not self.n_rows:
            self._all_cache = (1 << self.n_rows) - 1
            self._all_rows = self.n_rows
        return self._all_cache

    @property
    def succeed_mask(self) -> int:
        if self._succeed_rows != self.n_rows or not self.n_rows:
            self._succeed_cache = self.all_mask & ~self.fail_mask
            self._succeed_rows = self.n_rows
        return self._succeed_cache

    def column(self, index: int, code: int) -> int:
        """Global bitset of rows whose parameter ``index`` holds ``code``.

        Composed as ``sealed_prefix | (tail_local << tail.start)`` and
        memoized against the row count; sealed shards never change, so
        the prefix part is exact until the next seal folds a new shard
        into it.
        """
        key = (index, code)
        entry = self._columns.get(key)
        if entry is not None and entry[1] == self.n_rows:
            return entry[0]
        tail = self.shards[-1]
        mask = self._sealed_columns.get(key, 0) | (
            tail.value_rows[index][code] << tail.start
        )
        if entry is None:
            self._columns[key] = [mask, self.n_rows]
        else:
            entry[0] = mask
            entry[1] = self.n_rows
        return mask

    @property
    def value_rows(self) -> list[list[int]]:
        """Composed per-parameter per-code global bitsets.

        Compatibility view of the pre-shard layout (tests and external
        consumers compare stores through it); internal paths read
        shard-local masks or :meth:`column` instead.
        """
        return [
            [self.column(index, code) for code in range(size)]
            for index, size in enumerate(self.codec.domain_sizes)
        ]

    # -- Match-table counters (summed over shards) ---------------------------
    @property
    def match_hits(self) -> int:
        return sum(shard.hits for shard in self.shards)

    @property
    def match_misses(self) -> int:
        return sum(shard.misses for shard in self.shards)

    @property
    def match_extensions(self) -> int:
        return sum(shard.extensions for shard in self.shards)

    @property
    def match_evictions(self) -> int:
        return (
            sum(shard.evictions for shard in self.shards)
            + self._composed_evictions
        )

    # -- Appends --------------------------------------------------------------
    def _seal_tail(self) -> None:
        """Seal the full tail shard and open a fresh one after it.

        Folds the sealed shard's columns and fail mask into the
        sealed-prefix caches (one shift+OR per non-empty column, paid
        once per shard lifetime); per-shard match tables and counters
        survive untouched, which is what lets compiled masks, match
        tables, and tree-repair state outlive shard splits.
        """
        tail = self.shards[-1]
        tail.sealed = True
        start = tail.start
        sealed_columns = self._sealed_columns
        for index, column in enumerate(tail.value_rows):
            for code, mask in enumerate(column):
                if mask:
                    key = (index, code)
                    sealed_columns[key] = sealed_columns.get(key, 0) | (
                        mask << start
                    )
        self._sealed_fail |= tail.fail_mask << start
        self.shards.append(Shard(self.n_rows, self.codec.domain_sizes))

    def _append_row(
        self, instance: Instance, codes: tuple[int, ...], is_fail: bool
    ) -> None:
        tail = self.shards[-1]
        if tail.n_rows >= self.plan.shard_rows:
            self._seal_tail()
            tail = self.shards[-1]
        tail.append(codes, is_fail)
        self.rows.append(instance)
        self.row_codes.append(codes)
        self.n_rows += 1

    def sync(self) -> None:
        """Append rows for history entries recorded since the last sync."""
        if self.degraded:
            return
        count = self.history.distinct_count
        if count == self._synced:
            return
        encode = self.codec.encode
        for instance, outcome in self.history.distinct_since(self._synced):
            codes = encode(instance)
            if codes is None:
                self.degraded = True
                break
            self._append_row(instance, codes, outcome is Outcome.FAIL)
        self._synced = count

    def load_codes(self, codes: Sequence[Sequence[int]]) -> None:
        """Seed a fresh store from pre-encoded rows (zero encode calls).

        ``codes`` must hold one in-range code tuple per *distinct*
        history instance, in first-execution order -- exactly what
        :meth:`sync` would have produced by encoding.  Persistence uses
        this to hydrate a store straight from schema-v3 encoded-row
        tables; rows stream through the same tail-shard append path as
        live syncs, so a hydrated store warm-starts directly into the
        sharded layout.  Raises ValueError for a non-fresh store or
        malformed codes (callers fall back to the encoding path).
        """
        if self.n_rows or self._synced or self.degraded:
            raise ValueError("load_codes requires a fresh, unsynced store")
        count = self.history.distinct_count
        if len(codes) != count:
            raise ValueError(
                f"expected {count} encoded rows, got {len(codes)}"
            )
        sizes = self.codec.domain_sizes
        for (instance, outcome), row in zip(
            self.history.distinct_since(0), codes
        ):
            row_codes = tuple(row)
            if len(row_codes) != self.codec.n_params or any(
                not 0 <= code < sizes[i] for i, code in enumerate(row_codes)
            ):
                raise ValueError(f"malformed encoded row {row_codes!r}")
            self._append_row(instance, row_codes, outcome is Outcome.FAIL)
        self._synced = count

    # -- Conjunction evaluation ----------------------------------------------
    def rows_matching(self, compiled: list[tuple[int, int]], within: int) -> int:
        """Bitset of rows in ``within`` satisfying a compiled conjunction."""
        rows = within
        for index, allowed in compiled:
            if not rows:
                break
            matched = 0
            for code in iter_bits(allowed):
                matched |= self.column(index, code)
            rows &= matched
        return rows

    def shard_match(self, shard: Shard, index: int, allowed: int) -> int:
        """One shard's match table for a compiled literal (LRU-cached)."""
        return shard.match_rows(
            index, allowed, self.row_codes, self.match_table_limit
        )

    def match_rows(self, index: int, allowed: int) -> int:
        """Bitset of rows whose ``index`` code lies in ``allowed`` (cached).

        This is the batch layer's shared *match table*: many compiled
        conjunctions reference the same ``(parameter, allowed-mask)``
        literal.  Tables live on the shards; a stale tail-shard entry
        is extended in place with just the rows appended since it was
        built (a lookup that found its entry still counts as a hit,
        ``match_extensions`` counts the repairs, and LRU eviction keeps
        each shard at ``match_table_limit`` entries).  Multi-shard
        stores additionally memoize the composed global bitset here.
        """
        shards = self.shards
        if len(shards) == 1:
            return self.shard_match(shards[0], index, allowed)
        key = (index, allowed)
        composed = self._composed_match
        entry = composed.get(key)
        if entry is not None and entry[1] == self.n_rows:
            composed.move_to_end(key)
            return entry[0]
        mask = 0
        for shard in shards:
            local = self.shard_match(shard, index, allowed)
            if local:
                mask |= local << shard.start
        if entry is None:
            composed[key] = [mask, self.n_rows]
            if len(composed) > self.match_table_limit:
                composed.popitem(last=False)
                self._composed_evictions += 1
        else:
            entry[0] = mask
            entry[1] = self.n_rows
            composed.move_to_end(key)
        return mask

    def any_match(self, compiled: list[tuple[int, int]], within_fail: bool) -> bool:
        """Does any row of the outcome class satisfy the conjunction?

        The existence form of :meth:`rows_matching` the screening
        queries (``refutes``/``supports``) actually need: shards are
        scanned in row order through their local match tables and the
        scan stops at the first shard holding a witness, so a
        refutation near the head of a long history never composes --
        or even touches -- the remaining shards.
        """
        for shard in self.shards:
            rows = shard.fail_mask if within_fail else shard.succeed_mask
            for index, allowed in compiled:
                if not rows:
                    break
                rows &= self.shard_match(shard, index, allowed)
            if rows:
                return True
        return False

    def materialize(self, rows_mask: int) -> list[Instance]:
        """The instances of the rows in ``rows_mask``, in row order."""
        rows = self.rows
        return [rows[index] for index in iter_bits(rows_mask)]

    # -- Distance / disjointness primitives ----------------------------------
    def share_mask(self, codes: Sequence[int | None]) -> int:
        """Bitset of rows sharing at least one coded value with ``codes``.

        ``codes`` is a leniently-encoded instance (one entry per space
        parameter); a None entry is an out-of-domain value, which shares
        with no row.  The complement of the result (within ``all_mask``)
        is exactly the rows *disjoint* from the instance under
        Definition 6, because every store row assigns every parameter.
        """
        shared = 0
        for index, code in enumerate(codes):
            if code is not None:
                shared |= self.column(index, code)
        return shared

    def min_shared_row(
        self, codes: Sequence[int | None], within: int
    ) -> int | None:
        """The earliest row in ``within`` sharing the *fewest* parameter
        values with ``codes`` -- i.e. the maximal-Hamming-distance row,
        with ties broken toward the lowest row index (first-execution
        order), mirroring the reference scan's strictly-greater update.

        Returns None when ``within`` is empty.  Cost is
        O(n_params * log(n_params)) big-int operations: per-row shared
        counts are accumulated in bit-sliced binary counters, then the
        minimum is selected plane-by-plane from the high bit down.
        """
        if not within:
            return None
        planes: list[int] = []  # planes[i]: rows whose count has bit i set
        for index, code in enumerate(codes):
            if code is None:
                continue
            carry = self.column(index, code) & within
            level = 0
            while carry:
                if level == len(planes):
                    planes.append(carry)
                    break
                carry, planes[level] = (
                    planes[level] & carry,
                    planes[level] ^ carry,
                )
                level += 1
        candidates = within
        for plane in reversed(planes):
            zeros = candidates & ~plane
            if zeros:
                candidates = zeros
        return lowest_bit(candidates)

    # -- Instrumentation ------------------------------------------------------
    def stats(self) -> dict[str, int]:
        """Shard layout, match-table footprint, and cache traffic."""
        entries = 0
        estimated = 0
        for shard in self.shards:
            shard_entries, shard_bytes = shard.match_table_footprint()
            entries += shard_entries
            estimated += shard_bytes
        for entry in self._composed_match.values():
            entries += 1
            estimated += 28 + 4 * ((entry[0].bit_length() + 29) // 30)
        return {
            "n_rows": self.n_rows,
            "shards": len(self.shards),
            "shard_rows": self.plan.shard_rows,
            "match_hits": self.match_hits,
            "match_misses": self.match_misses,
            "match_extensions": self.match_extensions,
            "match_evictions": self.match_evictions,
            "match_entries": entries,
            "match_bytes": estimated,
        }

    def builder(self, max_depth: int | None) -> "IncrementalTreeBuilder":
        """The (cached) incremental tree builder for this depth cap."""
        builder = self._builders.get(max_depth)
        if builder is None:
            builder = IncrementalTreeBuilder(self, max_depth)
            self._builders[max_depth] = builder
        return builder


class _Shadow:
    """A tree node plus the row bitset it was induced from."""

    __slots__ = ("node", "mask", "true_shadow", "false_shadow")

    def __init__(
        self,
        node: TreeNode,
        mask: int,
        true_shadow: "_Shadow | None" = None,
        false_shadow: "_Shadow | None" = None,
    ):
        self.node = node
        self.mask = mask
        self.true_shadow = true_shadow
        self.false_shadow = false_shadow


class IncrementalTreeBuilder:
    """Columnar decision-tree induction with append-only repair.

    Produces a :class:`~repro.core.tree.TreeNode` structure identical to
    :func:`~repro.core.tree.build_tree` over the store's rows.  After an
    append, :meth:`tree` walks only the root-to-leaf paths the new rows
    fall into; sibling subtrees whose row sets are untouched are reused
    as-is.  Returned nodes are updated in place across rounds -- callers
    must treat a previous round's tree as expired after the next call.
    """

    def __init__(self, store: ColumnarStore, max_depth: int | None):
        self.store = store
        self.max_depth = max_depth
        self._root: _Shadow | None = None
        self._built_rows = 0
        self._rank_cache: dict[tuple[int, Comparator, int], int] = {}

    def tree(self) -> TreeNode:
        """The tree over the store's current rows (store must be synced)."""
        n = self.store.n_rows
        if n == 0:
            return TreeNode(leaf_kind=LeafKind.MIXED, depth=0)
        if self._root is None:
            self._root = self._build(self.store.all_mask, 0)
        elif self._built_rows < n:
            new_bits = self.store.all_mask ^ ((1 << self._built_rows) - 1)
            self._root = self._update(self._root, new_bits, 0)
        self._built_rows = n
        return self._root.node

    # -- Induction ---------------------------------------------------------
    def _leaf(self, mask: int, depth: int) -> _Shadow:
        n_fail = (mask & self.store.fail_mask).bit_count()
        n_succeed = mask.bit_count() - n_fail
        if n_fail and not n_succeed:
            kind = LeafKind.FAIL
        elif n_succeed and not n_fail:
            kind = LeafKind.SUCCEED
        else:
            kind = LeafKind.MIXED
        node = TreeNode(
            leaf_kind=kind, n_fail=n_fail, n_succeed=n_succeed, depth=depth
        )
        return _Shadow(node, mask)

    def _rank(self, index: int, comparator: Comparator, code: int) -> int:
        key = (index, comparator, code)
        rank = self._rank_cache.get(key)
        if rank is None:
            parameter = self.store.codec.parameters[index]
            rank = _predicate_rank(
                Predicate(parameter.name, comparator, parameter.domain[code])
            )
            self._rank_cache[key] = rank
        return rank

    def _best_split(self, mask: int) -> tuple[Predicate, int] | None:
        """Best (predicate, true-row bitset), mirroring the reference.

        Candidate enumeration order, the Gini gain arithmetic, and the
        ``(gain, -rank)`` tie-break replicate ``_candidate_splits`` /
        ``_split_gain`` bit for bit, so the chosen split -- and hence
        the whole tree -- is identical to the dict path's.  Columns are
        the store's composed global bitsets, so every store (one shard
        or many) takes this one path.
        """
        store = self.store
        codec = store.codec
        fail = store.fail_mask
        total = mask.bit_count()
        n_fail_total = (mask & fail).bit_count()
        n_succeed_total = total - n_fail_total
        parent = _gini(n_fail_total, n_succeed_total)

        best_gain: float | None = None
        best_rank = 0
        best: tuple[Predicate, int] | None = None

        def consider(
            index: int, comparator: Comparator, code: int, true_mask: int
        ) -> None:
            nonlocal best_gain, best_rank, best
            n_true = true_mask.bit_count()
            n_false = total - n_true
            if n_true == 0 or n_false == 0:
                return
            true_fail = (true_mask & fail).bit_count()
            true_succeed = n_true - true_fail
            false_fail = n_fail_total - true_fail
            false_succeed = n_succeed_total - true_succeed
            child = (n_true / total) * _gini(true_fail, true_succeed) + (
                n_false / total
            ) * _gini(false_fail, false_succeed)
            gain = parent - child
            if best_gain is not None and gain < best_gain:
                return
            rank = self._rank(index, comparator, code)
            if best_gain is None or gain > best_gain or -rank > -best_rank:
                parameter = codec.parameters[index]
                best_gain = gain
                best_rank = rank
                best = (
                    Predicate(parameter.name, comparator, parameter.domain[code]),
                    true_mask,
                )

        for index, parameter in enumerate(codec.parameters):
            size = codec.domain_sizes[index]
            column = [store.column(index, code) for code in range(size)]
            observed = [c for c in range(size) if column[c] & mask]
            if len(observed) < 2:
                continue
            if parameter.is_ordinal:
                accumulated = 0
                for code in observed[:-1]:
                    accumulated |= column[code]
                    consider(index, Comparator.LE, code, accumulated & mask)
            else:
                observed_set = set(observed)
                for code in codec.repr_orders[index]:
                    if code in observed_set:
                        consider(index, Comparator.EQ, code, column[code] & mask)
        return best

    def _build(self, mask: int, depth: int) -> _Shadow:
        n_fail = (mask & self.store.fail_mask).bit_count()
        n_succeed = mask.bit_count() - n_fail
        if n_fail == 0 or n_succeed == 0:
            return self._leaf(mask, depth)
        if self.max_depth is not None and depth >= self.max_depth:
            return self._leaf(mask, depth)
        best = self._best_split(mask)
        if best is None:
            return self._leaf(mask, depth)
        predicate, true_mask = best
        node = TreeNode(
            predicate=predicate, n_fail=n_fail, n_succeed=n_succeed, depth=depth
        )
        true_shadow = self._build(true_mask, depth + 1)
        false_shadow = self._build(mask & ~true_mask, depth + 1)
        node.true_branch = true_shadow.node
        node.false_branch = false_shadow.node
        return _Shadow(node, mask, true_shadow, false_shadow)

    def _update(self, shadow: _Shadow, new_bits: int, depth: int) -> _Shadow:
        """Repair a subtree after ``new_bits`` rows joined its row set.

        Equivalent to ``_build(shadow.mask | new_bits, depth)`` -- see
        the module docstring for the invariant argument -- but reuses
        every descendant whose row set is unchanged.
        """
        mask = shadow.mask | new_bits
        n_fail = (mask & self.store.fail_mask).bit_count()
        n_succeed = mask.bit_count() - n_fail
        if n_fail == 0 or n_succeed == 0:
            return self._leaf(mask, depth)
        if self.max_depth is not None and depth >= self.max_depth:
            return self._leaf(mask, depth)
        best = self._best_split(mask)
        if best is None:
            return self._leaf(mask, depth)
        predicate, true_mask = best
        node = shadow.node
        if node.predicate is None or node.predicate != predicate:
            return self._build(mask, depth)
        new_true = new_bits & true_mask
        new_false = new_bits & ~true_mask
        if new_true:
            shadow.true_shadow = self._update(
                shadow.true_shadow, new_true, depth + 1  # type: ignore[arg-type]
            )
        if new_false:
            shadow.false_shadow = self._update(
                shadow.false_shadow, new_false, depth + 1  # type: ignore[arg-type]
            )
        node.true_branch = shadow.true_shadow.node  # type: ignore[union-attr]
        node.false_branch = shadow.false_shadow.node  # type: ignore[union-attr]
        node.n_fail = n_fail
        node.n_succeed = n_succeed
        shadow.mask = mask
        return shadow


class ColumnarEngine:
    """Facade the algorithms drive: compiled queries over one session.

    Wraps a (space, history) pair -- or a
    :class:`~repro.core.session.DebugSession`, whose lock then guards
    store syncs -- and memoizes compiled conjunctions and canonical
    code masks, which the DDT loop queries repeatedly for the same
    suspects.  Every method degrades gracefully to the dict-based
    reference implementation when a query cannot be compiled, so
    results are always identical to the reference path; every such
    degradation increments the visible :attr:`fallbacks` counter so
    tests can assert the fast path actually served a run.

    Args:
        use_match_cache: route single-conjunction queries through the
            store's shared :meth:`ColumnarStore.match_rows` tables (the
            batch layer).  Off reproduces the uncached per-call
            OR-accumulation of the pre-batch engine exactly, which the
            batch benchmark uses as its baseline.
    """

    def __init__(
        self,
        space: ParameterSpace,
        history,
        session=None,
        use_match_cache: bool = True,
        plan: ShardPlan | None = None,
    ):
        self.space = space
        self.history = history
        self._session = session
        self._plan = plan
        self._codec = SpaceCodec(space)
        self._use_match_cache = use_match_cache
        self._compiled: dict[Conjunction, list[tuple[int, int]] | None] = {}
        self._predicate_masks: dict[Predicate, object] = {}
        self._canonical: dict[Conjunction, dict[int, int]] = {}
        # Pairwise subsumption memo for the batch entry points.
        # Subsumption is a pure function of the two conjunctions and the
        # space (never of the history), and the DDT round filter asks
        # about mostly the same confirmed x suspect grid every round --
        # so verdicts are cached for the engine's lifetime.  Conjunctions
        # are interned to small integer ids first: the per-pair memo key
        # is then an int pair, so a cache hit never re-runs the
        # predicate-set equality a conjunction-keyed lookup would pay.
        self._conjunction_ids: dict[Conjunction, int] = {}
        self._subsume_cache: dict[tuple[int, int], bool] = {}
        # Per-candidate screening progress: candidate id -> the id
        # prefix of a generals sequence already known not to subsume it.
        # The DDT round filter re-screens every surviving suspect
        # against an append-only confirmed list each round; the prefix
        # check turns those re-screens into one tuple compare.
        self._unsubsumed_prefix: dict[int, tuple[int, ...]] = {}
        # Visible instrumentation: reference-path degradations and
        # compiled-conjunction memo traffic.  ``fallbacks`` counts every
        # query answered by a dict-based reference implementation;
        # a clean columnar run must end with it at zero (tests and the
        # batch benchmark assert this), so silent degradations fail CI.
        self.fallbacks = 0
        self.compile_hits = 0
        self.compile_misses = 0

    @classmethod
    def for_session(
        cls,
        session,
        use_match_cache: bool = True,
        plan: ShardPlan | None = None,
    ) -> "ColumnarEngine":
        return cls(
            session.space,
            session.history,
            session=session,
            use_match_cache=use_match_cache,
            plan=plan,
        )

    def _store(self) -> ColumnarStore:
        if self._session is not None:
            return self._session.columnar_store(plan=self._plan)
        return self.history.columnar_store(self.space, plan=self._plan)

    def stats(self) -> dict[str, int]:
        """Instrumentation snapshot: fallbacks, cache traffic, and the
        store's shard layout / match-table footprint."""
        store = self._store()
        store_stats = store.stats()
        return {
            "fallbacks": self.fallbacks,
            "compile_hits": self.compile_hits,
            "compile_misses": self.compile_misses,
            "match_hits": store_stats["match_hits"],
            "match_misses": store_stats["match_misses"],
            "match_extensions": store_stats["match_extensions"],
            "match_evictions": store_stats["match_evictions"],
            "match_entries": store_stats["match_entries"],
            "match_bytes": store_stats["match_bytes"],
            "shards": store_stats["shards"],
            "shard_rows": store_stats["shard_rows"],
        }

    def _compiled_for(self, conjunction: Conjunction):
        """The conjunction's compiled mask list, memoized.

        Compiled masks are a pure function of the conjunction and the
        space's code tables (never of the history), so entries stay
        valid for the engine's lifetime; the shared per-predicate
        literal table makes a first compile of a conjunction whose
        literals were already seen O(#predicates) dict lookups.
        """
        try:
            compiled = self._compiled[conjunction]
        except KeyError:
            self.compile_misses += 1
            compiled = compile_conjunction(
                conjunction, self._codec, self._predicate_masks
            )
            self._compiled[conjunction] = compiled
            return compiled
        self.compile_hits += 1
        return compiled

    def _screen_one(
        self, store: ColumnarStore, compiled: list[tuple[int, int]], within_fail: bool
    ) -> bool:
        """One conjunction's existence verdict against an outcome class.

        With the match cache on, this is the shard-short-circuiting
        :meth:`ColumnarStore.any_match`; off, the pre-batch engine's
        uncached OR-accumulation over the composed columns (the batch
        benchmark's baseline) exactly.
        """
        if self._use_match_cache:
            return store.any_match(compiled, within_fail)
        within = store.fail_mask if within_fail else store.succeed_mask
        return store.rows_matching(compiled, within) != 0

    # -- History queries ----------------------------------------------------
    def refutes(self, conjunction: Conjunction) -> bool:
        """Identical to :meth:`ExecutionHistory.refutes`, bitset-fast."""
        store = self._store()
        if store.degraded:
            self.fallbacks += 1
            return self.history.refutes(conjunction)
        compiled = self._compiled_for(conjunction)
        if compiled is None:
            self.fallbacks += 1
            return self.history.refutes(conjunction)
        return self._screen_one(store, compiled, within_fail=False)

    def supports(self, conjunction: Conjunction) -> bool:
        """Identical to :meth:`ExecutionHistory.supports`, bitset-fast."""
        store = self._store()
        if store.degraded:
            self.fallbacks += 1
            return self.history.supports(conjunction)
        compiled = self._compiled_for(conjunction)
        if compiled is None:
            self.fallbacks += 1
            return self.history.supports(conjunction)
        return self._screen_one(store, compiled, within_fail=True)

    def is_hypothetical_root_cause(self, conjunction: Conjunction) -> bool:
        return self.supports(conjunction) and not self.refutes(conjunction)

    # -- Batch history queries ------------------------------------------------
    def _screen_many(
        self, conjunctions: Sequence[Conjunction], against: str
    ) -> list[bool]:
        """Shared refutes_many/supports_many body; ``against`` picks the
        outcome bitset the compiled batch is intersected with."""
        store = self._store()
        reference = (
            self.history.refutes if against == "succeed" else self.history.supports
        )
        if store.degraded:
            self.fallbacks += len(conjunctions)
            return [reference(c) for c in conjunctions]
        within_fail = against == "fail"
        results: list[bool] = []
        for conjunction in conjunctions:
            compiled = self._compiled_for(conjunction)
            if compiled is None:
                # Per-item degradation: the rest of the batch stays on
                # the compiled path (reference answers are identical).
                self.fallbacks += 1
                results.append(reference(conjunction))
            else:
                results.append(
                    self._screen_one(store, compiled, within_fail)
                )
        return results

    def refutes_many(self, conjunctions: Sequence[Conjunction]) -> list[bool]:
        """``[refutes(c) for c in conjunctions]`` in one store pass.

        Conjunctions sharing literals share one match-table entry; the
        per-conjunction work is then a couple of ANDs.  Order and
        per-item fallback semantics (including exceptions the reference
        path would raise) match the scalar calls exactly.
        """
        return self._screen_many(list(conjunctions), "succeed")

    def supports_many(self, conjunctions: Sequence[Conjunction]) -> list[bool]:
        """``[supports(c) for c in conjunctions]`` in one store pass."""
        return self._screen_many(list(conjunctions), "fail")

    def any_satisfied_by(
        self, conjunctions: Sequence[Conjunction], instance: Instance
    ) -> bool:
        """``any(c.satisfied_by(instance) for c in conjunctions)``.

        The transpose of the batch screens: one strictly-encoded instance is tested against many memoized
        compiled conjunctions, each test a handful of mask bit probes.
        The strict encode matters: a compiled conjunction drops
        full-domain entries as "no constraint", which is only faithful
        when every instance value is in-domain -- anything else (and any
        uncompilable conjunction) falls back to the reference
        ``satisfied_by`` per item.  Evaluation order and short-circuit
        behavior (including any exception the reference path would
        raise) match the scalar ``any`` exactly.
        """
        codes = self._codec.encode(instance)
        for conjunction in conjunctions:
            if codes is None:
                self.fallbacks += 1
                if conjunction.satisfied_by(instance):
                    return True
                continue
            compiled = self._compiled_for(conjunction)
            if compiled is None:
                self.fallbacks += 1
                if conjunction.satisfied_by(instance):
                    return True
                continue
            satisfied = True
            for index, allowed in compiled:
                if not (allowed >> codes[index]) & 1:
                    satisfied = False
                    break
            if satisfied:
                return True
        return False

    # -- Canonical forms and subsumption -------------------------------------
    def canonical_masks(self, conjunction: Conjunction) -> dict[int, int]:
        """Per-parameter-index allowed-code masks; the compiled analogue
        of :meth:`Conjunction.canonical` (full-domain entries dropped),
        with the same error behavior for unknown parameters and
        kind-incompatible comparators.
        """
        cached = self._canonical.get(conjunction)
        if cached is not None:
            return cached
        codec = self._codec
        masks: dict[int, int] = {}
        for predicate in conjunction.predicates:
            index = codec.index_of_name.get(predicate.parameter)
            if index is None:
                raise ValueError(
                    f"predicate on unknown parameter {predicate.parameter!r}"
                )
            parameter = codec.parameters[index]
            if predicate.comparator.is_ordinal_only and not parameter.is_ordinal:
                raise ValueError(
                    f"comparator {predicate.comparator.value!r} requires ordinal "
                    f"parameter, but {predicate.parameter!r} is categorical"
                )
            mask = predicate.satisfying_code_mask(parameter)
            previous = masks.get(index)
            masks[index] = mask if previous is None else previous & mask
        result = {
            index: mask
            for index, mask in masks.items()
            if mask != codec.full_masks[index]
        }
        self._canonical[conjunction] = result
        return result

    def _canonical_or_none(self, conjunction: Conjunction):
        """Canonical masks, or None when only the reference path can
        answer (ValueError -- the reference's own error -- propagates)."""
        try:
            return self.canonical_masks(conjunction)
        except ValueError:
            raise
        except Exception:
            return None

    def _masks_subsume(self, mine: dict[int, int], theirs: dict[int, int]) -> bool:
        """Subsumption on canonical masks (the compiled Definition)."""
        if any(mask == 0 for mask in theirs.values()):
            return True
        full = self._codec.full_masks
        for index, my_mask in mine.items():
            their_mask = theirs.get(index, full[index])
            if their_mask & ~my_mask:
                return False
        return True

    def subsumes(self, general: Conjunction, specific: Conjunction) -> bool:
        """Identical to :meth:`Conjunction.subsumes` over this space."""
        mine = self._canonical_or_none(general)
        theirs = self._canonical_or_none(specific)
        if mine is None or theirs is None:
            self.fallbacks += 1
            return general.subsumes(specific, self.space)
        return self._masks_subsume(mine, theirs)

    def subsumes_matrix(
        self,
        generals: Sequence[Conjunction],
        specifics: Sequence[Conjunction],
    ) -> list[list[bool]]:
        """``matrix[i][j] = subsumes(generals[i], specifics[j])``.

        Canonical masks are computed once per distinct conjunction for
        the whole matrix (they are memoized on the engine anyway, so
        repeated matrices across rounds reuse them); each cell is then
        a handful of mask comparisons.  Per-cell fallback semantics
        match the scalar call.
        """
        general_masks = [self._canonical_or_none(g) for g in generals]
        specific_masks = [self._canonical_or_none(s) for s in specifics]
        general_ids = [self._conjunction_id(g) for g in generals]
        specific_ids = [self._conjunction_id(s) for s in specifics]
        cache = self._subsume_cache
        matrix: list[list[bool]] = []
        for general, mine, gid in zip(generals, general_masks, general_ids):
            row: list[bool] = []
            for specific, theirs, sid in zip(
                specifics, specific_masks, specific_ids
            ):
                key = (gid, sid)
                verdict = cache.get(key)
                if verdict is None:
                    if mine is None or theirs is None:
                        self.fallbacks += 1
                        verdict = general.subsumes(specific, self.space)
                    else:
                        verdict = self._masks_subsume(mine, theirs)
                    cache[key] = verdict
                row.append(verdict)
            matrix.append(row)
        return matrix

    def _conjunction_id(self, conjunction: Conjunction) -> int:
        """Small interned id for a conjunction (by value equality)."""
        ids = self._conjunction_ids
        interned = ids.get(conjunction)
        if interned is None:
            interned = len(ids)
            ids[conjunction] = interned
        return interned

    def subsumed_by_any(
        self,
        generals: Sequence[Conjunction],
        candidates: Sequence[Conjunction],
    ) -> list[bool]:
        """``[any(subsumes(g, c) for g in generals) for c in candidates]``.

        The DDT round filter: canonical masks are resolved once per
        distinct conjunction for the whole grid, and each candidate's
        scan short-circuits on the first subsuming general, exactly like
        the scalar ``any``.
        """
        unresolved = _UNCOMPILABLE  # reuse the module sentinel
        general_ids = tuple(self._conjunction_id(g) for g in generals)
        general_masks: list = [unresolved] * len(generals)
        cache = self._subsume_cache
        progress = self._unsubsumed_prefix
        results: list[bool] = []
        for candidate in candidates:
            cid = self._conjunction_id(candidate)
            start = 0
            prior = progress.get(cid)
            if prior is not None and general_ids[: len(prior)] == prior:
                # Every general in the prior prefix is already known not
                # to subsume this candidate; resume after it.
                start = len(prior)
            theirs = unresolved
            covered = False
            position = len(generals)
            for position in range(start, len(generals)):
                key = (general_ids[position], cid)
                covered = cache.get(key)
                if covered is None:
                    if theirs is unresolved:
                        theirs = self._canonical_or_none(candidate)
                    mine = general_masks[position]
                    if mine is unresolved:
                        mine = general_masks[position] = self._canonical_or_none(
                            generals[position]
                        )
                    if mine is None or theirs is None:
                        self.fallbacks += 1
                        covered = generals[position].subsumes(
                            candidate, self.space
                        )
                    else:
                        covered = self._masks_subsume(mine, theirs)
                    cache[key] = covered
                if covered:
                    break
            if covered:
                # The prefix before the subsuming general stays valid.
                progress[cid] = general_ids[:position]
                results.append(True)
            else:
                progress[cid] = general_ids
                results.append(False)
        return results

    def satisfying_value_lists(
        self, conjunction: Conjunction
    ) -> tuple[bool, list[tuple[str, list]] | None] | None:
        """Compiled analogue of the suspect-sampling canonical scan.

        Returns ``(satisfiable, per_parameter)`` where ``per_parameter``
        lists every space parameter with its repr-sorted satisfying
        values -- exactly what the DDT variation sampler derives from
        :meth:`Conjunction.canonical` -- or ``(False, None)`` for an
        unsatisfiable conjunction.  Returns None (caller must use the
        reference scan) when a constrained parameter's domain has
        duplicate value reprs, because then the reference's
        ``sorted(frozenset, key=repr)`` tie order cannot be reproduced
        from codes.  ValueError propagates exactly like the reference.
        """
        masks = self._canonical_or_none(conjunction)
        if masks is None:
            self.fallbacks += 1
            return None
        codec = self._codec
        per_parameter: list[tuple[str, list]] = []
        for index, name in enumerate(codec.names):
            parameter = codec.parameters[index]
            mask = masks.get(index)
            if mask is None:
                per_parameter.append((name, list(parameter.domain)))
                continue
            if mask == 0:
                return (False, None)
            if not codec.unique_reprs[index]:
                self.fallbacks += 1
                return None
            per_parameter.append(
                (
                    name,
                    [
                        parameter.domain[code]
                        for code in codec.repr_orders[index]
                        if mask >> code & 1
                    ],
                )
            )
        return (True, per_parameter)

    # -- History scans (Shortcut / Stacked Shortcut support) ------------------
    def _scannable_codes(self, failing: Instance):
        """(store, lenient codes) when the bitset path can serve a scan
        anchored on ``failing``; (store, None) demands reference fallback.
        """
        store = self._store()
        if store.degraded:
            self.fallbacks += 1
            return store, None
        codes = store.codec.encode_lenient(failing)
        if codes is None:
            self.fallbacks += 1
        return store, codes

    def disjoint_successes(self, failing: Instance) -> list[Instance]:
        """Identical to :meth:`ExecutionHistory.disjoint_successes`.

        One OR per parameter builds the rows-sharing-a-value mask; the
        disjoint successes are its complement within the success bitset.
        """
        store, codes = self._scannable_codes(failing)
        if codes is None:
            return self.history.disjoint_successes(failing)
        return store.materialize(store.succeed_mask & ~store.share_mask(codes))

    def most_different_success(self, failing: Instance) -> Instance | None:
        """Identical to :meth:`ExecutionHistory.most_different_success`:
        the earliest success at maximal Hamming distance from ``failing``.
        """
        store, codes = self._scannable_codes(failing)
        if codes is None:
            return self.history.most_different_success(failing)
        row = store.min_shared_row(codes, store.succeed_mask)
        return None if row is None else store.rows[row]

    def mutually_disjoint_successes(
        self, failing: Instance, limit: int | None = None
    ) -> list[Instance]:
        """Identical to :meth:`ExecutionHistory.mutually_disjoint_successes`
        (greedy first-fit in log order), with each accepted instance
        eliminating everything it shares a value with in one mask AND.
        """
        store, codes = self._scannable_codes(failing)
        if codes is None:
            return self.history.mutually_disjoint_successes(failing, limit)
        candidates = store.succeed_mask & ~store.share_mask(codes)
        selected: list[Instance] = []
        while candidates:
            row = lowest_bit(candidates)
            selected.append(store.rows[row])
            if limit is not None and len(selected) >= limit:
                break
            # A row shares every value with itself, so this also clears it.
            candidates &= ~store.share_mask(store.row_codes[row])
        return selected

    def success_superset_of(self, assignment: Mapping[str, object]) -> bool:
        """Identical to :meth:`ExecutionHistory.success_superset_of`:
        True when some success contains the (partial) assignment.

        This is the Shortcut sanity check (Theorem 4's truncation
        test), compiled to one AND per asserted parameter-value pair.
        """
        store = self._store()
        if store.degraded:
            self.fallbacks += 1
            return self.history.success_superset_of(assignment)
        codec = store.codec
        use_cache = self._use_match_cache
        rows = store.succeed_mask
        for name, value in assignment.items():
            index = codec.index_of_name.get(name)
            if index is None:
                # A name outside the space: the reference loop may raise
                # KeyError (order-dependent); replay it exactly.
                self.fallbacks += 1
                return self.history.success_superset_of(assignment)
            code = codec.parameters[index].code_of(value)
            if code is None:
                return False  # out-of-domain value matches no store row
            if use_cache:
                # Ride the batch layer's shared match tables: the same
                # (parameter, value) literal queried by any compiled
                # conjunction reuses this row bitset and vice versa.
                rows &= store.match_rows(index, 1 << code)
            else:
                rows &= store.column(index, code)
            if not rows:
                return False
        return rows != 0

    # -- Tree induction ------------------------------------------------------
    def tree(self, max_depth: int | None = None) -> DebuggingTree | None:
        """The debugging tree over the current history, incrementally
        maintained; None when the store is degraded (caller should fall
        back to :class:`~repro.core.tree.DebuggingTree`).
        """
        store = self._store()
        if store.degraded:
            self.fallbacks += 1
            return None
        root = store.builder(max_depth).tree()
        return DebuggingTree.from_root(self.space, root, store.n_rows)
