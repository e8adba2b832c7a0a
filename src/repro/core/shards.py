"""Row-range sharding for the columnar store.

A :class:`~repro.core.engine.ColumnarStore` keeps its rows in
**row-range shards** rather than one monolithic big-int bitset per
(parameter, code).  This module supplies the pieces:

* :class:`ShardPlan` -- the sizing policy: how many rows per shard.
  Auto-sized from the row count; small histories stay in one shard.
* :class:`Shard` -- one contiguous row range ``[start, start+n_rows)``
  with *local* per-(parameter, code) bitsets, a local fail mask, and a
  local LRU-capped match-table cache.  Bit ``i`` of a local mask is
  global row ``start + i``.  Only the tail shard ever grows; a sealed
  shard (and everything cached against it) is immutable, which is what
  makes incremental maintenance cheap: appends touch only the tail.
* The big-int idioms every hot loop of the engine reduces to:
  :func:`lowest_bit`, :func:`iter_bits` and :func:`accumulate_codes`.

Every query runs serially on the calling thread.  The win sharding
buys is ordering, not parallelism: existence queries walk shards in
row order and stop at the first witness, touching small shard-local
integers instead of one history-wide bitset per literal.

The store façade in :mod:`repro.core.engine` composes global answers
from shard-local ones; this module deliberately knows nothing about
predicates or histories.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

__all__ = [
    "ShardPlan",
    "Shard",
    "DEFAULT_MATCH_TABLE_LIMIT",
    "accumulate_codes",
    "iter_bits",
    "lowest_bit",
]

# Per-shard cap on cached match tables (entries).
DEFAULT_MATCH_TABLE_LIMIT = 4096

# Smallest shard the auto plan will cut.  Histories below this stay in
# one shard, which reproduces the pre-shard store's behavior (and its
# counter semantics) exactly -- sharding only pays above this scale.
MIN_AUTO_SHARD_ROWS = 16384

# Shards the auto plan aims for: enough for the short-circuit to skip
# most of a long history, few enough that the per-query shard loop
# stays cheap.
AUTO_SHARDS = 4


def lowest_bit(mask: int) -> int:
    """Position of the lowest set bit of a non-zero ``mask``."""
    return (mask & -mask).bit_length() - 1


def iter_bits(mask: int):
    """Yield the set-bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def accumulate_codes(column: list[int], allowed: int) -> int:
    """OR of ``column[code]`` over the set bits of ``allowed``.

    The match-table build loop: ``column`` is one parameter's per-code
    row bitsets and ``allowed`` the compiled allowed-code mask; the
    result is the bitset of rows whose code lies in the mask.
    """
    matched = 0
    while allowed:
        low = allowed & -allowed
        matched |= column[low.bit_length() - 1]
        allowed ^= low
    return matched


def _pow2_at_least(value: int) -> int:
    return 1 << max(0, (value - 1).bit_length())


@dataclass(frozen=True)
class ShardPlan:
    """Sizing policy for a sharded columnar store.

    Attributes:
        shard_rows: rows per shard; the tail shard is sealed and a new
            one opened when it reaches this size.
    """

    shard_rows: int

    def __post_init__(self) -> None:
        if self.shard_rows < 1:
            raise ValueError(f"shard_rows must be >= 1, got {self.shard_rows}")

    @classmethod
    def auto(cls, row_hint: int = 0) -> "ShardPlan":
        """Size a plan from a row-count hint.

        ``row_hint`` is typically the history's current distinct count;
        stores created before the history grows simply start with one
        tail shard and split as rows arrive.
        """
        return cls(
            shard_rows=max(
                MIN_AUTO_SHARD_ROWS,
                _pow2_at_least(max(1, row_hint) // AUTO_SHARDS),
            )
        )


class Shard:
    """One row range of the store, with local bitsets and match tables.

    ``value_rows[p][c]`` is the *local* bitset of rows in this shard
    whose parameter ``p`` holds code ``c``; ``fail_mask`` / the
    ``succeed_mask`` property partition ``full_mask`` by outcome.  The
    match-table cache maps ``(parameter_index, allowed_mask)`` to the
    local bitset of rows whose code lies in the mask, LRU-capped, with
    per-entry build-watermarks so tail-shard entries extend lazily
    (only the rows appended since the entry was built are scanned).
    """

    __slots__ = (
        "start",
        "n_rows",
        "value_rows",
        "fail_mask",
        "full_mask",
        "sealed",
        "_match",
        "hits",
        "misses",
        "extensions",
        "evictions",
    )

    def __init__(self, start: int, domain_sizes: tuple[int, ...]):
        self.start = start
        self.n_rows = 0
        self.value_rows: list[list[int]] = [
            [0] * size for size in domain_sizes
        ]
        self.fail_mask = 0
        self.full_mask = 0
        self.sealed = False
        # (index, allowed) -> [local_mask, rows_at_build]
        self._match: OrderedDict[tuple[int, int], list[int]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.extensions = 0
        self.evictions = 0

    @property
    def succeed_mask(self) -> int:
        return self.full_mask & ~self.fail_mask

    def append(self, codes: tuple[int, ...], is_fail: bool) -> None:
        """Append one row (local position ``n_rows``) to this shard."""
        bit = 1 << self.n_rows
        value_rows = self.value_rows
        for index, code in enumerate(codes):
            value_rows[index][code] |= bit
        if is_fail:
            self.fail_mask |= bit
        self.full_mask |= bit
        self.n_rows += 1

    def match_rows(
        self,
        index: int,
        allowed: int,
        row_codes,
        limit: int,
    ) -> int:
        """Local bitset of rows whose ``index`` code lies in ``allowed``.

        Cached with LRU eviction at ``limit`` entries.  A cached entry
        built before rows were appended (tail shard only -- sealed
        shards never grow) is *extended in place* by testing just the
        new rows' codes against the mask, mirroring the pre-shard
        store's append-only table repair but scoped to one shard and
        done lazily on access.  ``row_codes`` is the store's global
        per-row code-tuple list; this shard reads its own slice.
        """
        key = (index, allowed)
        entry = self._match.get(key)
        if entry is not None:
            mask, built = entry
            if built != self.n_rows:
                extra = 0
                base = self.start
                for local in range(built, self.n_rows):
                    if (allowed >> row_codes[base + local][index]) & 1:
                        extra |= 1 << local
                mask |= extra
                entry[0] = mask
                entry[1] = self.n_rows
                self.extensions += 1
            self.hits += 1
            self._match.move_to_end(key)
            return mask
        self.misses += 1
        mask = accumulate_codes(self.value_rows[index], allowed)
        self._match[key] = [mask, self.n_rows]
        if len(self._match) > limit:
            self._match.popitem(last=False)
            self.evictions += 1
        return mask

    def match_table_footprint(self) -> tuple[int, int]:
        """(entries, estimated bytes) of the cached match tables."""
        entries = len(self._match)
        # CPython int object: ~28 bytes header + 4 bytes per 30-bit
        # digit; close enough for a capacity estimate without paying
        # sys.getsizeof on every entry.
        total = 0
        for mask, __ in self._match.values():
            total += 28 + 4 * ((mask.bit_length() + 29) // 30)
        return entries, total
