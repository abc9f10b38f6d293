"""Pluggable storage backends for the triple store.

The seed implementation kept a Python ``set`` of :class:`Triple` objects
plus six dict-of-set indexes — allocation heavy and string-compare bound
once every upper layer starts hot-looping over pattern queries.  This
module introduces the storage seam the ROADMAP asks for:

* :class:`Interner` — a shared string ↔ contiguous ``int`` id table,
* :class:`GraphBackend` — the protocol every backend implements,
* :class:`ColumnarBackend` — the default: triples live in parallel numpy
  ``int64`` columns with CSR-style adjacency indexes per head, relation
  and tail, plus (head, relation) / (relation, tail) / (tail, head)
  subgroup lookups via binary search.  Pattern queries slice arrays and
  only materialize :class:`Triple` objects (or sort) when asked.

Index maintenance is **incremental**: mutations land in a small sorted
delta overlay (added rows + a deleted-row mask over the base block) that
is merged into every query result, and the expensive full CSR rebuild is
deferred until the overlay outgrows ``delta_threshold``.  Interleaved
mutate-then-query loops (the dedup stage's
``add_missing_taxonomy_links`` → ``parents()`` pattern) therefore pay
O(overlay) per query instead of one full O(n log n) rebuild per
mutation burst.

Every backend answers the same string-level query surface and the same
integer-id surface (the interners, ``match_ids``, ``match_ids_many``,
``count_ids``) that the query executor joins over; the columnar backend
also exposes ``id_triples`` and sort ranks, which the sampling and
embedding layers use to stay in ID-array land end-to-end.  The id
surface describes one flat, fully indexed column block, so touching it
first folds any pending overlay back into the base (a single
consolidation, amortized across the read-heavy phases that use it).

:class:`~repro.kg.mmap_backend.MmapBackend` (``repro.kg.mmap_backend``)
extends the columnar design with an on-disk, memory-mapped base block
behind the same protocol; it registers itself in :data:`BACKENDS` under
the name ``"mmap"``.  :class:`~repro.kg.sharded_backend.ShardedBackend`
(``repro.kg.sharded_backend``, registered as ``"sharded"``) hash-
partitions triples on the head-entity id across several columnar-family
shards that share one global interner pair, parallelizing bulk loads,
saves/opens and batched queries across cores.
"""

from __future__ import annotations

from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.kg.triple import Triple

#: A (head, relation, tail) pattern; ``None`` is a wildcard.
Pattern = Tuple[Optional[str], Optional[str], Optional[str]]

#: An id-level (head_id, relation_id, tail_id) pattern; ``None`` is a
#: wildcard.  Ids come from the backend's interners.
IdPattern = Tuple[Optional[int], Optional[int], Optional[int]]


class Interner:
    """An append-only string ↔ contiguous int-id table.

    The same structure as :class:`~repro.kg.vocab.Vocabulary` but kept
    separate so the storage layer has no dependency on the embedding
    vocabulary semantics (and can later grow backend-specific features
    such as shard-local id spaces).
    """

    __slots__ = ("_symbol_to_id", "_id_to_symbol")

    def __init__(self, symbols: Iterable[str] = ()) -> None:
        self._symbol_to_id: Dict[str, int] = {}
        self._id_to_symbol: List[str] = []
        for symbol in symbols:
            self.intern(symbol)

    def intern(self, symbol: str) -> int:
        """Return the id of ``symbol``, assigning the next free id if new."""
        existing = self._symbol_to_id.get(symbol)
        if existing is not None:
            return existing
        new_id = len(self._id_to_symbol)
        self._symbol_to_id[symbol] = new_id
        self._id_to_symbol.append(symbol)
        return new_id

    def lookup(self, symbol: str) -> Optional[int]:
        """Return the id of ``symbol`` or ``None`` when it was never interned."""
        return self._symbol_to_id.get(symbol)

    def symbol_of(self, identifier: int) -> str:
        """Return the symbol with id ``identifier``."""
        return self._id_to_symbol[identifier]

    def symbols(self) -> List[str]:
        """All interned symbols in id order (a copy)."""
        return list(self._id_to_symbol)

    def symbol_table(self) -> Sequence[str]:
        """The live id → symbol table (treat as read-only).

        The zero-copy batch counterpart of :meth:`symbol_of` — hot
        stringification loops index it directly instead of paying a
        method call per id.
        """
        return self._id_to_symbol

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._symbol_to_id

    def __len__(self) -> int:
        return len(self._id_to_symbol)

    def __iter__(self) -> Iterator[str]:
        return iter(self._id_to_symbol)


@runtime_checkable
class GraphBackend(Protocol):
    """The storage contract behind :class:`~repro.kg.store.TripleStore`.

    All query methods accept ``None`` as a wildcard.  ``match`` returns
    triples in backend-defined order unless ``sort=True`` is requested;
    ``tails`` / ``heads`` stay sorted because their callers rely on
    deterministic small result lists.

    Every backend interns symbols to contiguous int64 ids and also
    answers pattern queries in id space (``match_ids`` and friends, ids
    from the two interners): the query executor
    (:mod:`repro.kg.executor`) interns a query's constants once and then
    joins numpy id arrays without materializing a :class:`Triple` or a
    string.
    """

    entity_interner: Interner
    relation_interner: Interner

    def add(self, head: str, relation: str, tail: str) -> bool: ...

    def add_many(self, triples: Iterable[Triple]) -> int: ...

    def discard(self, head: str, relation: str, tail: str) -> bool: ...

    def contains(self, head: str, relation: str, tail: str) -> bool: ...

    def clone_empty(self) -> "GraphBackend": ...

    def __len__(self) -> int: ...

    def iter_triples(self) -> Iterator[Triple]: ...

    def match(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None, sort: bool = False) -> List[Triple]: ...

    def iter_match(self, head: Optional[str] = None, relation: Optional[str] = None,
                   tail: Optional[str] = None) -> Iterator[Triple]: ...

    def count(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None) -> int: ...

    def tails(self, head: str, relation: str) -> List[str]: ...

    def heads(self, relation: str, tail: str) -> List[str]: ...

    def degree(self, node: str) -> int: ...

    def entities(self) -> List[str]: ...

    def relations(self) -> List[str]: ...

    def heads_only(self) -> List[str]: ...

    def relation_frequencies(self) -> Dict[str, int]: ...

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]: ...

    def tails_many(self, pairs: Sequence[Tuple[str, str]]) -> List[List[str]]: ...

    def degree_many(self, nodes: Sequence[str]) -> List[int]: ...

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]: ...

    def match_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> np.ndarray: ...

    def match_ids_many(self, patterns: Sequence[IdPattern]) -> List[np.ndarray]: ...

    def count_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> int: ...


class _BatchedQueriesMixin:
    """Default batched implementations shared by all backends.

    Backends override the single-pattern primitives; the batched surface
    composes them so every backend speaks the same batched API even before
    it grows a vectorized fast path.
    """

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]:
        """One result list per (head, relation, tail) pattern."""
        return [self.match(head, relation, tail, sort=sort)
                for head, relation, tail in patterns]

    def tails_many(self, pairs: Sequence[Tuple[str, str]]) -> List[List[str]]:
        """One sorted tail list per (head, relation) pair."""
        return [self.tails(head, relation) for head, relation in pairs]

    def degree_many(self, nodes: Sequence[str]) -> List[int]:
        """Total degree per node."""
        return [self.degree(node) for node in nodes]

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        """One match count per (head, relation, tail) pattern.

        The query planner orders a conjunctive query's patterns by these
        counts in a single batched call; the sharded backend overrides
        this to route head-bound patterns to their owner shard.
        """
        return [self.count(head, relation, tail)
                for head, relation, tail in patterns]

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Add a batch of triples; returns how many were actually new.

        Backends with a vectorized bulk-load path (the sharded backend)
        override this; the default simply loops :meth:`add`.
        """
        add = self.add
        return sum(1 for triple in triples
                   if add(triple.head, triple.relation, triple.tail))

    def discard_many(self, triples: Iterable[Triple]) -> int:
        """Remove a batch of triples; returns how many were present.

        The bulk counterpart of :meth:`discard` — the WAL replay path
        and ``TripleStore.remove_many`` both fold removals through it.
        The sharded backend overrides this to group the batch by owner
        shard first.
        """
        discard = self.discard
        return sum(1 for triple in triples
                   if discard(triple.head, triple.relation, triple.tail))

    def clone_empty(self) -> "GraphBackend":
        """A fresh empty backend of the same kind and configuration.

        Backends with constructor arguments (e.g. a future on-disk
        backend) must override this so :meth:`TripleStore.copy` can
        reproduce their configuration.
        """
        return type(self)()


class ColumnarBackend(_BatchedQueriesMixin):
    """Interned-id columnar store with CSR adjacency indexes.

    Triples are held as an insertion-ordered dict of ``(h, r, t)`` int-id
    keys (O(1) membership and dedup) and, lazily on first query after a
    mutation, as three parallel ``int64`` numpy columns with three sort
    permutations:

    * ``spo`` — sorted by (head, relation, tail): per-head CSR offsets,
      (head, relation) subranges via ``searchsorted`` on the relation
      column inside the head slice;
    * ``pos`` — sorted by (relation, tail, head): per-relation CSR
      offsets, (relation, tail) subranges;
    * ``osp`` — sorted by (tail, head, relation): per-tail CSR offsets,
      (tail, head) subranges.

    Pattern queries therefore slice arrays; strings only appear when a
    caller asks for :class:`Triple` objects.

    **Incremental index maintenance.**  Once a base index exists,
    mutations do not invalidate it.  Adds accumulate in a small sorted
    delta block, deletes flip bits in a deleted-row mask over the base,
    and every query merges base slices (minus deleted rows) with a
    vectorized scan of the delta.  A full rebuild only happens when the
    overlay (added + deleted rows) exceeds ``delta_threshold``, or when a
    caller touches the flat id surface (:meth:`id_triples`,
    :meth:`match_id_rows`, the sort ranks), which by contract describes a
    single consolidated column block.  :attr:`rebuild_count` counts full
    rebuilds so tests and benchmarks can assert the deferral actually
    happens; ``delta_threshold=0`` restores the old eager
    rebuild-per-mutation-burst behaviour.
    """

    name = "columnar"

    def __init__(self, delta_threshold: int = 1024) -> None:
        self.entity_interner = Interner()
        self.relation_interner = Interner()
        # Insertion-ordered so iteration and the column layout are
        # deterministic for a deterministic construction sequence.
        self._rows: Dict[Tuple[int, int, int], None] = {}
        self.delta_threshold = int(delta_threshold)
        #: Number of full index (re)builds performed so far.
        self.rebuild_count = 0
        self._dirty = True
        self._cols: Optional[np.ndarray] = None  # (n, 3) int64
        self._perm_spo: Optional[np.ndarray] = None
        self._perm_pos: Optional[np.ndarray] = None
        self._perm_osp: Optional[np.ndarray] = None
        self._head_offsets: Optional[np.ndarray] = None
        self._rel_offsets: Optional[np.ndarray] = None
        self._tail_offsets: Optional[np.ndarray] = None
        self._entity_rank: Optional[np.ndarray] = None
        self._relation_rank: Optional[np.ndarray] = None
        # Delta overlay over the base block: rows added since the last
        # rebuild (insertion-ordered dict + lazily sorted block) and a
        # deleted-row mask over the base columns.
        self._delta_add: Dict[Tuple[int, int, int], None] = {}
        self._delta_block: Optional[np.ndarray] = None
        self._deleted_mask: Optional[np.ndarray] = None
        self._num_deleted = 0

    def clone_empty(self) -> "GraphBackend":
        return type(self)(delta_threshold=self.delta_threshold)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, head: str, relation: str, tail: str) -> bool:
        if not (head and relation and tail):
            raise ValueError(
                f"triple components must be non-empty, got ({head!r}, {relation!r}, {tail!r})")
        key = (self.entity_interner.intern(head),
               self.relation_interner.intern(relation),
               self.entity_interner.intern(tail))
        if key in self._rows:
            return False
        self._rows[key] = None
        if self._dirty:
            return True
        if self._overlay_size() >= self.delta_threshold:
            # The overlay is already at the rebuild threshold, so the next
            # query rebuilds from _rows regardless — stop paying per-insert
            # binary searches and fall back to the dirty flag (O(1) adds,
            # the bulk-load fast path).
            self._dirty = True
            self._delta_add.clear()
            self._delta_block = None
            self._deleted_mask = None
            self._num_deleted = 0
            return True
        base_row = self._find_base_row(key)
        if base_row is not None and self._deleted_mask is not None \
                and self._deleted_mask[base_row]:
            # Re-adding a base row that was overlay-deleted: resurrect it
            # in place instead of growing the delta.
            self._deleted_mask[base_row] = False
            self._num_deleted -= 1
        else:
            self._delta_add[key] = None
            self._delta_block = None
        return True

    def discard(self, head: str, relation: str, tail: str) -> bool:
        key = self._key_of(head, relation, tail)
        if key is None or key not in self._rows:
            return False
        del self._rows[key]
        if self._dirty:
            return True
        if key in self._delta_add:
            del self._delta_add[key]
            self._delta_block = None
            return True
        base_row = self._find_base_row(key)
        if base_row is None:  # pragma: no cover - _rows and base agree
            self._dirty = True
            return True
        if self._deleted_mask is None:
            self._deleted_mask = np.zeros(len(self._cols), dtype=bool)
        self._deleted_mask[base_row] = True
        self._num_deleted += 1
        return True

    def _key_of(self, head: str, relation: str,
                tail: str) -> Optional[Tuple[int, int, int]]:
        head_id = self.entity_interner.lookup(head)
        relation_id = self.relation_interner.lookup(relation)
        tail_id = self.entity_interner.lookup(tail)
        if head_id is None or relation_id is None or tail_id is None:
            return None
        return (head_id, relation_id, tail_id)

    # ------------------------------------------------------------------ #
    # index maintenance
    # ------------------------------------------------------------------ #
    def _install_cols(self, cols: np.ndarray) -> None:
        """Install ``cols`` as the base block and (re)build all indexes.

        Also resets the delta overlay: after installation the base block
        alone describes the store.
        """
        num_entities = len(self.entity_interner)
        num_relations = len(self.relation_interner)
        heads, rels, tails = cols[:, 0], cols[:, 1], cols[:, 2]
        entity_ids = np.arange(num_entities + 1, dtype=np.int64)
        relation_ids = np.arange(num_relations + 1, dtype=np.int64)
        perm_spo = np.lexsort((tails, rels, heads))
        perm_pos = np.lexsort((heads, tails, rels))
        perm_osp = np.lexsort((rels, heads, tails))
        self._cols = cols
        self._perm_spo = perm_spo
        self._perm_pos = perm_pos
        self._perm_osp = perm_osp
        self._head_offsets = np.searchsorted(heads[perm_spo], entity_ids)
        self._rel_offsets = np.searchsorted(rels[perm_pos], relation_ids)
        self._tail_offsets = np.searchsorted(tails[perm_osp], entity_ids)
        self._entity_rank = None
        self._relation_rank = None
        self._delta_add.clear()
        self._delta_block = None
        self._deleted_mask = None
        self._num_deleted = 0
        self._dirty = False
        self.rebuild_count += 1

    def _rebuild_source(self) -> np.ndarray:
        """The full (n, 3) id block to rebuild the base from."""
        if self._rows:
            return np.fromiter(
                (component for row in self._rows for component in row),
                dtype=np.int64, count=3 * len(self._rows),
            ).reshape(-1, 3)
        return np.zeros((0, 3), dtype=np.int64)

    def _rebuild(self) -> None:
        self._install_cols(self._rebuild_source())

    def _overlay_size(self) -> int:
        return len(self._delta_add) + self._num_deleted

    def _ensure_base(self) -> None:
        """Make sure a base index exists; consolidate an oversized overlay."""
        if self._dirty or self._overlay_size() > self.delta_threshold:
            self._rebuild()

    def _ensure_index(self) -> None:
        """Fully consolidate: fold any pending overlay into the base block.

        The flat id surface (:meth:`id_triples`, :meth:`match_id_rows`,
        the sort ranks) describes exactly one column block, so it calls
        this instead of :meth:`_ensure_base`.
        """
        if self._dirty or self._delta_add or self._num_deleted:
            self._rebuild()

    # ------------------------------------------------------------------ #
    # delta overlay
    # ------------------------------------------------------------------ #
    def _find_base_row(self, key: Tuple[int, int, int]) -> Optional[int]:
        """Row index of ``key`` in the base block (deleted or not), else None."""
        head_id, relation_id, tail_id = key
        rows = self._slice(self._perm_spo, self._head_offsets, head_id)
        rows = self._subrange(rows, 1, relation_id)
        rows = self._subrange(rows, 2, tail_id)
        return int(rows[0]) if len(rows) else None

    def _delta_cols(self) -> np.ndarray:
        """The overlay's added rows as a (d, 3) block sorted by (h, r, t)."""
        if self._delta_block is None:
            if self._delta_add:
                block = np.fromiter(
                    (component for row in self._delta_add for component in row),
                    dtype=np.int64, count=3 * len(self._delta_add),
                ).reshape(-1, 3)
                block = block[np.lexsort((block[:, 2], block[:, 1], block[:, 0]))]
            else:
                block = np.zeros((0, 3), dtype=np.int64)
            self._delta_block = block
        return self._delta_block

    def _live_base_rows(self, head_id: Optional[int], relation_id: Optional[int],
                        tail_id: Optional[int]) -> np.ndarray:
        """Base rows matching an id pattern, minus overlay-deleted rows."""
        rows = self._base_match_rows(head_id, relation_id, tail_id)
        if self._num_deleted:
            rows = rows[~self._deleted_mask[rows]]
        return rows

    def _delta_match(self, head_id: Optional[int], relation_id: Optional[int],
                     tail_id: Optional[int]) -> np.ndarray:
        """Overlay-added rows matching an id pattern (vectorized scan)."""
        delta = self._delta_cols()
        if not len(delta):
            return delta
        mask = np.ones(len(delta), dtype=bool)
        if head_id is not None:
            mask &= delta[:, 0] == head_id
        if relation_id is not None:
            mask &= delta[:, 1] == relation_id
        if tail_id is not None:
            mask &= delta[:, 2] == tail_id
        return delta[mask]

    def _merged_ids(self, head_id: Optional[int] = None,
                    relation_id: Optional[int] = None,
                    tail_id: Optional[int] = None) -> np.ndarray:
        """The (k, 3) id triples matching a pattern, overlay included."""
        self._ensure_base()
        base = self._cols[self._live_base_rows(head_id, relation_id, tail_id)]
        delta = self._delta_match(head_id, relation_id, tail_id)
        if not len(delta):
            return base
        if not len(base):
            return delta
        return np.concatenate((base, delta))

    def _merged_count(self, head_id: Optional[int], relation_id: Optional[int],
                      tail_id: Optional[int]) -> int:
        self._ensure_base()
        return int(len(self._live_base_rows(head_id, relation_id, tail_id))
                   + len(self._delta_match(head_id, relation_id, tail_id)))

    # ------------------------------------------------------------------ #
    # id-level query surface
    # ------------------------------------------------------------------ #
    def id_triples(self) -> np.ndarray:
        """The full (n, 3) int64 array of (head, relation, tail) ids.

        The returned array is the backend's live column block — treat it
        as read-only.
        """
        self._ensure_index()
        return self._cols

    def _slice(self, perm: np.ndarray, offsets: np.ndarray,
               group_id: int) -> np.ndarray:
        if group_id < 0 or group_id >= len(offsets) - 1:
            return perm[0:0]
        return perm[offsets[group_id]:offsets[group_id + 1]]

    def _subrange(self, rows: np.ndarray, column: int, value: int) -> np.ndarray:
        """Narrow ``rows`` (already sorted by ``column``) to one value."""
        keys = self._cols[rows, column]
        lo = int(np.searchsorted(keys, value, side="left"))
        hi = int(np.searchsorted(keys, value, side="right"))
        return rows[lo:hi]

    def match_id_rows(self, head_id: Optional[int] = None,
                      relation_id: Optional[int] = None,
                      tail_id: Optional[int] = None) -> np.ndarray:
        """Row indices into :meth:`id_triples` matching an id pattern."""
        self._ensure_index()
        return self._base_match_rows(head_id, relation_id, tail_id)

    def _base_match_rows(self, head_id: Optional[int] = None,
                         relation_id: Optional[int] = None,
                         tail_id: Optional[int] = None) -> np.ndarray:
        """Base-block row indices matching an id pattern (ignores overlay)."""
        if head_id is not None:
            rows = self._slice(self._perm_spo, self._head_offsets, head_id)
            if relation_id is not None:
                rows = self._subrange(rows, 1, relation_id)
                if tail_id is not None:
                    rows = self._subrange(rows, 2, tail_id)
            elif tail_id is not None:
                rows = self._slice(self._perm_osp, self._tail_offsets, tail_id)
                rows = self._subrange(rows, 0, head_id)
            return rows
        if relation_id is not None:
            rows = self._slice(self._perm_pos, self._rel_offsets, relation_id)
            if tail_id is not None:
                rows = self._subrange(rows, 2, tail_id)
            return rows
        if tail_id is not None:
            return self._slice(self._perm_osp, self._tail_offsets, tail_id)
        return self._perm_spo

    def match_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> np.ndarray:
        """The (k, 3) id triples matching an id pattern."""
        self._ensure_index()
        return self._cols[self.match_id_rows(head_id, relation_id, tail_id)]

    def match_ids_many(self, patterns: Sequence[IdPattern]) -> List[np.ndarray]:
        """One (k, 3) id block per id pattern.

        The batched entry point the ID-space query executor drives; the
        sharded backend overrides it to route head-bound patterns to
        their owner shard and fan the rest out across shards.
        """
        self._ensure_index()
        return [self._cols[self._base_match_rows(head_id, relation_id, tail_id)]
                for head_id, relation_id, tail_id in patterns]

    def count_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> int:
        """Number of triples matching an id pattern (no materialization)."""
        self._ensure_index()
        return int(len(self._base_match_rows(head_id, relation_id, tail_id)))

    def entity_sort_rank(self) -> np.ndarray:
        """Rank of each entity id in lexicographic symbol order.

        ``rank[id]`` is the position the entity's symbol would take in
        ``sorted(symbols)``; used by the sampling layer to reproduce
        string-sorted orderings without materializing strings per triple.
        Python's own ``sorted`` is used (not numpy's code-point unicode
        sort) so the ordering matches ``sorted()`` everywhere else.
        """
        self._ensure_index()
        if self._entity_rank is None or len(self._entity_rank) != len(self.entity_interner):
            symbols = self.entity_interner.symbols()
            order = sorted(range(len(symbols)), key=symbols.__getitem__)
            rank = np.empty(len(symbols), dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(len(symbols), dtype=np.int64)
            self._entity_rank = rank
        return self._entity_rank

    def relation_sort_rank(self) -> np.ndarray:
        """Rank of each relation id in lexicographic symbol order."""
        self._ensure_index()
        if self._relation_rank is None \
                or len(self._relation_rank) != len(self.relation_interner):
            symbols = self.relation_interner.symbols()
            order = sorted(range(len(symbols)), key=symbols.__getitem__)
            rank = np.empty(len(symbols), dtype=np.int64)
            rank[np.asarray(order, dtype=np.int64)] = np.arange(len(symbols), dtype=np.int64)
            self._relation_rank = rank
        return self._relation_rank

    def _resolve(self, head: Optional[str], relation: Optional[str],
                 tail: Optional[str]) -> Optional[Tuple[Optional[int], Optional[int], Optional[int]]]:
        """Translate a string pattern to ids; ``None`` if any constant is unknown."""
        head_id = relation_id = tail_id = None
        if head is not None:
            head_id = self.entity_interner.lookup(head)
            if head_id is None:
                return None
        if relation is not None:
            relation_id = self.relation_interner.lookup(relation)
            if relation_id is None:
                return None
        if tail is not None:
            tail_id = self.entity_interner.lookup(tail)
            if tail_id is None:
                return None
        return head_id, relation_id, tail_id

    def _materialize(self, ids: np.ndarray) -> List[Triple]:
        """Turn a (k, 3) id block into Triple objects in one batched conversion."""
        if not len(ids):
            return []
        entity = self.entity_interner._id_to_symbol
        relation = self.relation_interner._id_to_symbol
        new_triple = Triple.unchecked
        return [new_triple(entity[head_id], relation[relation_id], entity[tail_id])
                for head_id, relation_id, tail_id in ids.tolist()]

    # ------------------------------------------------------------------ #
    # string-level query surface
    # ------------------------------------------------------------------ #
    def contains(self, head: str, relation: str, tail: str) -> bool:
        key = self._key_of(head, relation, tail)
        return key is not None and key in self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def iter_triples(self) -> Iterator[Triple]:
        entity = self.entity_interner._id_to_symbol
        relation = self.relation_interner._id_to_symbol
        new_triple = Triple.unchecked
        for head_id, relation_id, tail_id in self._rows:
            yield new_triple(entity[head_id], relation[relation_id], entity[tail_id])

    def match(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None, sort: bool = False) -> List[Triple]:
        if head is not None and relation is not None and tail is not None:
            return [Triple(head, relation, tail)] if self.contains(head, relation, tail) else []
        resolved = self._resolve(head, relation, tail)
        if resolved is None:
            return []
        result = self._materialize(self._merged_ids(*resolved))
        if sort:
            result.sort()
        return result

    def iter_match(self, head: Optional[str] = None, relation: Optional[str] = None,
                   tail: Optional[str] = None) -> Iterator[Triple]:
        if head is not None and relation is not None and tail is not None:
            if self.contains(head, relation, tail):
                yield Triple(head, relation, tail)
            return
        resolved = self._resolve(head, relation, tail)
        if resolved is None:
            return
        ids = self._merged_ids(*resolved)
        entity = self.entity_interner._id_to_symbol
        relation_symbols = self.relation_interner._id_to_symbol
        new_triple = Triple.unchecked
        for head_id, relation_id, tail_id in ids.tolist():
            yield new_triple(entity[head_id], relation_symbols[relation_id],
                             entity[tail_id])

    def count(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None) -> int:
        if head is not None and relation is not None and tail is not None:
            return 1 if self.contains(head, relation, tail) else 0
        if head is None and relation is None and tail is None:
            return len(self)
        resolved = self._resolve(head, relation, tail)
        if resolved is None:
            return 0
        return self._merged_count(*resolved)

    def tails(self, head: str, relation: str) -> List[str]:
        resolved = self._resolve(head, relation, None)
        if resolved is None:
            return []
        ids = self._merged_ids(resolved[0], resolved[1], None)
        symbols = self.entity_interner._id_to_symbol
        return sorted(symbols[tail_id] for tail_id in ids[:, 2].tolist())

    def heads(self, relation: str, tail: str) -> List[str]:
        resolved = self._resolve(None, relation, tail)
        if resolved is None:
            return []
        ids = self._merged_ids(None, resolved[1], resolved[2])
        symbols = self.entity_interner._id_to_symbol
        return sorted(symbols[head_id] for head_id in ids[:, 0].tolist())

    def degree(self, node: str) -> int:
        node_id = self.entity_interner.lookup(node)
        if node_id is None:
            return 0
        self._ensure_base()
        total = 0
        out_rows = self._slice(self._perm_spo, self._head_offsets, node_id)
        in_rows = self._slice(self._perm_osp, self._tail_offsets, node_id)
        if self._num_deleted:
            total += int(len(out_rows) - self._deleted_mask[out_rows].sum())
            total += int(len(in_rows) - self._deleted_mask[in_rows].sum())
        else:
            total += len(out_rows) + len(in_rows)
        delta = self._delta_cols()
        if len(delta):
            total += int((delta[:, 0] == node_id).sum() + (delta[:, 2] == node_id).sum())
        return total

    def _entity_degree_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """(out_degree, in_degree) per entity id, overlay included."""
        self._ensure_base()
        out_counts = np.diff(self._head_offsets)
        in_counts = np.diff(self._tail_offsets)
        num_entities = len(self.entity_interner)
        if self._num_deleted:
            deleted = np.flatnonzero(self._deleted_mask)
            out_counts = out_counts - np.bincount(self._cols[deleted, 0],
                                                  minlength=len(out_counts))
            in_counts = in_counts - np.bincount(self._cols[deleted, 2],
                                                minlength=len(in_counts))
        if len(out_counts) < num_entities:
            grow = np.zeros(num_entities - len(out_counts), dtype=np.int64)
            out_counts = np.concatenate((out_counts, grow))
            in_counts = np.concatenate((in_counts, grow))
        delta = self._delta_cols()
        if len(delta):
            out_counts = out_counts + np.bincount(delta[:, 0], minlength=num_entities)
            in_counts = in_counts + np.bincount(delta[:, 2], minlength=num_entities)
        return out_counts, in_counts

    def _relation_counts(self) -> np.ndarray:
        """Triple count per relation id, overlay included."""
        self._ensure_base()
        counts = np.diff(self._rel_offsets)
        num_relations = len(self.relation_interner)
        if self._num_deleted:
            deleted = np.flatnonzero(self._deleted_mask)
            counts = counts - np.bincount(self._cols[deleted, 1],
                                          minlength=len(counts))
        if len(counts) < num_relations:
            counts = np.concatenate(
                (counts, np.zeros(num_relations - len(counts), dtype=np.int64)))
        delta = self._delta_cols()
        if len(delta):
            counts = counts + np.bincount(delta[:, 1], minlength=num_relations)
        return counts

    def degree_many(self, nodes: Sequence[str]) -> List[int]:
        out_counts, in_counts = self._entity_degree_counts()
        result: List[int] = []
        for node in nodes:
            node_id = self.entity_interner.lookup(node)
            if node_id is None or node_id >= len(out_counts):
                result.append(0)
            else:
                result.append(int(out_counts[node_id] + in_counts[node_id]))
        return result

    def entities(self) -> List[str]:
        out_counts, in_counts = self._entity_degree_counts()
        active = (out_counts > 0) | (in_counts > 0)
        symbol = self.entity_interner.symbol_of
        return sorted(symbol(int(entity_id)) for entity_id in np.flatnonzero(active))

    def relations(self) -> List[str]:
        active = self._relation_counts() > 0
        symbol = self.relation_interner.symbol_of
        return sorted(symbol(int(relation_id)) for relation_id in np.flatnonzero(active))

    def heads_only(self) -> List[str]:
        out_counts, _in_counts = self._entity_degree_counts()
        symbol = self.entity_interner.symbol_of
        return sorted(symbol(int(entity_id)) for entity_id in np.flatnonzero(out_counts > 0))

    def relation_frequencies(self) -> Dict[str, int]:
        counts = self._relation_counts()
        symbol = self.relation_interner.symbol_of
        return {symbol(int(relation_id)): int(counts[relation_id])
                for relation_id in np.flatnonzero(counts > 0)}

    def save(self, directory: "str | Path") -> Path:
        """Persist the (consolidated) store as a memory-mappable directory.

        Returns the directory path; reopen with
        :meth:`repro.kg.mmap_backend.MmapBackend.open`.
        """
        from repro.kg.mmap_backend import write_backend_dir
        return write_backend_dir(self, directory)


#: Registered backend implementations, keyed by their CLI name.
BACKENDS: Dict[str, type] = {
    ColumnarBackend.name: ColumnarBackend,
}

#: The backend used when callers don't pick one explicitly.
DEFAULT_BACKEND = ColumnarBackend.name


def make_backend(name: str, **options) -> GraphBackend:
    """Instantiate a registered backend by name.

    Keyword options are forwarded to the backend constructor (e.g.
    ``make_backend("sharded", n_shards=8)``).
    """
    try:
        backend_class = BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(BACKENDS))
        raise ValueError(f"unknown graph backend {name!r} (known: {known})") from None
    return backend_class(**options)
