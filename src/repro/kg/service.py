"""A concurrent, batching query service over a :class:`TripleStore`.

The ROADMAP's service-layer milestone: many clients — request-handler
threads of a web front-end, worker processes sharing one on-disk store
directory — issue pattern queries and point lookups concurrently, and
the store answers them through its *batched* APIs rather than one
round-trip per request.

:class:`QueryService` is that multiplexer:

* clients call :meth:`execute` / :meth:`execute_batch` /
  :meth:`lookup_many` (or :meth:`submit` for a future) from any number
  of threads;
* requests land on an internal queue; a single **dispatcher** thread
  drains whatever has accumulated (up to ``max_batch`` requests),
  plans every pattern query in the batch with ONE batched
  ``count_many`` call, advances all their plans in lockstep through
  shared ``match_ids_many`` fetches
  (:func:`repro.kg.executor.execute_plans`), and answers point lookups
  with one ``match_many`` call — then resolves each request's future;
* because only the dispatcher touches the backend, the service is safe
  over backends whose lazy attach/consolidate steps are not thread-safe,
  while the sharded backend still parallelizes *inside* each batched
  call across its shard pool;
* huge results stream instead of materializing: :meth:`open_cursor` /
  :meth:`open_match_cursor` park a
  :class:`~repro.kg.executor.ResultCursor` (the compact id-row
  projection) in a TTL-evicted table, and :meth:`fetch_cursor` pages it
  out — the mechanism :class:`repro.kg.server.KGServer` exposes over
  the wire.  Every cursor-lifecycle violation (expiry, double close,
  unknown id, non-positive page) raises a typed
  :class:`~repro.errors.CursorError`.

The service is also the store's **exclusive writer**: :meth:`add_many`
/ :meth:`remove_many` / :meth:`compact` enqueue write requests that the
same single dispatcher serves — writes serialize against each other and
against reads with no extra locking, reads keep batching, and within
one dispatch round every read observes the state *after* that round's
writes.  Each acked write batch bumps a monotonically increasing
``mutation_epoch`` (exposed in :attr:`stats`); on a live store
(:meth:`TripleStore.create_live`) the batch is WAL-logged and fsync'd
before its future resolves.  Writes against a store opened read-only
from a plain snapshot directory raise a typed
:class:`~repro.errors.StorageError` at submit time.  Open cursors keep
paging the snapshot they materialized — a write never splices
mixed-epoch rows into an existing cursor.

Hot queries short-circuit all of the above: the dispatcher consults a
**result cache** before a pattern query joins a batch round — key =
:func:`repro.kg.planner.cache_key` (interned pattern ids + select +
reorder flag, limit-independent), value = the full deduplicated
:class:`~repro.kg.executor.IdBlock` (strings still materialize per
request/page, so the binary codec ships cached blocks without
re-stringifying), LRU-evicted under a byte budget, dropped wholesale on
every ``mutation_epoch`` bump.  Check, fill and invalidation all happen
on the one dispatcher thread, so a stale hit after an acked write is
impossible by construction; ``compact()`` doesn't bump the epoch, so
compaction keeps the cache warm.

Construction warms the backend up (attaches memmaps, folds any pending
overlay) so steady-state dispatch never pays a consolidation.  The
store must not be mutated *around* a running service — all mutations go
through the service's write surface.

For multi-process deployments, every process opens the same (sharded)
store directory via :func:`QueryService.open` — ``TripleStore.open``
memory-maps the column files read-only, so the OS page cache is shared
and each process runs its own dispatcher.
"""

from __future__ import annotations

import queue
import secrets
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import CursorError, QueryError, StorageError
from repro.kg.backend import Pattern
from repro.kg.executor import (Binding, IdBlock, ResultCursor,
                               execute_plans_cursors)
from repro.kg.planner import (PatternQuery, cache_key as plan_cache_key,
                              plan_queries, validate_limit)
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

#: Kinds of requests the service multiplexes.
_QUERY = "query"                 # pattern query -> List[Binding]
_LOOKUP = "lookup"               # point lookup  -> List[Triple]
_ID_LOOKUP = "id-lookup"         # raw id pattern -> triples IdBlock
_COUNT = "count"                 # point pattern -> int
_CURSOR_QUERY = "cursor-query"   # pattern query -> cursor id
_CURSOR_MATCH = "cursor-match"   # point lookup  -> cursor id
_CURSOR_FETCH = "cursor-fetch"   # (cursor id, max_rows) -> (page, exhausted)
_CURSOR_CLOSE = "cursor-close"   # cursor id -> None
_ADD = "add"                     # List[Triple] -> newly-added count
_REMOVE = "remove"               # List[Triple] -> removed count
_COMPACT = "compact"             # crash_hook | None -> new generation
_SWAP = "swap-store"             # TripleStore -> the replaced store

#: Kinds the dispatcher serves before any read in the same batch.
_WRITE_KINDS = frozenset((_ADD, _REMOVE, _COMPACT, _SWAP))

#: Sentinel shoved down the queue to stop the dispatcher.
_SHUTDOWN = object()

#: Default idle lifetime of an open cursor, seconds.
DEFAULT_CURSOR_TTL = 300.0

#: Default byte budget of the hot-query result cache (0 disables it).
DEFAULT_CACHE_BYTES = 64 * 1024 * 1024


def _resolve(future: "Future", result=None, exception: Optional[BaseException] = None) -> None:
    """Resolve a future, tolerating client-side cancellation.

    A client may ``cancel()`` a still-pending future before its batch is
    dispatched; ``set_result`` on a cancelled future raises
    ``InvalidStateError``, which would kill the dispatcher thread and
    hang every later request — the cancelled request just gets dropped
    instead.
    """
    if not future.set_running_or_notify_cancel():
        return
    if exception is not None:
        future.set_exception(exception)
    else:
        future.set_result(result)


class _Request:
    """One queued client request: payload plus the future to resolve.

    ``raw`` requests resolve to id-space results
    (:class:`~repro.kg.executor.IdBlock`) instead of materialized
    strings — the handoff the binary wire codec serves from.
    """

    __slots__ = ("kind", "payload", "reorder", "raw", "future", "cache_key")

    def __init__(self, kind: str, payload, reorder: bool,
                 raw: bool = False) -> None:
        self.kind = kind
        self.payload = payload
        self.reorder = reorder
        self.raw = raw
        self.future: "Future" = Future()
        # Set by the dispatcher for cacheable pattern queries: the plan
        # cache key a missing result should be inserted under.
        self.cache_key: Optional[Tuple] = None


class _ResultCache:
    """Hot-query result cache: plan cache key → the full deduplicated
    :class:`~repro.kg.executor.IdBlock`, LRU-evicted under a byte budget.

    Structure is touched exclusively by the dispatcher thread; the
    service wraps every counter-mutating call in its stats lock so
    :attr:`QueryService.stats` reads one consistent snapshot.  Cached
    blocks are immutable — a hit serves zero-copy slices of the stored
    array, and invalidation merely drops references, so views handed to
    still-open cursors survive a drop unchanged.  An entry bigger than
    the whole budget is never admitted (it could only thrash).
    """

    __slots__ = ("max_bytes", "bytes", "entries", "hits", "misses",
                 "evictions", "invalidations", "_table")

    #: Per-entry bookkeeping charge on top of the raw row bytes (key
    #: tuple, table slot, block header) so a flood of tiny results
    #: still counts against the budget.
    ENTRY_OVERHEAD = 128

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = int(max_bytes)
        self.bytes = 0
        self.entries = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._table: "OrderedDict[Tuple, Tuple[int, IdBlock]]" = OrderedDict()

    @classmethod
    def _cost(cls, block: IdBlock) -> int:
        return int(block.rows.nbytes) + cls.ENTRY_OVERHEAD

    def get(self, key: Tuple) -> Optional[IdBlock]:
        entry = self._table.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._table.move_to_end(key)
        self.hits += 1
        return entry[1]

    def put(self, key: Tuple, block: IdBlock) -> None:
        cost = self._cost(block)
        if cost > self.max_bytes:
            return
        previous = self._table.pop(key, None)
        if previous is not None:
            self.bytes -= previous[0]
        while self._table and self.bytes + cost > self.max_bytes:
            _key, (evicted_cost, _block) = self._table.popitem(last=False)
            self.bytes -= evicted_cost
            self.evictions += 1
        self._table[key] = (cost, block)
        self.bytes += cost
        self.entries = len(self._table)

    def clear(self) -> None:
        self.invalidations += 1
        self._table.clear()
        self.bytes = 0
        self.entries = 0


class QueryService:
    """Multiplexes concurrent pattern queries into backend batch calls.

    Parameters
    ----------
    store:
        The (already built or opened) store to serve.  Not mutated.
    max_batch:
        Upper bound on how many requests one dispatch round coalesces.
        Larger batches amortize planning and fetch round-trips better;
        the default is plenty to saturate the batched backend APIs.
    cache_bytes:
        Byte budget of the hot-query result cache (``0`` disables it).
        The dispatcher checks the cache before a pattern query joins a
        batch round; entries are the full limit-stripped id-row blocks
        keyed by :func:`~repro.kg.planner.cache_key`, LRU-evicted under
        this budget, and dropped wholesale on every ``mutation_epoch``
        bump (``compact()`` doesn't bump, so compaction keeps the cache
        warm).  Because the same single dispatcher checks, fills and
        invalidates, a stale hit after a write is impossible by
        construction.

    Use as a context manager or call :meth:`close` — the dispatcher is
    a daemon thread, but closing deterministically drains in-flight
    requests first.
    """

    def __init__(self, store: TripleStore, *, max_batch: int = 256,
                 cursor_ttl: float = DEFAULT_CURSOR_TTL,
                 cache_bytes: int = DEFAULT_CACHE_BYTES) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if cursor_ttl <= 0:
            raise ValueError(f"cursor_ttl must be > 0 seconds, got {cursor_ttl}")
        if cache_bytes < 0:
            raise ValueError(f"cache_bytes must be >= 0, got {cache_bytes}")
        self.store = store
        self.max_batch = int(max_batch)
        self.cursor_ttl = float(cursor_ttl)
        self._queue: "queue.SimpleQueue" = queue.SimpleQueue()
        self._closed = False
        self._close_lock = threading.Lock()
        # Open cursors: id -> (ResultCursor, monotonic deadline).  Only
        # the dispatcher thread touches this dict after construction.
        self._cursors: Dict[str, Tuple[ResultCursor, float]] = {}
        # Observability: how much multiplexing actually happens.  All
        # counters mutate under _stats_lock so `stats` can read one
        # consistent snapshot (the dispatcher holds it only for the
        # few-instruction bumps, never across backend calls).
        self._stats_lock = threading.Lock()
        self.requests_served = 0
        self.batches_dispatched = 0
        self.largest_batch = 0
        self.cursors_opened = 0
        self.cursors_expired = 0
        # Monotonically increasing write clock: +1 per acked write batch.
        self.mutation_epoch = 0
        self.write_batches = 0
        self._cache: Optional[_ResultCache] = (
            _ResultCache(cache_bytes) if cache_bytes > 0 else None)
        self._warm_up()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="kg-query-service", daemon=True)
        self._dispatcher.start()

    @classmethod
    def open(cls, directory: Union[str, Path], *, max_batch: int = 256,
             cursor_ttl: float = DEFAULT_CURSOR_TTL,
             cache_bytes: int = DEFAULT_CACHE_BYTES) -> "QueryService":
        """Open a saved store directory (any layout) and serve it.

        Dispatches on the header magic exactly like
        :meth:`TripleStore.open` — sharded directories come back as a
        shard-routed backend, single-store directories as memory-mapped
        columns.
        """
        return cls(TripleStore.open(directory), max_batch=max_batch,
                   cursor_ttl=cursor_ttl, cache_bytes=cache_bytes)

    @property
    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the multiplexing counters.

        ``batches_dispatched < requests_served`` is the signature of
        coalescing actually happening (the first request of a burst can
        only ever dispatch solo).  Taken under the same lock every
        dispatcher-side counter bump holds, so the fields cohere —
        e.g. ``cache_hits + cache_misses`` never transiently exceeds
        the pattern queries served.
        """
        with self._stats_lock:
            cache = self._cache
            return {
                "requests_served": self.requests_served,
                "batches_dispatched": self.batches_dispatched,
                "largest_batch": self.largest_batch,
                "cursors_opened": self.cursors_opened,
                "cursors_expired": self.cursors_expired,
                "open_cursors": len(self._cursors),
                "max_batch": self.max_batch,
                "mutation_epoch": self.mutation_epoch,
                "write_batches": self.write_batches,
                "writable": self.store.writable,
                "cache_enabled": cache is not None,
                "cache_max_bytes": cache.max_bytes if cache else 0,
                "cache_bytes": cache.bytes if cache else 0,
                "cache_entries": cache.entries if cache else 0,
                "cache_hits": cache.hits if cache else 0,
                "cache_misses": cache.misses if cache else 0,
                "cache_evictions": cache.evictions if cache else 0,
                "cache_invalidations": cache.invalidations if cache else 0,
            }

    def _warm_up(self) -> None:
        """Force lazy attach/consolidation before concurrent dispatch starts.

        ``count_ids()`` touches the consolidated id surface without
        copying any column data (a wildcard ``match_ids`` would
        materialize the whole store once just to throw it away).
        """
        self.store.backend.count_ids()

    def _apply_swap(self, new_store: TripleStore) -> TripleStore:
        """Dispatcher-side half of :meth:`swap_store`."""
        new_store.backend.count_ids()
        old_store, self.store = self.store, new_store
        return old_store

    # ------------------------------------------------------------------ #
    # client surface (thread-safe)
    # ------------------------------------------------------------------ #
    def submit(self, query: PatternQuery, reorder: bool = True,
               raw: bool = False) -> "Future":
        """Enqueue one query; returns a future yielding ``List[Binding]``.

        With ``raw=True`` the future yields the id-space
        :class:`~repro.kg.executor.IdBlock` projection instead (an empty
        or no-variable result stays a list) — the binary wire path,
        which never stringifies a row.
        """
        return self._enqueue(_Request(_QUERY, query, reorder, raw=raw))

    def submit_lookup(self, pattern: Pattern, raw: bool = False) -> "Future":
        """Enqueue one point lookup; future yields ``List[Triple]``.

        Point lookups take constants and ``None`` wildcards only — a
        ``?variable`` here is almost certainly a pattern query routed to
        the wrong entry point, and would otherwise silently match
        nothing; use :meth:`submit` for variables.  ``raw=True`` yields
        a triples :class:`~repro.kg.executor.IdBlock`.
        """
        return self._enqueue(_Request(_LOOKUP, self._checked_pattern(pattern),
                                      True, raw=raw))

    @staticmethod
    def _checked_pattern(pattern: Pattern) -> Pattern:
        """Refuse a malformed point pattern in the caller's thread.

        A pattern that reached the dispatcher with the wrong arity would
        fail the whole batched backend call, and with it every
        batchmate's request.
        """
        pattern = tuple(pattern)
        if len(pattern) != 3:
            raise QueryError(
                f"point patterns have exactly 3 terms, got {len(pattern)}: "
                f"{pattern!r}")
        for term in pattern:
            if isinstance(term, str) and term.startswith("?"):
                raise QueryError(
                    f"point lookup got variable term {term!r}; use "
                    f"submit()/execute() with a PatternQuery for variables "
                    f"(wildcards here are spelled None)")
        return pattern

    def execute(self, query: PatternQuery, reorder: bool = True) -> List[Binding]:
        """Run one query, blocking until its batch is dispatched."""
        return self.submit(query, reorder=reorder).result()

    def execute_batch(self, queries: Sequence[PatternQuery],
                      reorder: bool = True) -> List[List[Binding]]:
        """Run a client-side batch; one future per query, awaited together."""
        futures = [self.submit(query, reorder=reorder) for query in queries]
        return [future.result() for future in futures]

    def lookup_many(self, patterns: Sequence[Pattern]) -> List[List[Triple]]:
        """Batched point lookups ((head, relation, tail), ``None`` wildcards)."""
        futures = [self.submit_lookup(pattern) for pattern in patterns]
        return [future.result() for future in futures]

    def submit_id_lookup(self, id_pattern) -> "Future":
        """Enqueue one **raw id-space** lookup; future yields a triples
        :class:`~repro.kg.executor.IdBlock`.

        The pattern is ``(head_id, relation_id, tail_id)`` with ``None``
        wildcards — interned ids, no string translation on either side.
        This is the coordinator fast path: a
        :class:`~repro.kg.cluster.ClusterBackend` whose interner tables
        match this store's fingerprint ships executor id patterns
        straight through and splices the returned blocks into its own
        join rounds.
        """
        checked = []
        for term in tuple(id_pattern):
            if term is None:
                checked.append(None)
            elif isinstance(term, (int, np.integer)) \
                    and not isinstance(term, bool):
                checked.append(int(term))
            else:
                raise QueryError(
                    f"id patterns take integer ids and None wildcards, "
                    f"got {term!r}")
        if len(checked) != 3:
            raise QueryError(
                f"id patterns have exactly 3 terms, got {len(checked)}")
        return self._enqueue(_Request(_ID_LOOKUP, tuple(checked), True,
                                      raw=True))

    def match_ids_many(self, id_patterns: Sequence) -> List[IdBlock]:
        """Batched raw id-space lookups (one backend call per round)."""
        futures = [self.submit_id_lookup(pattern)
                   for pattern in id_patterns]
        return [future.result() for future in futures]

    def submit_count(self, pattern: Pattern) -> "Future":
        """Enqueue one pattern count; future yields ``int``."""
        return self._enqueue(_Request(_COUNT, self._checked_pattern(pattern),
                                      True))

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        """Batched pattern counts (``None`` wildcards; one backend call)."""
        futures = [self.submit_count(pattern) for pattern in patterns]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------ #
    # writes (the exclusive-writer surface)
    # ------------------------------------------------------------------ #
    def _checked_write(self, triples) -> List[Triple]:
        """Validate a write batch up front, in the caller's thread.

        Refusing read-only stores *here* means the typed
        :class:`~repro.errors.StorageError` surfaces before anything is
        enqueued or logged, and reaches remote clients as itself rather
        than a generic wire error.
        """
        if not self.store.writable:
            raise StorageError(
                "store was opened read-only from a snapshot directory; "
                "writes need a live store (TripleStore.create_live / a "
                "live.json directory) or an in-memory store")
        items = list(triples)
        for item in items:
            if not isinstance(item, Triple):
                raise QueryError(
                    f"write batches take Triple items, got "
                    f"{type(item).__name__!s}")
        return items

    def submit_add(self, triples: Sequence[Triple]) -> "Future":
        """Enqueue one add batch; future yields the newly-added count.

        The batch is applied atomically with respect to every read the
        service serves: a concurrent query sees none or all of it.  On
        a live store the future resolves only after the batch's WAL
        record is fsync'd.
        """
        return self._enqueue(_Request(_ADD, self._checked_write(triples),
                                      True))

    def add_many(self, triples: Sequence[Triple]) -> int:
        """Durably add a batch of triples; returns the newly-added count."""
        return self.submit_add(triples).result()

    def submit_remove(self, triples: Sequence[Triple]) -> "Future":
        """Enqueue one remove batch; future yields the removed count."""
        return self._enqueue(_Request(_REMOVE, self._checked_write(triples),
                                      True))

    def remove_many(self, triples: Sequence[Triple]) -> int:
        """Durably remove a batch of triples; returns the removed count."""
        return self.submit_remove(triples).result()

    def compact(self, *, crash_hook=None) -> int:
        """Fold the live store's WAL into a new snapshot generation.

        Serialized through the dispatcher like any write, so it never
        races a mutation; returns the new generation.  Raises
        :class:`~repro.errors.StorageError` when the store is not live.
        ``crash_hook`` is the fault-injection hook of
        :meth:`TripleStore.compact` (tests only).
        """
        return self._enqueue(_Request(_COMPACT, crash_hook, True)).result()

    def swap_store(self, new_store: TripleStore) -> TripleStore:
        """Atomically replace the served store; returns the old one.

        The replica re-bootstrap handoff: after a follower fetches a new
        snapshot generation over the wire it opens the adopted directory
        as a fresh :class:`TripleStore` and swaps it in here.  The swap
        is serialized through the dispatcher like any write, so no read
        ever observes half-old, half-new state; the result cache is
        dropped (the new store interns from scratch, so cached id blocks
        are meaningless against it).  Closing the returned old store is
        the caller's job — open cursors may still page out of its
        backend, which stays valid until garbage-collected.
        """
        return self._enqueue(_Request(_SWAP, new_store, True)).result()

    # ------------------------------------------------------------------ #
    # cursors (paged results; remote clients stream through these)
    # ------------------------------------------------------------------ #
    def open_cursor(self, query: PatternQuery, reorder: bool = True) -> str:
        """Execute ``query`` into a server-side cursor; returns its id.

        The cursor holds the compact id-row projection (strings
        materialize per fetched page) and lives until :meth:`close_cursor`
        or ``cursor_ttl`` seconds of inactivity, whichever comes first.
        Cursor opens batch with ordinary queries: one dispatch round
        plans and executes them all together.
        """
        return self._enqueue(_Request(_CURSOR_QUERY, query, reorder)).result()

    def open_match_cursor(self, pattern: Pattern) -> str:
        """Point-lookup counterpart of :meth:`open_cursor` (pages triples)."""
        return self._enqueue(_Request(
            _CURSOR_MATCH, self._checked_pattern(pattern), True)).result()

    def fetch_cursor(self, cursor_id: str, max_rows: int,
                     raw: bool = False) -> Tuple[List, bool]:
        """Return ``(next page, exhausted)`` and refresh the cursor's TTL.

        Raises :class:`~repro.errors.CursorError` for an unknown, closed
        or expired cursor, and for a non-positive ``max_rows`` — never a
        silently partial result.  ``raw=True`` pages
        :class:`~repro.kg.executor.IdBlock`\\ s out of id-backed cursors
        (list-backed cursors still return their materialized items).
        """
        return self._enqueue(_Request(
            _CURSOR_FETCH, (cursor_id, max_rows), True, raw=raw)).result()

    def close_cursor(self, cursor_id: str) -> None:
        """Release a cursor.  Closing one twice (or an unknown/expired id)
        raises :class:`~repro.errors.CursorError`."""
        return self._enqueue(_Request(_CURSOR_CLOSE, cursor_id, True)).result()

    def _enqueue(self, request: _Request) -> "Future":
        # The closed-check and the put share the close lock: otherwise a
        # request could slip into the queue after close() has drained it
        # (closed flag read, preempted, close runs fully, then put) and
        # its future would never resolve — a hung client.
        with self._close_lock:
            if self._closed:
                raise QueryError("QueryService is closed")
            self._queue.put(request)
        return request.future

    # ------------------------------------------------------------------ #
    # dispatcher (single thread; the only backend toucher)
    # ------------------------------------------------------------------ #
    def _dispatch_loop(self) -> None:
        while True:
            first = self._queue.get()
            if first is _SHUTDOWN:
                return
            batch: List[_Request] = [first]
            shutdown = False
            while len(batch) < self.max_batch:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if nxt is _SHUTDOWN:
                    shutdown = True
                    break
                batch.append(nxt)
            try:
                self._serve(batch)
            except BaseException as exc:
                # The dispatcher must never die with futures in hand:
                # a request mid-serve when something as blunt as a
                # KeyboardInterrupt-class error escapes would otherwise
                # never resolve — its client blocks forever and close()
                # can only drain the queue, not the lost batch.
                failure = QueryError(f"dispatch failed: {exc!r}")
                failure.__cause__ = exc
                for request in batch:
                    if not request.future.done():
                        _resolve(request.future, exception=failure)
            if shutdown:
                return

    def _serve(self, batch: List[_Request]) -> None:
        with self._stats_lock:
            self.batches_dispatched += 1
            self.largest_batch = max(self.largest_batch, len(batch))
            self.requests_served += len(batch)
        self._evict_expired_cursors()
        by_kind: Dict[str, List[_Request]] = {}
        writes: List[_Request] = []
        for request in batch:
            if request.kind in _WRITE_KINDS:
                writes.append(request)
            else:
                by_kind.setdefault(request.kind, []).append(request)
        # Writes go first, in arrival order (add/remove of the same
        # triple must not commute), so every read in this round
        # observes one consistent post-write epoch — never a batch
        # half-applied around it.
        if writes:
            self._serve_writes(writes)
        # Opens are served before fetches/closes so a pipelined client
        # that batches "open; fetch" into one round still works.
        queries = by_kind.get(_QUERY, []) + by_kind.get(_CURSOR_QUERY, [])
        lookups = by_kind.get(_LOOKUP, []) + by_kind.get(_CURSOR_MATCH, [])
        if queries:
            self._serve_queries(queries)
        if lookups:
            self._serve_lookups(lookups)
        id_lookups = by_kind.get(_ID_LOOKUP, [])
        if id_lookups:
            self._serve_raw_id_lookups(id_lookups)
        counts = by_kind.get(_COUNT, [])
        if counts:
            self._serve_counts(counts)
        for request in by_kind.get(_CURSOR_FETCH, []):
            self._serve_cursor_fetch(request)
        for request in by_kind.get(_CURSOR_CLOSE, []):
            self._serve_cursor_close(request)

    def _serve_writes(self, requests: List[_Request]) -> None:
        """Apply write batches one by one, in arrival order.

        Log-then-apply-then-ack: on a live store ``TripleStore`` fsyncs
        the batch's WAL record before applying it, and the future (the
        ack) resolves only after both — a batch whose ack was observed
        is recoverable, a batch whose ack never arrived may or may not
        be.

        Any ADD/REMOVE — even one whose apply *failed*, since a partial
        apply may already have interned new symbols or spliced rows —
        drops the whole result cache before this round's reads are
        served, and so does a store SWAP (the adopted store's interners
        share nothing with the cached id blocks).  COMPACT keeps it:
        compaction changes the on-disk generation, not the triple set or
        the interners, so the cache stays warm through it by design.
        """
        mutated = False
        for request in requests:
            if request.kind != _COMPACT:
                mutated = True
            try:
                # Re-read self.store per request: a SWAP earlier in this
                # round must route the rest of the round to the new store.
                store = self.store
                if request.kind == _ADD:
                    result = store.add_many(request.payload)
                elif request.kind == _REMOVE:
                    result = store.remove_many(request.payload)
                elif request.kind == _SWAP:
                    result = self._apply_swap(request.payload)
                else:
                    result = store.compact(crash_hook=request.payload)
            except Exception as exc:
                _resolve(request.future, exception=exc)
                continue
            if request.kind != _COMPACT:
                with self._stats_lock:
                    self.mutation_epoch += 1
                    self.write_batches += 1
            _resolve(request.future, result)
        if mutated and self._cache is not None:
            with self._stats_lock:
                self._cache.clear()

    def _serve_queries(self, requests: List[_Request]) -> None:
        # Cache check first: hot queries never join the planning batch.
        if self._cache is not None:
            requests = [request for request in requests
                        if not self._serve_query_from_cache(request)]
            if not requests:
                return
        # Group by reorder flag so each group plans in one batched call.
        groups: Dict[bool, List[_Request]] = {}
        for request in requests:
            groups.setdefault(request.reorder, []).append(request)
        for reorder, group in groups.items():
            try:
                # The fast path: ONE batched count_many plans the whole group.
                plans = plan_queries(self.store,
                                     [self._plannable_query(request)
                                      for request in group],
                                     reorder=reorder)
                planned = group
            except Exception:
                # Some query in the group is malformed; re-plan one by one
                # so the error lands on the offending request only.
                plans, planned = [], []
                for request in group:
                    try:
                        plans.append(plan_queries(
                            self.store, [self._plannable_query(request)],
                            reorder=reorder)[0])
                        planned.append(request)
                    except Exception as exc:
                        _resolve(request.future, exception=exc)
            if not planned:
                continue
            try:
                cursors = execute_plans_cursors(self.store, plans)
            except Exception as exc:  # pragma: no cover - defensive
                for request in planned:
                    _resolve(request.future, exception=exc)
                continue
            for request, cursor in zip(planned, cursors):
                cursor = self._maybe_cache_result(request, cursor)
                self._resolve_query(request, cursor)

    def _resolve_query(self, request: _Request, cursor: ResultCursor) -> None:
        if request.kind == _CURSOR_QUERY:
            _resolve(request.future, self._register_cursor(cursor))
        elif request.raw:
            _resolve(request.future, cursor.fetch_all_block())
        else:
            _resolve(request.future, cursor.fetch_all())

    @staticmethod
    def _plannable_query(request: _Request) -> PatternQuery:
        """The query the miss path actually executes.

        Cacheable queries plan with ``limit`` stripped — execution only
        ever applies a limit as the final projection slice, so the full
        block costs the same fetch/join work and every limit variant of
        the query can be served from the one cached entry.  The
        original limit was already validated on the cache-check path.
        """
        query = request.payload
        if request.cache_key is not None and query.limit is not None:
            return dataclass_replace(query, limit=None)
        return query

    def _serve_query_from_cache(self, request: _Request) -> bool:
        """Try to answer a pattern query from the result cache.

        True means the request was fully resolved (a hit, or a
        limit-validation error).  On a miss the computed key stays on
        the request so :meth:`_maybe_cache_result` can insert the
        executed block under it.
        """
        query = request.payload
        try:
            key = plan_cache_key(self.store.backend, query,
                                 reorder=request.reorder)
        except Exception:
            # A malformed query: fall through and let the planning path
            # raise the real, typed error.
            return False
        if key is None:
            return False
        try:
            validate_limit(query.limit)
        except Exception as exc:
            _resolve(request.future, exception=exc)
            return True
        request.cache_key = key
        with self._stats_lock:
            block = self._cache.get(key)
        if block is None:
            return False
        rows = block.rows if query.limit is None else block.rows[:query.limit]
        cursor = ResultCursor(self.store.backend, block.names, block.kinds,
                              rows)
        self._resolve_query(request, cursor)
        return True

    def _maybe_cache_result(self, request: _Request,
                            cursor: ResultCursor) -> ResultCursor:
        """Insert a cacheable executed result; return the cursor to serve.

        The executed cursor holds the FULL block (the limit was
        stripped before planning), so the request is handed a zero-copy
        limited view of it.  A list-backed cursor with a cache key can
        only be the empty result of an un-interned constant — nothing
        worth pinning, and limiting the empty list is a no-op.
        """
        key = request.cache_key
        if key is None:
            return cursor
        block = cursor.block
        if block is None:
            return cursor
        with self._stats_lock:
            self._cache.put(key, block)
        limit = request.payload.limit
        if limit is not None and len(block.rows) > limit:
            return ResultCursor(self.store.backend, block.names, block.kinds,
                                block.rows[:limit])
        return cursor

    def _serve_lookups(self, requests: List[_Request]) -> None:
        # Two batched backend calls at most: raw lookups and match
        # cursors stay in id space (the binary wire path and the paging
        # path both want the compact block), plain lookups take the
        # string surface.
        id_requests, string_requests = [], []
        for request in requests:
            if request.raw or request.kind == _CURSOR_MATCH:
                id_requests.append(request)
            else:
                string_requests.append(request)
        if id_requests:
            self._serve_id_lookups(id_requests)
        if not string_requests:
            return
        try:
            results = self.store.match_many([request.payload
                                             for request in string_requests])
        except Exception as exc:
            for request in string_requests:
                _resolve(request.future, exception=exc)
            return
        for request, result in zip(string_requests, results):
            _resolve(request.future, result)

    def _serve_id_lookups(self, requests: List[_Request]) -> None:
        """Batched point lookups answered as (n, 3) id blocks."""
        backend = self.store.backend
        entity_lookup = backend.entity_interner.lookup
        relation_lookup = backend.relation_interner.lookup
        empty = np.zeros((0, 3), dtype=np.int64)
        resolved: List[Optional[Tuple]] = []
        for request in requests:
            head, relation, tail = request.payload
            ids = (None if head is None else entity_lookup(head),
                   None if relation is None else relation_lookup(relation),
                   None if tail is None else entity_lookup(tail))
            # An un-interned constant matches nothing; no backend call.
            unknown = any(term is not None and identifier is None
                          for term, identifier in
                          zip(request.payload, ids))
            resolved.append(None if unknown else ids)
        fetchable = [ids for ids in resolved if ids is not None]
        try:
            blocks = iter(backend.match_ids_many(fetchable)
                          if fetchable else [])
            rows_per_request = [empty if ids is None else next(blocks)
                                for ids in resolved]
        except Exception as exc:
            for request in requests:
                _resolve(request.future, exception=exc)
            return
        for request, rows in zip(requests, rows_per_request):
            if request.kind == _CURSOR_MATCH:
                _resolve(request.future, self._register_cursor(
                    ResultCursor.from_triple_ids(backend, rows)))
            else:
                _resolve(request.future, IdBlock(
                    (), ("e", "r", "e"), rows, triples=True))

    def _serve_raw_id_lookups(self, requests: List[_Request]) -> None:
        """Batched raw id-pattern lookups: one ``match_ids_many`` call.

        Ids beyond the interner tables match nothing by definition —
        they are answered as empty blocks without a backend call, the
        id-space analogue of an un-interned string constant.
        """
        backend = self.store.backend
        n_entities = len(backend.entity_interner)
        n_relations = len(backend.relation_interner)
        empty = np.zeros((0, 3), dtype=np.int64)

        def in_range(ids: Tuple) -> bool:
            head_id, relation_id, tail_id = ids
            for identifier, limit in ((head_id, n_entities),
                                      (relation_id, n_relations),
                                      (tail_id, n_entities)):
                if identifier is not None \
                        and not 0 <= identifier < limit:
                    return False
            return True

        resolved = [request.payload if in_range(request.payload) else None
                    for request in requests]
        fetchable = [ids for ids in resolved if ids is not None]
        try:
            blocks = iter(backend.match_ids_many(fetchable)
                          if fetchable else [])
            rows_per_request = [empty if ids is None else next(blocks)
                                for ids in resolved]
        except Exception as exc:  # pragma: no cover - defensive
            for request in requests:
                _resolve(request.future, exception=exc)
            return
        for request, rows in zip(requests, rows_per_request):
            _resolve(request.future, IdBlock(
                (), ("e", "r", "e"), rows, triples=True))

    def _serve_counts(self, requests: List[_Request]) -> None:
        try:
            results = self.store.count_many([request.payload
                                             for request in requests])
        except Exception as exc:  # pragma: no cover - defensive
            for request in requests:
                _resolve(request.future, exception=exc)
            return
        for request, result in zip(requests, results):
            _resolve(request.future, int(result))

    # ------------------------------------------------------------------ #
    # cursor table (dispatcher-thread only)
    # ------------------------------------------------------------------ #
    def _register_cursor(self, cursor: ResultCursor) -> str:
        cursor_id = f"cur-{secrets.token_hex(8)}"
        self._cursors[cursor_id] = (cursor, time.monotonic() + self.cursor_ttl)
        with self._stats_lock:
            self.cursors_opened += 1
        return cursor_id

    def _evict_expired_cursors(self) -> None:
        now = time.monotonic()
        for cursor_id in [identifier for identifier, (_cursor, deadline)
                          in self._cursors.items() if deadline < now]:
            cursor, _deadline = self._cursors.pop(cursor_id)
            cursor.close()
            with self._stats_lock:
                self.cursors_expired += 1

    def _lookup_cursor(self, cursor_id: str) -> ResultCursor:
        entry = self._cursors.get(cursor_id)
        if entry is None:
            raise CursorError(
                f"unknown cursor {cursor_id!r}: never opened on this "
                f"service, already closed, or expired after "
                f"{self.cursor_ttl:g}s idle (results are not recoverable "
                f"— re-run the query)")
        cursor, deadline = entry
        if deadline < time.monotonic():
            del self._cursors[cursor_id]
            cursor.close()
            with self._stats_lock:
                self.cursors_expired += 1
            raise CursorError(
                f"cursor {cursor_id!r} expired after {self.cursor_ttl:g}s "
                f"idle; re-run the query")
        return cursor

    def _serve_cursor_fetch(self, request: _Request) -> None:
        cursor_id, max_rows = request.payload
        try:
            cursor = self._lookup_cursor(cursor_id)
            page = cursor.fetch_block(max_rows) if request.raw \
                else cursor.fetch(max_rows)
        except Exception as exc:
            _resolve(request.future, exception=exc)
            return
        exhausted = cursor.exhausted
        if exhausted:
            # Nothing left to serve: release the id-row block now
            # rather than pinning it for the remaining TTL (clients
            # that iterate-to-exhaustion rely on the TTL, not on an
            # explicit close).  The id stays valid — later fetches see
            # an empty exhausted cursor, close_cursor still works.
            cursor.close()
            cursor = ResultCursor.from_list([])
        self._cursors[cursor_id] = (cursor, time.monotonic() + self.cursor_ttl)
        _resolve(request.future, (page, exhausted))

    def _serve_cursor_close(self, request: _Request) -> None:
        try:
            cursor = self._lookup_cursor(request.payload)
        except Exception as exc:
            _resolve(request.future, exception=exc)
            return
        del self._cursors[request.payload]
        cursor.close()
        _resolve(request.future, None)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting requests, drain in-flight work, join the dispatcher.

        Every request enqueued before close is either served or failed
        with a clear ``QueryError`` — no future is ever left pending —
        and every open cursor is released.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_SHUTDOWN)
        self._dispatcher.join()
        # Fail anything that raced in behind the sentinel.
        while True:
            try:
                leftover = self._queue.get_nowait()
            except queue.Empty:
                break
            if leftover is not _SHUTDOWN:
                _resolve(leftover.future,
                         exception=QueryError("QueryService is closed"))
        # The dispatcher has exited; its cursor table is safe to touch.
        for cursor, _deadline in self._cursors.values():
            cursor.close()
        self._cursors.clear()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
