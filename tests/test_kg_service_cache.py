"""Correctness of the hot-query result cache.

The cache's one safety claim: a service with the cache enabled is
OBSERVATIONALLY IDENTICAL to one without it — same rows, same order,
same errors — under any interleaving of queries and writes, because
check, fill and drop-all invalidation all happen on the single
dispatcher thread that serializes writes.  These suites attack that
claim:

* **property** — random query/write interleavings on columnar, mmap and
  sharded backends, cached vs cache-disabled twin services, results
  compared bit-identically after every step (hypothesis-driven);
* **wire** — the same twin comparison through real servers on both
  codecs, plus a concurrent remote writer appending markers while every
  acked write is checked immediately visible through the hot path (an
  epoch bump must never serve a stale entry);
* **mechanics** — limit variants sharing one entry, key canonicality,
  LRU eviction under the byte budget, cursor snapshots surviving
  invalidation, ``RemoteCursor`` release draining the server table with
  caching on, and the stats snapshot staying consistent under
  concurrent writers.
"""

from __future__ import annotations

import gc
import random
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.kg.client import RemoteQueryEngine, RemoteStore
from repro.kg.mmap_backend import MmapBackend
from repro.kg.planner import PatternQuery, cache_key
from repro.kg.server import KGServer
from repro.kg.service import QueryService
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import Triple, triples_from_tuples


def _base_rows():
    rows = []
    for index in range(24):
        product = f"product:{index:03d}"
        rows.append((product, "brandIs", f"brand:{index % 4}"))
        rows.append((product, "rdf:type", f"category:{index % 3}"))
    # A relation that is also an entity: mixed-kind queries have answers.
    rows.append(("brandIs", "rdf:type", "relation"))
    return rows


def _make_store(backend_name: str) -> TripleStore:
    triples = triples_from_tuples(_base_rows())
    if backend_name == "mmap":
        return TripleStore(triples, backend=MmapBackend())
    if backend_name == "sharded":
        return TripleStore(triples, backend=ShardedBackend(n_shards=2))
    return TripleStore(triples)


#: A pool of queries spanning the cacheable and uncacheable shapes:
#: joins, constants, selects, limits, unknown constants, and mixed-kind
#: queries (a variable in entity AND relation position; the second one
#: has answers while ``brandIs rdf:type relation`` is in the store).
_QUERIES = [
    PatternQuery.from_patterns([("?p", "brandIs", "?b")]),
    PatternQuery.from_patterns([("?p", "brandIs", "brand:1")],
                               select=("?p",)),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?p", "rdf:type", "category:0")],
                               select=("?p", "?b")),
    PatternQuery.from_patterns([("?p", "brandIs", "?b")], limit=3),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?p", "rdf:type", "?c")], limit=7),
    PatternQuery.from_patterns([("?p", "brandIs", "brand:none")]),
    PatternQuery.from_patterns([("?x", "?r", "?y")], select=("?x",),
                               limit=5),
    PatternQuery.from_patterns([("?p", "?q", "?t"),
                                ("?q", "brandIs", "?b")]),
    PatternQuery.from_patterns([("?p", "?q", "brand:1"),
                                ("?q", "rdf:type", "?c")], limit=4),
]

#: Triples the write ops flip in and out, overlapping the base rows so
#: removes actually remove and adds actually change hot results.
_WRITE_POOL = triples_from_tuples(
    [(f"product:{index:03d}", "brandIs", f"brand:{index % 4}")
     for index in range(6)]
    + [(f"extra:{index}", "brandIs", f"brand:{index % 4}")
       for index in range(6)]
    + [(f"extra:{index}", "rdf:type", "category:0") for index in range(4)]
    + [("brandIs", "rdf:type", "relation")])

_OP = st.one_of(
    st.tuples(st.just("query"),
              st.integers(min_value=0, max_value=len(_QUERIES) - 1),
              st.booleans()),
    st.tuples(st.just("add"),
              st.lists(st.sampled_from(_WRITE_POOL), min_size=1,
                       max_size=3)),
    st.tuples(st.just("remove"),
              st.lists(st.sampled_from(_WRITE_POOL), min_size=1,
                       max_size=3)),
)


# --------------------------------------------------------------------------- #
# property: cache on/off twins are bit-identical under interleavings
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", ["columnar", "mmap", "sharded"])
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(ops=st.lists(_OP, min_size=1, max_size=10))
def test_cache_on_off_bit_identical_under_interleavings(backend_name, ops):
    cached = QueryService(_make_store(backend_name), cache_bytes=1 << 20)
    plain = QueryService(_make_store(backend_name), cache_bytes=0)
    try:
        for op in ops:
            if op[0] == "add":
                assert cached.add_many(op[1]) == plain.add_many(op[1])
            elif op[0] == "remove":
                assert cached.remove_many(op[1]) == plain.remove_many(op[1])
            else:
                query, reorder = _QUERIES[op[1]], op[2]
                # Ask twice: the second answer is (likely) a cache hit
                # and must be byte-for-byte the fresh execution.
                first = cached.execute(query, reorder=reorder)
                expected = plain.execute(query, reorder=reorder)
                assert first == expected
                assert cached.execute(query, reorder=reorder) == expected
    finally:
        cached.close()
        plain.close()


# --------------------------------------------------------------------------- #
# mechanics: key canonicality and the one-entry-per-plan guarantee
# --------------------------------------------------------------------------- #
def test_cache_key_is_limit_independent_and_shape_sensitive():
    backend = _make_store("columnar").backend
    patterns = [("?p", "brandIs", "?b")]
    base = PatternQuery.from_patterns(patterns, select=("?p",))
    limited = PatternQuery.from_patterns(patterns, select=("?p",), limit=7)
    assert cache_key(backend, base) == cache_key(backend, limited)
    assert cache_key(backend, base) is not None
    # Anything that changes the projected result changes the key.
    renamed = PatternQuery.from_patterns([("?q", "brandIs", "?b")],
                                         select=("?q",))
    wider = PatternQuery.from_patterns(patterns, select=("?p", "?b"))
    assert cache_key(backend, renamed) != cache_key(backend, base)
    assert cache_key(backend, wider) != cache_key(backend, base)
    assert cache_key(backend, base, reorder=False) != cache_key(backend, base)
    # Constants canonicalize through the interner; unknown constants are
    # tagged, never confused with interned ids or variables.
    known = PatternQuery.from_patterns([("?p", "brandIs", "brand:1")])
    unknown = PatternQuery.from_patterns([("?p", "brandIs", "brand:nope")])
    assert cache_key(backend, known) != cache_key(backend, unknown)
    # Mixed-kind variables (entity + relation position) run in id space
    # like any other query, so they are cacheable too.
    mixed = PatternQuery.from_patterns([("?p", "?q", "?t"),
                                        ("?q", "brandIs", "?b")])
    assert cache_key(backend, mixed) is not None
    assert cache_key(backend, mixed) != cache_key(
        backend, PatternQuery.from_patterns([("?p", "?q", "?t"),
                                             ("?r", "brandIs", "?b")]))
    # A query projecting no columns at all is uncacheable.
    constant = PatternQuery.from_patterns(
        [("product:000", "brandIs", "brand:0")])
    assert cache_key(backend, constant) is None


def test_mixed_kind_query_is_cached_and_invalidated():
    query = _QUERIES[-1]
    with QueryService(_make_store("columnar")) as service:
        first = service.execute(query)
        assert first and {row["?q"] for row in first} == {"brandIs"}
        assert service.execute(query) == first
        assert service.stats["cache_hits"] == 1
        service.remove_many([Triple("brandIs", "rdf:type", "relation")])
        assert service.execute(query) == []
        assert service.stats["cache_misses"] == 2


def test_limit_variants_share_one_cache_entry():
    with QueryService(_make_store("columnar")) as service:
        patterns = [("?p", "brandIs", "?b")]
        full = service.execute(PatternQuery.from_patterns(
            patterns, select=("?p", "?b")))
        for limit in (1, 3, 999):
            limited = PatternQuery.from_patterns(
                patterns, select=("?p", "?b"), limit=limit)
            assert service.execute(limited) == full[:limit]
        stats = service.stats
        assert stats["cache_entries"] == 1
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == 3


def test_lru_eviction_respects_byte_budget():
    rows = [(f"product:{index:04d}", "brandIs", f"brand:{index % 64}")
            for index in range(4096)]
    store = TripleStore(triples_from_tuples(rows))
    # Big enough for a handful of per-brand results, far too small for
    # all 64 — the LRU must evict and the budget must hold throughout.
    with QueryService(store, cache_bytes=4096) as service:
        for index in range(64):
            service.execute(PatternQuery.from_patterns(
                [("?p", "brandIs", f"brand:{index}")], select=("?p",)))
            stats = service.stats
            assert stats["cache_bytes"] <= stats["cache_max_bytes"]
        stats = service.stats
        assert stats["cache_evictions"] > 0
        assert 0 < stats["cache_entries"] < 64
        # The hottest (most recent) entry survived: re-asking hits.
        hits_before = stats["cache_hits"]
        service.execute(PatternQuery.from_patterns(
            [("?p", "brandIs", "brand:63")], select=("?p",)))
        assert service.stats["cache_hits"] == hits_before + 1


# --------------------------------------------------------------------------- #
# cursor interaction: snapshots survive invalidation, fresh reads don't
# --------------------------------------------------------------------------- #
def test_cursor_keeps_snapshot_while_post_write_queries_miss():
    with QueryService(_make_store("columnar")) as service:
        query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
        full = service.execute(query)                 # miss → fills
        cursor_id = service.open_cursor(query)        # hit → view cursor
        assert service.stats["cache_hits"] == 1
        first_page, _exhausted = service.fetch_cursor(cursor_id, 2)
        service.add_many([Triple("extra:new", "brandIs", "brand:0")])
        after = service.execute(query)                # post-write: a miss
        stats = service.stats
        assert stats["cache_invalidations"] == 1
        assert stats["cache_misses"] == 2
        assert len(after) == len(full) + 1
        # The cursor opened before the write keeps paging its open-time
        # snapshot — invalidation drops cache references, not the block
        # the cursor's view points into.
        rest = []
        while True:
            page, exhausted = service.fetch_cursor(cursor_id, 2)
            rest.extend(page)
            if exhausted:
                break
        assert first_page + rest == full


def test_remote_cursor_release_drains_table_with_cache_hit_cursor():
    """A cursor served FROM the cache is a first-class table entry: the
    client dropping its last reference must still drain it promptly."""
    store = _make_store("columnar")
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    with KGServer(store, port=0).start() as running:
        with RemoteQueryEngine(running.url) as engine:
            engine.execute(query)                     # fill the cache
            cursor = engine.cursor(query, page_size=4)
            assert cursor.fetch()
            stats = running.service.stats
            assert stats["cache_hits"] >= 1
            assert stats["open_cursors"] == 1
            del cursor
            gc.collect()
            deadline = time.monotonic() + 10
            while (running.service.stats["open_cursors"]
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert running.service.stats["open_cursors"] == 0
            # Connection still serviceable, and still hitting.
            assert engine.execute(query)


# --------------------------------------------------------------------------- #
# wire: both codecs, interleaved remote writes, concurrent writers
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("codec", ["json", "auto"],
                         ids=["json-wire", "binary-wire"])
@pytest.mark.parametrize("seed", [0, 1])
def test_wire_cache_on_off_bit_identical_interleaving(codec, seed):
    rng = random.Random(seed)
    cached_server = KGServer(_make_store("columnar"), port=0, codec=codec)
    plain_server = KGServer(_make_store("columnar"), port=0, codec=codec,
                            cache_bytes=0)
    with cached_server.start() as cache_on, plain_server.start() as cache_off:
        with RemoteQueryEngine(cache_on.url) as hot_engine, \
                RemoteQueryEngine(cache_off.url) as cold_engine, \
                RemoteStore(cache_on.url) as hot_store, \
                RemoteStore(cache_off.url) as cold_store:
            for _step in range(40):
                roll = rng.random()
                if roll < 0.2:
                    batch = rng.sample(_WRITE_POOL,
                                       rng.randint(1, 3))
                    assert hot_store.add_many(batch) \
                        == cold_store.add_many(batch)
                elif roll < 0.3:
                    batch = rng.sample(_WRITE_POOL,
                                       rng.randint(1, 3))
                    assert hot_store.remove_many(batch) \
                        == cold_store.remove_many(batch)
                else:
                    query = _QUERIES[rng.randrange(len(_QUERIES))]
                    assert hot_engine.execute(query) \
                        == cold_engine.execute(query)
        stats = cache_on.service.stats
        assert stats["cache_hits"] > 0, \
            "the interleaving never hit the cache — the test lost its teeth"


@pytest.mark.parametrize("codec", ["json", "auto"],
                         ids=["json-wire", "binary-wire"])
def test_acked_remote_writes_never_served_stale(codec):
    """Epoch-bump invalidation under concurrency: while one remote
    client keeps a query red-hot (so the entry is re-filled constantly),
    every acked write from a second client must be visible to the very
    next read — a single stale hit fails the count check."""
    marker_query = PatternQuery.from_patterns([("?m", "isMarker", "yes")],
                                              select=("?m",))
    with KGServer(_make_store("columnar"), port=0,
                  codec=codec).start() as running:
        stop = threading.Event()
        hammer_errors = []

        def hammer():
            try:
                with RemoteQueryEngine(running.url) as engine:
                    while not stop.is_set():
                        engine.execute(marker_query)
            except Exception as exc:  # pragma: no cover - surfaced below
                hammer_errors.append(exc)

        thread = threading.Thread(target=hammer, daemon=True)
        thread.start()
        try:
            with RemoteStore(running.url) as writer, \
                    RemoteQueryEngine(running.url) as reader:
                for index in range(30):
                    assert writer.add_many(
                        [Triple(f"marker:{index}", "isMarker", "yes")]) == 1
                    rows = reader.execute(marker_query)
                    assert len(rows) == index + 1, \
                        f"acked write {index} invisible: stale cache hit"
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not hammer_errors


# --------------------------------------------------------------------------- #
# stats: the snapshot is consistent, not a field-by-field torn read
# --------------------------------------------------------------------------- #
def test_stats_snapshot_consistent_under_concurrent_writes():
    """``mutation_epoch`` and ``write_batches`` bump under one lock
    acquisition; a torn field-by-field read (the pre-fix behavior)
    could observe one without the other."""
    with QueryService(_make_store("columnar")) as service:
        stop = threading.Event()
        errors = []

        def writer():
            try:
                triple = Triple("stats:probe", "brandIs", "brand:0")
                while not stop.is_set():
                    service.add_many([triple])
                    service.remove_many([triple])
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=writer, daemon=True)
                   for _ in range(2)]
        for thread in threads:
            thread.start()
        try:
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                snapshot = service.stats
                assert snapshot["mutation_epoch"] == snapshot["write_batches"]
                assert (snapshot["cache_hits"] + snapshot["cache_misses"]
                        <= snapshot["requests_served"])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
        assert not errors
