"""Tests for the concurrent batching QueryService."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import CursorError, QueryError
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.service import QueryService
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import triples_from_tuples


def _rows():
    rows = []
    for index in range(240):
        product = f"product:{index:04d}"
        rows.append((product, "brandIs", f"brand:{index % 12}"))
        rows.append((product, "placeOfOrigin", f"place:{index % 5}"))
        rows.append((product, "rdf:type", f"category:{index % 9}"))
    for brand in range(12):
        rows.append((f"brand:{brand}", "headquartersIn", f"country:{brand % 3}"))
    return rows


def _queries():
    queries = []
    for brand in range(12):
        queries.append(PatternQuery.from_patterns(
            [("?p", "brandIs", f"brand:{brand}"),
             ("?p", "placeOfOrigin", "?place")],
            select=["?p", "?place"]))
    for country in range(3):
        queries.append(PatternQuery.from_patterns(
            [("?p", "brandIs", "?b"),
             ("?b", "headquartersIn", f"country:{country}"),
             ("?p", "rdf:type", "?cat")],
            select=["?p", "?cat"]))
    return queries


def _canonical(results):
    return [sorted(tuple(sorted(binding.items())) for binding in rows)
            for rows in results]


@pytest.fixture(scope="module")
def store():
    return TripleStore(triples_from_tuples(_rows()),
                       backend=ShardedBackend(n_shards=2))


def test_service_single_query_matches_engine(store):
    query = _queries()[0]
    expected = QueryEngine(store).execute(query)
    with QueryService(store) as service:
        assert service.execute(query) == expected


def test_service_concurrent_clients_identical_to_serial(store):
    """8 threads of batched clients return exactly the serial results."""
    queries = _queries()
    serial = _canonical([QueryEngine(store).execute(query) for query in queries])
    num_threads = 8
    outputs = [None] * num_threads
    errors = []
    with QueryService(store) as service:
        barrier = threading.Barrier(num_threads)

        def client(slot: int) -> None:
            try:
                barrier.wait(timeout=30)
                outputs[slot] = _canonical(service.execute_batch(queries))
            except Exception as exc:  # pragma: no cover - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(slot,))
                   for slot in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        for slot in range(num_threads):
            assert outputs[slot] == serial
        assert service.requests_served == num_threads * len(queries)
        assert service.batches_dispatched >= 1
        # Concurrency must actually coalesce: strictly fewer dispatches
        # than requests (the first dispatch can only be solo).
        assert service.batches_dispatched < service.requests_served


def test_service_point_lookups_match_store(store):
    patterns = [("product:0001", "brandIs", None),
                (None, "headquartersIn", "country:0"),
                ("product:0001", "brandIs", "brand:1"),
                ("nope", None, None)]
    with QueryService(store) as service:
        assert service.lookup_many(patterns) == store.match_many(patterns)


def _stall_dispatcher(service, store):
    """Park the dispatcher inside a count; returns (release gate, future).

    Everything submitted before the gate opens lands in ONE later batch.
    """
    gate, entered = threading.Event(), threading.Event()
    original = store.count_many

    def blocking(patterns):
        entered.set()
        gate.wait(timeout=10)
        return original(patterns)

    store.count_many = blocking
    try:
        stalled = service.submit_count((None, None, None))
        assert entered.wait(timeout=10)
    finally:
        store.count_many = original
    return gate, stalled


def test_service_lookup_rejects_variable_terms(store):
    """A '?var' in a point lookup is a misrouted pattern query — loud
    error, not a silently empty result.  A pattern that is not exactly
    3 terms is refused in the caller's thread too: queued, it used to
    fail the batched backend call of every lookup it shared a batch
    with."""
    good = ("product:0001", None, None)
    expected = store.match(*good)
    bad_patterns = (("product:0001", "brandIs"),
                    ("product:0001", "brandIs", "brand:1", None))
    with QueryService(store) as service:
        with pytest.raises(QueryError, match=r"\?p.*PatternQuery"):
            service.submit_lookup(("?p", "brandIs", "brand:1"))
        for bad in bad_patterns:
            with pytest.raises(QueryError, match="exactly 3 terms"):
                service.open_match_cursor(bad)
            for raw in (False, True):
                gate, stalled = _stall_dispatcher(service, store)
                try:
                    before = service.submit_lookup(good, raw=raw)
                    with pytest.raises(QueryError, match="exactly 3 terms"):
                        service.submit_lookup(bad, raw=raw)
                    with pytest.raises(QueryError, match="exactly 3 terms"):
                        service.submit_count(bad)
                    after = service.submit_lookup(good, raw=raw)
                finally:
                    gate.set()
                assert stalled.result(timeout=10) == len(store)
                for future in (before, after):
                    result = future.result(timeout=10)
                    if raw:
                        assert len(result) == len(expected)
                    else:
                        assert result == expected


def test_service_mixed_queries_and_lookups(store):
    query = _queries()[3]
    with QueryService(store) as service:
        query_future = service.submit(query)
        lookup_future = service.submit_lookup((None, "headquartersIn", None))
        assert query_future.result() == QueryEngine(store).execute(query)
        assert lookup_future.result() == store.match(relation="headquartersIn")


def test_service_bad_query_fails_only_that_future(store):
    good = _queries()[0]
    bad = PatternQuery.from_patterns([("?p", "brandIs", "?b")], select=["?oops"])
    with QueryService(store) as service:
        futures = [service.submit(good), service.submit(bad), service.submit(good)]
        assert futures[0].result() == QueryEngine(store).execute(good)
        with pytest.raises(QueryError, match=r"\?oops"):
            futures[1].result()
        assert futures[2].result() == futures[0].result()


def test_service_over_reopened_store_dir(tmp_path, store):
    directory = store.save(tmp_path / "served")
    queries = _queries()[:5]
    serial = _canonical([QueryEngine(store).execute(query) for query in queries])
    with QueryService.open(directory) as service:
        assert _canonical(service.execute_batch(queries)) == serial


def test_service_survives_cancelled_futures(store):
    """Regression: resolving a client-cancelled future must not kill the
    dispatcher (set_result on a cancelled future raises
    InvalidStateError, which would hang every later request)."""
    query = _queries()[0]
    expected = QueryEngine(store).execute(query)
    with QueryService(store) as service:
        for _ in range(50):
            service.submit(query).cancel()
        # The dispatcher must still be alive and serving.
        assert service.execute(query) == expected


def test_service_rejects_requests_after_close(store):
    service = QueryService(store)
    service.close()
    with pytest.raises(QueryError, match="closed"):
        service.execute(_queries()[0])
    service.close()  # idempotent


def test_service_drains_in_flight_requests_on_close(store):
    """Every request enqueued before close() must resolve — served or
    failed with a clear QueryError — and close() must return promptly.
    No future may be left pending (a hung client)."""
    queries = _queries()
    service = QueryService(store, max_batch=4)  # small batches: more rounds
    futures = [service.submit(queries[index % len(queries)])
               for index in range(120)]
    closer = threading.Thread(target=service.close)
    closer.start()
    closer.join(timeout=30)
    assert not closer.is_alive(), "close() hung with requests in flight"
    outcomes = {"served": 0, "failed": 0}
    for future in futures:
        try:
            result = future.result(timeout=10)
        except QueryError as exc:
            assert "closed" in str(exc)
            outcomes["failed"] += 1
        else:
            assert isinstance(result, list)
            outcomes["served"] += 1
    assert sum(outcomes.values()) == len(futures)


def test_service_dispatcher_survives_base_exception(store):
    """Regression for the drain-on-close gap: a BaseException escaping a
    serve round (the per-group handlers only catch Exception) used to
    kill the dispatcher with the batch's futures in hand — those clients
    blocked forever and close() could not help them.  The dispatch loop
    must fail the batch and keep serving."""
    class Hostile(BaseException):
        pass

    service = QueryService(store)
    original = store.match_many
    store.match_many = lambda patterns: (_ for _ in ()).throw(Hostile("boom"))
    try:
        future = service.submit_lookup(("product:0001", None, None))
        with pytest.raises(QueryError, match="dispatch failed"):
            future.result(timeout=10)
        # The dispatcher survived: queries still serve, close() drains.
        assert service.execute(_queries()[0]) == \
            QueryEngine(store).execute(_queries()[0])
    finally:
        store.match_many = original
        service.close()


def test_service_count_many_matches_store(store):
    patterns = [(None, "brandIs", None), ("product:0001", None, None),
                ("nope", None, None)]
    with QueryService(store) as service:
        assert service.count_many(patterns) == store.count_many(patterns)
        with pytest.raises(QueryError, match=r"\?p"):
            service.submit_count(("?p", None, None))


def test_service_cursor_pages_match_execute(store):
    query = _queries()[0]
    expected = QueryEngine(store).execute(query)
    with QueryService(store) as service:
        cursor_id = service.open_cursor(query)
        rows, exhausted = [], False
        while not exhausted:
            page, exhausted = service.fetch_cursor(cursor_id, 3)
            rows.extend(page)
        assert rows == expected
        service.close_cursor(cursor_id)
        with pytest.raises(CursorError):
            service.close_cursor(cursor_id)  # double close is typed


def test_service_match_cursor_pages_triples(store):
    pattern = (None, "headquartersIn", None)
    with QueryService(store) as service:
        cursor_id = service.open_match_cursor(pattern)
        page, exhausted = service.fetch_cursor(cursor_id, 1000)
        assert page == store.match(*pattern) and exhausted
        with pytest.raises(QueryError, match=r"\?h"):
            service.open_match_cursor(("?h", None, None))


def test_service_cursor_ttl_eviction(store):
    query = _queries()[0]
    with QueryService(store, cursor_ttl=0.1) as service:
        cursor_id = service.open_cursor(query)
        time.sleep(0.3)
        with pytest.raises(CursorError, match="expired|unknown"):
            service.fetch_cursor(cursor_id, 5)
        assert service.stats["cursors_expired"] >= 1 or \
            service.stats["open_cursors"] == 0


def test_service_cursors_released_on_close(store):
    service = QueryService(store)
    cursor_id = service.open_cursor(_queries()[0])
    assert service.stats["open_cursors"] == 1
    service.close()
    assert service.stats["open_cursors"] == 0
    with pytest.raises(QueryError, match="closed"):
        service.fetch_cursor(cursor_id, 5)


def test_service_invalid_cursor_ttl(store):
    with pytest.raises(ValueError):
        QueryService(store, cursor_ttl=0)


def test_service_invalid_max_batch(store):
    with pytest.raises(ValueError):
        QueryService(store, max_batch=0)


def test_service_releases_exhausted_cursor_rows_but_keeps_id_valid(store):
    """Draining a cursor frees its row block server-side immediately
    (clients that iterate to exhaustion rely on the TTL, not close),
    while the id keeps answering: empty pages, closeable once."""
    query = _queries()[0]
    expected = QueryEngine(store).execute(query)
    with QueryService(store) as service:
        cursor_id = service.open_cursor(query)
        page, exhausted = service.fetch_cursor(cursor_id, len(expected) + 1)
        assert page == expected and exhausted
        assert service.fetch_cursor(cursor_id, 5) == ([], True)
        service.close_cursor(cursor_id)
        with pytest.raises(CursorError):
            service.close_cursor(cursor_id)
