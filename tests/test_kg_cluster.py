"""Multi-node serving: coordinator over shard servers, replicas, failover.

Covers the distributed deployment of the sharded store:

- :func:`repro.kg.cluster.shard_split` cutting a saved store into
  per-shard live directories that carry the full global interner tables;
- :class:`repro.kg.cluster.ClusterBackend` satisfying the exact same
  backend contract as the in-process ``ShardedBackend`` — including the
  existing backend-parity property suite, reused unchanged;
- bit-identical results between a cluster of N shard servers and a
  single-process ``ShardedBackend(N)`` across shard counts and codecs;
- the failure story: reads reroute to replicas with zero failures while
  a shard leader is down, and fail with a typed, shard-naming
  :class:`~repro.errors.ShardUnavailableError` when no replica exists;
- WAL-replaying replicas (the ``wal_tail`` op and the follower loop);
- cluster self-management: over-the-wire replica bootstrap
  (``snapshot_ship``), automatic follower re-bootstrap across leader
  compactions, automatic leader promotion on a dead leader, the
  split-brain connection gate, and the torn-stats / resource-leak
  regressions;
- the client's bounded reconnect for idempotent reads across a server
  kill/restart.
"""

from __future__ import annotations

import shutil
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, closing, contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError, ShardUnavailableError
from repro.kg.client import RemoteClient, RemoteQueryEngine, connect
from repro.kg.cluster import (
    ClusterBackend,
    load_cluster_header,
    load_cluster_interners,
    shard_split,
)
from repro.kg.query import PatternQuery
from repro.kg.routing import shard_of_id
from repro.kg.server import KGServer, bootstrap_replica
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

from test_kg_backends import (
    test_backend_parity_batched_queries,
    test_backend_parity_random_workload,
)


def _sample_triples(count: int = 120):
    return [Triple(f"e{i}", f"r{i % 3}", f"e{(i * 7) % 40}")
            for i in range(count)]


def _shard_parts(local: ShardedBackend):
    """In-process per-shard stores sharing the local backend's id space
    — the memory-only equivalent of a :func:`shard_split` deployment."""
    parts = []
    for shard in local._shards:
        part = ShardedBackend(1)
        part.entity_interner = local.entity_interner
        part.relation_interner = local.relation_interner
        part._shards = [part._new_shard()]
        rows = shard.match_ids(None, None, None)
        if len(rows):
            part._shards[0].bulk_load_ids(rows)
        parts.append(part)
    return parts


@contextmanager
def _cluster_over(local: ShardedBackend, *, codec: str = "auto",
                  replicate_shard: int | None = None):
    """Serve every shard of ``local`` and connect a coordinator.

    Yields ``(backend, servers, replica_server)``; with
    ``replicate_shard`` set, that shard additionally gets a same-content
    replica endpoint (static copy — replication streaming has its own
    tests below).
    """
    with ExitStack() as stack:
        parts = _shard_parts(local)
        servers = [
            stack.enter_context(
                KGServer(TripleStore(backend=part), port=0,
                         shard_index=index,
                         n_shards=local.n_shards).start())
            for index, part in enumerate(parts)
        ]
        replicas = {}
        replica_server = None
        if replicate_shard is not None:
            twin = _shard_parts(local)[replicate_shard]
            replica_server = stack.enter_context(
                KGServer(TripleStore(backend=twin), port=0,
                         shard_index=replicate_shard,
                         n_shards=local.n_shards).start())
            replicas[replicate_shard] = [replica_server.url]
        backend = ClusterBackend(
            [server.url for server in servers], replicas=replicas,
            codec=codec,
            entity_interner=local.entity_interner,
            relation_interner=local.relation_interner,
            retry_backoff=0.01)
        stack.enter_context(closing(backend))
        yield backend, servers, replica_server


# --------------------------------------------------------------------- #
# the existing backend-parity property suite, reused unchanged
# --------------------------------------------------------------------- #
@pytest.fixture
def cluster_factory():
    """Zero-arg factory handing out fresh empty 2-shard clusters.

    Each call (one per hypothesis example) tears down the previous
    cluster's servers and boots new empty ones, so examples stay
    independent exactly like the in-process factories.
    """
    live: list = []

    def close_live():
        while live:
            live.pop().close()

    def factory():
        close_live()
        servers = [
            KGServer(TripleStore(backend=ShardedBackend(1)), port=0,
                     shard_index=index, n_shards=2).start()
            for index in range(2)
        ]
        backend = ClusterBackend([server.url for server in servers],
                                 retry_backoff=0.01)
        live.extend([backend] + servers)
        return backend

    yield factory
    close_live()


def test_cluster_passes_backend_parity_suite_unchanged(cluster_factory):
    """The ISSUE's contract: the same property tests that pin every
    in-process backend to the ``kg_oracle.SetBackend`` reference accept
    the cluster factory with no edits."""
    test_backend_parity_random_workload(cluster_factory)
    test_backend_parity_batched_queries(cluster_factory)


# --------------------------------------------------------------------- #
# bit-identical results vs the single-process ShardedBackend
# --------------------------------------------------------------------- #
_symbol = st.text(alphabet="abcdefgh", min_size=1, max_size=3)
_rows = st.lists(st.tuples(_symbol, st.sampled_from(["r1", "r2"]), _symbol),
                 max_size=25)


@pytest.mark.parametrize("n_shards,codec,kill_leader", [
    (1, "json", False),
    (2, "binary", True),
    (4, "auto", False),
])
@settings(max_examples=5, deadline=None)
@given(rows=_rows)
def test_cluster_results_bit_identical_to_sharded(n_shards, codec,
                                                  kill_leader, rows):
    """Queries through N shard servers return byte-for-byte what a
    single-process ``ShardedBackend(N)`` returns — same rows, same
    order, same dtypes — on both codecs, surviving an injected leader
    kill when a replica is present."""
    local = ShardedBackend(n_shards)
    local.add_many([Triple(*row) for row in rows])
    heads = sorted({row[0] for row in rows})
    patterns = [(head, None, None) for head in heads[:6]] \
        + [(None, "r1", None), (None, None, heads[0] if heads else "x"),
           (None, None, None)]
    id_patterns = [(local.entity_interner.lookup(head), None, None)
                   for head in heads[:6]] + [(None, 0, None), (None, None, None)]

    def check(backend):
        assert backend.match_many(patterns) == local.match_many(patterns)
        assert backend.match_many(patterns, sort=True) \
            == local.match_many(patterns, sort=True)
        assert backend.count_many(patterns) == local.count_many(patterns)
        for mine, theirs in zip(backend.match_ids_many(id_patterns),
                                local.match_ids_many(id_patterns)):
            assert mine.dtype == theirs.dtype
            assert np.array_equal(mine, theirs)

    with _cluster_over(local, codec=codec,
                       replicate_shard=0 if kill_leader else None) \
            as (backend, servers, _replica):
        check(backend)
        if kill_leader:
            servers[0].close()
            check(backend)
            assert backend.cluster_stats()["totals"]["failures"] == 0


def test_cluster_query_engine_and_cursor_identical():
    """``plan_query``/``execute_plans``/``QueryService`` run unchanged on
    a coordinator: a join through a coordinator KGServer over the
    cluster returns exactly the single-process server's rows, for both
    one-shot execution and the paging cursor."""
    triples = []
    for i in range(60):
        triples.append(Triple(f"p{i}", "knows", f"p{(i + 1) % 60}"))
        triples.append(Triple(f"p{i}", "lives_in", f"c{i % 5}"))
    local = ShardedBackend(2)
    local.add_many(triples)
    query = PatternQuery.from_patterns(
        [("?x", "knows", "?y"), ("?y", "lives_in", "?c")])
    with _cluster_over(local) as (backend, _servers, _replica):
        with KGServer(TripleStore(backend=backend), port=0).start() \
                as coordinator, \
                KGServer(TripleStore(backend=local), port=0).start() \
                as single:
            with RemoteQueryEngine(coordinator.url) as via_cluster, \
                    RemoteQueryEngine(single.url) as via_local:
                expected = via_local.execute(query)
                assert via_cluster.execute(query) == expected
                assert list(via_cluster.cursor(query, page_size=7)) \
                    == expected
            with connect(coordinator.url) as admin:
                stats = admin.stats()
            assert stats["cluster"]["n_shards"] == 2
            assert stats["cluster"]["totals"]["requests"] > 0


# --------------------------------------------------------------------- #
# shard-split
# --------------------------------------------------------------------- #
def test_shard_split_roundtrip(tmp_path):
    """Splitting then serving loses nothing: shard dirs are live stores
    carrying the full global interners, the union of their contents is
    the source store, and the coordinator metadata round-trips."""
    triples = _sample_triples()
    store = TripleStore(triples, backend=ShardedBackend(2))
    source_dir = tmp_path / "source"
    store.save(source_dir)
    shard_dirs = shard_split(source_dir, 3, tmp_path / "split")
    assert [d.name for d in shard_dirs] == ["shard-0", "shard-1", "shard-2"]
    header = load_cluster_header(tmp_path / "split")
    assert header["n_shards"] == 3
    assert header["triples"] == len(store)
    _header, entities, relations = load_cluster_interners(tmp_path / "split")
    assert list(entities) == list(store.backend.entity_interner)
    assert list(relations) == list(store.backend.relation_interner)
    seen = []
    total = 0
    for shard_dir in shard_dirs:
        part = TripleStore.open(shard_dir)
        assert part.writable  # live store: snapshot + WAL + pointer
        assert list(part.backend.entity_interner) == list(entities)
        total += len(part)
        seen.extend(part.backend.iter_triples())
        part.close()
    assert total == len(store)
    assert sorted(seen) == store.triples()


def test_shard_split_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        shard_split(tmp_path / "nowhere", 0, tmp_path / "out")
    from repro.errors import StorageError
    with pytest.raises(StorageError):
        load_cluster_header(tmp_path)  # no cluster.json


def test_shard_split_cli(tmp_path, capsys):
    from repro.cli import main

    store = TripleStore(_sample_triples(30), backend=ShardedBackend(2))
    store.save(tmp_path / "source")
    rc = main(["shard-split", "--store-dir", str(tmp_path / "source"),
               "--shards", "2", "--out", str(tmp_path / "out")])
    assert rc == 0
    assert "split" in capsys.readouterr().out
    assert (tmp_path / "out" / "cluster.json").is_file()
    assert (tmp_path / "out" / "shard-1" / "live.json").is_file()


def test_cluster_open_validates_shard_count(tmp_path):
    from repro.errors import StorageError

    store = TripleStore(_sample_triples(10), backend=ShardedBackend(1))
    store.save(tmp_path / "source")
    shard_split(tmp_path / "source", 2, tmp_path / "split")
    with pytest.raises(StorageError):
        ClusterBackend.open(tmp_path / "split", ["127.0.0.1:1"])


# --------------------------------------------------------------------- #
# failure story
# --------------------------------------------------------------------- #
def test_reads_reroute_to_replica_with_zero_failures():
    """Kill a shard leader mid-workload with a live replica: every read
    still answers, and the cluster counters prove it — reroutes > 0,
    replica reads > 0, failures == 0."""
    local = ShardedBackend(2)
    local.add_many(_sample_triples())
    head0 = next(f"e{i}" for i in range(120)
                 if shard_of_id(local.entity_interner.lookup(f"e{i}"), 2) == 0)
    expected = local.match(head0, None, None, sort=True)
    with _cluster_over(local, replicate_shard=0) \
            as (backend, servers, _replica):
        for _ in range(3):
            assert backend.match(head0, None, None, sort=True) == expected
        servers[0].close()
        for _ in range(6):
            assert backend.match(head0, None, None, sort=True) == expected
        totals = backend.cluster_stats()["totals"]
        assert totals["failures"] == 0
        assert totals["reroutes"] > 0
        assert totals["replica_reads"] > 0
        assert backend.cluster_stats()["totals"]["replica_read_share"] > 0


def test_reads_fail_typed_and_named_without_replica():
    local = ShardedBackend(2)
    local.add_many(_sample_triples())
    head0 = next(f"e{i}" for i in range(120)
                 if shard_of_id(local.entity_interner.lookup(f"e{i}"), 2) == 0)
    with _cluster_over(local) as (backend, servers, _replica):
        servers[0].close()
        with pytest.raises(ShardUnavailableError) as excinfo:
            backend.match(head0, None, None)
        assert excinfo.value.shard_index == 0
        assert "shard 0" in str(excinfo.value)
        # The healthy shard keeps answering head-bound reads.
        head1 = next(f"e{i}" for i in range(120)
                     if shard_of_id(local.entity_interner.lookup(f"e{i}"),
                                    2) == 1)
        assert backend.match(head1, None, None, sort=True) \
            == local.match(head1, None, None, sort=True)
        assert backend.cluster_stats()["totals"]["failures"] > 0


def test_write_to_dead_leader_promotes_replica():
    """Kill a shard leader under an established write connection: the
    in-flight write surfaces as unknown (never silently replayed), the
    replica is promoted automatically, and every subsequent write
    succeeds against it — ``promotions == 1`` in the cluster stats."""
    local = ShardedBackend(2)
    local.add_many(_sample_triples(20))
    with _cluster_over(local, replicate_shard=0) \
            as (backend, servers, replica):
        head0 = next(f"e{i}" for i in range(20)
                     if shard_of_id(local.entity_interner.lookup(f"e{i}"),
                                    2) == 0)
        backend.add_many([Triple(head0, "rnew", "warm")])
        servers[0].close()
        with pytest.raises(ShardUnavailableError) as excinfo:
            backend.add_many([Triple(head0, "rnew", "during-the-kill")])
        assert excinfo.value.shard_index == 0
        assert "promoted" in str(excinfo.value)
        # Endpoint 0 of shard 0 is now the ex-replica; writes flow again
        # with no operator action and reads observe them.
        backend.add_many([Triple(head0, "rnew", "after-promotion")])
        assert Triple(head0, "rnew", "after-promotion") \
            in backend.match(head0, "rnew", None)
        stats = backend.cluster_stats()
        assert stats["totals"]["promotions"] == 1
        assert stats["shards"][0]["leader"] == replica.url


def test_write_fails_typed_when_no_replica_to_promote():
    """A dead leader with nothing to promote still fails the write with
    the no-silent-retry contract spelled out."""
    local = ShardedBackend(2)
    local.add_many(_sample_triples(20))
    with _cluster_over(local) as (backend, servers, _replica):
        head0 = next(f"e{i}" for i in range(20)
                     if shard_of_id(local.entity_interner.lookup(f"e{i}"),
                                    2) == 0)
        backend.add_many([Triple(head0, "rnew", "warm")])
        servers[0].close()
        with pytest.raises(ShardUnavailableError) as excinfo:
            backend.add_many([Triple(head0, "rnew", "somewhere")])
        assert excinfo.value.shard_index == 0
        assert "never retried" in str(excinfo.value)
        assert backend.cluster_stats()["totals"]["promotions"] == 0


def test_undelivered_write_promotes_and_retries_transparently():
    """A write that provably never left the coordinator (the leader was
    already dead, connecting raised) is safe to re-issue: the backend
    promotes the replica and delivers the SAME write there — the caller
    sees plain success, zero failures."""
    local = ShardedBackend(2)
    local.add_many(_sample_triples(20))
    with _cluster_over(local, replicate_shard=0) \
            as (warm, servers, replica):
        urls = [server.url for server in servers]
        servers[0].close()
        head0 = next(f"e{i}" for i in range(20)
                     if shard_of_id(local.entity_interner.lookup(f"e{i}"),
                                    2) == 0)
        backend = ClusterBackend(urls, replicas={0: [replica.url]},
                                 entity_interner=local.entity_interner,
                                 relation_interner=local.relation_interner,
                                 retry_backoff=0.01, handshake=False)
        try:
            backend.add_many([Triple(head0, "rnew", "transparent")])
            assert Triple(head0, "rnew", "transparent") \
                in backend.match(head0, "rnew", None)
            totals = backend.cluster_stats()["totals"]
            assert totals["promotions"] == 1
            assert totals["failures"] == 0
        finally:
            backend.close()


def test_cluster_backend_failed_open_releases_resources(monkeypatch):
    """Regression: a handshake that raises mid-``__init__`` used to leak
    the thread pool and every connection the earlier sessions had
    already opened — the caller never gets an object to ``close()``.
    The constructor must tear down whatever it acquired."""
    from repro.kg import cluster as cluster_mod

    local = ShardedBackend(1)
    local.add_many(_sample_triples(10))
    part = _shard_parts(local)[0]
    with KGServer(TripleStore(backend=part), port=0, shard_index=0,
                  n_shards=2).start() as server:
        real_handshake = cluster_mod._ShardSession.handshake

        def exploding(self, fingerprint):
            if self.index == 1:
                raise RuntimeError("handshake exploded")
            return real_handshake(self, fingerprint)

        shutdowns = []
        real_shutdown = ThreadPoolExecutor.shutdown

        def spying(pool, *args, **kwargs):
            shutdowns.append(pool)
            return real_shutdown(pool, *args, **kwargs)

        monkeypatch.setattr(cluster_mod._ShardSession, "handshake",
                            exploding)
        monkeypatch.setattr(ThreadPoolExecutor, "shutdown", spying)
        with pytest.raises(RuntimeError, match="handshake exploded"):
            ClusterBackend([server.url, "127.0.0.1:1"],
                           entity_interner=local.entity_interner,
                           relation_interner=local.relation_interner)
        assert len(shutdowns) == 1  # the half-built pool was shut down
        # ... and shard 0's handshake connection was closed, not leaked.
        assert _wait_until(lambda: server.connection_count == 0)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("kg-cluster")]


def test_client_reconnects_across_server_restart(tmp_path):
    """Regression for the bounded reconnect: killing and restarting the
    server mid-session, idempotent reads on the SAME client object keep
    working on a fresh connection; the dead socket is never reused."""
    store = TripleStore(_sample_triples(20), backend=ShardedBackend(1))
    store.save(tmp_path / "store")
    first = KGServer.open(tmp_path / "store", port=0).start()
    _host, port = first.address
    client = RemoteClient(first.url)
    assert client.ping() is True
    first.close()
    second = KGServer.open(tmp_path / "store", port=port).start()
    try:
        assert client.call("len") == 20  # reconnects under the hood
        assert client.call("count", pattern=[None, None, None]) == 20
        assert isinstance(client.stats(), dict)
    finally:
        client.close()
        second.close()


# --------------------------------------------------------------------- #
# replication: wal_tail + the follower loop
# --------------------------------------------------------------------- #
def _wait_until(predicate, timeout=5.0, interval=0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def test_wal_tail_streams_batches(tmp_path):
    TripleStore.create_live(tmp_path / "live",
                            [Triple("a", "r", "b")])
    store = TripleStore.open(tmp_path / "live")
    with KGServer(store, port=0).start() as server, \
            connect(server.url) as client:
        assert client.call("wal_tail", after_seq=0) \
            == {"generation": 0, "next_seq": 1, "batches": []}
        client.call("add_many", triples=[["a2", "r", "b2"]])
        tail = client.call("wal_tail", after_seq=0)
        assert tail["generation"] == 0
        assert [batch[0] for batch in tail["batches"]] == [1]
        client.call("add_many", triples=[["c", "r", "d"]])
        tail = client.call("wal_tail", after_seq=1)
        assert [batch[0] for batch in tail["batches"]] == [2]
        assert tail["batches"][0][2] == [["c", "r", "d"]]
        assert client.call("wal_tail", after_seq=99)["batches"] == []
        with pytest.raises(ProtocolError):
            client.call("wal_tail", after_seq=-1)


def test_wal_tail_requires_live_store():
    with KGServer(TripleStore([Triple("a", "r", "b")]), port=0).start() \
            as server, connect(server.url) as client:
        with pytest.raises(ProtocolError, match="live store"):
            client.call("wal_tail", after_seq=0)


def test_follower_replays_leader_wal(tmp_path):
    """A replica bootstrapped from a copy of the leader directory
    converges on every leader write, advertises its lag through stats,
    and rejects writes with an error naming the leader."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(10))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    shutil.copytree(tmp_path / "leader", tmp_path / "replica")
    replica = KGServer.open(tmp_path / "replica", port=0,
                            follow=leader.url,
                            follow_poll_interval=0.01).start()
    try:
        with connect(leader.url) as writer:
            writer.call("add_many",
                        triples=[["new1", "r", "new2"], ["new3", "r", "new1"]])
            writer.call("remove_many", triples=[["e0", "r0", "e0"]])
        with connect(replica.url) as reader:
            assert reader.call("role")["role"] == "replica"
            assert _wait_until(
                lambda: reader.call("count",
                                    pattern=["new1", "r", "new2"]) == 1)
            assert _wait_until(
                lambda: reader.call("count",
                                    pattern=["e0", "r0", "e0"]) == 0)
            stats = reader.stats()
            assert stats["server"]["role"] == "replica"
            replication = stats["replication"]
            assert replication["batches_applied"] >= 2
            assert replication["last_error"] is None
            with pytest.raises(ProtocolError, match="read-only replica"):
                reader.call("add_many", triples=[["x", "r", "y"]])
    finally:
        replica.close()
        leader.close()


def test_replica_requires_writable_store(tmp_path):
    store = TripleStore(_sample_triples(5), backend=ShardedBackend(1))
    store.save(tmp_path / "snapshot")
    snapshot = TripleStore.open(tmp_path / "snapshot")
    assert not snapshot.writable
    with pytest.raises(ValueError, match="replica"):
        KGServer(snapshot, port=0, follow="127.0.0.1:1")
    snapshot.close()


def test_follower_rebootstraps_on_leader_compaction(tmp_path):
    """Leader compaction truncates the WAL the follower tails; instead
    of stopping, the follower now fetches the new snapshot generation
    over the wire (``snapshot_ship``), flips its live pointer, and
    resumes tailing the new WAL — converging bit-identically with zero
    operator action."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(10))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    shutil.copytree(tmp_path / "leader", tmp_path / "replica")
    replica = KGServer.open(tmp_path / "replica", port=0,
                            follow=leader.url,
                            follow_poll_interval=0.01).start()
    try:
        with connect(leader.url) as writer:
            writer.call("add_many", triples=[["x1", "r", "x2"]])
            writer.call("compact")
            writer.call("add_many", triples=[["x3", "r", "x4"]])
            leader_len = writer.call("len")
        with connect(replica.url) as reader:
            assert _wait_until(
                lambda: reader.call("count", pattern=["x3", "r", "x4"]) == 1)
            assert _wait_until(lambda: reader.call("len") == leader_len)
            assert reader.call("count", pattern=["x1", "r", "x2"]) == 1
            rep = reader.stats()["replication"]
            assert rep["rebootstraps"] == 1
            assert rep["last_error"] is None
            assert rep["generation"] == 1
            assert reader.call("role")["role"] == "replica"
        # The adoption went all the way to disk: new generation live
        # pointer, stale generation swept.
        assert replica.service.store.live_generation == 1
        assert not (tmp_path / "replica" / "wal-000000.log").exists()
        assert not (tmp_path / "replica" / "snap-000000").exists()
    finally:
        replica.close()
        leader.close()


def test_in_memory_follower_stops_on_generation_change(tmp_path):
    """A follower with no live directory cannot adopt a shipped
    snapshot: on leader compaction it must STOP with a typed error —
    silently replaying the restarted WAL seqs would corrupt it."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(6))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    twin = TripleStore(_sample_triples(6), backend=ShardedBackend(1))
    replica = KGServer(twin, port=0, follow=leader.url,
                       follow_poll_interval=0.01).start()
    try:
        with connect(leader.url) as writer:
            writer.call("add_many", triples=[["y1", "r", "y2"]])
        with connect(replica.url) as reader:
            assert _wait_until(
                lambda: reader.call("count", pattern=["y1", "r", "y2"]) == 1)
        with connect(leader.url) as writer:
            writer.call("compact")
            writer.call("add_many", triples=[["y3", "r", "y4"]])

        def stopped():
            rep = replica._replication_snapshot()
            return rep["last_error"] is not None and not rep["running"]

        assert _wait_until(stopped)
        assert "in-memory follower" \
            in replica._replication_snapshot()["last_error"]
        # ... and the poisoned batch was never applied.
        with connect(replica.url) as reader:
            assert reader.call("count", pattern=["y3", "r", "y4"]) == 0
    finally:
        replica.close()
        leader.close()


def test_bootstrap_replica_from_scratch(tmp_path):
    """A replica born from nothing: :func:`bootstrap_replica` pages the
    leader's snapshot over the wire into an empty directory, and the
    follower opened over it converges on the leader's WAL — no
    hand-copied files anywhere."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(12))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    try:
        with connect(leader.url) as writer:
            writer.call("add_many", triples=[["w1", "r", "w2"]])
            leader_len = writer.call("len")
        generation = bootstrap_replica(tmp_path / "replica", leader.url)
        assert generation == 0
        assert (tmp_path / "replica" / "live.json").is_file()
        replica = KGServer.open(tmp_path / "replica", port=0,
                                follow=leader.url,
                                follow_poll_interval=0.01).start()
        try:
            with connect(replica.url) as reader:
                assert _wait_until(
                    lambda: reader.call("count",
                                        pattern=["w1", "r", "w2"]) == 1)
                assert reader.call("len") == leader_len
        finally:
            replica.close()
    finally:
        leader.close()


def test_promoted_ex_leader_rejoins_as_follower(tmp_path):
    """The full self-management loop over real sockets: leader dies →
    replica is promoted (new generation = the fencing token) → the
    ex-leader restarts over its OLD directory as a follower of the new
    leader, detects the newer generation, re-bootstraps over the wire
    and converges on post-promotion writes — no split brain."""
    TripleStore.create_live(tmp_path / "leader", _sample_triples(8))
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    bootstrap_replica(tmp_path / "replica", leader.url)
    replica = KGServer.open(tmp_path / "replica", port=0,
                            follow=leader.url,
                            follow_poll_interval=0.01).start()
    backend = ClusterBackend([leader.url], replicas={0: [replica.url]},
                             retry_backoff=0.01, handshake=False)
    try:
        backend.add_many([Triple("pre", "r", "kill")])
        with connect(replica.url) as reader:
            assert _wait_until(
                lambda: reader.call("count",
                                    pattern=["pre", "r", "kill"]) == 1)
        leader.close()
        with pytest.raises(ShardUnavailableError):
            backend.add_many([Triple("lost", "r", "unknown-outcome")])
        backend.add_many([Triple("post", "r", "promotion")])
        assert backend.cluster_stats()["totals"]["promotions"] == 1
        assert replica.role == "leader"
        assert replica.service.store.live_generation >= 1
        rejoined = KGServer.open(tmp_path / "leader", port=0,
                                 follow=replica.url,
                                 follow_poll_interval=0.01).start()
        try:
            with connect(rejoined.url) as reader:
                assert reader.call("role")["role"] == "replica"
                assert _wait_until(
                    lambda: reader.call(
                        "count", pattern=["post", "r", "promotion"]) == 1)
                rep = reader.stats()["replication"]
                assert rep["rebootstraps"] >= 1
                assert rep["last_error"] is None
        finally:
            rejoined.close()
    finally:
        backend.close()
        replica.close()
        leader.close()


def test_stale_ex_leader_connection_refused(tmp_path):
    """The split-brain rejection rule in isolation: once a session has
    recorded a promotion generation, a fresh connection to an endpoint
    serving an older generation is dropped with a typed error naming
    the remedy."""
    from repro.kg.cluster import _ShardSession

    TripleStore.create_live(tmp_path / "stale", _sample_triples(5))
    stale = KGServer.open(tmp_path / "stale", port=0).start()
    try:
        session = _ShardSession(0, stale.url, ())
        try:
            assert session._call(0, "ping", {}) == "pong"  # no floor yet
            session._drop(0)
            session.min_generation = 1
            with pytest.raises(ProtocolError, match="stale ex-leader"):
                session._call(0, "ping", {})
            assert session._clients[0] is None  # gate dropped the conn
        finally:
            session.close()
    finally:
        stale.close()


def test_replication_stats_never_torn_under_concurrent_polls(tmp_path):
    """Regression: the follower loop used to bump ``applied_seq`` /
    ``batches_applied`` / ``triples_applied`` without the stats lock, so
    a concurrent ``stats`` reader could observe a half-updated
    replication block.  With 3-triple batches, every snapshot any poller
    ever sees must satisfy the lockstep invariants exactly."""
    TripleStore.create_live(tmp_path / "leader", [])
    leader = KGServer.open(tmp_path / "leader", port=0).start()
    shutil.copytree(tmp_path / "leader", tmp_path / "replica")
    replica = KGServer.open(tmp_path / "replica", port=0,
                            follow=leader.url,
                            follow_poll_interval=0.001).start()
    try:
        stop = threading.Event()
        torn: list = []

        def poll():
            with connect(replica.url) as reader:
                while not stop.is_set():
                    rep = reader.stats()["replication"]
                    if rep["triples_applied"] != 3 * rep["batches_applied"] \
                            or rep["applied_seq"] != rep["batches_applied"]:
                        torn.append(dict(rep))
                        return

        pollers = [threading.Thread(target=poll) for _ in range(3)]
        for poller in pollers:
            poller.start()
        with connect(leader.url) as writer:
            for i in range(40):
                writer.call("add_many", triples=[
                    [f"h{i}", "r", f"t{i}a"], [f"h{i}", "r", f"t{i}b"],
                    [f"h{i}", "r", f"t{i}c"]])
        with connect(replica.url) as reader:
            assert _wait_until(
                lambda: reader.stats()["replication"]["batches_applied"]
                >= 40)
        stop.set()
        for poller in pollers:
            poller.join(timeout=10)
        assert torn == []
    finally:
        replica.close()
        leader.close()
