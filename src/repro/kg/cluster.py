"""Multi-node serving: a coordinator backend over N shard servers.

:class:`ClusterBackend` implements the same
:class:`~repro.kg.backend.GraphBackend` contract (string and id
surfaces) as the in-process
:class:`~repro.kg.sharded_backend.ShardedBackend`, but its "shards" are
remote :class:`~repro.kg.server.KGServer` processes.  Routing is the
exact code the in-process backend uses — the pure functions of
:mod:`repro.kg.routing` — so a triple's owner shard is a property of its
head id and the shard count, never of which side of a socket the
decision is made on.  ``plan_query`` / ``execute_plans`` /
``QueryService`` run unchanged on top: a coordinator process is just
``KGServer(TripleStore(backend=ClusterBackend(...)))``.

Deployment shape
----------------
:func:`shard_split` cuts one saved store into N per-shard **live** store
directories (reusing the hash partitioner), each carrying the FULL
global interner tables.  A shard server over such a directory assigns
exactly the same ids as the coordinator, which both sides verify by
comparing interner *fingerprints* at handshake time
(:func:`~repro.kg.routing.interner_fingerprint`).  While the
fingerprints match — and the coordinator's interners have not grown
since — id-space queries ship raw over the wire (``match_ids_many``,
dense int64 blocks on the binary codec) with zero translation; any
mismatch silently falls back to the string-level ops, which are always
correct because servers resolve strings against their own interners.

Failure story
-------------
Each shard has one leader and optional replicas (followers replaying the
leader's WAL via the ``wal_tail`` op).  Reads round-robin across
leader + replicas; a transport failure drops the broken connection,
counts a reroute and moves to the next endpoint (the underlying
:class:`~repro.kg.client.RemoteClient` already retries idempotent reads
on a fresh connection with backoff).  Only when the leader AND every
replica are unreachable does a read fail — with a typed
:class:`~repro.errors.ShardUnavailableError` naming the shard.  Writes
go to the leader only and are NEVER silently retried once they may have
reached the wire: a lost response does not mean a lost write.  A leader
that stays unreachable (the write provably never left, twice across a
backoff) triggers **automatic promotion**: the most-caught-up replica —
highest replayed WAL seq via ``replication_status`` — receives a
``promote`` op (stop following, compact into a new generation, reopen
writable), the shard's endpoint list is repointed so it is endpoint 0,
and the promoted generation becomes the split-brain floor: a demoted
ex-leader that comes back serving an older generation is refused at
connection time until it rejoins as a follower (``--follow`` against
the new leader re-bootstraps it onto the promoted lineage).

Consistency caveats (documented, by design): replication is
asynchronous, so a replica read may trail the leader by the poll
interval; writes that bypass the coordinator de-synchronize the id
fast path (the fingerprint check catches it and falls back to strings).
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Mapping, NoReturn, \
    Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ProtocolError, ShardUnavailableError, StorageError
from repro.kg.backend import (
    GraphBackend,
    IdPattern,
    Interner,
    Pattern,
    _BatchedQueriesMixin,
)
from repro.kg.client import RemoteClient
from repro.kg.mmap_backend import (
    ENTITY_BLOB_FILE,
    ENTITY_OFFSETS_FILE,
    read_interner_files,
    write_interner_files,
    RELATION_BLOB_FILE,
    RELATION_OFFSETS_FILE,
)
from repro.kg.protocol import DecodedBlock
from repro.kg.routing import (
    BROADCAST as _BROADCAST,
    concat_id_blocks,
    interner_fingerprint,
    merge_frequency_dicts,
    merge_sorted_unique,
    merge_triple_lists,
    scatter_gather,
    shard_of_id,
    shard_of_ids,
)
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.triple import Triple

#: Identifies a :func:`shard_split` output directory's top-level header.
CLUSTER_MAGIC = "repro-kg-cluster"

#: Bump on any incompatible change to the split layout.
CLUSTER_FORMAT_VERSION = 1

#: Name of the top-level split header file.
CLUSTER_HEADER_FILE = "cluster.json"

#: Sleep between full endpoint sweeps of one shard before giving up.
DEFAULT_RETRY_BACKOFF = 0.05

__all__ = [
    "CLUSTER_MAGIC",
    "CLUSTER_FORMAT_VERSION",
    "CLUSTER_HEADER_FILE",
    "ClusterBackend",
    "load_cluster_header",
    "load_cluster_interners",
    "shard_split",
]


# --------------------------------------------------------------------- #
# shard-split: one saved store -> N per-shard live store directories
# --------------------------------------------------------------------- #
def shard_split(store_dir: Union[str, Path], n_shards: int,
                out_dir: Union[str, Path], *,
                delta_threshold: int = 1024) -> List[Path]:
    """Split a saved store into ``n_shards`` per-shard live directories.

    Partitioning reuses :func:`~repro.kg.routing.shard_of_ids` — the
    same rule every sharded backend routes with — over the source's
    global head ids.  Each ``out/shard-K/`` is a generation-0 **live**
    store (snapshot + empty WAL + pointer) whose snapshot is a 1-shard
    sharded layout carrying the FULL global interner tables: a shard
    server opened over it therefore speaks exactly the global id space,
    and a coordinator verifies that via the interner fingerprint.  The
    top level gains a ``cluster.json`` header plus the global interner
    files so :meth:`ClusterBackend.open` can load its interners without
    touching any shard.  Returns the per-shard directories in shard
    order.
    """
    from repro.kg.store import TripleStore
    from repro.kg.wal import (WriteAheadLog, snapshot_dir_name,
                              wal_file_name, write_live_pointer)

    n_shards = int(n_shards)
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    source = TripleStore.open(store_dir)
    try:
        backend = source.backend
        entity_interner = backend.entity_interner
        relation_interner = backend.relation_interner
        rows = backend.match_ids(None, None, None)
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        owners = shard_of_ids(rows[:, 0], n_shards) if len(rows) \
            else np.zeros(0, dtype=np.int64)
        shard_dirs: List[Path] = []
        for index in range(n_shards):
            part = ShardedBackend(1, delta_threshold=delta_threshold)
            part.entity_interner = entity_interner
            part.relation_interner = relation_interner
            part._shards = [part._new_shard()]
            block = rows[owners == index]
            if len(block):
                part._shards[0].bulk_load_ids(block)
            shard_dir = out / f"shard-{index}"
            part.save(shard_dir / snapshot_dir_name(0))
            WriteAheadLog.create(shard_dir / wal_file_name(0),
                                 generation=0).close()
            write_live_pointer(shard_dir, 0)
            shard_dirs.append(shard_dir)
        entity_blob_bytes = write_interner_files(
            entity_interner, out, ENTITY_OFFSETS_FILE, ENTITY_BLOB_FILE)
        relation_blob_bytes = write_interner_files(
            relation_interner, out, RELATION_OFFSETS_FILE,
            RELATION_BLOB_FILE)
        header = {
            "magic": CLUSTER_MAGIC,
            "version": CLUSTER_FORMAT_VERSION,
            "n_shards": n_shards,
            "num_entities": len(entity_interner),
            "num_relations": len(relation_interner),
            "entity_blob_bytes": entity_blob_bytes,
            "relation_blob_bytes": relation_blob_bytes,
            "triples": int(len(rows)),
        }
        header_tmp = out / (CLUSTER_HEADER_FILE + ".tmp")
        header_tmp.write_text(json.dumps(header, indent=1),
                              encoding="utf-8")
        header_tmp.replace(out / CLUSTER_HEADER_FILE)
        return shard_dirs
    finally:
        source.close()


def load_cluster_header(directory: Union[str, Path]) -> dict:
    """Read and validate a split directory's ``cluster.json`` header."""
    path = Path(directory) / CLUSTER_HEADER_FILE
    if not path.is_file():
        raise StorageError(
            f"{directory}: missing {CLUSTER_HEADER_FILE} — not a "
            f"shard-split output directory")
    try:
        header = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StorageError(f"{path}: unreadable header: {exc}") from exc
    if not isinstance(header, dict) or header.get("magic") != CLUSTER_MAGIC:
        raise StorageError(f"{path}: bad magic — not a cluster header")
    if header.get("version") != CLUSTER_FORMAT_VERSION:
        raise StorageError(
            f"{directory}: cluster format version mismatch — directory "
            f"has {header.get('version')!r}, this build reads "
            f"{CLUSTER_FORMAT_VERSION}")
    for key in ("n_shards", "num_entities", "num_relations"):
        if not isinstance(header.get(key), int) or header[key] < 0:
            raise StorageError(
                f"{directory}: header field {key!r} is invalid")
    if header["n_shards"] < 1:
        raise StorageError(
            f"{directory}: header field 'n_shards' is invalid")
    return header


def load_cluster_interners(
        directory: Union[str, Path]) -> Tuple[dict, Interner, Interner]:
    """Load the global interner pair a split directory carries."""
    directory = Path(directory)
    header = load_cluster_header(directory)
    entity_interner = read_interner_files(
        directory, ENTITY_OFFSETS_FILE, ENTITY_BLOB_FILE,
        header["num_entities"])
    relation_interner = read_interner_files(
        directory, RELATION_OFFSETS_FILE, RELATION_BLOB_FILE,
        header["num_relations"])
    return header, entity_interner, relation_interner


# --------------------------------------------------------------------- #
# per-shard session: leader + replicas, round-robin reads, failover
# --------------------------------------------------------------------- #
class _ShardSession:
    """Connections and failover state for ONE shard's endpoints.

    Endpoint 0 is the leader; the rest are replicas.  Reads round-robin
    over all endpoints and fail over: a transport failure closes the
    broken connection and moves to the next endpoint (counted as a
    reroute), sweeping all endpoints twice with a backoff in between
    before raising :class:`~repro.errors.ShardUnavailableError`.
    Writes pin to the leader, and a write is never *silently* re-sent
    once it may have reached the wire; a leader that stays dead past
    the confirming retry triggers the promotion protocol
    (:meth:`_promote_replica`), after which the most-caught-up replica
    is endpoint 0.  Server-side *typed* errors (``QueryError``,
    ``StorageError``, ...) are not failover events — they propagate.
    """

    def __init__(self, index: int, leader: str, replicas: Sequence[str],
                 *, codec: str = "auto", timeout: Optional[float] = 30.0,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF) -> None:
        self.index = index
        self.leader = leader
        self.addresses: List[str] = [leader] + list(replicas)
        self.codec = codec
        self.timeout = timeout
        self.retry_backoff = float(retry_backoff)
        self._clients: List[Optional[RemoteClient]] = \
            [None] * len(self.addresses)
        self._rr = 0
        self._counter_lock = threading.Lock()
        self._promote_lock = threading.Lock()
        #: The split-brain fence: once a replica is promoted at
        #: generation G, any endpoint serving an older generation is a
        #: stale ex-leader and is refused at connection time until it
        #: re-bootstraps (``None`` = no promotion yet, no gate).
        self.min_generation: Optional[int] = None
        self.counters: Dict[str, int] = {
            "requests": 0, "retries": 0, "reroutes": 0,
            "leader_reads": 0, "replica_reads": 0,
            "writes": 0, "failures": 0, "promotions": 0,
        }
        #: True when every endpoint's interner fingerprint matched the
        #: coordinator's at handshake time (enables the raw-id path).
        self.id_space_matched = False

    def _count(self, key: str, amount: int = 1) -> None:
        with self._counter_lock:
            self.counters[key] += amount

    def _ensure_client(self, endpoint: int) -> RemoteClient:
        """The endpoint's connection, created (and gated) on demand."""
        client = self._clients[endpoint]
        if client is None:
            client = RemoteClient(self.addresses[endpoint],
                                  codec=self.codec, timeout=self.timeout)
            self._clients[endpoint] = client
            self._check_generation(endpoint, client)
        return client

    def _check_generation(self, endpoint: int, client: RemoteClient) -> None:
        """Refuse fresh connections to pre-promotion stale ex-leaders.

        Split-brain rejection rule: after a promotion recorded
        ``min_generation`` = G, an endpoint serving generation < G is
        the dead ex-leader come back (or a replica that has not
        re-bootstrapped yet) — serving reads from it could resurrect
        pre-promotion state, and routing writes to it would fork the
        shard.  Probing only at connection time keeps the per-call hot
        path untouched: a *live* connection was either established
        before the promotion (to a then-healthy endpoint) or already
        passed the gate.
        """
        floor = self.min_generation
        if floor is None:
            return
        try:
            info = client.call("role")
        except (ProtocolError, OSError):
            self._drop(endpoint)
            raise
        generation = info.get("generation") if isinstance(info, dict) \
            else None
        if not isinstance(generation, int) or generation < floor:
            self._drop(endpoint)
            raise ProtocolError(
                f"shard {self.index} endpoint {self.addresses[endpoint]} "
                f"serves generation {generation!r}, older than the "
                f"promotion generation {floor} — a stale ex-leader must "
                f"rejoin as a follower (restart it with --follow pointing "
                f"at the current leader) before it serves again")

    def _call(self, endpoint: int, op: str, fields: dict):
        return self._ensure_client(endpoint).call(op, **fields)

    def _drop(self, endpoint: int) -> None:
        client = self._clients[endpoint]
        self._clients[endpoint] = None
        if client is not None:
            try:
                client.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass

    def read_call(self, op: str, **fields):
        """One read, rerouted across endpoints until someone answers."""
        self._count("requests")
        n = len(self.addresses)
        self._rr += 1
        start = self._rr % n
        last_error: Optional[BaseException] = None
        for sweep in range(2):
            if sweep:
                self._count("retries")
                time.sleep(self.retry_backoff)
            for step in range(n):
                endpoint = (start + step) % n
                try:
                    result = self._call(endpoint, op, fields)
                except (ProtocolError, OSError) as exc:
                    last_error = exc
                    self._drop(endpoint)
                    self._count("reroutes")
                    continue
                self._count("leader_reads" if endpoint == 0
                            else "replica_reads")
                return result
        self._count("failures")
        raise ShardUnavailableError(
            f"shard {self.index} is unavailable: leader and every replica "
            f"unreachable ({', '.join(self.addresses)}); last error: "
            f"{last_error}", shard_index=self.index)

    def _attempt_write(self, op: str, fields: dict):
        """One leader write attempt, classified by delivery certainty.

        Returns ``("ok", result)``, ``("undelivered", exc)`` when the
        request *provably* never left this process (connecting raised,
        or the generation gate refused the endpoint before anything was
        sent), or ``("unknown", exc)`` when the failure happened after a
        connection existed — the leader may or may not have applied the
        write.  Only "undelivered" writes are ever re-sent.
        """
        try:
            client = self._ensure_client(0)
        except (ProtocolError, OSError) as exc:
            self._drop(0)
            return ("undelivered", exc)
        try:
            return ("ok", client.call(op, **fields))
        except (ProtocolError, OSError) as exc:
            self._drop(0)
            return ("unknown", exc)

    def _leader_alive(self) -> bool:
        """Probe endpoint 0 on a dedicated connection; True if it answers."""
        try:
            with RemoteClient(self.addresses[0], codec="json",
                              timeout=self.timeout) as probe:
                probe.call("role")
            return True
        except (ProtocolError, OSError):
            return False

    def _fail_write(self, op: str, exc: BaseException, *,
                    promoted: bool) -> NoReturn:
        self._count("failures")
        if promoted:
            raise ShardUnavailableError(
                f"shard {self.index} write {op} failed: {exc} (a replica "
                f"was promoted to leader at {self.leader}; the outcome of "
                f"THIS write is unknown — verify before resubmitting, "
                f"later writes route to the new leader)",
                shard_index=self.index) from exc
        raise ShardUnavailableError(
            f"shard {self.index} leader {self.leader} failed during "
            f"{op}: {exc} (writes are never retried once they may have "
            f"reached the wire, and no replica could be promoted — "
            f"verify the leader state before resubmitting)",
            shard_index=self.index) from exc

    def write_call(self, op: str, **fields):
        """One write, leader-only; re-sent only while provably undelivered.

        A write that *may* have reached the wire is never replayed —
        double-applying ``add``/``remove`` batches would corrupt the
        replica WAL seq lockstep.  A write that provably never left
        (connect refused twice across a backoff) marks the leader dead:
        the most-caught-up replica is promoted and the same bytes are
        issued there, still exactly-once.  A mid-flight failure probes
        the leader — a dead one still triggers promotion so *later*
        writes succeed, but the in-flight write surfaces as unknown.
        """
        self._count("requests")
        self._count("writes")
        outcome, payload = self._attempt_write(op, fields)
        if outcome == "ok":
            return payload
        if outcome == "undelivered":
            # Provably never sent: one counted retry after a backoff is
            # exactly-once safe and absorbs a leader restart blip.
            self._count("retries")
            time.sleep(self.retry_backoff)
            outcome, payload = self._attempt_write(op, fields)
            if outcome == "ok":
                return payload
            if outcome == "undelivered":
                if self._promote_replica():
                    try:
                        return self._call(0, op, fields)
                    except (ProtocolError, OSError) as exc:
                        self._drop(0)
                        self._fail_write(op, exc, promoted=True)
                self._fail_write(op, payload, promoted=False)
            self._fail_write(op, payload, promoted=False)
        # Mid-flight failure on the first attempt.  Distinguish "leader
        # hiccuped" (connection churn, it still answers) from "leader is
        # gone": only the latter elects a replacement, and even then the
        # failed write is surfaced, never replayed.
        time.sleep(self.retry_backoff)
        if self._leader_alive():
            self._fail_write(op, payload, promoted=False)
        promoted = self._promote_replica()
        self._fail_write(op, payload, promoted=promoted)

    def _promote_replica(self) -> bool:
        """Elect and promote the most-caught-up replica to shard leader.

        Candidates are ranked by replayed WAL seq (``replication_status``
        → ``applied_seq``), ties broken toward the lowest endpoint
        index; the winner gets a ``promote`` call and becomes endpoint 0
        via :meth:`_repoint`.  Serialized under ``_promote_lock`` so
        concurrent failing writes elect exactly once: a loser of the
        lock race re-checks whether a promotion already happened and the
        new leader answers before starting its own election.  Returns
        True when endpoint 0 is a freshly (or already) promoted leader.
        """
        with self._promote_lock:
            if self.min_generation is not None and self._leader_alive():
                return True
            candidates = []
            for endpoint in range(1, len(self.addresses)):
                try:
                    with RemoteClient(self.addresses[endpoint],
                                      codec="json",
                                      timeout=self.timeout) as probe:
                        status = probe.call("replication_status")
                except (ProtocolError, OSError):
                    continue
                if not isinstance(status, dict):
                    continue
                applied = status.get("applied_seq")
                if not isinstance(applied, int):
                    continue
                candidates.append((applied, -endpoint))
            for applied, neg_endpoint in sorted(candidates, reverse=True):
                endpoint = -neg_endpoint
                try:
                    with RemoteClient(self.addresses[endpoint],
                                      codec="json",
                                      timeout=self.timeout) as probe:
                        result = probe.call("promote")
                except (ProtocolError, OSError):
                    continue
                generation = result.get("generation") \
                    if isinstance(result, dict) else None
                self._repoint(
                    endpoint,
                    generation if isinstance(generation, int) else None)
                self._count("promotions")
                return True
            return False

    def _repoint(self, endpoint: int, generation: Optional[int]) -> None:
        """Make ``endpoint`` the shard's leader slot (index 0).

        The address/client lists are reordered in one assignment each
        (their length never changes, so a concurrent read sweeping the
        endpoints at worst reroutes once), the demoted ex-leader's dead
        connection is dropped, and the promoted store's generation is
        recorded as the split-brain floor for the connection-time gate.
        """
        self._drop(0)
        self._drop(endpoint)
        order = [endpoint] + [i for i in range(len(self.addresses))
                              if i != endpoint]
        self.addresses = [self.addresses[i] for i in order]
        self._clients = [self._clients[i] for i in order]
        self.leader = self.addresses[0]
        if generation is not None:
            self.min_generation = generation

    def stats_probe(self) -> Optional[dict]:
        """Best-effort ``stats`` read from whichever endpoint answers.

        Deliberately OUTSIDE the failover machinery: no counter is
        bumped (an observability poll must not skew the request/reroute
        counters tests and dashboards reason about), only one sweep is
        made with no backoff sleep, and a dedicated short-lived
        connection is used so a worker-thread stats call never shares a
        socket with the dispatcher's in-flight reads.  ``None`` when no
        endpoint answers.
        """
        for address in self.addresses:
            try:
                with RemoteClient(address, codec="json",
                                  timeout=self.timeout) as client:
                    result = client.call("stats")
            except (ProtocolError, OSError):
                continue
            if isinstance(result, dict):
                return result
        return None

    def handshake(self, coordinator_fingerprint: Optional[str]) -> None:
        """Probe every endpoint's ``role`` and gate the raw-id path."""
        fingerprints: List[Optional[str]] = []
        for endpoint in range(len(self.addresses)):
            try:
                info = self._call(endpoint, "role", {})
            except (ProtocolError, OSError):
                self._drop(endpoint)
                fingerprints.append(None)
                continue
            fingerprints.append(info.get("fingerprint")
                                if isinstance(info, dict) else None)
        self.id_space_matched = (
            coordinator_fingerprint is not None
            and all(fp == coordinator_fingerprint for fp in fingerprints))

    def close(self) -> None:
        for endpoint in range(len(self.addresses)):
            self._drop(endpoint)


def _decode_triples(rows) -> List[Triple]:
    """One wire ``match`` result to triples (either codec)."""
    if isinstance(rows, DecodedBlock):
        return rows.to_triples()
    return [Triple.unchecked(head, relation, tail)
            for head, relation, tail in rows]


def _decode_id_rows(item) -> np.ndarray:
    """One wire ``match_ids_many`` result to a ``(k, 3)`` int64 block."""
    if isinstance(item, DecodedBlock):
        return np.asarray(item.rows, dtype=np.int64).reshape(-1, 3)
    if not item:
        return np.zeros((0, 3), dtype=np.int64)
    return np.asarray(item, dtype=np.int64).reshape(-1, 3)


_EMPTY_BLOCK = lambda: np.zeros((0, 3), dtype=np.int64)  # noqa: E731


# --------------------------------------------------------------------- #
# the coordinator backend
# --------------------------------------------------------------------- #
class ClusterBackend(_BatchedQueriesMixin):
    """A :class:`GraphBackend` whose shards are remote KGServer processes.

    ``shards`` lists the leader ``host:port`` of every shard in shard
    order; ``replicas`` optionally maps a shard index to its replica
    addresses.  The coordinator owns an interner pair (normally loaded
    from the :func:`shard_split` output via :meth:`open`) that assigns
    the global ids used for routing; every batched operation is ONE
    wire call per touched shard, run concurrently over a persistent
    thread pool (wire I/O releases the GIL).

    The backend satisfies the ``GraphBackend`` protocol, string and id
    surfaces alike, so the planner and the lockstep executor treat it
    exactly like a local
    :class:`~repro.kg.sharded_backend.ShardedBackend` — including
    bit-identical result ordering, because per-shard results concatenate
    in shard-index order on both sides of the deployment boundary.
    """

    name = "cluster"

    def __init__(self, shards: Sequence[str], *,
                 replicas: Optional[Mapping[int, Sequence[str]]] = None,
                 codec: str = "auto", timeout: Optional[float] = 30.0,
                 retry_backoff: float = DEFAULT_RETRY_BACKOFF,
                 entity_interner: Optional[Interner] = None,
                 relation_interner: Optional[Interner] = None,
                 handshake: bool = True) -> None:
        if not shards:
            raise ValueError("a cluster needs at least one shard server")
        replicas = dict(replicas or {})
        unknown = [index for index in replicas
                   if not 0 <= index < len(shards)]
        if unknown:
            raise ValueError(
                f"replica map names shard indexes {unknown} but there "
                f"are only {len(shards)} shards")
        self.n_shards = len(shards)
        self.entity_interner = entity_interner \
            if entity_interner is not None else Interner()
        self.relation_interner = relation_interner \
            if relation_interner is not None else Interner()
        # Resources are acquired under a guard: a handshake (or pool
        # creation) that raises mid-__init__ must not leak the thread
        # pool or any connection the sessions already opened — the
        # caller never gets an object to close().
        self._sessions: List[_ShardSession] = []
        self._pool: Optional[ThreadPoolExecutor] = None
        self._fast_lengths: Optional[Tuple[int, int]] = None
        self._closed = False
        try:
            self._sessions = [
                _ShardSession(index, address, replicas.get(index, ()),
                              codec=codec, timeout=timeout,
                              retry_backoff=retry_backoff)
                for index, address in enumerate(shards)
            ]
            self._pool = ThreadPoolExecutor(
                max_workers=max(2, self.n_shards),
                thread_name_prefix="kg-cluster")
            if handshake:
                self.refresh_handshake()
        except BaseException:
            self._dispose()
            raise

    @classmethod
    def open(cls, directory: Union[str, Path], shards: Sequence[str],
             **kwargs) -> "ClusterBackend":
        """Connect to a cluster whose stores came from :func:`shard_split`.

        Loads the coordinator's interner pair from the split
        directory's top-level tables (so routing ids match what the
        shard servers carry) and validates the shard count against the
        ``cluster.json`` header.
        """
        header, entity_interner, relation_interner = \
            load_cluster_interners(directory)
        if len(shards) != header["n_shards"]:
            raise StorageError(
                f"{directory} was split into {header['n_shards']} shards "
                f"but {len(shards)} shard servers were given")
        return cls(shards, entity_interner=entity_interner,
                   relation_interner=relation_interner, **kwargs)

    # ------------------------------------------------------------------ #
    # plumbing
    # ------------------------------------------------------------------ #
    def refresh_handshake(self) -> None:
        """(Re-)probe every endpoint's role and re-gate the id path."""
        fingerprint = interner_fingerprint(self.entity_interner,
                                           self.relation_interner)
        for session in self._sessions:
            session.handshake(fingerprint)
        self._fast_lengths = (len(self.entity_interner),
                              len(self.relation_interner))

    def _fast_id_path(self) -> bool:
        """True while raw coordinator ids are valid on every shard."""
        return (self._fast_lengths == (len(self.entity_interner),
                                       len(self.relation_interner))
                and all(session.id_space_matched
                        for session in self._sessions))

    def _run(self, thunks: Sequence, parallel: bool = True) -> List:
        """Run per-shard jobs concurrently, results in submission order.

        Unlike the in-process backend, the jobs here are dominated by
        socket waits, so concurrency pays off regardless of batch size
        — the ``parallel`` hint from the shared skeleton is ignored.
        """
        if len(thunks) <= 1:
            return [thunk() for thunk in thunks]
        return [future.result()
                for future in [self._pool.submit(thunk)
                               for thunk in thunks]]

    def _scatter(self, items: Sequence, *, classify, empty, shard_call,
                 broadcast_call=None, merge=None) -> List:
        return scatter_gather(
            items, n_shards=self.n_shards, classify=classify, empty=empty,
            shard_call=shard_call, broadcast_call=broadcast_call,
            merge=merge, run=self._run)

    def _classify_head(self, head: Optional[str]):
        if head is None:
            return _BROADCAST
        head_id = self.entity_interner.lookup(head)
        return None if head_id is None else shard_of_id(head_id,
                                                        self.n_shards)

    # ------------------------------------------------------------------ #
    # mutation — leader-only, routed exactly like ShardedBackend
    # ------------------------------------------------------------------ #
    def add(self, head: str, relation: str, tail: str) -> bool:
        return self.add_many([Triple(head, relation, tail)]) > 0

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Intern locally in first-appearance order (identical to the
        in-process backend, so routing ids match a same-order local
        load), partition by head id, ship ONE ``add_many`` per touched
        shard leader.  Per-shard batches apply atomically; there is no
        cross-shard transaction — a failed shard raises
        :class:`~repro.errors.ShardUnavailableError` after the others
        may have applied, exactly like a crashed in-process bulk load.
        """
        items = list(triples)
        if not items:
            return 0
        intern_entity = self.entity_interner.intern
        intern_relation = self.relation_interner.intern

        def id_components() -> Iterator[int]:
            for triple in items:
                head, relation, tail = triple.head, triple.relation, \
                    triple.tail
                if not (head and relation and tail):
                    raise ValueError(
                        f"triple components must be non-empty, got "
                        f"({head!r}, {relation!r}, {tail!r})")
                yield intern_entity(head)
                yield intern_relation(relation)
                yield intern_entity(tail)

        rows = np.fromiter(id_components(),
                           dtype=np.int64).reshape(-1, 3)
        owners = shard_of_ids(rows[:, 0], self.n_shards)
        grouped: Dict[int, List[List[str]]] = {}
        for triple, owner in zip(items, owners.tolist()):
            grouped.setdefault(owner, []).append(
                [triple.head, triple.relation, triple.tail])
        results = self._run([
            (lambda index=index, group=group:
             self._sessions[index].write_call("add_many", triples=group))
            for index, group in sorted(grouped.items())
        ])
        return sum(result["added"] for result in results)

    def discard(self, head: str, relation: str, tail: str) -> bool:
        return self.discard_many([Triple.unchecked(head, relation,
                                                   tail)]) > 0

    def discard_many(self, triples: Iterable[Triple]) -> int:
        lookup = self.entity_interner.lookup
        grouped: Dict[int, List[List[str]]] = {}
        for triple in triples:
            head_id = lookup(triple.head)
            if head_id is None:
                continue
            grouped.setdefault(shard_of_id(head_id, self.n_shards),
                               []).append(
                [triple.head, triple.relation, triple.tail])
        if not grouped:
            return 0
        results = self._run([
            (lambda index=index, group=group:
             self._sessions[index].write_call("remove_many",
                                              triples=group))
            for index, group in sorted(grouped.items())
        ])
        return sum(result["removed"] for result in results)

    def clone_empty(self) -> "GraphBackend":
        """An empty IN-PROCESS equivalent (same shard count).

        A copy of a distributed store materializes locally — cloning N
        empty remote servers is not this layer's call to make.
        """
        return ShardedBackend(self.n_shards)

    # ------------------------------------------------------------------ #
    # string-level queries
    # ------------------------------------------------------------------ #
    def contains(self, head: str, relation: str, tail: str) -> bool:
        where = self._classify_head(head)
        if where is None:
            return False
        return self._sessions[where].read_call(
            "count", pattern=[head, relation, tail]) > 0

    def __len__(self) -> int:
        return sum(self._run([
            (lambda session=session: session.read_call("len"))
            for session in self._sessions]))

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]:
        def shard_call(index: int, group: List[Pattern]) -> List[List[Triple]]:
            results = self._sessions[index].read_call(
                "match_many", patterns=[list(p) for p in group])
            decoded = [_decode_triples(rows) for rows in results]
            return [sorted(rows) for rows in decoded] if sort else decoded

        def broadcast_call(index: int,
                           group: List[Pattern]) -> List[List[Triple]]:
            # Per-shard sorting would be thrown away by the merge.
            results = self._sessions[index].read_call(
                "match_many", patterns=[list(p) for p in group])
            return [_decode_triples(rows) for rows in results]

        return self._scatter(
            patterns,
            classify=lambda pattern: self._classify_head(pattern[0]),
            empty=list,
            shard_call=shard_call,
            broadcast_call=broadcast_call,
            merge=lambda parts: merge_triple_lists(parts, sort=sort))

    def match(self, head: Optional[str] = None,
              relation: Optional[str] = None, tail: Optional[str] = None,
              sort: bool = False) -> List[Triple]:
        return self.match_many([(head, relation, tail)], sort=sort)[0]

    def iter_match(self, head: Optional[str] = None,
                   relation: Optional[str] = None,
                   tail: Optional[str] = None) -> Iterator[Triple]:
        yield from self.match(head, relation, tail)

    def iter_triples(self) -> Iterator[Triple]:
        yield from self.match(None, None, None)

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        return self._scatter(
            patterns,
            classify=lambda pattern: self._classify_head(pattern[0]),
            empty=lambda: 0,
            shard_call=lambda index, group: self._sessions[index].read_call(
                "count_many", patterns=[list(p) for p in group]),
            merge=sum)

    def count(self, head: Optional[str] = None,
              relation: Optional[str] = None,
              tail: Optional[str] = None) -> int:
        return self.count_many([(head, relation, tail)])[0]

    def tails(self, head: str, relation: str) -> List[str]:
        return sorted(triple.tail
                      for triple in self.match(head, relation, None))

    def tails_many(self, pairs: Sequence[Tuple[str, str]]) -> List[List[str]]:
        results = self.match_many([(head, relation, None)
                                   for head, relation in pairs])
        return [sorted(triple.tail for triple in rows) for rows in results]

    def heads(self, relation: str, tail: str) -> List[str]:
        return sorted(triple.head
                      for triple in self.match(None, relation, tail))

    def degree(self, node: str) -> int:
        return self.degree_many([node])[0]

    def degree_many(self, nodes: Sequence[str]) -> List[int]:
        """Two counts per node (as head, as tail) in one batched call;
        a self-loop counts twice, matching every local backend."""
        patterns: List[Pattern] = []
        for node in nodes:
            patterns.append((node, None, None))
            patterns.append((None, None, node))
        counts = self.count_many(patterns)
        return [counts[2 * i] + counts[2 * i + 1]
                for i in range(len(nodes))]

    def _all_triples_per_shard(self) -> List[List[Triple]]:
        """Every shard's full content, one wire call per shard."""
        return self._run([
            (lambda session=session:
             _decode_triples(session.read_call(
                 "match", pattern=[None, None, None])))
            for session in self._sessions])

    def entities(self) -> List[str]:
        parts = self._all_triples_per_shard()
        return merge_sorted_unique(
            [[symbol for triple in part
              for symbol in (triple.head, triple.tail)] for part in parts])

    def relations(self) -> List[str]:
        parts = self._all_triples_per_shard()
        return merge_sorted_unique(
            [[triple.relation for triple in part] for part in parts])

    def heads_only(self) -> List[str]:
        parts = self._all_triples_per_shard()
        return merge_sorted_unique(
            [[triple.head for triple in part] for part in parts])

    def relation_frequencies(self) -> Dict[str, int]:
        parts = self._all_triples_per_shard()
        tallies = []
        for part in parts:
            tally: Dict[str, int] = {}
            for triple in part:
                tally[triple.relation] = tally.get(triple.relation, 0) + 1
            tallies.append(tally)
        return merge_frequency_dicts(tallies)

    # ------------------------------------------------------------------ #
    # id-level surface — raw when fingerprints match, strings otherwise
    # ------------------------------------------------------------------ #
    def _translate_id_pattern(self, pattern: IdPattern) \
            -> Optional[Pattern]:
        """Id pattern -> string pattern; ``None`` for out-of-range ids
        (statically empty, mirroring the service's range check)."""
        head_id, relation_id, tail_id = pattern
        translated = []
        for term, interner in ((head_id, self.entity_interner),
                               (relation_id, self.relation_interner),
                               (tail_id, self.entity_interner)):
            if term is None:
                translated.append(None)
                continue
            if not 0 <= term < len(interner):
                return None
            translated.append(interner.symbol_of(int(term)))
        return (translated[0], translated[1], translated[2])

    def match_ids_many(self, patterns: Sequence[IdPattern]) \
            -> List[np.ndarray]:
        """Batched id-pattern lookup: ONE wire call per touched shard.

        While every endpoint's interner fingerprint matched at
        handshake (and the coordinator's interners have not grown
        since), raw id patterns ship as-is and dense id blocks come
        straight back — zero translation, zero string traffic on the
        binary codec.  Otherwise patterns translate to strings, route
        through :meth:`match_many`, and results re-intern in the caller
        thread (the interner is not thread-safe; scatter threads never
        touch it).  Both paths concatenate per-shard blocks in shard
        order — the same order the in-process backend produces.
        """
        if self._fast_id_path():
            return self._scatter(
                patterns,
                classify=lambda pattern: _BROADCAST if pattern[0] is None
                else shard_of_id(pattern[0], self.n_shards),
                empty=_EMPTY_BLOCK,
                shard_call=lambda index, group: [
                    _decode_id_rows(item)
                    for item in self._sessions[index].read_call(
                        "match_ids_many",
                        patterns=[[None if term is None else int(term)
                                   for term in pattern]
                                  for pattern in group])],
                merge=concat_id_blocks)
        results: List[Optional[np.ndarray]] = [None] * len(patterns)
        live_positions: List[int] = []
        live_patterns: List[Pattern] = []
        for position, pattern in enumerate(patterns):
            translated = self._translate_id_pattern(pattern)
            if translated is None:
                results[position] = _EMPTY_BLOCK()
            else:
                live_positions.append(position)
                live_patterns.append(translated)
        if live_patterns:
            intern_entity = self.entity_interner.intern
            intern_relation = self.relation_interner.intern
            for position, triples in zip(live_positions,
                                         self.match_many(live_patterns)):
                if not triples:
                    results[position] = _EMPTY_BLOCK()
                    continue
                results[position] = np.array(
                    [[intern_entity(t.head), intern_relation(t.relation),
                      intern_entity(t.tail)] for t in triples],
                    dtype=np.int64)
        return results

    def match_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> np.ndarray:
        return self.match_ids_many([(head_id, relation_id, tail_id)])[0]

    def count_ids(self, head_id: Optional[int] = None,
                  relation_id: Optional[int] = None,
                  tail_id: Optional[int] = None) -> int:
        translated = self._translate_id_pattern(
            (head_id, relation_id, tail_id))
        if translated is None:
            return 0
        return self.count_many([translated])[0]

    # ------------------------------------------------------------------ #
    # observability + lifecycle
    # ------------------------------------------------------------------ #
    def cluster_stats(self, *, probe_shards: bool = True) -> dict:
        """Per-shard request/retry/reroute counters, the replica read
        share, and (with ``probe_shards``, the default) each shard
        server's result-cache counters — the ``stats`` op of a
        coordinator server includes all of it under ``"cluster"``.

        Counters are snapshotted FIRST, then shards are probed over
        dedicated connections that bump nothing, so reading stats never
        perturbs the numbers being read.  A shard whose endpoints are
        all unreachable reports ``"cache": None`` rather than failing
        the whole stats call.
        """
        totals = {key: 0 for key in
                  ("requests", "retries", "reroutes", "leader_reads",
                   "replica_reads", "writes", "failures", "promotions")}
        shards = []
        for session in self._sessions:
            with session._counter_lock:
                counters = dict(session.counters)
            for key in totals:
                totals[key] += counters.get(key, 0)
            shards.append({"index": session.index,
                           "leader": session.leader,
                           "replicas": list(session.addresses[1:]),
                           "fast_path": bool(session.id_space_matched),
                           **counters})
        reads = totals["leader_reads"] + totals["replica_reads"]
        totals["replica_read_share"] = \
            (totals["replica_reads"] / reads) if reads else 0.0
        if probe_shards:
            cache_keys = ("cache_hits", "cache_misses", "cache_evictions",
                          "cache_invalidations", "cache_entries",
                          "cache_bytes")
            cache_totals = {key: 0 for key in cache_keys}
            reachable = 0
            for shard, session in zip(shards, self._sessions):
                probed = session.stats_probe()
                service = (probed or {}).get("service")
                if not isinstance(service, dict):
                    shard["cache"] = None
                    continue
                reachable += 1
                shard["cache"] = {key: service.get(key, 0)
                                  for key in cache_keys}
                shard["cache"]["enabled"] = bool(
                    service.get("cache_enabled", False))
                for key in cache_keys:
                    cache_totals[key] += int(service.get(key, 0) or 0)
            cache_totals["shards_reporting"] = reachable
            totals["cache"] = cache_totals
        return {"n_shards": self.n_shards,
                "fast_id_path": self._fast_id_path(),
                "shards": shards,
                "totals": totals}

    def _dispose(self) -> None:
        """Release the pool and every session connection, best-effort.

        Shared by :meth:`close` and the ``__init__`` failure path, so a
        backend that never finished opening still tears down whatever it
        had acquired (no orphaned ``kg-cluster`` threads, no leaked
        sockets from a half-done handshake).
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        for session in self._sessions:
            try:
                session.close()
            except Exception:  # pragma: no cover - close is best-effort
                pass

    def close(self) -> None:
        """Close every connection and the job pool (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._dispose()

    def __enter__(self) -> "ClusterBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
