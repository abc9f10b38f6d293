"""A TCP query server in front of :class:`~repro.kg.service.QueryService`.

The network milestone of the ROADMAP's query layer: remote clients speak
the length-prefixed protocol of :mod:`repro.kg.protocol` to a
:class:`KGServer`, which owns one :class:`~repro.kg.service.QueryService`
over an (opened or in-memory) :class:`~repro.kg.store.TripleStore`.

Concurrency model — one I/O thread, a small worker pool, one dispatcher:

* a single **selector loop** thread multiplexes the listener and every
  client socket: it accepts, reads, slices complete frames out of
  per-connection buffers and flushes queued responses.  An idle
  connection costs one registered file descriptor and a buffer — not a
  thread — so thousands of open sockets leave the thread count flat;
* complete frames are handed to a bounded **worker pool** (blocking
  :class:`QueryService` calls happen there, never on the I/O thread).
  Each connection is served serially (frame order = response order,
  and the per-connection codec state stays single-writer), but across
  connections the workers submit concurrently, so the service's single
  dispatcher thread still coalesces N remote clients into batched
  ``execute_many`` / ``match_many`` / ``count_many`` backend rounds —
  ``QueryService.stats`` shows it;
* huge results never cross the wire in one frame: ``open_cursor`` /
  ``fetch`` / ``close_cursor`` page a server-side cursor (TTL-evicted).

Codecs: every connection starts as JSON (old clients never notice any
of this).  A client may send one ``{"op": "hello", "codecs":
["binary"]}`` exchange; if the server grants it, the connection
switches to the binary codec of :mod:`repro.kg.protocol` — responses
carry dense int64 id blocks plus interner deltas, and the
:class:`QueryService` is asked for ``raw`` id-space results so the
server never stringifies a row on that path.  ``codec="json"`` pins a
server to JSON (negotiation requests are declined, not errored).

Abuse tolerance: a malformed, truncated, oversized or garbage frame
gets a ``ProtocolError`` response when the frame boundary is still
trustworthy, and otherwise a best-effort error frame followed by a
connection close — never a server crash, and never a poisoned listener:
the next connection is served normally.  A client disconnecting
mid-request only kills its own connection state.

::

    with KGServer.open("./store", port=0) as server:
        host, port = server.address
        ... point a RemoteQueryEngine at f"{host}:{port}" ...

The CLI form is ``python -m repro.cli serve --store-dir DIR --port P``.
"""

from __future__ import annotations

import math
import os
import selectors
import shutil
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Deque, List, Optional, Sequence, Tuple, Union

from repro.errors import ProtocolError
from repro.kg.executor import IdBlock
from repro.kg.planner import PatternQuery
from repro.kg.protocol import (
    BINARY_PROTOCOL_VERSION,
    CODEC_BINARY,
    CODEC_JSON,
    FLAG_EXHAUSTED,
    MAX_FRAME_BYTES,
    SHAPE_LIST,
    SHAPE_PAGE,
    SHAPE_SINGLE,
    SNAPSHOT_CHUNK_BYTES,
    TAG_BINARY,
    TAG_JSON,
    BinaryResponseEncoder,
    decode_json_body,
    decode_snapshot_chunk,
    decode_wire_triples,
    encode_frame,
    encode_snapshot_chunk,
    encode_tagged_json,
    error_to_wire,
)
from repro.kg.routing import interner_fingerprint
from repro.kg.service import (DEFAULT_CACHE_BYTES, DEFAULT_CURSOR_TTL,
                              QueryService)
from repro.kg.store import TripleStore
from repro.kg.triple import Triple
from repro.kg.wal import (OP_ADD, WriteAheadLog, list_snapshot_files,
                          scan_wal, snapshot_dir_name, wal_file_name,
                          write_live_pointer)

#: Default port of the CLI ``serve`` command (0 = ephemeral, for tests).
DEFAULT_PORT = 7468

#: Worker threads running blocking service calls.  Small on purpose:
#: the QueryService dispatcher is the real executor; workers only
#: decode, submit and encode, and a bounded pool keeps a burst of
#: hostile connections from spawning unbounded threads.
DEFAULT_WORKERS = 8

#: How often a replica polls its leader's WAL when caught up, seconds.
DEFAULT_FOLLOW_POLL_INTERVAL = 0.05

#: Soft cap on triples shipped per ``wal_tail`` response (at least one
#: batch always goes out): the follower catches up over several polls
#: instead of one response blowing the frame cap.
_WAL_TAIL_TRIPLE_BUDGET = 50_000

#: Hard cap on batches per ``wal_tail`` response.
_WAL_TAIL_MAX_BATCHES = 4096


def _wire_pattern(value: object) -> Tuple[Optional[str], Optional[str],
                                          Optional[str]]:
    """Decode a wire pattern: 3 items, each a string or ``null``."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ProtocolError(
            f"pattern must be a 3-element array, got {value!r}")
    decoded = []
    for term in value:
        if term is not None and not isinstance(term, str):
            raise ProtocolError(
                f"pattern terms must be strings or null, got {term!r}")
        decoded.append(term)
    return (decoded[0], decoded[1], decoded[2])


def _wire_id_pattern(value: object) -> Tuple[Optional[int], Optional[int],
                                             Optional[int]]:
    """Decode a raw id-space pattern: 3 items, each an int or ``null``."""
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise ProtocolError(
            f"id pattern must be a 3-element array, got {value!r}")
    decoded = []
    for term in value:
        if term is not None and (not isinstance(term, int)
                                 or isinstance(term, bool)):
            raise ProtocolError(
                f"id pattern terms must be integers or null, got {term!r}")
        decoded.append(term)
    return (decoded[0], decoded[1], decoded[2])


def _wire_query(value: object) -> PatternQuery:
    """Decode a wire query object into a :class:`PatternQuery`."""
    if not isinstance(value, dict):
        raise ProtocolError(f"query must be an object, got {value!r}")
    patterns = value.get("patterns")
    if not isinstance(patterns, list):
        raise ProtocolError("query needs a 'patterns' array")
    for pattern in patterns:
        if not (isinstance(pattern, list) and len(pattern) == 3
                and all(isinstance(term, str) for term in pattern)):
            raise ProtocolError(
                f"query patterns must be [head, relation, tail] string "
                f"arrays, got {pattern!r}")
    select = value.get("select", [])
    if not (isinstance(select, list)
            and all(isinstance(name, str) for name in select)):
        raise ProtocolError(f"query 'select' must be a string array, "
                            f"got {select!r}")
    limit = value.get("limit")
    if limit is not None and not isinstance(limit, int):
        raise ProtocolError(f"query 'limit' must be an integer or null, "
                            f"got {limit!r}")
    try:
        return PatternQuery.from_patterns(patterns, select=select, limit=limit)
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def _wire_triples(triples: Sequence[Triple]) -> List[List[str]]:
    return [[triple.head, triple.relation, triple.tail] for triple in triples]


def _field(message: dict, name: str, kinds, kind_label: str):
    """A required, type-checked message field (ProtocolError otherwise)."""
    if name not in message:
        raise ProtocolError(f"message is missing required field {name!r}")
    value = message[name]
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise ProtocolError(
            f"field {name!r} must be {kind_label}, got {value!r}")
    return value


def _resolve_snapshot_member(snapshot: Path, member: str) -> Path:
    """Validate a manifest-relative member path (no traversal, ever)."""
    parts = Path(member).parts
    if (not parts or Path(member).is_absolute()
            or any(part in ("..", ".", "") for part in parts)):
        raise ProtocolError(f"invalid snapshot member path {member!r}")
    return snapshot.joinpath(*parts)


def _manifest_files(manifest: dict) -> List[Tuple[str, int]]:
    """Type-check a ``snapshot_ship`` manifest's file list."""
    files = manifest.get("files")
    if not isinstance(files, list):
        raise ProtocolError(f"snapshot manifest 'files' must be an array, "
                            f"got {files!r}")
    checked: List[Tuple[str, int]] = []
    for entry in files:
        if not isinstance(entry, dict):
            raise ProtocolError(f"snapshot manifest entry {entry!r} is not "
                                f"an object")
        path, size = entry.get("path"), entry.get("size")
        if not isinstance(path, str) or not isinstance(size, int) \
                or isinstance(size, bool) or size < 0:
            raise ProtocolError(
                f"snapshot manifest entry needs a string 'path' and a "
                f"non-negative integer 'size', got {entry!r}")
        checked.append((path, size))
    return checked


def fetch_snapshot(client, directory: Union[str, Path], *,
                   fsync: bool = True, should_abort=None) -> dict:
    """Fetch the leader's current snapshot generation into ``directory``.

    The wire half of replica (re-)bootstrap: pages the leader's
    ``snap-G/`` over ``snapshot_ship`` chunk responses into
    ``snap-G.partial/`` (every chunk CRC-checked, every file
    size-checked), renames it into place, creates a fresh empty
    ``wal-G.log``, and atomically flips ``live.json`` to generation G —
    the commit point.  A crash at any earlier step leaves the pointer
    untouched (the old state, or no store at all, still stands) and the
    next fetch starts over.  Raises
    :class:`~repro.errors.ProtocolError` on any integrity or transfer
    failure — including the leader compacting mid-transfer, which the
    server reports as a generation change; the caller just retries.
    Returns the manifest (``generation``, ``base_seq``, ``files``).
    ``should_abort()`` is polled between chunks so a closing server can
    cut a transfer short.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest = client.call("snapshot_ship")
    if not isinstance(manifest, dict):
        raise ProtocolError(f"snapshot manifest must be an object, got "
                            f"{type(manifest).__name__}")
    generation = manifest.get("generation")
    if not isinstance(generation, int) or isinstance(generation, bool) \
            or generation < 0:
        raise ProtocolError(f"snapshot manifest carries invalid generation "
                            f"{generation!r}")
    files = _manifest_files(manifest)
    snapshot = directory / snapshot_dir_name(generation)
    partial = directory / (snapshot_dir_name(generation) + ".partial")
    if partial.exists():
        shutil.rmtree(partial)
    partial.mkdir(parents=True)
    for member, size in files:
        target = _resolve_snapshot_member(partial, member)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "wb") as handle:
            offset = 0
            while True:
                if should_abort is not None and should_abort():
                    raise ProtocolError(
                        "snapshot fetch aborted: this server is stopping")
                chunk = client.call("snapshot_ship", path=member,
                                    offset=offset, generation=generation)
                data = decode_snapshot_chunk(chunk)
                handle.write(data)
                offset += len(data)
                if chunk.get("eof"):
                    break
                if not data:
                    raise ProtocolError(
                        f"snapshot member {member!r} made no progress at "
                        f"offset {offset} without reaching eof")
            if offset != size:
                raise ProtocolError(
                    f"snapshot member {member!r} transferred {offset} "
                    f"bytes, manifest says {size} — restart the fetch")
            handle.flush()
            if fsync:
                os.fsync(handle.fileno())
    if snapshot.exists():
        shutil.rmtree(snapshot)
    os.replace(partial, snapshot)
    # Durability of the rename and the new WAL rides on the directory
    # fsyncs WriteAheadLog.create and write_live_pointer already do.
    WriteAheadLog.create(directory / wal_file_name(generation),
                         generation=generation, fsync=fsync).close()
    write_live_pointer(directory, generation, fsync=fsync)
    return manifest


def bootstrap_replica(directory: Union[str, Path], leader: str, *,
                      fsync: bool = True, timeout: float = 30.0) -> int:
    """Build a brand-new replica store by fetching the leader's snapshot.

    The zero-operator bootstrap path: point it at an empty (or missing)
    directory and a leader URL and it produces a live store directory
    at the leader's current generation, ready to open with
    ``KGServer.open(directory, follow=leader)`` — no hand-copied files.
    Returns the bootstrapped generation.
    """
    from repro.kg.client import RemoteClient

    with RemoteClient(leader, codec=CODEC_JSON, timeout=timeout) as client:
        manifest = fetch_snapshot(client, directory, fsync=fsync)
    return int(manifest["generation"])


class _Connection:
    """Per-connection state shared by the I/O thread and one worker.

    The I/O thread owns ``inbuf`` and the selector registration; the
    ``lock`` guards the worker handoff (``pending`` / ``busy``) and the
    outgoing ``outbuf``.  ``pending`` holds complete frame bodies in
    arrival order — or a :class:`ProtocolError` entry when framing
    broke, so the violation response still goes out *after* the
    responses of the valid frames that preceded it.
    """

    __slots__ = ("sock", "peer", "inbuf", "outbuf", "lock", "pending",
                 "busy", "codec", "encoder", "close_after_write",
                 "closed", "input_broken", "mask")

    def __init__(self, sock: socket.socket, peer) -> None:
        self.sock = sock
        self.peer = peer
        self.inbuf = bytearray()
        self.outbuf: Deque[memoryview] = deque()
        self.lock = threading.Lock()
        self.pending: Deque = deque()
        self.busy = False
        self.codec = CODEC_JSON
        self.encoder: Optional[BinaryResponseEncoder] = None
        self.close_after_write = False
        self.closed = False
        self.input_broken = False
        self.mask = selectors.EVENT_READ


#: Selector data sentinel for the wakeup pipe.
_WAKEUP = object()


class KGServer:
    """Serves a :class:`TripleStore` to remote clients over TCP.

    Parameters
    ----------
    store:
        The store to serve.  Mutations arrive only through the
        ``add_many`` / ``remove_many`` / ``compact`` ops and serialize
        through the owned service's dispatcher; a store opened from a
        plain snapshot directory refuses them with a typed
        :class:`~repro.errors.StorageError`.
    host / port:
        Bind address (IPv4 or IPv6 literal).  ``port=0`` picks an
        ephemeral port; read the actual one from :attr:`address`.
    max_batch / cursor_ttl / cache_bytes:
        Forwarded to the owned :class:`QueryService` (``cache_bytes``
        is the hot-query result cache budget; ``0`` disables caching).
    max_frame_bytes:
        Per-frame payload cap, both directions.
    codec:
        ``"auto"`` (default) grants binary negotiation; ``"json"``
        declines it, pinning every connection to the JSON codec.
    workers:
        Size of the pool running blocking service calls.

    Use :meth:`start` for a background-thread server (tests, embedding
    in an application) or :meth:`serve_forever` to donate the calling
    thread (the CLI).  Always :meth:`close` (or use as a context
    manager) — it stops the I/O loop and closes the service.
    """

    def __init__(self, store: TripleStore, *, host: str = "127.0.0.1",
                 port: int = DEFAULT_PORT, max_batch: int = 256,
                 cursor_ttl: float = DEFAULT_CURSOR_TTL,
                 cache_bytes: int = DEFAULT_CACHE_BYTES,
                 max_frame_bytes: int = MAX_FRAME_BYTES,
                 codec: str = "auto",
                 workers: int = DEFAULT_WORKERS,
                 shard_index: Optional[int] = None,
                 n_shards: Optional[int] = None,
                 follow: Optional[str] = None,
                 follow_poll_interval: float =
                 DEFAULT_FOLLOW_POLL_INTERVAL) -> None:
        if codec not in ("auto", CODEC_JSON):
            raise ValueError(
                f"server codec policy must be 'auto' or 'json', got "
                f"{codec!r} (binary is negotiated per connection, never "
                f"forced: old clients must keep working)")
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if (shard_index is None) != (n_shards is None):
            raise ValueError(
                "shard_index and n_shards come together: a shard server "
                "must know both which shard it owns and how many exist")
        if shard_index is not None and not 0 <= shard_index < n_shards:
            raise ValueError(
                f"shard_index must be in 0..{n_shards - 1}, got "
                f"{shard_index}")
        if follow is not None and not store.writable:
            raise ValueError(
                "a replica must be able to apply its leader's WAL "
                "batches — open a live store (or an in-memory one), not "
                "a read-only snapshot")
        interval = float(follow_poll_interval)
        if not math.isfinite(interval) or interval <= 0:
            raise ValueError(
                f"follow_poll_interval must be a positive number of "
                f"seconds, got {follow_poll_interval!r} (a non-positive "
                f"interval would busy-spin the follower against its "
                f"leader)")
        self.max_frame_bytes = int(max_frame_bytes)
        self.codec = codec
        self.closing = False
        self.role = "replica" if follow is not None else "leader"
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._follow = follow
        self._follow_poll_interval = interval
        # Guards every read and write of the _replication dict: the
        # replication thread bumps it, stats/role/replication_status
        # snapshot it, and promotion finalizes it — a reader must never
        # see a torn block (e.g. generation from one poll, applied_seq
        # from another).
        self._stats_lock = threading.Lock()
        self._replication = {
            "leader": follow,
            "applied_seq": (store.wal.next_seq - 1
                            if store.wal is not None else 0),
            "generation": None,
            "polls": 0,
            "batches_applied": 0,
            "triples_applied": 0,
            "rebootstraps": 0,
            "last_error": None,
            "running": follow is not None,
        }
        self._stop_replication = threading.Event()
        self._replication_thread: Optional[threading.Thread] = None
        self._promote_lock = threading.Lock()
        # Set by a store swap (re-bootstrap): tells the I/O loop to drop
        # every client connection, because negotiated binary encoders
        # hold references into the replaced store's interners.
        self._drop_connections = False
        self.service = QueryService(store, max_batch=max_batch,
                                    cursor_ttl=cursor_ttl,
                                    cache_bytes=cache_bytes)
        try:
            infos = socket.getaddrinfo(host, port, type=socket.SOCK_STREAM)
            family, _type, proto, _name, sockaddr = infos[0]
            self._listener = socket.socket(family, socket.SOCK_STREAM, proto)
            try:
                self._listener.setsockopt(socket.SOL_SOCKET,
                                          socket.SO_REUSEADDR, 1)
                self._listener.bind(sockaddr)
                self._listener.listen(256)
                self._listener.setblocking(False)
            except BaseException:
                self._listener.close()
                raise
        except BaseException:
            self.service.close()
            raise
        self._wake_recv, self._wake_send = socket.socketpair()
        self._wake_recv.setblocking(False)
        self._wake_send.setblocking(False)
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ, None)
        self._selector.register(self._wake_recv, selectors.EVENT_READ,
                                _WAKEUP)
        self._connections: set = set()
        self._flush_wanted: set = set()
        self._flush_lock = threading.Lock()
        self._pool = ThreadPoolExecutor(max_workers=int(workers),
                                        thread_name_prefix="kg-server-worker")
        self._thread: Optional[threading.Thread] = None
        self._serving = threading.Event()
        self._close_lock = threading.Lock()
        self._cleaned = False
        if follow is not None:
            self._replication_thread = threading.Thread(
                target=self._replicate, name="kg-server-replication",
                daemon=True)
            self._replication_thread.start()

    @classmethod
    def open(cls, directory: Union[str, Path], **kwargs) -> "KGServer":
        """Open a saved store directory and serve it.

        Live directories (``live.json`` pointer) come up writable with
        their WAL replayed; plain mmap/sharded snapshots come up
        read-only for the write ops.
        """
        return cls(TripleStore.open(directory), **kwargs)

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` — read this after ``port=0``."""
        host, port = self._listener.getsockname()[:2]
        return (host, port)

    @property
    def url(self) -> str:
        """The ``host:port`` string clients connect to."""
        host, port = self.address
        return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"

    @property
    def connection_count(self) -> int:
        """Currently open client connections (the I/O loop's view)."""
        return len(self._connections)

    # ------------------------------------------------------------------ #
    # lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> "KGServer":
        """Serve from a daemon background thread; returns ``self``."""
        if self._thread is not None:
            raise RuntimeError("KGServer.start() called twice")
        self._thread = threading.Thread(target=self._run,
                                        name="kg-server-io", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`close` (the CLI path)."""
        self._run()

    def _wake(self) -> None:
        try:
            self._wake_send.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # pipe full = a wakeup is already pending, or closed

    def _reset_connections(self) -> None:
        """Ask the I/O loop to drop every client connection.

        Run after a store swap: a binary-codec connection's response
        encoder captured the *old* store's interner objects at hello
        time, so its delta masks would desync against the adopted
        store.  Clients reconnect (the RemoteClient retries idempotent
        ops transparently) and renegotiate against the new store.
        """
        self._drop_connections = True
        self._wake()

    def close(self) -> None:
        """Stop the I/O loop, drop connections, close the service."""
        with self._close_lock:
            if self.closing:
                return
            self.closing = True
        self._stop_replication.set()
        if self._replication_thread is not None:
            self._replication_thread.join(timeout=10)
        self._wake()
        if self._thread is not None:
            self._thread.join(timeout=10)
        elif self._serving.is_set():
            # serve_forever() on some other thread: give its loop a
            # moment to notice the flag and clean up after itself.
            deadline = time.monotonic() + 10
            while self._serving.is_set() and time.monotonic() < deadline:
                time.sleep(0.005)
        # Workers drain fast: their service futures resolve because the
        # service closes only after the pool has been torn down.
        self._pool.shutdown(wait=True)
        self._cleanup()
        self.service.close()

    def _cleanup(self) -> None:
        """Close every socket exactly once (loop exit or never-started)."""
        with self._close_lock:
            if self._cleaned:
                return
            self._cleaned = True
        for conn in list(self._connections):
            self._close_conn(conn)
        for sock in (self._listener, self._wake_recv, self._wake_send):
            try:
                sock.close()
            except OSError:  # pragma: no cover - close is best-effort
                pass
        self._selector.close()

    def __enter__(self) -> "KGServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # the I/O loop (single thread; owns the selector)
    # ------------------------------------------------------------------ #
    def _run(self) -> None:
        self._serving.set()
        try:
            while not self.closing:
                events = self._selector.select(timeout=0.1)
                for key, mask in events:
                    if key.data is None:
                        self._accept_ready()
                    elif key.data is _WAKEUP:
                        self._drain_wakeups()
                    else:
                        conn = key.data
                        if conn.closed:
                            continue
                        if mask & selectors.EVENT_READ:
                            self._on_readable(conn)
                        if mask & selectors.EVENT_WRITE and not conn.closed:
                            self._flush(conn)
                self._flush_requested()
                if self._drop_connections:
                    self._drop_connections = False
                    for conn in list(self._connections):
                        self._close_conn(conn)
        finally:
            self._serving.clear()
            if self.closing:
                self._cleanup()

    def _accept_ready(self) -> None:
        while True:
            try:
                sock, peer = self._listener.accept()
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return
            sock.setblocking(False)
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - not fatal
                pass
            conn = _Connection(sock, peer)
            self._connections.add(conn)
            self._selector.register(sock, selectors.EVENT_READ, conn)

    def _drain_wakeups(self) -> None:
        while True:
            try:
                if not self._wake_recv.recv(4096):
                    return
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                return

    def _flush_requested(self) -> None:
        with self._flush_lock:
            if not self._flush_wanted:
                return
            wanted = list(self._flush_wanted)
            self._flush_wanted.clear()
        for conn in wanted:
            if not conn.closed:
                self._flush(conn)

    def _set_mask(self, conn: _Connection, mask: int) -> None:
        if conn.mask != mask and not conn.closed:
            conn.mask = mask
            try:
                self._selector.modify(conn.sock, mask, conn)
            except (KeyError, ValueError, OSError):  # pragma: no cover
                pass

    def _close_conn(self, conn: _Connection) -> None:
        if conn.closed:
            return
        conn.closed = True
        self._connections.discard(conn)
        try:
            self._selector.unregister(conn.sock)
        except (KeyError, ValueError, OSError):
            pass
        try:
            conn.sock.close()
        except OSError:  # pragma: no cover - close is best-effort
            pass

    def _on_readable(self, conn: _Connection) -> None:
        try:
            chunk = conn.sock.recv(1 << 20)
        except (BlockingIOError, InterruptedError):
            return
        except OSError:
            self._close_conn(conn)
            return
        if not chunk:
            # Clean EOF at a frame boundary, or the peer vanishing
            # mid-frame/mid-request — either way this connection is
            # done; any in-flight worker response is dropped on write.
            self._close_conn(conn)
            return
        if conn.input_broken:
            return  # framing already failed; ignore further bytes
        conn.inbuf += chunk
        self._parse_frames(conn)

    def _parse_frames(self, conn: _Connection) -> None:
        buffer = conn.inbuf
        appended = False
        while not conn.input_broken:
            if len(buffer) < 4:
                break
            length = int.from_bytes(buffer[:4], "big")
            violation = None
            if length == 0:
                violation = ProtocolError("zero-length frame")
            elif length > self.max_frame_bytes:
                violation = ProtocolError(
                    f"declared frame length {length} exceeds the "
                    f"{self.max_frame_bytes}-byte cap (hostile or corrupt "
                    f"length prefix)")
            if violation is not None:
                # Queue the violation behind the valid frames so their
                # responses still go out first, then stop reading.
                conn.input_broken = True
                with conn.lock:
                    conn.pending.append(violation)
                self._set_mask(conn, conn.mask & ~selectors.EVENT_READ)
                appended = True
                break
            if len(buffer) < 4 + length:
                break
            body = bytes(buffer[4:4 + length])
            del buffer[:4 + length]
            with conn.lock:
                conn.pending.append(body)
            appended = True
        if appended:
            self._maybe_dispatch(conn)

    def _maybe_dispatch(self, conn: _Connection) -> None:
        with conn.lock:
            if conn.busy or conn.close_after_write or not conn.pending:
                return
            conn.busy = True
            entry = conn.pending.popleft()
        try:
            self._pool.submit(self._work, conn, entry)
        except RuntimeError:  # pool already shut down: server is closing
            with conn.lock:
                conn.busy = False

    def _flush(self, conn: _Connection) -> None:
        while True:
            with conn.lock:
                if not conn.outbuf:
                    break
                view = conn.outbuf[0]
            try:
                sent = conn.sock.send(view)
            except (BlockingIOError, InterruptedError):
                self._set_mask(conn, conn.mask | selectors.EVENT_WRITE)
                return
            except OSError:
                self._close_conn(conn)
                return
            with conn.lock:
                if sent == len(view):
                    conn.outbuf.popleft()
                else:
                    conn.outbuf[0] = view[sent:]
        self._set_mask(conn, conn.mask & ~selectors.EVENT_WRITE)
        if conn.close_after_write:
            # Pending-but-undispatched frames are moot once the close
            # decision is made (_maybe_dispatch refuses them); only an
            # in-flight worker or unsent bytes defer the close.
            with conn.lock:
                drained = not conn.outbuf and not conn.busy
            if drained:
                self._close_conn(conn)

    # ------------------------------------------------------------------ #
    # workers (blocking service calls; one frame at a time per conn)
    # ------------------------------------------------------------------ #
    def _schedule_write(self, conn: _Connection, frame: Optional[bytes],
                        close: bool = False) -> None:
        with conn.lock:
            if conn.closed:
                return
            if frame:
                conn.outbuf.append(memoryview(frame))
            if close:
                conn.close_after_write = True
        with self._flush_lock:
            self._flush_wanted.add(conn)
        self._wake()

    def _work(self, conn: _Connection, entry) -> None:
        close = False
        try:
            frame, close = self._serve_frame(conn, entry)
        except BaseException as exc:  # pragma: no cover - last resort
            try:
                response = {"id": None, "ok": False,
                            "error": error_to_wire(exc)}
                frame, close = self._encode_json_response(conn, response), True
            except BaseException:
                frame, close = None, True
        self._schedule_write(conn, frame, close=close)
        with conn.lock:
            finished = close or conn.close_after_write or not conn.pending
            if finished:
                conn.busy = False
            else:
                entry = conn.pending.popleft()
        if finished:
            if conn.close_after_write:
                # The flush that saw busy=True may already have run;
                # request another so the close is never missed.
                with self._flush_lock:
                    self._flush_wanted.add(conn)
                self._wake()
            return
        try:
            self._pool.submit(self._work, conn, entry)
        except RuntimeError:  # closing
            with conn.lock:
                conn.busy = False

    def _serve_frame(self, conn: _Connection,
                     entry) -> Tuple[Optional[bytes], bool]:
        """One frame in, one response frame out (+ close-connection flag)."""
        if isinstance(entry, ProtocolError):
            # Framing violation queued by the I/O thread: the boundary
            # is no longer trustworthy — report best-effort and hang up.
            response = {"id": None, "ok": False, "error": error_to_wire(entry)}
            return self._encode_json_response(conn, response), True
        binary = conn.codec == CODEC_BINARY
        payload = entry
        if binary:
            tag = entry[0]
            if tag == TAG_BINARY:
                # The framing is intact (the length prefix parsed); the
                # client is just confused — typed error, stay alive.
                exc = ProtocolError(
                    "binary frames flow server-to-client only; requests "
                    "are JSON frames tagged 'J'")
                response = {"id": None, "ok": False,
                            "error": error_to_wire(exc)}
                return self._encode_json_response(conn, response), False
            if tag != TAG_JSON:
                exc = ProtocolError(
                    f"unknown frame tag {tag:#04x} on a binary-codec "
                    f"connection")
                response = {"id": None, "ok": False,
                            "error": error_to_wire(exc)}
                return self._encode_json_response(conn, response), True
            payload = entry[1:]
        try:
            message = decode_json_body(payload)
        except ProtocolError as exc:
            # Not JSON: the stream may be garbage — report and hang up
            # (same contract as the pre-codec server).
            response = {"id": None, "ok": False, "error": error_to_wire(exc)}
            return self._encode_json_response(conn, response), True
        if message.get("op") == "hello":
            return self._serve_hello(conn, message), False
        response = self.handle_message(message, raw=binary)
        if conn.codec == CODEC_BINARY:
            return self._encode_binary_response(conn, response), False
        return self._encode_json_response(conn, response), False

    def _serve_hello(self, conn: _Connection, message: dict) -> bytes:
        """Codec negotiation.  Grant binary only when policy allows; the
        reply itself always uses the connection's *current* codec, so
        the client flips exactly after reading the ack."""
        request_id = message.get("id")
        codecs = message.get("codecs", [])
        if not (isinstance(codecs, list)
                and all(isinstance(name, str) for name in codecs)):
            exc = ProtocolError(
                f"hello 'codecs' must be an array of codec names, got "
                f"{codecs!r}")
            return self._encode_json_response(
                conn, {"id": request_id, "ok": False,
                       "error": error_to_wire(exc)})
        backend = self.service.store.backend
        grant = CODEC_BINARY in codecs and self.codec == "auto"
        granted = CODEC_BINARY if grant else CODEC_JSON
        frame = self._encode_json_response(
            conn, {"id": request_id, "ok": True,
                   "result": {"codec": granted,
                              "protocol": BINARY_PROTOCOL_VERSION}})
        if grant and conn.codec != CODEC_BINARY:
            conn.encoder = BinaryResponseEncoder(
                backend.entity_interner, backend.relation_interner,
                self.max_frame_bytes)
            conn.codec = CODEC_BINARY
        return frame

    def _encode_json_response(self, conn: _Connection,
                              response: dict) -> bytes:
        encode = encode_tagged_json if conn.codec == CODEC_BINARY \
            else encode_frame
        try:
            return encode(response, self.max_frame_bytes)
        except ProtocolError as exc:
            # The *response* did not fit the frame cap.  The stream is
            # still intact, so report and keep serving — the client
            # should page through a cursor instead.
            return encode({"id": response.get("id"), "ok": False,
                           "error": error_to_wire(exc)},
                          self.max_frame_bytes)

    def _encode_binary_response(self, conn: _Connection,
                                response: dict) -> bytes:
        """Pack id-block results; anything else rides as tagged JSON."""
        if response.get("ok"):
            request_id = response.get("id")
            result = response.get("result")
            try:
                if isinstance(result, IdBlock):
                    return conn.encoder.encode(
                        request_id, SHAPE_SINGLE, [("block", result, 0)])
                if isinstance(result, list) and any(
                        isinstance(item, IdBlock) for item in result):
                    items = [("block", item, 0) if isinstance(item, IdBlock)
                             else ("json", item) for item in result]
                    return conn.encoder.encode(request_id, SHAPE_LIST, items)
                if isinstance(result, dict) and isinstance(
                        result.get("rows"), IdBlock):
                    flags = FLAG_EXHAUSTED if result.get("exhausted") else 0
                    return conn.encoder.encode(
                        request_id, SHAPE_PAGE,
                        [("block", result["rows"], flags)])
            except ProtocolError as exc:
                return encode_tagged_json(
                    {"id": request_id, "ok": False,
                     "error": error_to_wire(exc)}, self.max_frame_bytes)
        return self._encode_json_response(conn, response)

    # ------------------------------------------------------------------ #
    # request dispatch (called from worker threads)
    # ------------------------------------------------------------------ #
    def handle_message(self, message: dict, raw: bool = False) -> dict:
        """Serve one decoded request; always returns a response object.

        Anything a hostile or buggy client can provoke — unknown op,
        missing/garbage fields, a query-layer error — comes back as a
        typed error response on the same connection; nothing propagates
        to the connection loop.  With ``raw=True`` (binary-codec
        connections) row results come back as
        :class:`~repro.kg.executor.IdBlock` values for the binary
        encoder; the id must then be a wire-safe integer or the request
        is served materialized instead.
        """
        request_id = message.get("id")
        raw = raw and isinstance(request_id, int) \
            and not isinstance(request_id, bool) \
            and -(1 << 63) <= request_id < (1 << 63)
        try:
            result = self._dispatch(message, raw=raw)
        except Exception as exc:
            return {"id": request_id, "ok": False, "error": error_to_wire(exc)}
        return {"id": request_id, "ok": True, "result": result}

    def _dispatch(self, message: dict, raw: bool = False):
        op = message.get("op")
        if op == "ping":
            return "pong"
        if op == "stats":
            server_info = {"connections": self.connection_count,
                           "workers": self._pool._max_workers,
                           "codec_policy": self.codec,
                           "role": self.role}
            if self.shard_index is not None:
                server_info["shard_index"] = self.shard_index
                server_info["n_shards"] = self.n_shards
            stats = {"service": self.service.stats,
                     "store": {"triples": len(self.service.store),
                               "backend": self.service.store.backend_name},
                     "server": server_info}
            if self.role == "replica":
                stats["replication"] = self._replication_snapshot()
            cluster_stats = getattr(self.service.store.backend,
                                    "cluster_stats", None)
            if callable(cluster_stats):
                stats["cluster"] = cluster_stats()
            return stats
        if op == "role":
            return self._role_info()
        if op == "replication_status":
            return self._replication_status()
        if op == "wal_tail":
            return self._serve_wal_tail(message)
        if op == "snapshot_ship":
            return self._serve_snapshot_ship(message)
        if op == "promote":
            return self._serve_promote()
        if op == "len":
            return len(self.service.store)
        if op == "execute":
            query = _wire_query(_field(message, "query", dict, "an object"))
            return self.service.submit(
                query, reorder=bool(message.get("reorder", True)),
                raw=raw).result()
        if op == "execute_many":
            # Decode the whole batch BEFORE submitting anything: a
            # malformed query mid-list must not leave already-submitted
            # futures executing with nobody waiting on them.
            queries = [_wire_query(query) for query in
                       _field(message, "queries", list, "an array")]
            futures = [self.service.submit(
                query, reorder=bool(message.get("reorder", True)), raw=raw)
                for query in queries]
            return [future.result() for future in futures]
        if op == "match":
            pattern = _wire_pattern(_field(message, "pattern", list,
                                           "an array"))
            if raw:
                return self.service.submit_lookup(pattern, raw=True).result()
            return _wire_triples(self.service.lookup_many([pattern])[0])
        if op == "match_many":
            patterns = [_wire_pattern(pattern) for pattern in
                        _field(message, "patterns", list, "an array")]
            if raw:
                futures = [self.service.submit_lookup(pattern, raw=True)
                           for pattern in patterns]
                return [future.result() for future in futures]
            return [_wire_triples(triples)
                    for triples in self.service.lookup_many(patterns)]
        if op == "match_ids_many":
            patterns = [_wire_id_pattern(pattern) for pattern in
                        _field(message, "patterns", list, "an array")]
            blocks = self.service.match_ids_many(patterns)
            if raw:
                return blocks
            return [block.rows.tolist() for block in blocks]
        if op == "count":
            pattern = _wire_pattern(_field(message, "pattern", list,
                                           "an array"))
            return self.service.count_many([pattern])[0]
        if op == "count_many":
            patterns = [_wire_pattern(pattern) for pattern in
                        _field(message, "patterns", list, "an array")]
            return self.service.count_many(patterns)
        if op == "open_cursor":
            query = _wire_query(_field(message, "query", dict, "an object"))
            return self.service.open_cursor(
                query, reorder=bool(message.get("reorder", True)))
        if op == "open_match_cursor":
            pattern = _wire_pattern(_field(message, "pattern", list,
                                           "an array"))
            return self.service.open_match_cursor(pattern)
        if op == "fetch":
            cursor_id = _field(message, "cursor", str, "a string")
            max_rows = _field(message, "max_rows", int, "an integer")
            page, exhausted = self.service.fetch_cursor(cursor_id, max_rows,
                                                        raw=raw)
            if not isinstance(page, IdBlock) and page \
                    and isinstance(page[0], Triple):
                page = _wire_triples(page)
            return {"rows": page, "exhausted": exhausted}
        if op == "close_cursor":
            self.service.close_cursor(_field(message, "cursor", str,
                                             "a string"))
            return None
        if op in ("add_many", "remove_many", "compact") \
                and self.role == "replica":
            raise ProtocolError(
                f"this server is a read-only replica following "
                f"{self._follow}; send writes to the leader")
        if op == "add_many":
            triples = decode_wire_triples(
                _field(message, "triples", list, "an array"))
            added = self.service.add_many(triples)
            return {"added": added, "epoch": self.service.mutation_epoch}
        if op == "remove_many":
            triples = decode_wire_triples(
                _field(message, "triples", list, "an array"))
            removed = self.service.remove_many(triples)
            return {"removed": removed, "epoch": self.service.mutation_epoch}
        if op == "compact":
            return {"generation": self.service.compact()}
        raise ProtocolError(f"unknown op {op!r}")

    def _role_info(self) -> dict:
        """The ``role`` handshake: who this server is in a cluster.

        The ``fingerprint`` field digests both interner tables; a
        coordinator whose own interners carry the same fingerprint knows
        the server's id space is identical to its own and may ship raw
        id-space queries (``match_ids_many``) instead of strings.
        """
        store = self.service.store
        backend = store.backend
        info = {"role": self.role,
                "shard_index": self.shard_index,
                "n_shards": self.n_shards,
                "writable": store.writable,
                "generation": store.live_generation,
                "triples": len(store),
                "backend": store.backend_name,
                "fingerprint": interner_fingerprint(
                    backend.entity_interner, backend.relation_interner)}
        if self.role == "replica":
            info["replication"] = self._replication_snapshot()
        return info

    def _replication_snapshot(self) -> dict:
        """One consistent copy of the replication status block."""
        with self._stats_lock:
            return dict(self._replication)

    def _replication_status(self) -> dict:
        """The ``replication_status`` op: how caught-up this server is.

        The promotion protocol's ballot: a coordinator facing a dead
        leader polls each replica's ``applied_seq`` through this and
        promotes the highest.  Served by leaders too (an
        already-promoted server reports its role so a second
        coordinator repoints instead of re-promoting).
        """
        store = self.service.store
        info = self._replication_snapshot()
        info["role"] = self.role
        info["local_generation"] = store.live_generation
        info["writable"] = store.writable
        return info

    def _serve_wal_tail(self, message: dict) -> dict:
        """Ship WAL batches past ``after_seq`` to a polling follower.

        Re-scans the WAL file per poll: the scanner recovers the
        longest *intact record prefix*, which is exactly the durably
        acked state even while the dispatcher thread is appending to
        the same file.  The response is capped (batches and a triple
        budget) so a far-behind follower catches up over several polls
        instead of one response blowing the frame cap.
        """
        wal = self.service.store.wal
        if wal is None:
            raise ProtocolError(
                "wal_tail requires a live store (this server was opened "
                "from a plain snapshot or in-memory data)")
        after_seq = _field(message, "after_seq", int, "an integer")
        if after_seq < 0:
            raise ProtocolError(f"after_seq must be >= 0, got {after_seq}")
        max_batches = message.get("max_batches", 256)
        if not isinstance(max_batches, int) or isinstance(max_batches, bool) \
                or max_batches < 1:
            raise ProtocolError(
                f"max_batches must be a positive integer, got "
                f"{max_batches!r}")
        scan = scan_wal(wal.path)
        batches: List[list] = []
        budget = _WAL_TAIL_TRIPLE_BUDGET
        for batch in scan.batches:
            if batch.seq <= after_seq:
                continue
            if batches and (budget <= 0
                            or len(batches) >= min(max_batches,
                                                   _WAL_TAIL_MAX_BATCHES)):
                break
            batches.append([batch.seq, batch.op,
                            [list(triple) for triple in batch.triples]])
            budget -= len(batch.triples)
        return {"generation": scan.generation, "next_seq": wal.next_seq,
                "batches": batches}

    def _serve_snapshot_ship(self, message: dict) -> dict:
        """Stream the current snapshot generation to a bootstrapping peer.

        Two request shapes share the op.  Without a ``path`` field it
        returns the **manifest**: the current generation, the WAL
        position the shipped snapshot corresponds to (``base_seq`` — a
        compaction always starts its new WAL at seq 1, so a shipped
        snapshot is always seq 0 of its generation) and the relative
        path + size of every snapshot member file.  With ``path`` /
        ``offset`` / ``generation`` it returns one **chunk**: up to
        :data:`~repro.kg.protocol.SNAPSHOT_CHUNK_BYTES` of that file as
        CRC-checked base64, well under the frame cap.  A chunk request
        for a generation that is no longer current (the leader
        compacted mid-transfer) fails typed — the fetcher restarts from
        a fresh manifest instead of stitching two generations together.
        """
        store = self.service.store
        directory = store.live_directory
        generation = store.live_generation
        if directory is None or generation is None:
            raise ProtocolError(
                "snapshot_ship requires a live store (this server was "
                "opened from a plain snapshot or in-memory data)")
        snapshot = directory / snapshot_dir_name(generation)
        if "path" not in message:
            files = [{"path": member, "size": size}
                     for member, size in list_snapshot_files(snapshot)]
            return {"generation": generation, "base_seq": 0,
                    "chunk_bytes": SNAPSHOT_CHUNK_BYTES, "files": files}
        member = _field(message, "path", str, "a string")
        offset = _field(message, "offset", int, "an integer")
        wanted = _field(message, "generation", int, "an integer")
        if offset < 0:
            raise ProtocolError(f"offset must be >= 0, got {offset}")
        if wanted != generation:
            raise ProtocolError(
                f"snapshot generation changed under the transfer (chunk "
                f"asked for generation {wanted}, this server now serves "
                f"{generation}) — restart the fetch from a fresh manifest")
        target = _resolve_snapshot_member(snapshot, member)
        try:
            with open(target, "rb") as handle:
                handle.seek(offset)
                data = handle.read(SNAPSHOT_CHUNK_BYTES)
                size = os.fstat(handle.fileno()).st_size
        except OSError as exc:
            raise ProtocolError(
                f"cannot read snapshot member {member!r}: {exc} (a "
                f"compaction may have swept it — restart the fetch)"
            ) from exc
        chunk = encode_snapshot_chunk(data)
        chunk.update({"generation": generation, "path": member,
                      "size": size, "eof": offset + len(data) >= size})
        return chunk

    def _serve_promote(self) -> dict:
        """The ``promote`` op: turn this replica into the shard's leader.

        Commit order: stop the replication loop first (no leader batch
        may apply after the cut), then compact — which folds the
        replica's current state into a **new, higher generation** and
        flips its ``live.json`` — then flip the advertised role so the
        write ops open up.  The generation bump is the split-brain
        fence: the dead ex-leader's directory stays on the old
        generation, so a routing layer that recorded the promotion
        generation refuses any endpoint still serving an older one; a
        restarted ex-leader rejoins by following the new leader, which
        re-bootstraps it past the fence.  Idempotent on an
        already-promoted server (reports ``promoted: false``).
        """
        with self._promote_lock:
            if self.role == "leader":
                return {"promoted": False, "role": self.role,
                        "generation": self.service.store.live_generation}
            if self.service.store.live_generation is None:
                raise ProtocolError(
                    "promotion requires a live store directory: an "
                    "in-memory follower has no durable generation to bump "
                    "and cannot take over the shard's write path")
            self._stop_replication.set()
            thread = self._replication_thread
            if thread is not None:
                thread.join(timeout=10)
                if thread.is_alive():
                    raise ProtocolError(
                        "replication loop did not stop within 10s; "
                        "refusing to promote while old-leader batches "
                        "may still be applying")
            generation = self.service.compact()
            with self._stats_lock:
                self._replication["running"] = False
                self._replication["last_error"] = None
            self.role = "leader"
            self._follow = None
            return {"promoted": True, "role": "leader",
                    "generation": generation}

    # ------------------------------------------------------------------ #
    # replication (follower mode)
    # ------------------------------------------------------------------ #
    def _replicate(self) -> None:
        """Follower loop: poll the leader's WAL tail and apply it.

        Each leader batch applies as ONE ``service.add_many`` /
        ``remove_many`` call, so when this replica runs over a live
        store bootstrapped from the leader's snapshot, its own WAL
        sequence numbers stay in lockstep with the leader's and
        ``applied_seq`` survives a replica restart for free.
        Unreachable leaders are retried forever (the replica keeps
        serving reads from its current state).  A *generation* change
        means the leader compacted underneath us: replaying the new log
        over our old snapshot would be wrong, so a live-directory
        replica re-bootstraps itself over the wire
        (:meth:`_rebootstrap`) and resumes on the new generation — only
        an in-memory follower, which has nowhere durable to adopt a
        snapshot into, still stops with the re-bootstrap demand.  Every
        status mutation happens under the stats lock, grouped per batch,
        so a concurrent ``stats`` poll never reads a torn block.
        """
        from repro.kg.client import RemoteClient

        rep = self._replication
        client: Optional[RemoteClient] = None
        # Last leader generation observed, for followers with no local
        # generation (in-memory): they cannot adopt a snapshot, but they
        # must still notice a compaction instead of misreading the new
        # log's restarted sequence numbers as a continuation.
        leader_generation: Optional[int] = None

        def drop_client() -> None:
            nonlocal client
            if client is not None:
                try:
                    client.close()
                except Exception:  # pragma: no cover - best-effort
                    pass
                client = None

        try:
            while not self._stop_replication.is_set():
                with self._stats_lock:
                    applied_seq = rep["applied_seq"]
                try:
                    if client is None:
                        client = RemoteClient(self._follow, codec=CODEC_JSON,
                                              timeout=10.0)
                    result = client.call("wal_tail", after_seq=applied_seq)
                except Exception as exc:
                    with self._stats_lock:
                        rep["last_error"] = f"leader poll failed: {exc}"
                    drop_client()
                    self._stop_replication.wait(self._follow_poll_interval)
                    continue
                generation = result.get("generation")
                # Re-read the local generation every iteration: a
                # re-bootstrap moves it, and comparing against a value
                # captured at loop start would mis-fire forever after.
                local_generation = self.service.store.live_generation
                with self._stats_lock:
                    rep["polls"] += 1
                    rep["generation"] = generation
                if local_generation is not None \
                        and generation != local_generation:
                    try:
                        self._rebootstrap(client)
                    except Exception as exc:
                        with self._stats_lock:
                            rep["last_error"] = (
                                f"re-bootstrap after leader generation "
                                f"change ({local_generation} -> "
                                f"{generation}) failed: {exc}; retrying")
                        drop_client()
                        self._stop_replication.wait(
                            self._follow_poll_interval)
                    continue
                if local_generation is None \
                        and leader_generation is not None \
                        and generation != leader_generation:
                    with self._stats_lock:
                        rep["last_error"] = (
                            f"leader moved to generation {generation}; an "
                            f"in-memory follower cannot adopt a shipped "
                            f"snapshot — restart this replica over a live "
                            f"store directory to follow across "
                            f"compactions")
                    return
                leader_generation = generation
                applied_any = False
                abort = None
                for seq, op, rows in result.get("batches") or []:
                    if seq <= applied_seq:
                        continue
                    if seq != applied_seq + 1:
                        abort = (f"gap in the leader WAL: expected seq "
                                 f"{applied_seq + 1}, got {seq} — "
                                 f"re-bootstrap this replica")
                        break
                    triples = [Triple.unchecked(h, r, t) for h, r, t in rows]
                    try:
                        if op == OP_ADD:
                            self.service.add_many(triples)
                        else:
                            self.service.remove_many(triples)
                    except Exception as exc:
                        abort = f"replay failed: {exc}"
                        break
                    applied_seq = seq
                    # One lock acquisition per applied batch: seq,
                    # batch and triple counters move together or not at
                    # all as far as any stats reader can observe.
                    with self._stats_lock:
                        rep["applied_seq"] = seq
                        rep["batches_applied"] += 1
                        rep["triples_applied"] += len(triples)
                    applied_any = True
                if abort is not None:
                    with self._stats_lock:
                        rep["last_error"] = abort
                    return
                with self._stats_lock:
                    rep["last_error"] = None
                if not applied_any:
                    self._stop_replication.wait(self._follow_poll_interval)
        finally:
            with self._stats_lock:
                rep["running"] = False
            drop_client()

    def _rebootstrap(self, client) -> None:
        """Adopt the leader's current generation over the wire.

        The follower half of snapshot shipping, run from the
        replication thread when the leader's generation moved: fetch
        the new ``snap-G/`` + WAL position into this replica's live
        directory (:func:`fetch_snapshot` — the atomic ``live.json``
        flip is the commit point), open the adopted generation as a
        fresh store, swap it in through the service dispatcher (readers
        never observe half a state), close the replaced store, sweep
        the stale generation, and drop client connections whose binary
        encoders captured the old store's interners.  On return the
        loop resumes tailing the new generation's WAL from the shipped
        ``base_seq``.  In-memory followers cannot adopt a snapshot and
        keep the old stop-with-error behavior (the caller guards).
        """
        store = self.service.store
        directory = store.live_directory
        if directory is None:
            raise ProtocolError(
                "re-bootstrap requires a live store directory")
        wal_fsync = store.wal.fsync if store.wal is not None else True
        manifest = fetch_snapshot(client, directory, fsync=wal_fsync,
                                  should_abort=self._stop_replication.is_set)
        generation = int(manifest["generation"])
        base_seq = manifest.get("base_seq", 0)
        if not isinstance(base_seq, int) or isinstance(base_seq, bool) \
                or base_seq < 0:
            raise ProtocolError(
                f"snapshot manifest carries invalid base_seq {base_seq!r}")
        new_store = TripleStore.open(directory, wal_fsync=wal_fsync)
        old_store = self.service.swap_store(new_store)
        try:
            old_store.close()
        except Exception:  # pragma: no cover - old WAL close best-effort
            pass
        new_store.sweep_stale_generations()
        with self._stats_lock:
            self._replication["generation"] = generation
            self._replication["applied_seq"] = base_seq
            self._replication["rebootstraps"] += 1
            self._replication["last_error"] = None
        self._reset_connections()
