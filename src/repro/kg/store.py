"""An indexed, in-memory triple store — a facade over pluggable backends.

The store's public query surface is :meth:`match` (``None`` wildcards,
mirroring SPARQL basic graph patterns), plus batched variants
(:meth:`match_many`, :meth:`tails_many`, :meth:`degree_many`), count fast
paths and an iterator form (:meth:`iter_match`) that never materializes a
list.  Storage lives behind the :class:`~repro.kg.backend.GraphBackend`
protocol; the default :class:`~repro.kg.backend.ColumnarBackend` interns
identifiers to contiguous int ids and answers pattern queries from numpy
CSR adjacency slices.

``match`` returns results in backend-defined (deterministic per process)
order; pass ``sort=True`` when a deterministic sorted order is required.
Insertion is idempotent: adding a duplicate triple is a no-op.

Durability: a **live** store (:meth:`TripleStore.create_live`, or
:meth:`TripleStore.open` on a directory with a ``live.json`` pointer)
logs every mutation batch to an append-only, fsync'd write-ahead log
(:mod:`repro.kg.wal`) before applying it, replays the log on open, and
folds it into a fresh snapshot via :meth:`compact`.  Plain snapshot
directories still open exactly as before, read-only through the
service write path.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.kg.backend import (
    DEFAULT_BACKEND,
    GraphBackend,
    Pattern,
    make_backend,
)
from repro.kg.triple import Triple


class TripleStore:
    """A set of triples with pattern indexes behind a pluggable backend."""

    def __init__(self, triples: Iterable[Triple] = (),
                 backend: Union[str, GraphBackend] = DEFAULT_BACKEND) -> None:
        if isinstance(backend, str):
            self.backend_name = backend
            self._backend: GraphBackend = make_backend(backend)
        else:
            self.backend_name = getattr(backend, "name", type(backend).__name__)
            self._backend = backend
        # Live-store state: a WAL when opened/created live, a flag when
        # opened read-only from a plain snapshot directory.
        self._wal = None
        self._live_directory: Optional[Path] = None
        self._live_generation: Optional[int] = None
        self._opened_snapshot = False
        self.add_many(triples)

    @property
    def backend(self) -> GraphBackend:
        """The storage backend (id-level access for the hot callers)."""
        return self._backend

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Add a triple; return True if it was new, False if already present.

        On a live store the triple is WAL-logged (fsync'd) *before* it
        is applied, so a crash after ``add`` returns can never lose it.
        """
        if self._wal is not None:
            from repro.kg.wal import OP_ADD

            self._wal.append(
                OP_ADD, ((triple.head, triple.relation, triple.tail),))
        return self._backend.add(triple.head, triple.relation, triple.tail)

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Add many triples; return the count of newly inserted ones.

        Delegates to the backend's bulk path — the sharded backend
        partitions the batch and loads shards in parallel.  On a live
        store the whole batch is one durable WAL record, logged before
        any of it is applied: the batch is acked atomically or not at
        all.
        """
        if self._wal is None:
            return self._backend.add_many(triples)
        from repro.kg.wal import OP_ADD

        items = list(triples)
        if not items:
            return 0
        self._wal.append(OP_ADD, [(t.head, t.relation, t.tail)
                                  for t in items])
        return self._backend.add_many(items)

    def discard(self, triple: Triple) -> bool:
        """Remove a triple if present; return True when something was removed."""
        if self._wal is not None:
            from repro.kg.wal import OP_REMOVE

            self._wal.append(
                OP_REMOVE, ((triple.head, triple.relation, triple.tail),))
        return self._backend.discard(triple.head, triple.relation, triple.tail)

    def remove_many(self, triples: Iterable[Triple]) -> int:
        """Remove many triples; return the count that were present.

        The removal counterpart of :meth:`add_many`: one backend bulk
        call, and on a live store one durable WAL record for the whole
        batch.
        """
        if self._wal is None:
            return self._backend.discard_many(triples)
        from repro.kg.wal import OP_REMOVE

        items = list(triples)
        if not items:
            return 0
        self._wal.append(OP_REMOVE, [(t.head, t.relation, t.tail)
                                     for t in items])
        return self._backend.discard_many(items)

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def __contains__(self, triple: Triple) -> bool:
        return self._backend.contains(triple.head, triple.relation, triple.tail)

    def __len__(self) -> int:
        return len(self._backend)

    def __iter__(self) -> Iterator[Triple]:
        return self._backend.iter_triples()

    def match(
        self,
        head: Optional[str] = None,
        relation: Optional[str] = None,
        tail: Optional[str] = None,
        sort: bool = False,
    ) -> List[Triple]:
        """Return all triples matching a pattern; ``None`` is a wildcard.

        The most selective available index is consulted, so bound patterns
        never scan.  Results come back in backend order; pass ``sort=True``
        for the deterministic sorted order the seed store used to return.
        """
        return self._backend.match(head, relation, tail, sort=sort)

    def iter_match(
        self,
        head: Optional[str] = None,
        relation: Optional[str] = None,
        tail: Optional[str] = None,
    ) -> Iterator[Triple]:
        """Iterate over matching triples without materializing a list."""
        return self._backend.iter_match(head, relation, tail)

    def match_many(self, patterns: Sequence[Pattern],
                   sort: bool = False) -> List[List[Triple]]:
        """Answer a batch of patterns in one call (one result list each)."""
        return self._backend.match_many(patterns, sort=sort)

    def count(
        self,
        head: Optional[str] = None,
        relation: Optional[str] = None,
        tail: Optional[str] = None,
    ) -> int:
        """Count triples matching a pattern without materializing results."""
        return self._backend.count(head, relation, tail)

    def tails(self, head: str, relation: str) -> List[str]:
        """Return all tails t such that (head, relation, t) is in the store."""
        return self._backend.tails(head, relation)

    def heads(self, relation: str, tail: str) -> List[str]:
        """Return all heads h such that (h, relation, tail) is in the store."""
        return self._backend.heads(relation, tail)

    def count_many(self, patterns: Sequence[Pattern]) -> List[int]:
        """Batched :meth:`count` over patterns (one backend call).

        The query planner's selectivity ordering runs on this — the
        sharded backend routes head-bound patterns to their owner shard
        and answers the batch in one pass per shard.
        """
        return self._backend.count_many(patterns)

    def tails_many(self, pairs: Sequence[Tuple[str, str]]) -> List[List[str]]:
        """Batched :meth:`tails` over (head, relation) pairs."""
        return self._backend.tails_many(pairs)

    def degree_many(self, nodes: Sequence[str]) -> List[int]:
        """Batched :meth:`degree` over nodes."""
        return self._backend.degree_many(nodes)

    def relations(self) -> List[str]:
        """Return all relation identifiers with at least one triple."""
        return self._backend.relations()

    def entities(self) -> List[str]:
        """Return all identifiers appearing as head or tail of some triple."""
        return self._backend.entities()

    def heads_only(self) -> List[str]:
        """Return all identifiers appearing in head position."""
        return self._backend.heads_only()

    def relation_frequencies(self) -> Dict[str, int]:
        """Return relation → triple-count (the long-tail histogram of Fig. 5)."""
        return self._backend.relation_frequencies()

    def degree(self, node: str) -> int:
        """Return total degree (out-degree + in-degree) of a node."""
        return self._backend.degree(node)

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def save(self, directory: "str | Path") -> "Path":
        """Persist the store as an on-disk, memory-mappable directory.

        Backends of the columnar family write their own consolidated
        state; other backends (e.g. a cluster coordinator) are first
        copied through an in-memory
        :class:`~repro.kg.backend.ColumnarBackend`.  Reopen
        with :meth:`TripleStore.open`.
        """
        backend = self._backend
        if not hasattr(backend, "save"):
            from repro.kg.backend import ColumnarBackend

            columnar = ColumnarBackend()
            for triple in backend.iter_triples():
                columnar.add(triple.head, triple.relation, triple.tail)
            backend = columnar
        return backend.save(directory)

    @classmethod
    def open(cls, directory: "str | Path", *,
             wal_fsync: bool = True) -> "TripleStore":
        """Open a store directory written by :meth:`save` or :meth:`save_live`.

        A **live** directory (one carrying a ``live.json`` generation
        pointer) reopens writable: the current snapshot is opened and
        the WAL's intact record prefix is replayed over it, recovering
        exactly the durably-acked batches; a torn tail from a crash is
        truncated.  Plain snapshot directories open read-only through
        the service write path (:attr:`writable` is False) and dispatch
        on the header magic: sharded directories reopen as a
        :class:`~repro.kg.sharded_backend.ShardedBackend`, single-store
        directories as an :class:`~repro.kg.mmap_backend.MmapBackend`.
        ``wal_fsync=False`` trades the per-ack fsync away (benchmarks).
        """
        from repro.kg.wal import is_live_store

        directory = Path(directory)
        if is_live_store(directory):
            return cls._open_live(directory, wal_fsync=wal_fsync)
        store = cls(backend=cls._open_backend(directory))
        store._opened_snapshot = True
        return store

    @staticmethod
    def _open_backend(directory: "str | Path") -> GraphBackend:
        """Open one snapshot directory, dispatching on its header magic."""
        from repro.kg.mmap_backend import MmapBackend, peek_store_magic
        from repro.kg.sharded_backend import SHARDED_MAGIC, ShardedBackend

        if peek_store_magic(directory) == SHARDED_MAGIC:
            return ShardedBackend.open(directory)
        return MmapBackend.open(directory)

    @classmethod
    def _open_live(cls, directory: Path, *,
                   wal_fsync: bool = True) -> "TripleStore":
        """Open a live directory: snapshot + exact WAL-prefix replay."""
        from repro.errors import StorageError
        from repro.kg.wal import (OP_ADD, WriteAheadLog, coalesced_ops,
                                  read_live_pointer, snapshot_dir_name,
                                  wal_file_name)

        generation = read_live_pointer(directory)
        snapshot = directory / snapshot_dir_name(generation)
        if not snapshot.is_dir():
            raise StorageError(
                f"live store {directory} points at generation {generation} "
                f"but {snapshot.name}/ is missing")
        backend = cls._open_backend(snapshot)
        wal, scan = WriteAheadLog.open(directory / wal_file_name(generation),
                                       fsync=wal_fsync)
        if scan.generation != generation:
            wal.close()
            raise StorageError(
                f"WAL {wal.path.name} carries generation {scan.generation}, "
                f"live pointer says {generation} — refusing to replay a "
                f"log over the wrong snapshot")
        # Replay preserves add/remove interleaving but folds maximal
        # same-op runs into one bulk call each.
        for op, rows in coalesced_ops(scan.batches):
            triples = [Triple.unchecked(h, r, t) for h, r, t in rows]
            if op == OP_ADD:
                backend.add_many(triples)
            else:
                backend.discard_many(triples)
        store = cls(backend=backend)
        store._wal = wal
        store._live_directory = directory
        store._live_generation = generation
        return store

    # ------------------------------------------------------------------ #
    # live stores (durable write path)
    # ------------------------------------------------------------------ #
    @property
    def writable(self) -> bool:
        """False when opened read-only from a plain snapshot directory.

        The :class:`~repro.kg.service.QueryService` write path refuses
        writes on non-writable stores with a typed
        :class:`~repro.errors.StorageError`.  In-memory stores are
        writable (not durable); live stores are writable and durable.
        """
        return self._wal is not None or not self._opened_snapshot

    @property
    def wal(self):
        """The attached :class:`~repro.kg.wal.WriteAheadLog` (live stores)."""
        return self._wal

    @property
    def live_generation(self) -> Optional[int]:
        """The current (snapshot, WAL) generation of a live store."""
        return self._live_generation

    @property
    def live_directory(self) -> Optional[Path]:
        """The directory of a live store (``None`` otherwise)."""
        return self._live_directory

    def save_live(self, directory: "str | Path", *,
                  fsync: bool = True) -> "Path":
        """Write this store's content as a generation-0 live layout.

        Creates ``snap-000000/`` (via :meth:`save`), an empty
        ``wal-000000.log`` and the ``live.json`` pointer.  Reopen with
        :meth:`open` to get the writable store; :meth:`create_live`
        does both in one call.
        """
        from repro.errors import StorageError
        from repro.kg.wal import (WriteAheadLog, is_live_store,
                                  snapshot_dir_name, wal_file_name,
                                  write_live_pointer)

        directory = Path(directory)
        if is_live_store(directory):
            raise StorageError(
                f"{directory} is already a live store; open it instead of "
                f"overwriting its generations")
        directory.mkdir(parents=True, exist_ok=True)
        self.save(directory / snapshot_dir_name(0))
        WriteAheadLog.create(directory / wal_file_name(0), generation=0,
                             fsync=fsync).close()
        write_live_pointer(directory, 0, fsync=fsync)
        return directory

    @classmethod
    def create_live(cls, directory: "str | Path",
                    triples: Iterable[Triple] = (), *,
                    backend: Union[str, GraphBackend] = DEFAULT_BACKEND,
                    wal_fsync: bool = True) -> "TripleStore":
        """Create a live store directory and return it opened writable."""
        cls(triples, backend=backend).save_live(
            Path(directory), fsync=wal_fsync)
        return cls.open(directory, wal_fsync=wal_fsync)

    def compact(self, *, crash_hook=None) -> int:
        """Fold the WAL into a fresh snapshot generation; returns it.

        The compaction state machine, in commit order:

        1. save the current state as ``snap-(G+1)/``;
        2. create an empty, fsync'd ``wal-(G+1).log``;
        3. atomically rewrite ``live.json`` to generation G+1 — the
           commit point — and switch this store's WAL to the new log;
        4. sweep the generation-G files (best-effort cleanup).

        A crash before step 3 leaves the pointer on (snap-G, wal-G):
        nothing acked is lost, the half-written next generation is
        overwritten by the next compaction.  A crash after step 3 serves
        (snap-(G+1), empty wal): nothing is double-applied.  The
        test-only ``crash_hook(stage)`` is invoked at the ``"snapshot"``,
        ``"wal"`` and ``"commit"`` stage boundaries; raising from it
        simulates a kill there.
        """
        from repro.errors import StorageError
        from repro.kg.wal import (WriteAheadLog, snapshot_dir_name,
                                  wal_file_name, write_live_pointer)

        if self._wal is None or self._live_directory is None:
            raise StorageError(
                "compact() requires a live store — open a live directory "
                "or use TripleStore.create_live")
        hook = crash_hook if crash_hook is not None else (lambda stage: None)
        directory = self._live_directory
        new_generation = self._live_generation + 1
        self.save(directory / snapshot_dir_name(new_generation))
        hook("snapshot")
        new_wal = WriteAheadLog.create(
            directory / wal_file_name(new_generation),
            generation=new_generation, fsync=self._wal.fsync)
        try:
            hook("wal")
            write_live_pointer(directory, new_generation,
                               fsync=self._wal.fsync)
        except BaseException:
            new_wal.close()
            raise
        old_wal = self._wal
        self._wal = new_wal
        self._live_generation = new_generation
        old_wal.close()
        hook("commit")
        self.sweep_stale_generations()
        return new_generation

    def sweep_stale_generations(self) -> None:
        """Delete snapshot/WAL files of non-current generations.

        Best-effort cleanup run after a compaction commits and after a
        replica adopts a shipped generation (re-bootstrap): only the
        current ``snap-G/`` + ``wal-G.log`` pair survives.  Orphaned
        ``snap-*.partial`` transfer directories from an interrupted
        fetch go too — a restarted fetch always begins from scratch.
        """
        from repro.errors import StorageError

        if self._live_directory is None:
            raise StorageError(
                "sweep_stale_generations() requires a live store")
        import shutil

        from repro.kg.wal import snapshot_dir_name, wal_file_name

        keep = {snapshot_dir_name(self._live_generation),
                wal_file_name(self._live_generation)}
        for path in self._live_directory.iterdir():
            if path.name in keep:
                continue
            if path.name.startswith("snap-") and path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.name.startswith("wal-") and path.is_file():
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass

    def close(self) -> None:
        """Release the WAL file handle of a live store (idempotent)."""
        if self._wal is not None:
            self._wal.close()

    def copy(self) -> "TripleStore":
        """Return an independent, fully writable copy of the store.

        Copies stay on the same backend kind, with one exception: a copy
        of an mmap-backed store materializes as an in-memory
        :class:`~repro.kg.backend.ColumnarBackend`.  An empty
        ``MmapBackend`` clone would route every write through the dict-
        free overlay (binary searches per insert) and keep none of the
        on-disk base it was cloned from — the columnar backend is the
        correct in-memory equivalent.
        """
        from repro.kg.backend import ColumnarBackend
        from repro.kg.mmap_backend import MmapBackend

        clone_backend = self._backend.clone_empty()
        if isinstance(clone_backend, MmapBackend):
            clone_backend = ColumnarBackend(
                delta_threshold=clone_backend.delta_threshold)
        return TripleStore(self._backend.iter_triples(), backend=clone_backend)

    def triples(self) -> List[Triple]:
        """Return all triples sorted deterministically."""
        return sorted(self._backend.iter_triples())
