"""Persistence tests for the on-disk memory-mapped backend.

Covers the save → reopen → bit-identical-queries property against the
in-memory columnar backend, mutation of an opened store through the
delta overlay, save-over-own-files safety, and the corrupt / truncated /
version-mismatch error paths (all raising ``repro.errors`` types).
"""

from __future__ import annotations

import json

import kg_oracle
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SerializationError, StorageError
from repro.kg.backend import ColumnarBackend
from repro.kg.mmap_backend import (
    FORMAT_VERSION,
    HEADER_FILE,
    MmapBackend,
    load_header,
    write_backend_dir,
)
from repro.kg.serialization import read_store_dir, write_store_dir
from repro.kg.store import TripleStore
from repro.kg.triple import Triple, triples_from_tuples

_symbol = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=4,
)
_triple_tuple = st.tuples(_symbol, st.sampled_from(["r1", "r2", "r3"]), _symbol)


def _pattern_views(head, relation, tail):
    for use_head in (head, None):
        for use_relation in (relation, None):
            for use_tail in (tail, None):
                yield use_head, use_relation, use_tail


def _assert_query_parity(reference, reopened, rows):
    assert len(reference) == len(reopened)
    assert sorted(reference.iter_triples()) == sorted(reopened.iter_triples())
    assert reference.entities() == reopened.entities()
    assert reference.relations() == reopened.relations()
    assert reference.heads_only() == reopened.heads_only()
    assert reference.relation_frequencies() == reopened.relation_frequencies()
    for head, relation, tail in rows:
        assert reference.contains(head, relation, tail) \
            == reopened.contains(head, relation, tail)
        assert reference.degree(head) == reopened.degree(head)
        assert reference.tails(head, relation) == reopened.tails(head, relation)
        assert reference.heads(relation, tail) == reopened.heads(relation, tail)
        for pattern in _pattern_views(head, relation, tail):
            assert reference.count(*pattern) == reopened.count(*pattern)
            assert reference.match(*pattern, sort=True) \
                == reopened.match(*pattern, sort=True)


# --------------------------------------------------------------------------- #
# save → reopen parity
# --------------------------------------------------------------------------- #
@settings(max_examples=25, deadline=None)
@given(rows=st.lists(_triple_tuple, min_size=1, max_size=30))
def test_mmap_reopen_bit_identical_queries(tmp_path_factory, rows):
    """Property: a reopened store answers every pattern shape identically."""
    directory = tmp_path_factory.mktemp("mmap") / "store"
    columnar = ColumnarBackend()
    for head, relation, tail in rows:
        columnar.add(head, relation, tail)
    write_backend_dir(columnar, directory)
    reopened = MmapBackend.open(directory)
    _assert_query_parity(columnar, reopened, rows)


def test_mmap_open_is_lazy_and_header_validates(tmp_path):
    directory = tmp_path / "store"
    columnar = ColumnarBackend()
    columnar.add("a", "r", "b")
    columnar.add("a", "r", "c")
    write_backend_dir(columnar, directory)
    header = load_header(directory)
    assert header["num_triples"] == 2
    assert header["version"] == FORMAT_VERSION
    backend = MmapBackend.open(directory)
    # Columns attach lazily: nothing mapped until the first query.
    assert backend._cols is None
    assert backend.count(head="a") == 2
    assert backend._cols is not None
    assert backend.directory == directory


@settings(max_examples=15, deadline=None)
@given(rows=st.lists(_triple_tuple, min_size=1, max_size=20),
       extra=st.lists(_triple_tuple, min_size=1, max_size=10))
def test_mmap_mutate_after_open_then_resave(tmp_path_factory, rows, extra):
    """Overlay mutations on an opened store survive a save → reopen cycle."""
    directory = tmp_path_factory.mktemp("mmap") / "store"
    columnar = ColumnarBackend()
    for head, relation, tail in rows:
        columnar.add(head, relation, tail)
    write_backend_dir(columnar, directory)
    opened = MmapBackend.open(directory)
    for head, relation, tail in extra:
        assert columnar.add(head, relation, tail) \
            == opened.add(head, relation, tail)
    dropped = rows[0]
    assert columnar.discard(*dropped) == opened.discard(*dropped)
    _assert_query_parity(columnar, opened, rows + extra)
    # Saving over its OWN files must detach the memmaps first.
    opened.save(directory)
    reloaded = MmapBackend.open(directory)
    _assert_query_parity(columnar, reloaded, rows + extra)


def _backend(name: str):
    """A registered backend name, or the reference store for ``"set"``.

    A store without its own ``save`` (the reference store, a cluster
    coordinator) persists through an in-memory columnar copy.
    """
    return kg_oracle.SetBackend() if name == "set" else name


def test_store_facade_save_open_roundtrip(tmp_path):
    triples = triples_from_tuples([
        ("p1", "brandIs", "apple"), ("p2", "brandIs", "apple"),
        ("p1", "placeOfOrigin", "china"),
    ])
    for backend_name in ("set", "columnar", "mmap"):
        directory = tmp_path / backend_name
        store = TripleStore(triples, backend=_backend(backend_name))
        store.save(directory)
        reopened = TripleStore.open(directory)
        assert reopened.backend_name == "mmap"
        assert reopened.triples() == sorted(triples)
        assert reopened.heads("brandIs", "apple") == ["p1", "p2"]
        # Reopened stores stay mutable through the overlay.
        assert reopened.add(Triple("p3", "brandIs", "tesla"))
        assert reopened.count(relation="brandIs") == 3


def test_serialization_store_dir_helpers(tmp_path):
    triples = triples_from_tuples([("a", "r", "b"), ("c", "r", "d")])
    directory = write_store_dir(triples, tmp_path / "from-iterable")
    reopened = read_store_dir(directory)
    assert reopened.triples() == sorted(triples)
    store = TripleStore(triples)
    write_store_dir(store, tmp_path / "from-store")
    assert read_store_dir(tmp_path / "from-store").triples() == sorted(triples)


@pytest.mark.parametrize("backend_name", ["set", "columnar", "mmap"])
def test_zero_triple_store_save_reopen(tmp_path, backend_name):
    """Regression: an empty store must survive save → reopen → mutate.

    Zero triples mean zero-byte column and blob files, which
    ``np.memmap`` rejects — the open path must special-case them.
    """
    directory = tmp_path / backend_name
    TripleStore(backend=_backend(backend_name)).save(directory)
    reopened = TripleStore.open(directory)
    assert len(reopened) == 0
    assert reopened.match() == []
    assert reopened.entities() == []
    assert reopened.count(relation="anything") == 0
    assert reopened.add(Triple("a", "r", "b"))
    assert reopened.match(sort=True) == [Triple("a", "r", "b")]
    # ... and a re-save of the formerly-empty store round-trips too.
    reopened.save(directory)
    assert TripleStore.open(directory).triples() == [Triple("a", "r", "b")]


def test_store_copy_of_mmap_store_materializes_in_memory(tmp_path):
    """Regression: copies of mmap-opened stores must be independent and
    fully writable — they materialize as in-memory columnar backends."""
    from repro.kg.backend import ColumnarBackend as Columnar

    directory = tmp_path / "store"
    TripleStore(triples_from_tuples([("a", "r", "b"), ("c", "r", "d")])).save(directory)
    opened = TripleStore.open(directory)
    clone = opened.copy()
    assert type(clone.backend) is Columnar
    assert clone.backend_name == "columnar"
    assert clone.triples() == opened.triples()
    assert getattr(clone.backend, "directory", None) is None
    for index in range(50):  # writes never touch the source store or its files
        assert clone.add(Triple(f"new{index}", "r", "x"))
    assert len(opened) == 2
    assert MmapBackend.open(directory).count() == 2


def test_mmap_empty_backend_and_clone(tmp_path):
    backend = MmapBackend()
    assert len(backend) == 0
    assert backend.match() == []
    assert backend.add("a", "r", "b")
    clone = backend.clone_empty()
    assert isinstance(clone, MmapBackend)
    assert len(clone) == 0 and clone.directory is None
    backend.save(tmp_path / "tiny")
    assert MmapBackend.open(tmp_path / "tiny").match(sort=True) \
        == [Triple("a", "r", "b")]


# --------------------------------------------------------------------------- #
# error paths — all repro.errors types
# --------------------------------------------------------------------------- #
@pytest.fixture()
def saved_store(tmp_path):
    directory = tmp_path / "store"
    columnar = ColumnarBackend()
    for index in range(8):
        columnar.add(f"h{index}", "r", f"t{index}")
    write_backend_dir(columnar, directory)
    return directory


def test_open_missing_directory_raises(tmp_path):
    with pytest.raises(StorageError, match="missing header.json"):
        MmapBackend.open(tmp_path / "nowhere")


def test_open_truncated_column_file_raises(saved_store):
    path = saved_store / "triples.i64"
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(StorageError, match="truncated or corrupt"):
        MmapBackend.open(saved_store)


def test_open_version_mismatch_raises(saved_store):
    header = json.loads((saved_store / HEADER_FILE).read_text())
    header["version"] = FORMAT_VERSION + 1
    (saved_store / HEADER_FILE).write_text(json.dumps(header))
    with pytest.raises(StorageError, match="version mismatch"):
        MmapBackend.open(saved_store)


def test_open_bad_magic_raises(saved_store):
    header = json.loads((saved_store / HEADER_FILE).read_text())
    header["magic"] = "something-else"
    (saved_store / HEADER_FILE).write_text(json.dumps(header))
    with pytest.raises(StorageError, match="bad magic"):
        MmapBackend.open(saved_store)


def test_open_unparseable_header_raises(saved_store):
    (saved_store / HEADER_FILE).write_text("{not json")
    with pytest.raises(StorageError, match="unreadable header"):
        MmapBackend.open(saved_store)


def test_open_missing_array_file_raises(saved_store):
    (saved_store / "perm_pos.i64").unlink()
    with pytest.raises(StorageError, match="missing array file"):
        MmapBackend.open(saved_store)


def test_open_truncated_interner_blob_raises(saved_store):
    path = saved_store / "entities.blob.utf8"
    path.write_bytes(path.read_bytes()[:-2])
    with pytest.raises(StorageError, match="truncated or corrupt"):
        MmapBackend.open(saved_store)


def test_open_corrupt_interner_offsets_raises(saved_store):
    import numpy as np

    path = saved_store / "entities.offsets.i64"
    offsets = np.fromfile(path, dtype=np.int64)
    offsets[1:3] = offsets[2:0:-1]  # make them non-monotonic, same byte size
    offsets.tofile(path)
    with pytest.raises(StorageError, match="corrupt interner offsets"):
        MmapBackend.open(saved_store)


def test_open_undecodable_interner_blob_raises(saved_store):
    path = saved_store / "entities.blob.utf8"
    blob = bytearray(path.read_bytes())
    blob[0] = 0xFF  # not valid UTF-8 anywhere
    path.write_bytes(bytes(blob))
    with pytest.raises(StorageError, match="corrupt interner blob"):
        MmapBackend.open(saved_store)


def test_interner_tables_roundtrip_unicode_symbols(tmp_path):
    """The offsets+blob layout preserves multi-byte and exotic symbols."""
    columnar = ColumnarBackend()
    symbols = ["商品:咖啡机", "ürün", "🛒cart", "a\tb", "line\nbreak"]
    for index, symbol in enumerate(symbols):
        columnar.add(symbol, f"r{index}", "常规")
    write_backend_dir(columnar, tmp_path / "store")
    reopened = MmapBackend.open(tmp_path / "store")
    assert sorted(reopened.iter_triples()) == sorted(columnar.iter_triples())
    assert reopened.entity_interner.symbols() == columnar.entity_interner.symbols()


def test_interrupted_resave_leaves_no_valid_header(saved_store, monkeypatch):
    """A crash mid-save must not leave a stale header over torn array files."""
    import numpy as np

    backend = MmapBackend.open(saved_store)
    backend.add("brand-new", "r", "x")
    calls = {"count": 0}
    real = np.ascontiguousarray

    def crash_on_third_array(array, **kwargs):
        calls["count"] += 1
        if calls["count"] == 3:
            raise RuntimeError("simulated crash mid-save")
        return real(array, **kwargs)

    monkeypatch.setattr("repro.kg.mmap_backend.np.ascontiguousarray",
                        crash_on_third_array)
    with pytest.raises(RuntimeError, match="simulated crash"):
        backend.save(saved_store)
    with pytest.raises(StorageError, match="missing header.json"):
        MmapBackend.open(saved_store)


def test_storage_error_is_serialization_error(saved_store):
    """Existing `except SerializationError` boundaries catch storage faults."""
    (saved_store / HEADER_FILE).unlink()
    with pytest.raises(SerializationError):
        read_store_dir(saved_store)
