"""Backend parity: every backend must agree with the SetBackend reference.

The columnar backend is the default store; the dict-of-set
``kg_oracle.SetBackend`` is the test-only reference implementation; the
mmap backend shares the columnar query core over a (possibly on-disk)
base block.  These tests drive all of
them — including delta-overlay configurations that force eager rebuilds
(threshold 0) and constant overlay churn (tiny thresholds) — through
randomized add/discard/query workloads and through the serialization
layer and assert identical observable behaviour.
"""

from __future__ import annotations

import kg_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kg.backend import (
    BACKENDS,
    ColumnarBackend,
    GraphBackend,
    Interner,
    make_backend,
)
from repro.kg.cluster import ClusterBackend
from repro.kg.mmap_backend import MmapBackend
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.serialization import read_tsv, write_tsv
from repro.kg.store import TripleStore
from repro.kg.triple import Triple, triples_from_tuples

SetBackend = kg_oracle.SetBackend

#: Non-reference backend factories, keyed by a readable parametrize id.
#: delta_threshold=0 forces a full rebuild per mutation burst (the old
#: eager behaviour); tiny thresholds exercise overlay → consolidation
#: transitions constantly; MmapBackend() runs the shared query core over
#: an empty base plus overlay; the sharded factories cover degenerate
#: (1), even (2) and many-shard (8) hash partitionings.
BACKEND_FACTORIES = {
    "columnar": ColumnarBackend,
    "columnar-eager": lambda: ColumnarBackend(delta_threshold=0),
    "columnar-tiny-delta": lambda: ColumnarBackend(delta_threshold=2),
    "mmap": MmapBackend,
    "sharded-1": lambda: ShardedBackend(1),
    "sharded-2": lambda: ShardedBackend(2),
    "sharded-8": lambda: ShardedBackend(8),
}

# --------------------------------------------------------------------------- #
# strategies
# --------------------------------------------------------------------------- #
_symbol = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
    min_size=1, max_size=4,
)
_triple_tuple = st.tuples(_symbol, st.sampled_from(["r1", "r2", "r3", "r4"]), _symbol)

#: An operation: ("add" | "discard", (h, r, t)).
_operation = st.tuples(st.sampled_from(["add", "add", "add", "discard"]), _triple_tuple)


def _pattern_views(head: str, relation: str, tail: str):
    """All eight wildcard combinations of one concrete triple."""
    for use_head in (head, None):
        for use_relation in (relation, None):
            for use_tail in (tail, None):
                yield use_head, use_relation, use_tail


# --------------------------------------------------------------------------- #
# Interner
# --------------------------------------------------------------------------- #
def test_interner_assigns_dense_stable_ids():
    interner = Interner(["a", "b", "a"])
    assert len(interner) == 2
    assert interner.intern("a") == 0
    assert interner.intern("c") == 2
    assert interner.lookup("missing") is None
    assert interner.symbol_of(1) == "b"
    assert list(interner) == ["a", "b", "c"]
    assert "b" in interner


def test_make_backend_registry():
    assert sorted(BACKENDS) == ["columnar", "mmap", "sharded"]
    assert isinstance(make_backend("columnar"), ColumnarBackend)
    assert isinstance(make_backend("mmap"), MmapBackend)
    assert isinstance(make_backend("sharded"), ShardedBackend)
    assert make_backend("sharded", n_shards=8).n_shards == 8
    for unknown in ("no-such-backend", "set"):
        with pytest.raises(ValueError):
            make_backend(unknown)


_ID_SURFACE = ("entity_interner", "relation_interner", "match_ids",
               "match_ids_many", "count_ids")


def test_every_servable_backend_has_the_id_surface():
    """Every registered backend and the cluster coordinator implement the
    whole ``GraphBackend`` protocol, id surface included: the executor has
    no string-level fallback, so a string-only backend must not register."""
    backends = [make_backend(name) for name in sorted(BACKENDS)]
    # No handshake: the constructor then opens no connection.
    cluster = ClusterBackend(["127.0.0.1:9"], handshake=False)
    try:
        for backend in backends + [cluster]:
            assert isinstance(backend, GraphBackend), type(backend).__name__
            assert isinstance(backend.entity_interner, Interner)
            assert isinstance(backend.relation_interner, Interner)
            for name in _ID_SURFACE[2:]:
                assert callable(getattr(backend, name)), name
    finally:
        cluster.close()
    reference = SetBackend()
    assert not isinstance(reference, GraphBackend)
    assert not any(hasattr(reference, name) for name in _ID_SURFACE)


# --------------------------------------------------------------------------- #
# randomized workload parity
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("factory", BACKEND_FACTORIES.values(),
                         ids=BACKEND_FACTORIES.keys())
@settings(max_examples=30, deadline=None)
@given(operations=st.lists(_operation, max_size=60))
def test_backend_parity_random_workload(factory, operations):
    """Property: every backend agrees with the reference after any sequence."""
    set_backend = SetBackend()
    columnar = factory()
    touched = set()
    for action, (head, relation, tail) in operations:
        if action == "add":
            assert set_backend.add(head, relation, tail) \
                == columnar.add(head, relation, tail)
        else:
            assert set_backend.discard(head, relation, tail) \
                == columnar.discard(head, relation, tail)
        touched.add((head, relation, tail))

    assert len(set_backend) == len(columnar)
    assert sorted(set_backend.iter_triples()) == sorted(columnar.iter_triples())
    assert set_backend.entities() == columnar.entities()
    assert set_backend.relations() == columnar.relations()
    assert set_backend.heads_only() == columnar.heads_only()
    assert set_backend.relation_frequencies() == columnar.relation_frequencies()

    for head, relation, tail in touched:
        assert set_backend.contains(head, relation, tail) \
            == columnar.contains(head, relation, tail)
        assert set_backend.degree(head) == columnar.degree(head)
        assert set_backend.tails(head, relation) == columnar.tails(head, relation)
        assert set_backend.heads(relation, tail) == columnar.heads(relation, tail)
        for pattern in _pattern_views(head, relation, tail):
            assert set_backend.count(*pattern) == columnar.count(*pattern)
            assert set_backend.match(*pattern, sort=True) \
                == columnar.match(*pattern, sort=True)
            assert sorted(set_backend.iter_match(*pattern)) \
                == sorted(columnar.iter_match(*pattern))


@pytest.mark.parametrize("factory", BACKEND_FACTORIES.values(),
                         ids=BACKEND_FACTORIES.keys())
@settings(max_examples=20, deadline=None)
@given(rows=st.lists(_triple_tuple, max_size=40))
def test_backend_parity_batched_queries(factory, rows):
    set_backend = SetBackend()
    columnar = factory()
    for head, relation, tail in rows:
        set_backend.add(head, relation, tail)
        columnar.add(head, relation, tail)
    nodes = sorted({symbol for head, _rel, tail in rows for symbol in (head, tail)})
    pairs = sorted({(head, relation) for head, relation, _tail in rows})
    patterns = [(head, None, None) for head in nodes[:10]] \
        + [(None, relation, None) for _head, relation in pairs[:10]]
    assert set_backend.degree_many(nodes) == columnar.degree_many(nodes)
    assert set_backend.tails_many(pairs) == columnar.tails_many(pairs)
    assert set_backend.match_many(patterns, sort=True) \
        == columnar.match_many(patterns, sort=True)


def test_columnar_match_unsorted_same_multiset():
    """Unsorted match returns the same triples, just without the sort cost."""
    store = TripleStore(triples_from_tuples([
        ("b", "r", "x"), ("a", "r", "x"), ("c", "r", "y"), ("a", "s", "z"),
    ]), backend="columnar")
    assert sorted(store.match(relation="r")) == store.match(relation="r", sort=True)
    assert store.match(relation="r", sort=True) == triples_from_tuples(
        [("a", "r", "x"), ("b", "r", "x"), ("c", "r", "y")])


def test_columnar_interleaved_mutation_and_query():
    """Indexes rebuild correctly across mutation → query → mutation cycles."""
    backend = ColumnarBackend()
    assert backend.add("a", "r", "b")
    assert backend.count(head="a") == 1
    assert backend.add("a", "r", "c")
    assert backend.tails("a", "r") == ["b", "c"]
    assert backend.discard("a", "r", "b")
    assert backend.tails("a", "r") == ["c"]
    assert backend.count() == 1
    assert not backend.discard("a", "r", "b")
    assert backend.match("a", "r", "c") == [Triple("a", "r", "c")]
    assert backend.entities() == ["a", "c"]  # "b" no longer participates


@settings(max_examples=25, deadline=None)
@given(st.lists(_operation, max_size=50))
def test_delta_overlay_parity_with_queries_between_mutations(operations):
    """Querying between every mutation keeps the overlay-merged view exact.

    A tiny threshold forces frequent overlay → consolidation transitions,
    covering base-hit, overlay-hit, deleted-base-row and resurrected-row
    paths in one workload.
    """
    reference = SetBackend()
    columnar = ColumnarBackend(delta_threshold=3)
    for action, (head, relation, tail) in operations:
        if action == "add":
            assert reference.add(head, relation, tail) \
                == columnar.add(head, relation, tail)
        else:
            assert reference.discard(head, relation, tail) \
                == columnar.discard(head, relation, tail)
        # Interleaved queries — the dedup-stage access pattern.
        assert len(reference) == len(columnar)
        assert reference.count(relation=relation) == columnar.count(relation=relation)
        assert reference.tails(head, relation) == columnar.tails(head, relation)
        assert reference.degree(tail) == columnar.degree(tail)
    assert reference.relation_frequencies() == columnar.relation_frequencies()
    assert reference.entities() == columnar.entities()


def test_delta_overlay_defers_rebuilds():
    """Mutation bursts below the threshold cost zero extra full rebuilds."""
    backend = ColumnarBackend(delta_threshold=100)
    for index in range(50):
        backend.add(f"h{index}", "r", f"t{index}")
    assert backend.count(relation="r") == 50      # builds the base index
    assert backend.rebuild_count == 1
    for index in range(60):
        backend.add(f"extra{index}", "r", "sink") # 60 adds < threshold
        assert backend.count(relation="r") == 51 + index
        assert backend.tails(f"extra{index}", "r") == ["sink"]
    assert backend.rebuild_count == 1             # all served from the overlay
    # The flat id surface consolidates: exactly one more rebuild.
    assert len(backend.id_triples()) == 110
    assert backend.rebuild_count == 2

    eager = ColumnarBackend(delta_threshold=0)
    for index in range(10):
        eager.add(f"h{index}", "r", f"t{index}")
    eager.count(relation="r")
    before = eager.rebuild_count
    for index in range(5):
        eager.add(f"extra{index}", "r", "sink")
        eager.count(relation="r")
    assert eager.rebuild_count == before + 5      # one rebuild per burst


def test_columnar_id_surface_consistent():
    backend = ColumnarBackend()
    for head, relation, tail in [("a", "r", "b"), ("a", "s", "c"), ("d", "r", "b")]:
        backend.add(head, relation, tail)
    ids = backend.id_triples()
    assert ids.shape == (3, 3)
    assert ids.dtype == np.int64
    relation_id = backend.relation_interner.lookup("r")
    rows = backend.match_ids(relation_id=relation_id)
    assert len(rows) == 2
    head_symbols = {backend.entity_interner.symbol_of(int(h)) for h in rows[:, 0]}
    assert head_symbols == {"a", "d"}
    rank = backend.entity_sort_rank()
    symbols = backend.entity_interner.symbols()
    assert [symbols[i] for i in np.argsort(rank)] == sorted(symbols)


# --------------------------------------------------------------------------- #
# store facade over both backends
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend_name", ["set", "columnar", "mmap", "sharded"])
def test_store_facade_roundtrip(backend_name):
    triples = triples_from_tuples([
        ("p1", "brandIs", "apple"), ("p2", "brandIs", "apple"),
        ("p1", "placeOfOrigin", "china"),
    ])
    backend = SetBackend() if backend_name == "set" else backend_name
    store = TripleStore(triples, backend=backend)
    assert store.backend_name == backend_name
    assert len(store) == 3
    assert store.count(relation="brandIs") == 2
    assert store.heads("brandIs", "apple") == ["p1", "p2"]
    clone = store.copy()
    # Copies of mmap-backed stores materialize as in-memory columnar
    # backends (an empty MmapBackend clone would be a degraded overlay-
    # only store); every other backend kind is preserved.
    expected_clone = "columnar" if backend_name == "mmap" else backend_name
    assert clone.backend_name == expected_clone
    clone.add(Triple("p3", "brandIs", "tesla"))
    assert len(clone) == len(store) + 1
    assert store.triples() == sorted(triples)


@settings(max_examples=25, deadline=None)
@given(st.lists(_triple_tuple, min_size=1, max_size=25))
def test_vocabularies_and_id_arrays_backend_independent(rows):
    """The same graph yields identical vocab ids and id arrays on both backends."""
    from repro.kg.graph import KnowledgeGraph

    graphs = {}
    for backend_name in ("set", "columnar"):
        graph = KnowledgeGraph(backend=SetBackend() if backend_name == "set"
                               else backend_name)
        graph.add_many(triples_from_tuples(rows))
        graphs[backend_name] = graph
    vocab_set = graphs["set"].build_vocabularies()
    vocab_columnar = graphs["columnar"].build_vocabularies()
    assert vocab_set[0].symbols() == vocab_columnar[0].symbols()
    assert vocab_set[1].symbols() == vocab_columnar[1].symbols()
    array_set = graphs["set"].to_id_array(*vocab_set)
    array_columnar = graphs["columnar"].to_id_array(*vocab_columnar)
    np.testing.assert_array_equal(array_set, array_columnar)


@settings(max_examples=25, deadline=None)
@given(st.lists(_triple_tuple, min_size=1, max_size=30))
def test_serialization_roundtrip_through_columnar_backend(tmp_path_factory, rows):
    """TSV round-trip through a columnar-backed store preserves the graph."""
    path = tmp_path_factory.mktemp("backends") / "triples.tsv"
    store = TripleStore(triples_from_tuples(rows), backend="columnar")
    write_tsv(store.triples(), path)
    reloaded = TripleStore(read_tsv(path), backend="columnar")
    assert reloaded.triples() == store.triples()
    assert reloaded.relation_frequencies() == store.relation_frequencies()
    assert reloaded.entities() == store.entities()
