"""Tests for KnowledgeGraph: registration, taxonomy, instances, encoding."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import OntologyError
from repro.kg.graph import KnowledgeGraph
from repro.kg.namespaces import MetaProperty
from repro.kg.triple import Triple


def _taxonomy_graph() -> KnowledgeGraph:
    graph = KnowledgeGraph("test")
    sub = MetaProperty.SUBCLASS_OF.value
    for identifier in ["Category", "food", "rice", "northeast_rice", "noodles"]:
        graph.register_class(identifier, identifier)
    graph.add(Triple("food", sub, "Category"))
    graph.add(Triple("rice", sub, "food"))
    graph.add(Triple("northeast_rice", sub, "rice"))
    graph.add(Triple("noodles", sub, "food"))
    graph.register_entity("p1", "product one")
    graph.add(Triple("p1", MetaProperty.TYPE.value, "northeast_rice"))
    return graph


def test_parents_children():
    graph = _taxonomy_graph()
    assert graph.parents("rice") == ["food"]
    assert graph.children("food") == ["noodles", "rice"]


def test_ancestors_descendants():
    graph = _taxonomy_graph()
    assert graph.ancestors("northeast_rice") == ["Category", "food", "rice"]
    assert set(graph.descendants("food")) == {"rice", "northeast_rice", "noodles"}


def test_is_subclass_of_and_depth():
    graph = _taxonomy_graph()
    assert graph.is_subclass_of("northeast_rice", "Category")
    assert graph.is_subclass_of("rice", "rice")
    assert not graph.is_subclass_of("noodles", "rice")
    assert graph.taxonomy_depth("northeast_rice") == 3


def test_taxonomy_walks_exclude_the_start_node_on_a_cycle():
    graph = KnowledgeGraph("cycle")
    sub = MetaProperty.SUBCLASS_OF.value
    graph.add(Triple("a", sub, "b"))
    graph.add(Triple("b", sub, "a"))
    graph.add(Triple("b", sub, "top"))
    assert graph.ancestors("a") == ["b", "top"]
    assert graph.descendants("a") == ["b"]
    assert graph.is_subclass_of("a", "a")
    assert graph.is_subclass_of("a", "top")
    assert not graph.is_subclass_of("top", "a")
    snapshot = graph.taxonomy_snapshot()
    assert snapshot.ancestors("a") == frozenset({"b", "top"})
    assert snapshot.ancestors("b") == frozenset({"a", "top"})
    assert snapshot.parents("b") == ["a", "top"]


def test_taxonomy_snapshot_matches_graph_reads():
    graph = _taxonomy_graph()
    snapshot = graph.taxonomy_snapshot()
    for node in ["Category", "food", "rice", "northeast_rice", "noodles", "p1"]:
        assert snapshot.parents(node) == graph.parents(node)
        assert snapshot.types_of(node) == graph.types_of(node)
        assert sorted(snapshot.ancestors(node)) == graph.ancestors(node)
    assert snapshot.is_subclass_of("northeast_rice", "Category")
    assert not snapshot.is_subclass_of("noodles", "rice")


def test_leaves_under():
    graph = _taxonomy_graph()
    assert graph.leaves_under("food") == ["noodles", "northeast_rice"]


def test_instances_of_direct_and_transitive():
    graph = _taxonomy_graph()
    assert graph.instances_of("northeast_rice") == ["p1"]
    assert graph.instances_of("food") == []
    assert graph.instances_of("food", transitive=True) == ["p1"]
    assert graph.types_of("p1") == ["northeast_rice"]


def test_neighbourhood_hops():
    graph = _taxonomy_graph()
    one_hop = graph.neighbourhood("p1", hops=1)
    assert Triple("p1", MetaProperty.TYPE.value, "northeast_rice") in one_hop
    two_hop = graph.neighbourhood("p1", hops=2)
    assert len(two_hop) > len(one_hop)
    with pytest.raises(OntologyError):
        graph.neighbourhood("p1", hops=0)


def test_attach_image_and_description():
    graph = KnowledgeGraph()
    graph.register_entity("p1")
    graph.attach_image("p1", np.ones(4))
    graph.attach_description("p1", "a nice product")
    assert "p1" in graph.images
    assert graph.descriptions["p1"] == "a nice product"
    assert graph.match(head="p1", relation=MetaProperty.IMAGE_IS.value)


def test_build_vocabularies_and_id_array():
    graph = _taxonomy_graph()
    entity_vocab, relation_vocab = graph.build_vocabularies()
    array = graph.to_id_array(entity_vocab, relation_vocab)
    assert array.shape == (len(graph), 3)
    assert array.dtype == np.int64
    assert array[:, [0, 2]].max() < len(entity_vocab)
    assert array[:, 1].max() < len(relation_vocab)


def test_build_vocabularies_with_relation_filter():
    graph = _taxonomy_graph()
    entity_vocab, relation_vocab = graph.build_vocabularies(
        relations=[MetaProperty.TYPE.value])
    assert len(relation_vocab) == 1
    assert set(entity_vocab.symbols()) == {"p1", "northeast_rice"}


def test_to_networkx_edge_count():
    graph = _taxonomy_graph()
    nx_graph = graph.to_networkx()
    assert nx_graph.number_of_edges() == len(graph)


def test_describe_and_label_of():
    graph = _taxonomy_graph()
    summary = graph.describe()
    assert summary["classes"] == 5
    assert summary["entities"] == 1
    assert graph.label_of("p1") == "product one"
    assert graph.label_of("unknown") == "unknown"


def test_constructed_graph_counts(construction_result):
    """Integration: the pipeline-built graph has consistent headline counts."""
    graph = construction_result.graph
    summary = graph.describe()
    assert summary["triples"] == len(graph)
    assert summary["entities"] > 0
    assert summary["classes"] > 0
    assert summary["multimodal_entities"] > 0
