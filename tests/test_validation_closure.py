"""The one-pass ontology validator against the per-triple validator it replaced.

``PerTripleValidator`` below is the earlier :class:`OntologyValidator`
verbatim, except that its subclass test is a module function (the
earlier ``KnowledgeGraph.is_subclass_of`` BFS, also verbatim) instead of
a graph method.  It re-walks the taxonomy with scalar store reads for
every triple, so it is slow but obviously right; the current validator
must produce the same report on any graph, on every backend.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Set

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.construction.pipeline import OpenBGBuilder
from repro.datagen.catalog import SyntheticCatalogConfig
from repro.kg import BACKENDS
from repro.kg.graph import KnowledgeGraph
from repro.kg.namespaces import MetaProperty, OWL_THING, SKOS_CONCEPT
from repro.kg.store import TripleStore
from repro.kg.triple import Triple
from repro.ontology.core_ontology import build_core_ontology
from repro.ontology.schema import OntologySchema, PropertyKind
from repro.ontology.validation import (OntologyValidator, ValidationIssue,
                                       ValidationReport)


# ---------------------------------------------------------------------- #
# the oracle
# ---------------------------------------------------------------------- #
def _is_subclass_of(graph: KnowledgeGraph, node: str, candidate_ancestor: str) -> bool:
    """True when ``candidate_ancestor`` is a (transitive) taxonomy ancestor."""
    if node == candidate_ancestor:
        return True
    frontier = deque(graph.parents(node))
    seen: Set[str] = set()
    while frontier:
        current = frontier.popleft()
        if current == candidate_ancestor:
            return True
        if current in seen:
            continue
        seen.add(current)
        frontier.extend(graph.parents(current))
    return False


class PerTripleValidator:
    """Validates a :class:`KnowledgeGraph` against an :class:`OntologySchema`."""

    def __init__(self, schema: OntologySchema) -> None:
        self.schema = schema

    def validate(self, graph: KnowledgeGraph) -> ValidationReport:
        """Run all checks and return a report."""
        report = ValidationReport()
        self._check_taxonomy_acyclic(graph, report)
        for triple in graph.triples():
            report.checked_triples += 1
            self._check_triple(graph, triple, report)
        self._check_entity_labels(graph, report)
        return report

    def _check_triple(self, graph: KnowledgeGraph, triple: Triple,
                      report: ValidationReport) -> None:
        kind = self.schema.property_kind(triple.relation)
        if triple.relation == MetaProperty.TYPE.value:
            self._check_type_triple(graph, triple, report)
            return
        if kind is None:
            if triple.relation not in graph.object_properties and \
                    triple.relation not in graph.data_properties and \
                    triple.relation not in graph.meta_properties:
                report.issues.append(ValidationIssue(
                    severity="warning", code="unknown-relation",
                    message=f"relation {triple.relation!r} is not declared in the schema",
                    triple=triple,
                ))
            return
        if kind is PropertyKind.OBJECT:
            self._check_object_triple(graph, triple, report)

    def _check_type_triple(self, graph: KnowledgeGraph, triple: Triple,
                           report: ValidationReport) -> None:
        target = triple.tail
        # Instance-level typing is allowed: an item is an instance of a
        # product, which is itself an entity (not a class) — the paper's
        # item/product distinction.  So a registered entity is a valid
        # rdf:type target as long as it is typed itself.
        known = (
            target in graph.classes or target in graph.concepts
            or self.schema.is_class(target) or self.schema.is_concept(target)
            or target in (OWL_THING, SKOS_CONCEPT)
            or (target in graph.entities and bool(graph.types_of(target)))
        )
        if not known:
            report.issues.append(ValidationIssue(
                severity="error", code="type-target-unknown",
                message=f"rdf:type target {target!r} is not a known class or concept",
                triple=triple,
            ))

    def _check_object_triple(self, graph: KnowledgeGraph, triple: Triple,
                             report: ValidationReport) -> None:
        definition = self.schema.properties[triple.relation]
        if definition.domain and not self._instance_under(graph, triple.head,
                                                          definition.domain):
            report.issues.append(ValidationIssue(
                severity="error", code="domain-violation",
                message=(f"head {triple.head!r} of {triple.relation!r} is not typed "
                         f"under domain {definition.domain!r}"),
                triple=triple,
            ))
        if definition.range and not self._instance_under(graph, triple.tail,
                                                         definition.range):
            report.issues.append(ValidationIssue(
                severity="error", code="range-violation",
                message=(f"tail {triple.tail!r} of {triple.relation!r} is not typed "
                         f"under range {definition.range!r}"),
                triple=triple,
            ))

    def _instance_under(self, graph: KnowledgeGraph, node: str, ancestor: str) -> bool:
        """True when ``node`` is (an instance of) a class/concept under ``ancestor``."""
        if _is_subclass_of(graph, node, ancestor):
            return True
        for type_id in graph.types_of(node):
            if _is_subclass_of(graph, type_id, ancestor):
                return True
        return False

    def _check_taxonomy_acyclic(self, graph: KnowledgeGraph,
                                report: ValidationReport) -> None:
        """Detect cycles in the subClassOf / broader graph (DFS with colors)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}

        def visit(node: str) -> bool:
            color[node] = GRAY
            for parent in graph.parents(node):
                state = color.get(parent, WHITE)
                if state == GRAY:
                    return False
                if state == WHITE and not visit(parent):
                    return False
            color[node] = BLACK
            return True

        nodes = set(graph.classes) | set(graph.concepts)
        for node in sorted(nodes):
            if color.get(node, WHITE) == WHITE and not visit(node):
                report.issues.append(ValidationIssue(
                    severity="error", code="taxonomy-cycle",
                    message=f"taxonomy cycle detected reachable from {node!r}",
                ))
                return

    def _check_entity_labels(self, graph: KnowledgeGraph,
                             report: ValidationReport) -> None:
        for entity in sorted(graph.entities):
            if entity not in graph.labels:
                report.issues.append(ValidationIssue(
                    severity="warning", code="missing-label",
                    message=f"entity {entity!r} has no rdfs:label",
                ))


# ---------------------------------------------------------------------- #
# random graphs
# ---------------------------------------------------------------------- #
SCHEMA = build_core_ontology()
SUB = MetaProperty.SUBCLASS_OF.value
BROADER = MetaProperty.BROADER.value
TYPE = MetaProperty.TYPE.value

CORE = ["Category", "Brand", "Place", "Scene", "Crowd"]
CLASSES = ["c0", "c1", "c2", "c3"]
CONCEPTS = ["k0", "k1"]
ENTITIES = ["e0", "e1", "e2", "e3"]
#: ``ghost`` is registered nowhere: an unknown rdf:type target.
NODES = CORE + CLASSES + CONCEPTS + ENTITIES + ["ghost"]
RELATIONS = ["brandIs", "placeOfOrigin", "relatedScene", "forCrowd",
             "weight", "mysteryRelation"]

_node = st.sampled_from(NODES)
graph_specs = st.fixed_dictionaries({
    "taxonomy": st.lists(st.tuples(_node, st.sampled_from([SUB, BROADER]), _node),
                         max_size=14),
    "types": st.lists(st.tuples(_node, _node), max_size=10),
    "facts": st.lists(st.tuples(_node, st.sampled_from(RELATIONS), _node),
                      max_size=10),
    "labeled": st.sets(st.sampled_from(ENTITIES)),
})

#: Every feature at once: a 2-cycle and a self-loop, a diamond, an
#: untyped entity, an item typed by a product, domain and range
#: violations, an unknown type target and unlabeled entities.  The
#: ``c0``/``c1`` facts sort first, so both sides of the diamond have
#: memoized ancestor sets before the walk up from ``c2`` starts.
EVERYTHING = {
    "taxonomy": [("c2", SUB, "c3"), ("c3", SUB, "c2"), ("k1", BROADER, "k1"),
                 ("c0", SUB, "Category"), ("c1", SUB, "Category"),
                 ("c2", SUB, "c0"), ("c2", SUB, "c1"), ("k0", BROADER, "Scene")],
    "types": [("e0", "c2"), ("e1", "e0"), ("e2", "ghost")],
    "facts": [("c0", "brandIs", "Brand"), ("c1", "brandIs", "Brand"),
              ("e0", "relatedScene", "k0"), ("e1", "brandIs", "Brand"),
              ("e3", "placeOfOrigin", "c0"), ("e0", "mysteryRelation", "e3")],
    "labeled": {"e0", "e2"},
}


def build_graph(spec: dict, backend: str) -> KnowledgeGraph:
    graph = KnowledgeGraph(backend=backend)
    for identifier in CORE[:3] + CLASSES:
        graph.register_class(identifier, identifier)
    for identifier in CORE[3:] + CONCEPTS:
        graph.register_concept(identifier, identifier)
    for identifier in ENTITIES:
        graph.register_entity(identifier,
                              identifier if identifier in spec["labeled"] else None)
    graph.add_many(Triple(head, relation, tail)
                   for head, relation, tail in spec["taxonomy"] + spec["facts"])
    graph.add_many(Triple(head, TYPE, tail) for head, tail in spec["types"])
    return graph


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@settings(max_examples=60, deadline=None)
@given(spec=graph_specs)
@example(spec=EVERYTHING)
def test_report_matches_per_triple_oracle(backend, spec):
    graph = build_graph(spec, backend)
    expected = PerTripleValidator(SCHEMA).validate(graph)
    actual = OntologyValidator(SCHEMA).validate(graph)
    assert actual.issues == expected.issues
    assert actual.checked_triples == expected.checked_triples


def test_oracle_example_raises_every_issue_code():
    report = PerTripleValidator(SCHEMA).validate(build_graph(EVERYTHING, "columnar"))
    assert set(report.summary()) == {
        "taxonomy-cycle", "domain-violation", "range-violation",
        "type-target-unknown", "unknown-relation", "missing-label"}


# ---------------------------------------------------------------------- #
# store reads per validation pass
# ---------------------------------------------------------------------- #
_READS = ("__contains__", "__iter__", "match", "iter_match", "match_many",
          "count", "tails", "heads", "count_many", "tails_many", "degree_many",
          "relations", "entities", "heads_only", "relation_frequencies", "degree")


def _outermost_reads(monkeypatch, graph: KnowledgeGraph) -> int:
    """Outermost TripleStore reads during ``validate``, the triples() scan aside."""
    calls = {"count": 0, "depth": 0}

    def counted(method):
        def wrapper(*args, **kwargs):
            if calls["depth"] == 0:
                calls["count"] += 1
            calls["depth"] += 1
            try:
                return method(*args, **kwargs)
            finally:
                calls["depth"] -= 1
        return wrapper

    with monkeypatch.context() as patch:
        for name in _READS:
            patch.setattr(TripleStore, name, counted(getattr(TripleStore, name)))
        OntologyValidator(build_core_ontology()).validate(graph)
    return calls["count"]


def test_store_reads_do_not_grow_with_the_graph(monkeypatch):
    reads = []
    for products in (60, 240):
        config = SyntheticCatalogConfig(num_products=products, items_per_product=2,
                                        reviews_per_item=1, seed=5)
        graph = OpenBGBuilder(config, seed=5).build(run_validation=False).graph
        reads.append(_outermost_reads(monkeypatch, graph))
    assert reads[0] == reads[1]
    assert reads[1] <= 4
