"""Ontology-aware validation of knowledge-graph triples.

The paper motivates OpenBG with the "deficient structure" challenge: noisy
big data yields redundancy (the same surface form used both as a class
instance and as an attribute value) and incompleteness (related classes not
linked).  The validator enforces the constraints the ontology makes
checkable:

* object-property triples must respect domain/range (the head must be typed
  under the property's domain class, the tail under its range);
* ``rdf:type`` targets must be known classes or concepts;
* taxonomy edges must not create cycles;
* entities should carry a label (completeness warning, not an error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.kg.graph import KnowledgeGraph, TaxonomySnapshot
from repro.kg.namespaces import MetaProperty, OWL_THING, SKOS_CONCEPT
from repro.kg.triple import Triple
from repro.ontology.schema import OntologySchema, PropertyKind


@dataclass
class ValidationIssue:
    """One violated constraint, attached to the offending triple."""

    severity: str  # "error" or "warning"
    code: str
    message: str
    triple: Triple | None = None


@dataclass
class ValidationReport:
    """The outcome of validating a graph against a schema."""

    issues: List[ValidationIssue] = field(default_factory=list)
    checked_triples: int = 0

    @property
    def errors(self) -> List[ValidationIssue]:
        """Issues with severity ``error``."""
        return [issue for issue in self.issues if issue.severity == "error"]

    @property
    def warnings(self) -> List[ValidationIssue]:
        """Issues with severity ``warning``."""
        return [issue for issue in self.issues if issue.severity == "warning"]

    @property
    def is_valid(self) -> bool:
        """True when no errors were found (warnings allowed)."""
        return not self.errors

    def summary(self) -> Dict[str, int]:
        """Counts per issue code."""
        counts: Dict[str, int] = {}
        for issue in self.issues:
            counts[issue.code] = counts.get(issue.code, 0) + 1
        return counts


class OntologyValidator:
    """Validates a :class:`KnowledgeGraph` against an :class:`OntologySchema`.

    One pass reads the store twice: a single batched read of every
    taxonomy and ``rdf:type`` edge into a
    :class:`~repro.kg.graph.TaxonomySnapshot`, and the sorted scan of
    all triples.  The acyclicity check, the ``rdf:type`` target check
    and the domain/range checks then answer parent, type and ancestor
    lookups from the snapshot, whose ancestor sets are memoized, so no
    check issues a store read per triple.
    """

    def __init__(self, schema: OntologySchema) -> None:
        self.schema = schema

    def validate(self, graph: KnowledgeGraph) -> ValidationReport:
        """Run all checks and return a report."""
        report = ValidationReport()
        taxonomy = graph.taxonomy_snapshot()
        self._check_taxonomy_acyclic(graph, taxonomy, report)
        for triple in graph.triples():
            report.checked_triples += 1
            self._check_triple(graph, taxonomy, triple, report)
        self._check_entity_labels(graph, report)
        return report

    # ------------------------------------------------------------------ #
    # individual checks
    # ------------------------------------------------------------------ #
    def _check_triple(self, graph: KnowledgeGraph, taxonomy: TaxonomySnapshot,
                      triple: Triple, report: ValidationReport) -> None:
        kind = self.schema.property_kind(triple.relation)
        if triple.relation == MetaProperty.TYPE.value:
            self._check_type_triple(graph, taxonomy, triple, report)
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
            self._check_object_triple(taxonomy, triple, report)

    def _check_type_triple(self, graph: KnowledgeGraph, taxonomy: TaxonomySnapshot,
                           triple: Triple, report: ValidationReport) -> None:
        target = triple.tail
        # Instance-level typing is allowed: an item is an instance of a
        # product, which is itself an entity (not a class) — the paper's
        # item/product distinction.  So a registered entity is a valid
        # rdf:type target as long as it is typed itself.
        known = (
            target in graph.classes or target in graph.concepts
            or self.schema.is_class(target) or self.schema.is_concept(target)
            or target in (OWL_THING, SKOS_CONCEPT)
            or (target in graph.entities and bool(taxonomy.types_of(target)))
        )
        if not known:
            report.issues.append(ValidationIssue(
                severity="error", code="type-target-unknown",
                message=f"rdf:type target {target!r} is not a known class or concept",
                triple=triple,
            ))

    def _check_object_triple(self, taxonomy: TaxonomySnapshot, triple: Triple,
                             report: ValidationReport) -> None:
        definition = self.schema.properties[triple.relation]
        if definition.domain and not self._instance_under(taxonomy, triple.head,
                                                          definition.domain):
            report.issues.append(ValidationIssue(
                severity="error", code="domain-violation",
                message=(f"head {triple.head!r} of {triple.relation!r} is not typed "
                         f"under domain {definition.domain!r}"),
                triple=triple,
            ))
        if definition.range and not self._instance_under(taxonomy, triple.tail,
                                                         definition.range):
            report.issues.append(ValidationIssue(
                severity="error", code="range-violation",
                message=(f"tail {triple.tail!r} of {triple.relation!r} is not typed "
                         f"under range {definition.range!r}"),
                triple=triple,
            ))

    def _instance_under(self, taxonomy: TaxonomySnapshot, node: str, ancestor: str) -> bool:
        """True when ``node`` is (an instance of) a class/concept under ``ancestor``."""
        if taxonomy.is_subclass_of(node, ancestor):
            return True
        for type_id in taxonomy.types_of(node):
            if taxonomy.is_subclass_of(type_id, ancestor):
                return True
        return False

    def _check_taxonomy_acyclic(self, graph: KnowledgeGraph, taxonomy: TaxonomySnapshot,
                                report: ValidationReport) -> None:
        """Detect cycles in the subClassOf / broader graph (DFS with colors)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: Dict[str, int] = {}

        def visit(node: str) -> bool:
            color[node] = GRAY
            for parent in taxonomy.parents(node):
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
