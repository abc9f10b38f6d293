"""The :class:`KnowledgeGraph` facade.

A :class:`KnowledgeGraph` wraps a :class:`~repro.kg.store.TripleStore` and
adds the semantics OpenBG needs on top of raw triples:

* registration of classes, concepts, entities and relation kinds,
* taxonomy traversal along ``rdfs:subClassOf`` / ``skos:broader``,
* instance-of lookups along ``rdf:type``,
* neighbourhood extraction (used for the Figure 3 snapshot),
* conversion to integer-id tensors for the embedding models,
* export to ``networkx`` for structural analysis.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import (Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple, Union)

import networkx as nx
import numpy as np

from repro.errors import OntologyError
from repro.kg.backend import DEFAULT_BACKEND, ColumnarBackend, GraphBackend
from repro.kg.namespaces import MetaProperty, TAXONOMY_PROPERTIES
from repro.kg.store import TripleStore
from repro.kg.triple import Triple
from repro.kg.vocab import Vocabulary


class KnowledgeGraph:
    """A business knowledge graph with ontology-aware helpers."""

    def __init__(self, name: str = "OpenBG",
                 backend: Union[str, GraphBackend] = DEFAULT_BACKEND) -> None:
        self.name = name
        self.store = TripleStore(backend=backend)
        self.classes: Set[str] = set()
        self.concepts: Set[str] = set()
        self.entities: Set[str] = set()
        self.object_properties: Set[str] = set()
        self.data_properties: Set[str] = set()
        self.meta_properties: Set[str] = {prop.value for prop in MetaProperty}
        self.images: Dict[str, np.ndarray] = {}
        self.descriptions: Dict[str, str] = {}
        self.labels: Dict[str, str] = {}
        self._concept_links_cache: Optional[
            Tuple[Tuple[int, int, int],
                  Tuple[Dict[str, List[str]], Dict[str, List[str]]]]] = None

    # ------------------------------------------------------------------ #
    # registration
    # ------------------------------------------------------------------ #
    def register_class(self, identifier: str, label: Optional[str] = None) -> None:
        """Register a class (Category / Brand / Place or one of their subclasses)."""
        self.classes.add(identifier)
        if label:
            self.labels[identifier] = label

    def register_concept(self, identifier: str, label: Optional[str] = None) -> None:
        """Register a concept (Time / Scene / Theme / Crowd / Market Segment node)."""
        self.concepts.add(identifier)
        if label:
            self.labels[identifier] = label

    def register_entity(self, identifier: str, label: Optional[str] = None) -> None:
        """Register an instance-level entity (a product or item)."""
        self.entities.add(identifier)
        if label:
            self.labels[identifier] = label

    def register_object_property(self, identifier: str) -> None:
        """Register an object property (relation between classes/concepts)."""
        self.object_properties.add(identifier)

    def register_data_property(self, identifier: str) -> None:
        """Register a data property (attribute with literal values)."""
        self.data_properties.add(identifier)

    def attach_image(self, entity: str, features: np.ndarray) -> None:
        """Attach an image feature vector to an entity (multimodal fact)."""
        self.images[entity] = np.asarray(features, dtype=np.float32)
        self.add(Triple(entity, MetaProperty.IMAGE_IS.value, f"image://{entity}"))

    def attach_description(self, entity: str, text: str) -> None:
        """Attach an unstructured textual description (rdfs:comment)."""
        self.descriptions[entity] = text
        self.add(Triple(entity, MetaProperty.COMMENT.value, f"comment://{entity}"))

    # ------------------------------------------------------------------ #
    # triples
    # ------------------------------------------------------------------ #
    def add(self, triple: Triple) -> bool:
        """Add a triple to the graph; returns True if it was new."""
        self._concept_links_cache = None
        return self.store.add(triple)

    def add_many(self, triples: Iterable[Triple]) -> int:
        """Add many triples; returns the number of new ones."""
        self._concept_links_cache = None
        return self.store.add_many(triples)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self.store

    def __len__(self) -> int:
        return len(self.store)

    def triples(self) -> List[Triple]:
        """All triples in deterministic order."""
        return self.store.triples()

    def match(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None, sort: bool = False) -> List[Triple]:
        """Pattern matching, delegated to the store."""
        return self.store.match(head, relation, tail, sort=sort)

    # ------------------------------------------------------------------ #
    # conjunctive queries
    # ------------------------------------------------------------------ #
    def query_engine(self) -> "QueryEngine":
        """A :class:`~repro.kg.query.QueryEngine` over this graph's store.

        The engine plans conjunctive pattern queries (batched selectivity
        ordering) and executes them in ID space on columnar-family
        backends; the applications layer runs on this instead of
        hand-rolled triple scans.
        """
        from repro.kg.query import QueryEngine

        return QueryEngine(self.store)

    def concept_links(self) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
        """(concept → products, product → concepts) over concept-link triples.

        A concept link is an object-property edge whose tail is a
        registered concept (``relatedScene`` / ``forCrowd`` /
        ``aboutTheme`` / ``appliedTime`` / ``inMarket_*`` — taxonomy
        meta-properties such as ``skos:broader`` are excluded by
        construction).  Evaluated as one batched single-pattern query
        per registered object property through the ID-space query
        executor; both maps hold sorted, deduplicated lists.

        The result is cached — every application simulator reads this
        index at construction, over a graph that is static by then.
        Callers receive an independent copy (mutating a returned list
        must not corrupt the cache or a sibling consumer).  The cache
        drops on :meth:`add` / :meth:`add_many` and whenever the store
        size or the concept/property registrations change; mutations
        that bypass the graph facade (a direct ``store.add`` paired
        with a size-preserving ``store.discard``) are not tracked.
        """
        from repro.kg.query import PatternQuery

        def copied(pair):
            return ({key: list(values) for key, values in pair[0].items()},
                    {key: list(values) for key, values in pair[1].items()})

        cache_key = (len(self.store), len(self.concepts),
                     len(self.object_properties))
        if self._concept_links_cache is not None \
                and self._concept_links_cache[0] == cache_key:
            return copied(self._concept_links_cache[1])
        by_concept: Dict[str, Set[str]] = {}
        by_product: Dict[str, Set[str]] = {}
        relations = sorted(self.object_properties)
        if not relations or not len(self.store):
            return {}, {}
        queries = [PatternQuery.from_patterns([("?product", relation, "?concept")])
                   for relation in relations]
        for rows in self.query_engine().execute_many(queries):
            for row in rows:
                concept = row["?concept"]
                if concept not in self.concepts:
                    continue
                product = row["?product"]
                by_concept.setdefault(concept, set()).add(product)
                by_product.setdefault(product, set()).add(concept)
        result = ({concept: sorted(products)
                   for concept, products in by_concept.items()},
                  {product: sorted(concepts)
                   for product, concepts in by_product.items()})
        self._concept_links_cache = (cache_key, result)
        return copied(result)

    # ------------------------------------------------------------------ #
    # taxonomy traversal
    # ------------------------------------------------------------------ #
    def parents(self, node: str) -> List[str]:
        """Direct taxonomy parents along subClassOf / broader."""
        result: Set[str] = set()
        for tails in self.store.tails_many([(node, prop) for prop in TAXONOMY_PROPERTIES]):
            result.update(tails)
        return sorted(result)

    def children(self, node: str) -> List[str]:
        """Direct taxonomy children along subClassOf / broader."""
        result: Set[str] = set()
        for triples in self.store.match_many(
                [(None, prop, node) for prop in TAXONOMY_PROPERTIES]):
            result.update(triple.head for triple in triples)
        return sorted(result)

    def ancestors(self, node: str) -> List[str]:
        """All transitive taxonomy ancestors (excluding the node itself)."""
        return sorted(_reachable(node, self.parents))

    def descendants(self, node: str) -> List[str]:
        """All transitive taxonomy descendants (excluding the node itself)."""
        return sorted(_reachable(node, self.children))

    def is_subclass_of(self, node: str, candidate_ancestor: str) -> bool:
        """True when ``candidate_ancestor`` is ``node`` or a (transitive) taxonomy ancestor."""
        return node == candidate_ancestor or candidate_ancestor in self.ancestors(node)

    def taxonomy_snapshot(self) -> "TaxonomySnapshot":
        """A read-only view of the taxonomy and ``rdf:type`` edges.

        Reads every ``rdfs:subClassOf``, ``skos:broader`` and ``rdf:type``
        edge in one batched store call; the snapshot answers parent,
        type and ancestor lookups from memory after that.  Later writes
        to the graph are not reflected in it.
        """
        *taxonomy, typed = self.store.match_many(
            [(None, prop, None) for prop in TAXONOMY_PROPERTIES]
            + [(None, MetaProperty.TYPE.value, None)])
        return TaxonomySnapshot(
            _tails_by_head(triple for triples in taxonomy for triple in triples),
            _tails_by_head(typed))

    def taxonomy_depth(self, node: str) -> int:
        """Length of the longest parent chain above ``node`` (root has depth 0).

        Computed iteratively with memoization so DAG-shaped taxonomies stay
        linear-time (the naive recursion is exponential on diamonds) and
        deep chains cannot hit ``RecursionError``.  Cycle edges — which the
        recursion would have followed forever — are ignored.
        """
        memo: Dict[str, int] = {}
        in_progress: Set[str] = {node}
        stack: List[Tuple[str, List[str]]] = [(node, self.parents(node))]
        while stack:
            current, current_parents = stack[-1]
            pending = next((p for p in current_parents
                            if p not in memo and p not in in_progress), None)
            if pending is not None:
                in_progress.add(pending)
                stack.append((pending, self.parents(pending)))
                continue
            memo[current] = max((1 + memo[p] for p in current_parents if p in memo),
                                default=0)
            in_progress.discard(current)
            stack.pop()
        return memo[node]

    def leaves_under(self, node: str) -> List[str]:
        """Taxonomy descendants of ``node`` that have no further children."""
        return sorted(d for d in self.descendants(node) if not self.children(d))

    # ------------------------------------------------------------------ #
    # instances
    # ------------------------------------------------------------------ #
    def instances_of(self, class_id: str, transitive: bool = False) -> List[str]:
        """Entities e with (e, rdf:type, class_id); optionally include subclasses."""
        targets = [class_id]
        if transitive:
            targets.extend(self.descendants(class_id))
        instances: Set[str] = set()
        for target in targets:
            instances.update(self.store.heads(MetaProperty.TYPE.value, target))
        return sorted(instances)

    def types_of(self, entity: str) -> List[str]:
        """Classes c with (entity, rdf:type, c)."""
        return self.store.tails(entity, MetaProperty.TYPE.value)

    # ------------------------------------------------------------------ #
    # neighbourhoods & export
    # ------------------------------------------------------------------ #
    def neighbourhood(self, node: str, hops: int = 1) -> List[Triple]:
        """All triples within ``hops`` undirected hops of ``node`` (Figure 3)."""
        if hops < 1:
            raise OntologyError("neighbourhood requires hops >= 1")
        backend = self.store.backend
        if isinstance(backend, ColumnarBackend):
            return self._neighbourhood_columnar(backend, node, hops)
        frontier: Set[str] = {node}
        seen_nodes: Set[str] = {node}
        collected: Set[Triple] = set()
        for _ in range(hops):
            next_frontier: Set[str] = set()
            for current in frontier:
                for triple in self.store.iter_match(head=current):
                    collected.add(triple)
                    next_frontier.add(triple.tail)
                for triple in self.store.iter_match(tail=current):
                    collected.add(triple)
                    next_frontier.add(triple.head)
            frontier = next_frontier - seen_nodes
            seen_nodes.update(next_frontier)
        return sorted(collected)

    def _neighbourhood_columnar(self, backend: ColumnarBackend, node: str,
                                hops: int) -> List[Triple]:
        """BFS over interned ids; strings appear only in the final result."""
        node_id = backend.entity_interner.lookup(node)
        if node_id is None:
            return []
        ids = backend.id_triples()
        frontier = {int(node_id)}
        seen_nodes = {int(node_id)}
        collected_rows: Set[int] = set()
        for _ in range(hops):
            next_frontier: Set[int] = set()
            for current in frontier:
                out_rows = backend.match_id_rows(head_id=current)
                in_rows = backend.match_id_rows(tail_id=current)
                collected_rows.update(out_rows.tolist())
                collected_rows.update(in_rows.tolist())
                next_frontier.update(ids[out_rows, 2].tolist())
                next_frontier.update(ids[in_rows, 0].tolist())
            frontier = next_frontier - seen_nodes
            seen_nodes.update(next_frontier)
        if not collected_rows:
            return []
        # Deterministic order via symbol ranks — no Triple-object sort.
        rows = np.fromiter(collected_rows, dtype=np.int64, count=len(collected_rows))
        sub = ids[rows]
        entity_rank = backend.entity_sort_rank()
        relation_rank = backend.relation_sort_rank()
        order = np.lexsort((entity_rank[sub[:, 2]], relation_rank[sub[:, 1]],
                            entity_rank[sub[:, 0]]))
        return backend._materialize(sub[order])

    def to_networkx(self) -> nx.MultiDiGraph:
        """Export to a ``networkx.MultiDiGraph`` with relation edge keys."""
        graph = nx.MultiDiGraph(name=self.name)
        for triple in self.store:
            graph.add_edge(triple.head, triple.tail, key=triple.relation,
                           relation=triple.relation)
        return graph

    # ------------------------------------------------------------------ #
    # integer-id views for embedding models
    # ------------------------------------------------------------------ #
    def build_vocabularies(
        self, relations: Optional[Sequence[str]] = None
    ) -> Tuple[Vocabulary, Vocabulary]:
        """Build (entity_vocab, relation_vocab) over the stored triples.

        ``relations`` restricts the relation vocabulary (and therefore the
        triples considered) to the given subset, which is how the benchmark
        builders produce OpenBG500-style relation-filtered views.

        Ids are assigned in sorted-symbol order, so the same graph yields
        the same vocabularies regardless of storage backend or insertion
        order.
        """
        backend = self.store.backend
        if isinstance(backend, ColumnarBackend):
            ids = backend.id_triples()
            if relations is not None:
                allowed_ids = [backend.relation_interner.lookup(rel)
                               for rel in relations]
                allowed_ids = [rel_id for rel_id in allowed_ids if rel_id is not None]
                ids = ids[np.isin(ids[:, 1], np.asarray(allowed_ids, dtype=np.int64))]
            # Vocab ids are assigned in sorted-symbol order so the mapping
            # is identical whichever backend built the graph.
            entity_rank = backend.entity_sort_rank()
            relation_rank = backend.relation_sort_rank()
            entity_ids = np.unique(ids[:, [0, 2]].ravel())
            entity_ids = entity_ids[np.argsort(entity_rank[entity_ids])]
            relation_ids = np.unique(ids[:, 1])
            relation_ids = relation_ids[np.argsort(relation_rank[relation_ids])]
            entity_symbol = backend.entity_interner.symbol_of
            relation_symbol = backend.relation_interner.symbol_of
            entity_vocab = Vocabulary(entity_symbol(int(i)) for i in entity_ids)
            relation_vocab = Vocabulary(relation_symbol(int(i)) for i in relation_ids)
            return entity_vocab, relation_vocab
        allowed = set(relations) if relations is not None else None
        entity_symbols: set = set()
        relation_symbols: set = set()
        for triple in self.store.iter_match():
            if allowed is not None and triple.relation not in allowed:
                continue
            entity_symbols.add(triple.head)
            entity_symbols.add(triple.tail)
            relation_symbols.add(triple.relation)
        return Vocabulary(sorted(entity_symbols)), Vocabulary(sorted(relation_symbols))

    def to_id_array(
        self,
        entity_vocab: Vocabulary,
        relation_vocab: Vocabulary,
        triples: Optional[Iterable[Triple]] = None,
    ) -> np.ndarray:
        """Encode triples to an (n, 3) int64 array of (head, relation, tail) ids.

        Triples whose symbols are missing from the vocabularies are skipped,
        mirroring the standard practice of dropping unseen-entity test triples.
        """
        backend = self.store.backend
        if triples is None and isinstance(backend, ColumnarBackend):
            # Translate the backend's interned ids to vocab ids in bulk:
            # one lookup per *unique* symbol instead of three per triple.
            # Rows come out in sorted-triple order, matching the fallback
            # path (and the set backend) exactly.
            ids = backend.id_triples()
            entity_rank = backend.entity_sort_rank()
            relation_rank = backend.relation_sort_rank()
            ids = ids[np.lexsort((entity_rank[ids[:, 2]], relation_rank[ids[:, 1]],
                                  entity_rank[ids[:, 0]]))]
            entity_map = np.full(len(backend.entity_interner), -1, dtype=np.int64)
            for interned_id, symbol in enumerate(backend.entity_interner):
                vocab_id = entity_vocab.get(symbol)
                if vocab_id is not None:
                    entity_map[interned_id] = vocab_id
            relation_map = np.full(len(backend.relation_interner), -1, dtype=np.int64)
            for interned_id, symbol in enumerate(backend.relation_interner):
                vocab_id = relation_vocab.get(symbol)
                if vocab_id is not None:
                    relation_map[interned_id] = vocab_id
            encoded = np.column_stack((entity_map[ids[:, 0]],
                                       relation_map[ids[:, 1]],
                                       entity_map[ids[:, 2]]))
            return encoded[(encoded >= 0).all(axis=1)]
        rows: List[Tuple[int, int, int]] = []
        source = self.store.triples() if triples is None else triples
        for triple in source:
            head_id = entity_vocab.get(triple.head)
            rel_id = relation_vocab.get(triple.relation)
            tail_id = entity_vocab.get(triple.tail)
            if head_id is None or rel_id is None or tail_id is None:
                continue
            rows.append((head_id, rel_id, tail_id))
        if not rows:
            return np.zeros((0, 3), dtype=np.int64)
        return np.asarray(rows, dtype=np.int64)

    # ------------------------------------------------------------------ #
    # misc
    # ------------------------------------------------------------------ #
    def relation_frequencies(self) -> Dict[str, int]:
        """Relation → triple count."""
        return self.store.relation_frequencies()

    def label_of(self, identifier: str) -> str:
        """Human-readable label for an identifier (falls back to the id)."""
        return self.labels.get(identifier, identifier)

    def describe(self) -> Dict[str, int]:
        """Cheap size summary used in logs and examples."""
        return {
            "classes": len(self.classes),
            "concepts": len(self.concepts),
            "entities": len(self.entities),
            "object_properties": len(self.object_properties),
            "data_properties": len(self.data_properties),
            "triples": len(self.store),
            "multimodal_entities": len(self.images),
        }


def _tails_by_head(triples: Iterable[Triple]) -> Dict[str, Tuple[str, ...]]:
    """head → sorted, deduplicated tails."""
    grouped: Dict[str, Set[str]] = defaultdict(set)
    for triple in triples:
        grouped[triple.head].add(triple.tail)
    return {head: tuple(sorted(tails)) for head, tails in grouped.items()}


def _reachable(start: str, step: Callable[[str], Iterable[str]]) -> Set[str]:
    """Nodes reachable from ``start`` in one or more ``step`` hops.

    Breadth-first and cycle-safe; ``start`` itself is excluded even when
    a cycle leads back to it.
    """
    seen: Set[str] = set()
    frontier = deque(step(start))
    while frontier:
        current = frontier.popleft()
        if current in seen:
            continue
        seen.add(current)
        frontier.extend(step(current))
    seen.discard(start)
    return seen


class TaxonomySnapshot:
    """Taxonomy parents and ``rdf:type`` targets, read once from a graph.

    Built by :meth:`KnowledgeGraph.taxonomy_snapshot`.  Lookups never
    touch the store; ancestor sets are computed on first use and
    memoized, so a validation pass walks each node's ancestry once.
    """

    def __init__(self, parents: Dict[str, Tuple[str, ...]],
                 types: Dict[str, Tuple[str, ...]]) -> None:
        self._parents = parents
        self._types = types
        self._ancestors: Dict[str, FrozenSet[str]] = {}

    def parents(self, node: str) -> List[str]:
        """Direct taxonomy parents along subClassOf / broader, sorted."""
        return list(self._parents.get(node, ()))

    def types_of(self, node: str) -> List[str]:
        """Classes c with (node, rdf:type, c), sorted."""
        return list(self._types.get(node, ()))

    def ancestors(self, node: str) -> FrozenSet[str]:
        """All transitive taxonomy ancestors (excluding the node itself)."""
        known = self._ancestors.get(node)
        if known is None:
            known = frozenset(_reachable(
                node, lambda current: self._parents.get(current, ())))
            self._ancestors[node] = known
        return known

    def is_subclass_of(self, node: str, candidate_ancestor: str) -> bool:
        """True when ``candidate_ancestor`` is ``node`` or a (transitive) taxonomy ancestor."""
        return node == candidate_ancestor or candidate_ancestor in self.ancestors(node)
