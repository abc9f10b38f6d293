"""Knowledge-graph substrate: triples, stores, graphs, queries, statistics.

This package replaces the Apache Jena ontology / RDF APIs the paper uses.
It provides an in-memory, fully indexed triple store, a higher-level
:class:`~repro.kg.graph.KnowledgeGraph` facade with vocabulary management
and taxonomy traversal, N-Triples / TSV serialization, a plan/execute
triple-pattern query layer (ID-space vectorized executor + concurrent
:class:`~repro.kg.service.QueryService`), and graph statistics mirroring
Table I of the paper.
"""

from repro.kg.namespaces import MetaProperty, Namespaces
from repro.kg.triple import Triple
from repro.kg.backend import (
    BACKENDS,
    DEFAULT_BACKEND,
    ColumnarBackend,
    GraphBackend,
    Interner,
    make_backend,
)
from repro.kg.mmap_backend import MmapBackend
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.cluster import ClusterBackend, shard_split
from repro.kg.store import TripleStore
from repro.kg.wal import WriteAheadLog
from repro.kg.vocab import Vocabulary
from repro.kg.graph import KnowledgeGraph
from repro.kg.planner import QueryPlan, plan_queries, plan_query
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.executor import ResultCursor
from repro.kg.service import QueryService
from repro.kg.server import KGServer
from repro.kg.client import (
    RemoteClient,
    RemoteCursor,
    RemoteQueryEngine,
    RemoteStore,
    connect,
)
from repro.kg.statistics import GraphStatistics, compute_statistics

__all__ = [
    "MetaProperty",
    "Namespaces",
    "Triple",
    "BACKENDS",
    "DEFAULT_BACKEND",
    "ClusterBackend",
    "ColumnarBackend",
    "GraphBackend",
    "Interner",
    "MmapBackend",
    "ShardedBackend",
    "make_backend",
    "TripleStore",
    "Vocabulary",
    "KnowledgeGraph",
    "PatternQuery",
    "QueryEngine",
    "QueryPlan",
    "QueryService",
    "KGServer",
    "RemoteClient",
    "RemoteCursor",
    "RemoteQueryEngine",
    "RemoteStore",
    "ResultCursor",
    "WriteAheadLog",
    "connect",
    "plan_queries",
    "plan_query",
    "shard_split",
    "GraphStatistics",
    "compute_statistics",
]
