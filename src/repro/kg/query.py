"""The triple-pattern query facade.

OpenBG's applications need more than single-pattern lookups: joining
products to their brand's place, walking taxonomy chains, filtering by
attribute values.  :class:`QueryEngine` evaluates conjunctive queries of
triple patterns with named variables (a pragmatic subset of SPARQL basic
graph patterns) against a :class:`~repro.kg.store.TripleStore`.

The engine is a thin facade over a plan/execute pipeline:

* :mod:`repro.kg.planner` normalizes patterns, orders them by batched
  selectivity (one ``count_many`` call) and analyzes variables;
* :mod:`repro.kg.executor` evaluates the plan in **ID space**:
  constants interned once, every pattern fetched as an int64 block from
  the backend's CSR indexes, the binding frontier carried as numpy id
  columns through vectorized hash joins, strings materialized only at
  projection.

Row order is executor-defined.  For a concurrent, batching front-end
over the same pipeline see :class:`repro.kg.service.QueryService`.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Sequence

from repro.kg.executor import (
    Binding,
    ResultCursor,
    execute_plans,
    execute_plans_cursors,
)
from repro.kg.planner import (
    PatternQuery,
    QueryPlan,
    is_variable,
    plan_queries,
    plan_query,
)
from repro.kg.store import TripleStore

__all__ = [
    "Binding",
    "PatternQuery",
    "QueryEngine",
    "QueryPlan",
    "ResultCursor",
    "is_variable",
]

class QueryEngine:
    """Evaluates :class:`PatternQuery` objects against a :class:`TripleStore`."""

    def __init__(self, store: TripleStore) -> None:
        self.store = store

    def plan(self, query: PatternQuery, reorder: bool = True) -> QueryPlan:
        """Plan a query without executing it (selectivity-ordered steps).

        Raises :class:`~repro.errors.QueryError` when ``select`` names a
        variable no pattern binds.
        """
        return plan_query(self.store, query, reorder=reorder)

    def execute(self, query: PatternQuery, reorder: bool = True,
                limit: Optional[int] = None) -> List[Binding]:
        """Return all variable bindings satisfying every pattern.

        With ``reorder`` (the default) patterns are evaluated in batched
        ``count_many`` selectivity order — fewest matching triples first
        — which is what keeps conjunctive queries fast on skewed stores;
        the binding *set* is unaffected by ordering.  ``limit`` caps the
        materialized rows (overriding any cap on the query itself);
        ``limit=0`` raises — see
        :func:`repro.kg.planner.validate_limit`.

        A ``select`` naming a variable that never binds raises
        :class:`~repro.errors.QueryError` instead of silently dropping
        the column from result rows.
        """
        return self.execute_many([query], reorder=reorder, limit=limit)[0]

    def execute_many(self, queries: Sequence[PatternQuery], reorder: bool = True,
                     limit: Optional[int] = None) -> List[List[Binding]]:
        """Execute a batch of queries with batched planning and fetching.

        Planning issues one ``count_many`` over every pattern of every
        query; execution advances all plans in lockstep so each round's
        pattern fetches collapse into a single ``match_ids_many`` backend
        call.  This is the entry point
        :class:`~repro.kg.service.QueryService` multiplexes concurrent
        clients onto.  ``limit`` (when given) caps every query in the
        batch.
        """
        queries = self._capped(queries, limit)
        plans = plan_queries(self.store, queries, reorder=reorder)
        return execute_plans(self.store, plans)

    def cursor(self, query: PatternQuery, reorder: bool = True,
               limit: Optional[int] = None) -> ResultCursor:
        """Execute a query into a :class:`ResultCursor` instead of a list.

        The joins run to completion (the id frontier is compact), but
        string bindings materialize page by page as the caller
        :meth:`~repro.kg.executor.ResultCursor.fetch`\\ es — the
        streaming form huge result sets want, and what the network
        protocol pages over the wire.
        """
        return self.cursor_many([query], reorder=reorder, limit=limit)[0]

    def cursor_many(self, queries: Sequence[PatternQuery],
                    reorder: bool = True,
                    limit: Optional[int] = None) -> List[ResultCursor]:
        """Batched :meth:`cursor` — one lockstep execution, one cursor each."""
        queries = self._capped(queries, limit)
        plans = plan_queries(self.store, queries, reorder=reorder)
        return execute_plans_cursors(self.store, plans)

    @staticmethod
    def _capped(queries: Sequence[PatternQuery],
                limit: Optional[int]) -> Sequence[PatternQuery]:
        if limit is None:
            return queries
        return [replace(query, limit=limit) for query in queries]

    # ------------------------------------------------------------------ #
    # convenience helpers used by the applications layer
    # ------------------------------------------------------------------ #
    def one_hop(self, head: str, relation: str) -> List[str]:
        """Tails reachable from ``head`` through ``relation``."""
        return self.store.tails(head, relation)

    def two_hop(self, head: str, relation1: str, relation2: str) -> List[str]:
        """Tails reachable through a 2-step relation path."""
        middles = self.store.tails(head, relation1)
        results = set()
        for tails in self.store.tails_many([(middle, relation2) for middle in middles]):
            results.update(tails)
        return sorted(results)

    def co_occurring_heads(self, relation: str, tail: str,
                           limit: Optional[int] = None) -> List[str]:
        """Heads sharing the given (relation, tail) pair, e.g. same-brand items."""
        heads = self.store.heads(relation, tail)
        return heads if limit is None else heads[:limit]
