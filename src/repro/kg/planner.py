"""Query planning: pattern normalization, selectivity ordering, variable analysis.

The query layer is split into a **planner** (this module) and an
**executor** (:mod:`repro.kg.executor`).  Planning is pure analysis over
the query text plus one batched ``count_many`` round-trip to the store:

* :class:`PatternQuery` — the user-facing conjunctive query (a sequence
  of (head, relation, tail) patterns with ``?variables``);
* :func:`plan_query` / :func:`plan_queries` — turn queries into
  :class:`QueryPlan` objects: patterns ordered by batched selectivity
  counts (fewest matching triples first), each annotated with its
  constants and variable occurrences, plus a query-wide variable → kind
  (entity / relation position) analysis that tells the executor which
  interner space each variable's ids live in;
* select validation — a ``select`` naming a variable the query never
  binds raises :class:`~repro.errors.QueryError` instead of silently
  producing partial rows;
* :func:`cache_key` — the stable canonical identity of a plan that the
  :class:`~repro.kg.service.QueryService` result cache is keyed by:
  interned pattern ids plus ``select`` plus the reorder flag,
  deliberately **limit-independent** (cache entries hold the full
  deduplicated id-row block; ``limit`` applies at projection).

Plans are inert data; handing one to
:func:`repro.kg.executor.execute_plan` produces bindings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import QueryError
from repro.kg.store import TripleStore


def is_variable(term: str) -> bool:
    """Terms starting with ``?`` are variables; anything else is a constant."""
    return term.startswith("?")


@dataclass(frozen=True)
class PatternQuery:
    """A conjunctive query: a sequence of (head, relation, tail) patterns.

    Each position is either a constant identifier or a ``?variable``.
    ``select`` optionally restricts which variables appear in the results.
    ``limit`` caps how many result rows execution materializes (``None``
    means all; a cursor over a limited query pages within the cap).
    """

    patterns: Tuple[Tuple[str, str, str], ...]
    select: Tuple[str, ...] = ()
    limit: Optional[int] = None

    @classmethod
    def from_patterns(cls, patterns: Sequence[Sequence[str]],
                      select: Sequence[str] = (),
                      limit: Optional[int] = None) -> "PatternQuery":
        """Build a query from plain lists/tuples."""
        normalized = tuple(tuple(pattern) for pattern in patterns)
        for pattern in normalized:
            if len(pattern) != 3:
                raise ValueError(f"pattern must have 3 terms, got {pattern!r}")
        return cls(patterns=normalized, select=tuple(select), limit=limit)

    def variables(self) -> List[str]:
        """All variables mentioned in the query, in first-appearance order."""
        seen: List[str] = []
        for pattern in self.patterns:
            for term in pattern:
                if is_variable(term) and term not in seen:
                    seen.append(term)
        return seen


#: Variable kinds: the id space a variable's bindings live in.
ENTITY = "entity"
RELATION = "relation"


@dataclass(frozen=True)
class PatternStep:
    """One pattern of a plan: constants split out, variables located.

    ``constants`` holds the constant symbol per position (``None`` where
    the position is a variable); ``variables`` lists every
    ``(position, name)`` variable occurrence, including repeats of the
    same variable within the pattern (the executor turns repeats into
    equality filters).  ``count`` is the store's match count for the
    constants-only version of the pattern — the selectivity estimate the
    plan was ordered by (``-1`` when the plan was built with
    ``reorder=False``, which skips the probe entirely).
    """

    pattern: Tuple[str, str, str]
    constants: Tuple[Optional[str], Optional[str], Optional[str]]
    variables: Tuple[Tuple[int, str], ...]
    count: int


@dataclass(frozen=True)
class QueryPlan:
    """An ordered, analyzed query ready for execution.

    ``steps`` are the query's patterns in execution order.  ``variables``
    keeps the *original* first-appearance order (the order
    :meth:`PatternQuery.variables` reports, independent of reordering).
    ``var_kinds`` maps each variable to the id space it binds in
    (:data:`ENTITY` or :data:`RELATION`).  A variable that appears in
    both entity and relation positions is an :data:`ENTITY`; the
    executor maps its relation-position ids into entity ids.
    """

    query: PatternQuery
    steps: Tuple[PatternStep, ...]
    variables: Tuple[str, ...]
    select: Tuple[str, ...]
    var_kinds: Dict[str, str] = field(default_factory=dict)


def validate_select(query: PatternQuery) -> None:
    """Raise :class:`QueryError` when ``select`` names an unbindable variable.

    Every selected name must be a ``?variable`` that some pattern
    mentions; anything else (a misspelled variable, a plain constant)
    would previously be silently dropped from the result rows.
    """
    if not query.select:
        return
    known = set(query.variables())
    for name in query.select:
        if not is_variable(name):
            raise QueryError(
                f"select term {name!r} is not a variable (variables start with '?')")
        if name not in known:
            raise QueryError(
                f"select variable {name!r} is never bound by any pattern "
                f"(query binds: {', '.join(sorted(known)) or 'nothing'})")


def validate_limit(limit: Optional[int]) -> None:
    """Raise :class:`QueryError` for a limit that cannot mean anything.

    ``limit=0`` (or negative) is always a caller bug — "no rows" is not
    a query worth executing, and silently returning an empty result
    would mask a dropped variable upstream — so it fails loudly instead
    of producing a partial silent result.
    """
    if limit is None:
        return
    if not isinstance(limit, int) or isinstance(limit, bool) or limit < 1:
        raise QueryError(
            f"limit must be a positive integer or None, got {limit!r}")


def _analyze_variables(query: PatternQuery) -> Dict[str, str]:
    """Variable → kind map; a variable seen in both positions is an entity."""
    kinds: Dict[str, str] = {}
    for pattern in query.patterns:
        for position, term in enumerate(pattern):
            if is_variable(term) and kinds.get(term) != ENTITY:
                kinds[term] = RELATION if position == 1 else ENTITY
    return kinds


def _make_step(pattern: Tuple[str, str, str], count: int) -> PatternStep:
    constants = tuple(None if is_variable(term) else term for term in pattern)
    variables = tuple((position, term) for position, term in enumerate(pattern)
                      if is_variable(term))
    return PatternStep(pattern=pattern, constants=constants,
                       variables=variables, count=count)


def plan_queries(store: TripleStore, queries: Sequence[PatternQuery],
                 reorder: bool = True) -> List[QueryPlan]:
    """Plan a batch of queries with ONE batched selectivity round-trip.

    All constants-only patterns across all queries go to the store in a
    single :meth:`~repro.kg.store.TripleStore.count_many` call (the
    sharded backend routes head-bound patterns to their owner shard), so
    planning cost does not multiply with the batch size the way
    per-pattern ``count`` calls would.  The probe only covers queries
    whose ordering can actually change — with ``reorder=False``, or for
    single-pattern queries, counts are never consulted, no probe is
    issued and the steps carry ``count=-1``.
    """
    for query in queries:
        validate_select(query)
        validate_limit(query.limit)

    def probed(query: PatternQuery) -> bool:
        return reorder and len(query.patterns) > 1

    flat_patterns = [step_constants
                     for query in queries if probed(query)
                     for step_constants in
                     (tuple(None if is_variable(term) else term
                            for term in pattern)
                      for pattern in query.patterns)]
    counts = store.count_many(flat_patterns) if flat_patterns else []
    plans: List[QueryPlan] = []
    cursor = 0
    for query in queries:
        if probed(query):
            num_patterns = len(query.patterns)
            query_counts = counts[cursor:cursor + num_patterns]
            cursor += num_patterns
        else:
            query_counts = [-1] * len(query.patterns)
        steps = [_make_step(pattern, count)
                 for pattern, count in zip(query.patterns, query_counts)]
        if len(steps) > 1 and probed(query):
            # Stable sort by (count, original index): fewest matching
            # triples first prunes the binding frontier early; ties keep
            # the written order.  The binding *set* is order-invariant.
            steps.sort(key=lambda step: step.count)
        plans.append(QueryPlan(
            query=query,
            steps=tuple(steps),
            variables=tuple(query.variables()),
            select=query.select,
            var_kinds=_analyze_variables(query),
        ))
    return plans


def plan_query(store: TripleStore, query: PatternQuery,
               reorder: bool = True) -> QueryPlan:
    """Plan a single query (see :func:`plan_queries`)."""
    return plan_queries(store, [query], reorder=reorder)[0]


def cache_key(backend: object, query: PatternQuery,
              reorder: bool = True) -> Optional[Tuple]:
    """The stable identity of a query's *result*, or ``None`` if uncacheable.

    Two queries get the same key exactly when the ID-space executor is
    guaranteed to produce bit-identical id-row blocks for them against
    an unchanged store:

    * constants are canonicalized to their interned ids (position 1
      through the relation interner, positions 0/2 through the entity
      interner), so spelling differences that alias the same id — there
      are none today, but the interner owns that decision — cannot
      split the cache;
    * variables keep their names verbatim: renaming a variable changes
      projection column names, which are part of the result;
    * ``select`` and the ``reorder`` flag are part of the key (both
      change the projected columns or, for reorder, the count-probe
      path), but ``limit`` is deliberately **not**: execution only
      applies ``limit`` as a final projection slice, so one cache entry
      holds the full block and every limit is a view of it.

    A constant the interner has never seen keys as ``("#", term)``.
    That is only sound because the service drops the whole cache on
    every mutation epoch bump — interners grow only on writes, so
    between bumps "unknown" is as stable an identity as an id.

    ``None`` (bypass the cache) is returned for queries projecting no
    columns at all.
    """
    names = query.select or tuple(query.variables())
    if not names:
        return None
    entity_lookup = backend.entity_interner.lookup
    relation_lookup = backend.relation_interner.lookup
    terms: List[object] = []
    for pattern in query.patterns:
        for position, term in enumerate(pattern):
            if is_variable(term):
                terms.append(term)
                continue
            lookup = relation_lookup if position == 1 else entity_lookup
            interned = lookup(term)
            terms.append(("#", term) if interned is None else interned)
    return (bool(reorder), tuple(query.select), tuple(terms))
