"""Reference implementations the parity suites compare against.

Neither ships in ``src/``; every served and pipeline path runs the
ID-space executor on an interned-id backend.  This module keeps the two
simplest possible definitions of "the right answer":

* :class:`SetBackend` — a dict-of-set triple store answering the
  string-level :class:`~repro.kg.backend.GraphBackend` queries from six
  Python indexes (no interning, no id surface);
* :func:`execute_backtracking` — a symbol-level evaluator that extends
  each binding one ``iter_match`` call at a time, over any store.

:func:`execute` wraps the latter in the ``QueryEngine.execute`` shape
(plan, evaluate, apply the limit).  Tests import this module as
``kg_oracle`` (``tests/`` is on ``sys.path`` under pytest; the benchmark
conftest adds it for ``benchmarks/``).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.kg.backend import _BatchedQueriesMixin
from repro.kg.planner import PatternQuery, QueryPlan, is_variable, plan_query
from repro.kg.store import TripleStore
from repro.kg.triple import Triple

Binding = Dict[str, str]


class SetBackend(_BatchedQueriesMixin):
    """The original dict-of-set store, the backend parity reference.

    Six single- and two-key indexes (SPO / POS / OSP style) make every
    pattern lookup a dictionary access rather than a scan.  Index buckets
    are insertion-ordered dicts rather than sets so unsorted ``match``
    results are deterministic for a deterministic insertion sequence
    (plain sets would leak ``PYTHONHASHSEED`` into query order).
    """

    name = "set"

    def __init__(self) -> None:
        self._triples: Dict[Triple, None] = {}
        self._by_head: Dict[str, Dict[Triple, None]] = defaultdict(dict)
        self._by_relation: Dict[str, Dict[Triple, None]] = defaultdict(dict)
        self._by_tail: Dict[str, Dict[Triple, None]] = defaultdict(dict)
        self._by_head_relation: Dict[Tuple[str, str], Dict[Triple, None]] = defaultdict(dict)
        self._by_relation_tail: Dict[Tuple[str, str], Dict[Triple, None]] = defaultdict(dict)
        self._by_head_tail: Dict[Tuple[str, str], Dict[Triple, None]] = defaultdict(dict)

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def add(self, head: str, relation: str, tail: str) -> bool:
        triple = Triple(head, relation, tail)
        if triple in self._triples:
            return False
        self._triples[triple] = None
        self._by_head[head][triple] = None
        self._by_relation[relation][triple] = None
        self._by_tail[tail][triple] = None
        self._by_head_relation[(head, relation)][triple] = None
        self._by_relation_tail[(relation, tail)][triple] = None
        self._by_head_tail[(head, tail)][triple] = None
        return True

    def discard(self, head: str, relation: str, tail: str) -> bool:
        triple = Triple(head, relation, tail)
        if triple not in self._triples:
            return False
        del self._triples[triple]
        self._by_head[head].pop(triple, None)
        self._by_relation[relation].pop(triple, None)
        self._by_tail[tail].pop(triple, None)
        self._by_head_relation[(head, relation)].pop(triple, None)
        self._by_relation_tail[(relation, tail)].pop(triple, None)
        self._by_head_tail[(head, tail)].pop(triple, None)
        return True

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def contains(self, head: str, relation: str, tail: str) -> bool:
        return Triple(head, relation, tail) in self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def iter_triples(self) -> Iterator[Triple]:
        return iter(self._triples)

    def _candidates(self, head: Optional[str], relation: Optional[str],
                    tail: Optional[str]) -> Iterable[Triple]:
        if head is not None and relation is not None and tail is not None:
            candidate = Triple(head, relation, tail)
            return (candidate,) if candidate in self._triples else ()
        if head is not None and relation is not None:
            return self._by_head_relation.get((head, relation), ())
        if relation is not None and tail is not None:
            return self._by_relation_tail.get((relation, tail), ())
        if head is not None and tail is not None:
            return self._by_head_tail.get((head, tail), ())
        if head is not None:
            return self._by_head.get(head, ())
        if relation is not None:
            return self._by_relation.get(relation, ())
        if tail is not None:
            return self._by_tail.get(tail, ())
        return self._triples

    def match(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None, sort: bool = False) -> List[Triple]:
        candidates = self._candidates(head, relation, tail)
        return sorted(candidates) if sort else list(candidates)

    def iter_match(self, head: Optional[str] = None, relation: Optional[str] = None,
                   tail: Optional[str] = None) -> Iterator[Triple]:
        return iter(self._candidates(head, relation, tail))

    def count(self, head: Optional[str] = None, relation: Optional[str] = None,
              tail: Optional[str] = None) -> int:
        # Every branch of _candidates returns a sized container.
        return len(self._candidates(head, relation, tail))

    def tails(self, head: str, relation: str) -> List[str]:
        return sorted(t.tail for t in self._by_head_relation.get((head, relation), ()))

    def heads(self, relation: str, tail: str) -> List[str]:
        return sorted(t.head for t in self._by_relation_tail.get((relation, tail), ()))

    def degree(self, node: str) -> int:
        return len(self._by_head.get(node, ())) + len(self._by_tail.get(node, ()))

    def entities(self) -> List[str]:
        nodes = {key for key, triples in self._by_head.items() if triples}
        nodes.update(key for key, triples in self._by_tail.items() if triples)
        return sorted(nodes)

    def relations(self) -> List[str]:
        return sorted(rel for rel, triples in self._by_relation.items() if triples)

    def heads_only(self) -> List[str]:
        return sorted(key for key, triples in self._by_head.items() if triples)

    def relation_frequencies(self) -> Dict[str, int]:
        return {rel: len(triples) for rel, triples in self._by_relation.items() if triples}


# --------------------------------------------------------------------------- #
# symbol-level backtracking executor
# --------------------------------------------------------------------------- #
def execute_backtracking(store: TripleStore, plan: QueryPlan) -> List[Binding]:
    """Evaluate a plan by per-binding backtracking over ``iter_match``.

    This is the seed engine's strategy, word for word: substitute the
    bindings accumulated so far into the next pattern, ask the store for
    matching triples, extend each binding per match.  Runs on any store,
    and compares symbols, so a variable may bind entity and relation
    positions alike.
    """
    bindings: List[Binding] = [{}]
    for step in plan.steps:
        next_bindings: List[Binding] = []
        for binding in bindings:
            next_bindings.extend(_extend(store, binding, step.pattern))
        bindings = next_bindings
        if not bindings:
            return []
    return _project_bindings(bindings, plan.select)


def _extend(store: TripleStore, binding: Binding,
            pattern: Tuple[str, str, str]) -> Iterable[Binding]:
    head, relation, tail = (_substitute(term, binding) for term in pattern)
    matches = store.iter_match(
        head=None if is_variable(head) else head,
        relation=None if is_variable(relation) else relation,
        tail=None if is_variable(tail) else tail,
    )
    for triple in matches:
        extended = dict(binding)
        if not _bind(extended, head, triple.head):
            continue
        if not _bind(extended, relation, triple.relation):
            continue
        if not _bind(extended, tail, triple.tail):
            continue
        yield extended


def _substitute(term: str, binding: Binding) -> str:
    if is_variable(term) and term in binding:
        return binding[term]
    return term


def _bind(binding: Binding, term: str, value: str) -> bool:
    if not is_variable(term):
        return term == value
    existing = binding.get(term)
    if existing is None:
        binding[term] = value
        return True
    return existing == value


def _project_bindings(bindings: List[Binding],
                      select: Tuple[str, ...]) -> List[Binding]:
    if not select:
        return bindings
    projected: List[Binding] = []
    seen = set()
    for binding in bindings:
        row = {var: binding[var] for var in select}
        key = tuple(sorted(row.items()))
        if key not in seen:
            seen.add(key)
            projected.append(row)
    return projected



def execute(store: TripleStore, query: PatternQuery, reorder: bool = True,
            limit: Optional[int] = None) -> List[Binding]:
    """Plan ``query`` and evaluate it with :func:`execute_backtracking`.

    The oracle counterpart of ``QueryEngine(store).execute``: the same
    planner (so ``select``/``limit`` validation and step order match),
    then the backtracker, then the limit as a prefix slice.
    """
    if limit is not None:
        query = replace(query, limit=limit)
    plan = plan_query(store, query, reorder=reorder)
    rows = execute_backtracking(store, plan)
    return rows if plan.query.limit is None else rows[:plan.query.limit]
