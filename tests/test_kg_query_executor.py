"""Tests for the plan/execute query layer (ID-space executor parity).

Every answer is compared with ``kg_oracle``: the symbol-level
backtracking evaluator, on the same store and on the dict-of-set
reference store.
"""

from __future__ import annotations

import kg_oracle
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.errors import QueryError
from repro.kg.executor import execute_plan
from repro.kg.planner import plan_queries, plan_query
from repro.kg.query import PatternQuery, QueryEngine
from repro.kg.sharded_backend import ShardedBackend
from repro.kg.store import TripleStore
from repro.kg.triple import triples_from_tuples

BACKENDS = ("columnar", "mmap", "sharded")


def _store(rows, backend: str) -> TripleStore:
    if backend == "sharded":
        return TripleStore(triples_from_tuples(rows),
                           backend=ShardedBackend(n_shards=2))
    if backend == "set":
        return TripleStore(triples_from_tuples(rows),
                           backend=kg_oracle.SetBackend())
    return TripleStore(triples_from_tuples(rows), backend=backend)


def _binding_set(rows):
    return {frozenset(binding.items()) for binding in rows}


SAMPLE_ROWS = [
    ("p1", "brandIs", "apple"),
    ("p2", "brandIs", "apple"),
    ("p3", "brandIs", "tesla"),
    ("p1", "placeOfOrigin", "china"),
    ("p2", "placeOfOrigin", "china"),
    ("p3", "placeOfOrigin", "america"),
    ("apple", "headquartersIn", "america"),
    ("tesla", "headquartersIn", "america"),
]

SAMPLE_QUERIES = [
    PatternQuery.from_patterns([("?p", "brandIs", "apple")], select=["?p"]),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?b", "headquartersIn", "?c")]),
    PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                ("?b", "headquartersIn", "?c"),
                                ("?p", "placeOfOrigin", "china")],
                               select=["?p", "?c"]),
    PatternQuery.from_patterns([("?a", "?r", "america")]),
    PatternQuery.from_patterns([("?p", "placeOfOrigin", "?x"),
                                ("?b", "headquartersIn", "?x")]),
    PatternQuery.from_patterns([("p1", "brandIs", "apple"),
                                ("?p", "placeOfOrigin", "?where")]),
    PatternQuery.from_patterns([("?p", "brandIs", "nokia")]),
    PatternQuery.from_patterns([]),
]


@pytest.mark.parametrize("backend", BACKENDS)
def test_id_executor_matches_backtracking_on_samples(backend):
    engine = QueryEngine(_store(SAMPLE_ROWS, backend))
    for query in SAMPLE_QUERIES:
        for reorder in (True, False):
            auto = engine.execute(query, reorder=reorder)
            legacy = kg_oracle.execute(engine.store, query, reorder=reorder)
            assert _binding_set(auto) == _binding_set(legacy), query


@pytest.mark.parametrize("backend", BACKENDS)
def test_id_strategy_explicitly(backend):
    """The ID-space executor run on a plan directly, without the facade."""
    store = _store(SAMPLE_ROWS, backend)
    plan = plan_query(store, SAMPLE_QUERIES[2])
    assert _binding_set(execute_plan(store, plan)) == \
        _binding_set(kg_oracle.execute_backtracking(store, plan))


#: ``brandIs`` and ``r`` are relations AND entities here, so a variable
#: binding in both positions has non-empty answers.
MIXED_ROWS = SAMPLE_ROWS + [("brandIs", "r", "x"), ("p1", "r", "brandIs"),
                            ("r", "r", "p2")]

MIXED_QUERIES = [
    # ?m binds a relation in the first pattern and an entity in the second.
    PatternQuery.from_patterns([("?p", "?m", "apple"), ("?m", "r", "?t")]),
    # ... and the other way round: entity first, relation second.
    PatternQuery.from_patterns([("?p", "r", "?m"), ("?x", "?m", "?t")],
                               select=["?m", "?t"]),
    # Relation and head of the same pattern.
    PatternQuery.from_patterns([("?m", "?m", "?t")]),
    # A relation that is no entity (``headquartersIn``) cannot bind.
    PatternQuery.from_patterns([("?a", "?m", "america"), ("?m", "?r", "?t")]),
]


def test_mixed_kind_variable_answered_in_id_space(tmp_path):
    """A variable in entity AND relation positions gets the oracle's
    answers from the ID-space executor (id-backed cursors, no fallback)."""
    reference = _store(MIXED_ROWS, "set")
    expected = [_binding_set(kg_oracle.execute(reference, query))
                for query in MIXED_QUERIES]
    assert expected[0] == {
        frozenset({("?p", "p1"), ("?m", "brandIs"), ("?t", "x")}),
        frozenset({("?p", "p2"), ("?m", "brandIs"), ("?t", "x")})}
    assert expected[1] == {frozenset({("?m", "brandIs"), ("?t", "apple")}),
                           frozenset({("?m", "brandIs"), ("?t", "tesla")})}
    assert expected[2] == {frozenset({("?m", "r"), ("?t", "p2")})}
    assert expected[3] == set()
    _store(MIXED_ROWS, "columnar").save(tmp_path / "store")
    stores = {backend: _store(MIXED_ROWS, backend) for backend in BACKENDS}
    stores["reopened"] = TripleStore.open(tmp_path / "store")
    for name, store in stores.items():
        engine = QueryEngine(store)
        for reorder in (True, False):
            assert [_binding_set(rows) for rows in engine.execute_many(
                MIXED_QUERIES, reorder=reorder)] == expected, (name, reorder)
            for query, answer in zip(MIXED_QUERIES, expected):
                cursor = engine.cursor(query, reorder=reorder)
                assert cursor.id_backed == bool(answer)
                assert _binding_set(cursor.fetch_all()) == answer


def test_repeated_variable_within_pattern():
    rows = SAMPLE_ROWS + [("loop", "r", "loop"), ("a", "r", "b")]
    for backend in BACKENDS:
        engine = QueryEngine(_store(rows, backend))
        query = PatternQuery.from_patterns([("?x", "r", "?x")])
        assert engine.execute(query) == [{"?x": "loop"}]
        assert kg_oracle.execute(engine.store, query) == [{"?x": "loop"}]


def test_cartesian_product_between_disjoint_patterns():
    for backend in BACKENDS:
        engine = QueryEngine(_store(SAMPLE_ROWS, backend))
        query = PatternQuery.from_patterns([("?p", "brandIs", "apple"),
                                            ("?b", "headquartersIn", "?c")])
        auto = engine.execute(query)
        legacy = kg_oracle.execute(engine.store, query)
        assert _binding_set(auto) == _binding_set(legacy)
        assert len(auto) == 4  # 2 apple products x 2 headquarters

# --------------------------------------------------------------------------- #
# select validation (the silently-dropped-variable bugfix)
# --------------------------------------------------------------------------- #
#: ``auto`` is the engine's ID-space path, ``backtracking`` the oracle.
EVALUATORS = {"auto": lambda store, query: QueryEngine(store).execute(query),
              "backtracking": kg_oracle.execute}


@pytest.mark.parametrize("evaluator", EVALUATORS.values(),
                         ids=EVALUATORS.keys())
def test_select_unknown_variable_raises_naming_it(evaluator):
    store = _store(SAMPLE_ROWS, "columnar")
    query = PatternQuery.from_patterns([("?p", "brandIs", "apple")],
                                       select=["?p", "?brand"])
    with pytest.raises(QueryError, match=r"\?brand"):
        evaluator(store, query)


def test_select_non_variable_raises():
    engine = QueryEngine(_store(SAMPLE_ROWS, "columnar"))
    query = PatternQuery.from_patterns([("?p", "brandIs", "apple")],
                                       select=["p"])
    with pytest.raises(QueryError, match="not a variable"):
        engine.execute(query)


def test_select_projection_dedupes():
    for backend in BACKENDS:
        engine = QueryEngine(_store(SAMPLE_ROWS, backend))
        query = PatternQuery.from_patterns([("?p", "placeOfOrigin", "china"),
                                            ("?p", "brandIs", "?b")],
                                           select=["?b"])
        assert engine.execute(query) == [{"?b": "apple"}]


# --------------------------------------------------------------------------- #
# planner
# --------------------------------------------------------------------------- #
def test_plan_orders_by_selectivity():
    store = _store(SAMPLE_ROWS, "columnar")
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                        ("?b", "headquartersIn", "america"),
                                        ("?p", "placeOfOrigin", "china")])
    plan = plan_query(store, query)
    counts = [step.count for step in plan.steps]
    assert counts == sorted(counts)
    assert plan.steps[0].pattern != query.patterns[0]
    unordered = plan_query(store, query, reorder=False)
    assert tuple(step.pattern for step in unordered.steps) == query.patterns


def test_plan_many_batches_counts(monkeypatch):
    store = _store(SAMPLE_ROWS, "columnar")
    calls = []
    original = type(store.backend).count_many

    def spy(self, patterns):
        calls.append(len(patterns))
        return original(self, patterns)

    monkeypatch.setattr(type(store.backend), "count_many", spy)
    queries = [SAMPLE_QUERIES[1], SAMPLE_QUERIES[2], SAMPLE_QUERIES[4]]
    plan_queries(store, queries)
    assert calls == [sum(len(query.patterns) for query in queries)]


# --------------------------------------------------------------------------- #
# reopened (on-disk) stores
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", ("columnar", "sharded"))
def test_executor_parity_on_reopened_store(tmp_path, backend):
    store = _store(SAMPLE_ROWS, backend)
    store.save(tmp_path / backend)
    reopened = TripleStore.open(tmp_path / backend)
    engine = QueryEngine(reopened)
    memory_engine = QueryEngine(store)
    for query in SAMPLE_QUERIES:
        expected = _binding_set(kg_oracle.execute(memory_engine.store, query))
        assert _binding_set(engine.execute(query)) == expected
        assert _binding_set(kg_oracle.execute(reopened, query)) == expected


# --------------------------------------------------------------------------- #
# property test: random stores, random queries, every backend
# --------------------------------------------------------------------------- #
# ``r`` and ``s`` are entities as well as relations, so a variable that
# binds in both positions has non-empty answers.
_ENTITIES = ("a", "b", "r", "s")
_RELATIONS = ("r", "s")
_VARIABLES = ("?x", "?y", "?z")

_triples_strategy = st.lists(
    st.tuples(st.sampled_from(_ENTITIES), st.sampled_from(_RELATIONS),
              st.sampled_from(_ENTITIES)),
    min_size=1, max_size=18)

_entity_term = st.sampled_from(_ENTITIES + _VARIABLES)
_relation_term = st.sampled_from(_RELATIONS + _VARIABLES)

_query_strategy = st.lists(
    st.tuples(_entity_term, _relation_term, _entity_term),
    min_size=1, max_size=3)


@settings(max_examples=60, deadline=None)
@given(rows=_triples_strategy, patterns=_query_strategy,
       select_bits=st.integers(min_value=0, max_value=7))
def test_property_id_executor_bit_identical_binding_sets(rows, patterns,
                                                         select_bits):
    """Property: ID-space binding sets equal the oracle's everywhere.

    Random small stores and random conjunctive queries (including
    relation variables, repeated variables and variables that mix
    entity/relation positions), on every backend, against the
    backtracking oracle over the dict-of-set store.  ``select``
    projects a random subset of the bound variables.
    """
    query = PatternQuery.from_patterns(patterns)
    variables = query.variables()
    select = [var for bit, var in enumerate(variables) if select_bits >> bit & 1]
    query = PatternQuery.from_patterns(patterns, select=select)
    reference = _binding_set(kg_oracle.execute(_store(rows, "set"), query))
    mixed = {pattern[1] for pattern in patterns} & \
        {term for pattern in patterns for term in (pattern[0], pattern[2])} & \
        set(_VARIABLES)
    if mixed:
        event("mixed-kind, " + ("non-empty" if reference else "empty"))
    for backend in BACKENDS:
        engine = QueryEngine(_store(rows, backend))
        assert _binding_set(engine.execute(query)) == reference, backend


# --------------------------------------------------------------------------- #
# limit + cursor (the streaming surface the network layer pages over)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize("backend", BACKENDS)
def test_limit_is_a_prefix_of_the_unlimited_result(backend):
    engine = QueryEngine(_store(SAMPLE_ROWS, backend))
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b"),
                                        ("?p", "placeOfOrigin", "?where")])
    full = engine.execute(query)
    for limit in (1, 2, len(full), len(full) + 10):
        assert engine.execute(query, limit=limit) == full[:limit]
    # The cap can also live on the query itself (how it crosses the wire).
    capped = PatternQuery.from_patterns(query.patterns, limit=2)
    assert engine.execute(capped) == full[:2]


# The planner refuses a bad limit before anything executes, so the check
# holds over the reference store as well.
@pytest.mark.parametrize("backend", BACKENDS + ("set",))
def test_limit_zero_and_negative_raise(backend):
    engine = QueryEngine(_store(SAMPLE_ROWS, backend))
    query = PatternQuery.from_patterns([("?p", "brandIs", "?b")])
    for bad in (0, -1, True):
        with pytest.raises(QueryError, match="limit"):
            engine.execute(query, limit=bad)


@pytest.mark.parametrize("backend", BACKENDS)
def test_cursor_pages_reassemble_execute_exactly(backend):
    from repro.errors import CursorError

    engine = QueryEngine(_store(SAMPLE_ROWS, backend))
    for query in SAMPLE_QUERIES:
        full = engine.execute(query)
        for page_size in (1, 2, 100):
            cursor = engine.cursor(query)
            assert cursor.total_rows == len(full)
            rows = []
            while not cursor.exhausted:
                rows.extend(cursor.fetch(page_size))
            assert rows == full, (query, page_size)
            assert cursor.fetch(page_size) == []  # exhausted, not an error
    cursor = engine.cursor(SAMPLE_QUERIES[0])
    with pytest.raises(CursorError, match="positive"):
        cursor.fetch(0)
    cursor.close()
    cursor.close()  # engine-level close is idempotent (service adds typing)
    with pytest.raises(CursorError, match="closed"):
        cursor.fetch(1)


def test_cursor_many_shares_one_batched_execution():
    engine = QueryEngine(_store(SAMPLE_ROWS, "columnar"))
    cursors = engine.cursor_many(SAMPLE_QUERIES[:4], limit=3)
    results = engine.execute_many(SAMPLE_QUERIES[:4], limit=3)
    assert [cursor.fetch_all() for cursor in cursors] == results


def test_limit_validation_lives_in_the_planner():
    from repro.kg.planner import validate_limit

    validate_limit(None)
    validate_limit(5)
    for bad in (0, -3, True, 2.5, "10"):
        with pytest.raises(QueryError):
            validate_limit(bad)
