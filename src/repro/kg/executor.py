"""Query execution: vectorized joins in ID space.

The counterpart of :mod:`repro.kg.planner`.  :func:`execute_plan` /
:func:`execute_plans` evaluate a :class:`~repro.kg.planner.QueryPlan`.
Each pattern's constants are interned once; the pattern is fetched as
one ``(k, 3)`` int64 block from the backend's CSR indexes (the batched
:meth:`match_ids_many`); the binding frontier is a set of parallel
numpy id columns (one per variable) that each step extends with a
vectorized hash join — factorize the shared-variable key columns, sort
one side, ``searchsorted`` the other, expand matches with
``repeat``/``cumsum`` arithmetic.  Strings appear exactly once, at
projection.  ``execute_plans`` runs a batch of plans in lockstep so
every round's pattern fetches collapse into a single ``match_ids_many``
call (which the sharded backend routes per shard).

Entity and relation ids are different spaces.  A variable that binds in
both entity and relation positions (``(?p, ?m, x), (?m, r, ?t)``) has
the entity kind; before a step whose relation term is such a variable
joins, its block's relation column is mapped through a relation-id →
entity-id array (the entity id of the same symbol, ``-1`` where the
symbol is no entity) and the ``-1`` rows are dropped — a relation that
is not also an entity can never satisfy the variable's entity-position
patterns.  The array is built only for batches that contain such a
variable.

The binding *set* equals that of a symbol-level evaluator extending one
binding at a time; row order is executor-defined (deterministic for a
deterministic store).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CursorError
from repro.kg.backend import IdPattern
from repro.kg.planner import (
    ENTITY,
    PatternStep,
    QueryPlan,
    is_variable,
)
from repro.kg.store import TripleStore

Binding = Dict[str, str]


# --------------------------------------------------------------------------- #
# ID-space executor
# --------------------------------------------------------------------------- #
@dataclass
class _Frontier:
    """The binding frontier: one int64 id column per bound variable.

    ``num_rows`` tracks the row count explicitly so the empty-variable
    start state (one row binding nothing) is representable.
    """

    num_rows: int = 1
    columns: Dict[str, np.ndarray] = field(default_factory=dict)


@dataclass
class _PlanState:
    """Progress of one plan through the lockstep batched execution."""

    plan: QueryPlan
    resolved: List[IdPattern]           # per step, constants interned
    frontier: _Frontier
    step_index: int = 0
    failed: bool = False                # unknown constant or empty join

    def done(self) -> bool:
        return self.failed or self.step_index >= len(self.plan.steps)


def _resolve_constants(backend, plan: QueryPlan) -> Optional[List[IdPattern]]:
    """Intern every step's constants once; ``None`` if any is unknown."""
    entity_lookup = backend.entity_interner.lookup
    relation_lookup = backend.relation_interner.lookup
    resolved: List[IdPattern] = []
    for step in plan.steps:
        ids: List[Optional[int]] = []
        for position, constant in enumerate(step.constants):
            if constant is None:
                ids.append(None)
                continue
            lookup = relation_lookup if position == 1 else entity_lookup
            identifier = lookup(constant)
            if identifier is None:
                return None
            ids.append(identifier)
        resolved.append((ids[0], ids[1], ids[2]))
    return resolved


def _pattern_columns(step: PatternStep,
                     block: np.ndarray) -> Tuple[np.ndarray, Dict[str, int]]:
    """Filter repeated-variable rows; map each variable to its column.

    A variable occurring twice in one pattern (``(?x, r, ?x)``) keeps
    only rows where the occurrences agree; the surviving first position
    becomes the variable's column.
    """
    var_position: Dict[str, int] = {}
    for position, name in step.variables:
        first = var_position.setdefault(name, position)
        if first != position and len(block):
            block = block[block[:, first] == block[:, position]]
    return block, var_position


def _factorize_pair(left: np.ndarray, right: np.ndarray,
                    left_extra: np.ndarray, right_extra: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Combine two key columns into one joint group-id column per side."""
    num_left = len(left)
    pair = np.empty((num_left + len(right), 2), dtype=np.int64)
    pair[:num_left, 0] = left
    pair[:num_left, 1] = left_extra
    pair[num_left:, 0] = right
    pair[num_left:, 1] = right_extra
    _, inverse = np.unique(pair, axis=0, return_inverse=True)
    inverse = inverse.reshape(-1)
    return inverse[:num_left], inverse[num_left:]


def _join_indices(left_keys: Sequence[np.ndarray],
                  right_keys: Sequence[np.ndarray]
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Row-index pairs (left_row, right_row) where all key columns match.

    Multi-column keys collapse to one int64 group-id column per side:
    mixed-radix packing (``gid * base + column`` with ``base`` = the
    column's value range, identical on both sides so ids stay
    comparable) while the product of ranges fits int64, falling back to
    pairwise ``np.unique`` factorization over both sides at once beyond
    that.  The right side is then sorted by group id and every left row
    expands to its matching right range via ``searchsorted`` +
    ``repeat``/``cumsum`` arithmetic.  Pure numpy; no Python-level
    per-row work.
    """
    left_gid, right_gid = left_keys[0], right_keys[0]
    for left_extra, right_extra in zip(left_keys[1:], right_keys[1:]):
        base = 1 + max(int(left_extra.max()) if len(left_extra) else 0,
                       int(right_extra.max()) if len(right_extra) else 0)
        widest = max(int(left_gid.max()) if len(left_gid) else 0,
                     int(right_gid.max()) if len(right_gid) else 0)
        if widest < (1 << 62) // base:
            left_gid = left_gid * base + left_extra
            right_gid = right_gid * base + right_extra
        else:  # pragma: no cover - needs ~2^62 distinct key combinations
            left_gid, right_gid = _factorize_pair(left_gid, right_gid,
                                                  left_extra, right_extra)
    order = np.argsort(right_gid, kind="stable")
    sorted_gid = right_gid[order]
    lo = np.searchsorted(sorted_gid, left_gid, side="left")
    hi = np.searchsorted(sorted_gid, left_gid, side="right")
    counts = hi - lo
    total = int(counts.sum())
    left_rows = np.repeat(np.arange(len(left_gid), dtype=np.int64), counts)
    if not total:
        return left_rows, np.zeros(0, dtype=np.int64)
    # right rows: for each left row i, the slice order[lo[i]:hi[i]].
    prefix = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=prefix[1:])
    within = np.arange(total, dtype=np.int64) - np.repeat(prefix, counts)
    right_rows = order[np.repeat(lo, counts) + within]
    return left_rows, right_rows


def _maps_relation(plan: QueryPlan, step: PatternStep) -> bool:
    """True when the step's relation term is a variable of entity kind."""
    term = step.pattern[1]
    return is_variable(term) and plan.var_kinds.get(term) == ENTITY


def _relation_to_entity_ids(backend) -> np.ndarray:
    """Entity id of each relation id's symbol, ``-1`` where there is none."""
    lookup = backend.entity_interner.lookup
    return np.array([-1 if (identifier := lookup(symbol)) is None
                     else identifier
                     for symbol in backend.relation_interner.symbol_table()],
                    dtype=np.int64)


def _advance(state: _PlanState, block: np.ndarray,
             relation_as_entity: Optional[np.ndarray]) -> None:
    """Join the current step's matched block into the frontier."""
    step = state.plan.steps[state.step_index]
    state.step_index += 1
    if relation_as_entity is not None and _maps_relation(state.plan, step):
        mapped = relation_as_entity[block[:, 1]]
        keep = mapped >= 0
        block = block[keep]
        block[:, 1] = mapped[keep]
    block, var_position = _pattern_columns(step, block)
    frontier = state.frontier
    shared = [name for name in var_position if name in frontier.columns]
    fresh = [name for name in var_position if name not in frontier.columns]
    num_rows, num_matches = frontier.num_rows, len(block)
    if not num_matches or not num_rows:
        state.failed = True
        return
    if shared:
        left_rows, right_rows = _join_indices(
            [frontier.columns[name] for name in shared],
            [block[:, var_position[name]] for name in shared])
    else:
        # No shared variables: cartesian product — every binding pairs
        # with every match.
        left_rows = np.repeat(np.arange(num_rows, dtype=np.int64), num_matches)
        right_rows = np.tile(np.arange(num_matches, dtype=np.int64), num_rows)
    if not len(left_rows):
        state.failed = True
        return
    columns = {name: column[left_rows]
               for name, column in frontier.columns.items()}
    for name in fresh:
        columns[name] = block[right_rows, var_position[name]]
    state.frontier = _Frontier(num_rows=len(left_rows), columns=columns)


def _unique_rows(stacked: np.ndarray) -> np.ndarray:
    """Deduplicate a (n, k) row block (order: lexicographic by id)."""
    if len(stacked) <= 1:
        return stacked
    order = np.lexsort(stacked.T[::-1])
    stacked = stacked[order]
    keep = np.empty(len(stacked), dtype=bool)
    keep[0] = True
    np.any(stacked[1:] != stacked[:-1], axis=1, out=keep[1:])
    return stacked[keep]


def _stringify_rows(backend, kinds: Sequence[str], names: Sequence[str],
                    rows: np.ndarray) -> List[Binding]:
    """Materialize id rows as string bindings — the only string step."""
    tables = [backend.entity_interner.symbol_table() if kind == "e"
              else backend.relation_interner.symbol_table()
              for kind in kinds]
    return [{name: table[identifier]
             for name, table, identifier in zip(names, tables, row)}
            for row in rows.tolist()]


def _stringify_triples(backend, rows: np.ndarray) -> List["Triple"]:
    """Materialize (head, relation, tail) id rows as :class:`Triple`\\ s."""
    from repro.kg.triple import Triple
    entities = backend.entity_interner.symbol_table()
    relations = backend.relation_interner.symbol_table()
    unchecked = Triple.unchecked
    return [unchecked(entities[h], relations[r], entities[t])
            for h, r, t in rows.tolist()]


@dataclass(frozen=True)
class IdBlock:
    """One page of results in id space — the binary wire codec's unit.

    ``rows`` is a ``(n, k)`` int64 block; ``kinds`` says which interner
    space each column's ids live in (``"e"`` entities, ``"r"``
    relations).  Bindings blocks carry the variable ``names``; triples
    blocks (``triples=True``) are always ``(head, relation, tail)`` and
    ship no names.  The server-side
    :class:`~repro.kg.protocol.BinaryResponseEncoder` consumes these
    attributes directly, so the binary path never stringifies a row.
    """

    names: Tuple[str, ...]
    kinds: Tuple[str, ...]
    rows: np.ndarray
    triples: bool = False

    def __len__(self) -> int:
        return len(self.rows)


class ResultCursor:
    """Pages over one query's results without re-running the query.

    The ID-space executor hands a cursor the **deduplicated id-row
    projection** — a compact ``(n, k)`` int64 block plus the plan it
    came from — and each :meth:`fetch` stringifies only the rows of the
    page it returns, so a huge result set never materializes all its
    binding dicts at once.  Empty and no-variable results page over an
    already-built list via :meth:`from_list`; either way the paging
    surface is identical.

    Cursors are single-consumer and not thread-safe;
    :class:`~repro.kg.service.QueryService` serializes access for its
    remote-cursor table.  A query ``limit`` is applied once, at cursor
    creation, so paging happens *within* the cap.
    """

    __slots__ = ("_backend", "_kinds", "_names", "_rows", "_triples",
                 "_position", "_closed")

    def __init__(self, backend, names: Sequence[str],
                 kinds: Sequence[str], rows, *,
                 triples: bool = False) -> None:
        self._backend = backend
        self._names = tuple(names)
        self._kinds = tuple(kinds)           # 'e' / 'r' per column
        self._rows = rows                    # (n, k) int64 block or list
        self._triples = triples
        self._position = 0
        self._closed = False

    @classmethod
    def from_list(cls, items: Sequence) -> "ResultCursor":
        """Wrap pre-materialized results (bindings, triples, rows...)."""
        return cls(None, (), (), list(items))

    @classmethod
    def from_triple_ids(cls, backend, rows: np.ndarray) -> "ResultCursor":
        """Page over a ``(n, 3)`` (head, relation, tail) id block."""
        return cls(backend, (), ("e", "r", "e"), rows, triples=True)

    @property
    def total_rows(self) -> int:
        """How many result rows the cursor covers (limit already applied)."""
        return len(self._rows) if self._rows is not None else 0

    @property
    def position(self) -> int:
        """How many rows have been fetched so far."""
        return self._position

    @property
    def exhausted(self) -> bool:
        """True once every row has been fetched (or the cursor closed)."""
        return self._closed or self._position >= self.total_rows

    def fetch(self, max_rows: int) -> List:
        """Return the next page of at most ``max_rows`` results.

        An empty page means the cursor is exhausted.  ``max_rows`` must
        be positive — a zero/negative page is always a caller bug and
        raises :class:`~repro.errors.CursorError` instead of silently
        spinning forever.
        """
        if self._closed:
            raise CursorError("cursor is closed")
        if not isinstance(max_rows, int) or isinstance(max_rows, bool) \
                or max_rows < 1:
            raise CursorError(
                f"fetch page size must be a positive integer, got {max_rows!r}")
        chunk = self._rows[self._position:self._position + max_rows]
        self._position += len(chunk)
        return self._materialize(chunk)

    def fetch_all(self) -> List:
        """Drain every remaining row in one page (the non-paged path)."""
        if self._closed:
            raise CursorError("cursor is closed")
        chunk = self._rows[self._position:]
        self._position = self.total_rows
        return self._materialize(chunk)

    def _materialize(self, chunk) -> List:
        if not isinstance(chunk, np.ndarray):
            return list(chunk)
        if self._triples:
            return _stringify_triples(self._backend, chunk)
        return _stringify_rows(self._backend, self._kinds, self._names,
                               chunk)

    @property
    def id_backed(self) -> bool:
        """True when pages are available as :class:`IdBlock`\\ s."""
        return isinstance(self._rows, np.ndarray)

    @property
    def block(self) -> Optional[IdBlock]:
        """The cursor's *entire* id-row block, independent of paging state.

        ``None`` for list-backed cursors.  This is what the
        :class:`~repro.kg.service.QueryService` result cache pins: the
        full deduplicated block of a limit-stripped execution, from
        which every per-request limited view is a zero-copy slice.
        """
        if self._closed or not isinstance(self._rows, np.ndarray):
            return None
        return IdBlock(self._names, self._kinds, self._rows,
                       triples=self._triples)

    def fetch_block(self, max_rows: int):
        """The id-space form of :meth:`fetch`: the next page as an
        :class:`IdBlock` when the cursor is id-backed, the materialized
        list otherwise (pre-built results).
        Pagination state is shared with :meth:`fetch` — a caller picks
        one form per page, not per cursor.
        """
        if self._closed:
            raise CursorError("cursor is closed")
        if not isinstance(max_rows, int) or isinstance(max_rows, bool) \
                or max_rows < 1:
            raise CursorError(
                f"fetch page size must be a positive integer, got {max_rows!r}")
        chunk = self._rows[self._position:self._position + max_rows]
        self._position += len(chunk)
        if not isinstance(chunk, np.ndarray):
            return list(chunk)
        return IdBlock(self._names, self._kinds, chunk,
                       triples=self._triples)

    def fetch_all_block(self):
        """Drain the remaining rows as one :class:`IdBlock` (or list)."""
        if self._closed:
            raise CursorError("cursor is closed")
        chunk = self._rows[self._position:]
        self._position = self.total_rows
        if not isinstance(chunk, np.ndarray):
            return list(chunk)
        return IdBlock(self._names, self._kinds, chunk,
                       triples=self._triples)

    def close(self) -> None:
        """Release the row block.  Idempotent; later fetches raise."""
        self._closed = True
        self._rows = []

    def __enter__(self) -> "ResultCursor":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _project_cursor(backend, plan: QueryPlan,
                    frontier: _Frontier) -> ResultCursor:
    """Build the deduplicated, limit-capped id projection for a plan."""
    names = list(plan.select) if plan.select else list(plan.variables)
    limit = plan.query.limit
    if not names:
        rows = [{}] if frontier.num_rows else []
        return ResultCursor.from_list(rows if limit is None else rows[:limit])
    stacked = np.stack([frontier.columns[name] for name in names], axis=1)
    if plan.select:
        stacked = _unique_rows(stacked)
    if limit is not None:
        stacked = stacked[:limit]
    kinds = ["e" if plan.var_kinds.get(name) == ENTITY else "r"
             for name in names]
    return ResultCursor(backend, names, kinds, stacked)


def execute_plans_cursors(store: TripleStore,
                          plans: Sequence[QueryPlan]) -> List[ResultCursor]:
    """Evaluate a batch of plans into one :class:`ResultCursor` each.

    Plans advance in lockstep: each round gathers the current step of
    every live plan into ONE ``match_ids_many`` call (shard-routed on
    the sharded backend), then joins each block into its plan's
    frontier.  Projection is deferred to the cursors: the join
    frontiers are materialized (compact int64 columns), the string
    bindings are not.
    """
    backend = store.backend
    mixed = any(_maps_relation(plan, step)
                for plan in plans for step in plan.steps)
    results: List[Optional[ResultCursor]] = [None] * len(plans)
    states: List[Tuple[int, _PlanState]] = []
    for index, plan in enumerate(plans):
        resolved = _resolve_constants(backend, plan)
        if resolved is None:
            results[index] = ResultCursor.from_list([])
            continue
        states.append((index, _PlanState(plan=plan, resolved=resolved,
                                         frontier=_Frontier())))
    live = [entry for entry in states if not entry[1].done()]
    while live:
        # Dedupe identical id patterns within the round: a batch of
        # related queries (e.g. one per attribute, all sharing a
        # (None, type_id, None) step) fetches each distinct block once.
        requests = [state.resolved[state.step_index] for _index, state in live]
        distinct = list(dict.fromkeys(requests))
        blocks = backend.match_ids_many(distinct)
        by_pattern = dict(zip(distinct, blocks))
        # Built after the fetch: a cluster coordinator interns the
        # symbols its string fallback path brings back.
        relation_as_entity = _relation_to_entity_ids(backend) if mixed \
            else None
        for (_index, state), request in zip(live, requests):
            _advance(state, by_pattern[request], relation_as_entity)
        live = [entry for entry in live if not entry[1].done()]
    for index, state in states:
        results[index] = ResultCursor.from_list([]) if state.failed \
            else _project_cursor(backend, state.plan, state.frontier)
    return results


def execute_plans(store: TripleStore,
                  plans: Sequence[QueryPlan]) -> List[List[Binding]]:
    """Evaluate a batch of plans, multiplexing pattern fetches.

    The materializing form of :func:`execute_plans_cursors`: every
    plan's cursor is drained in one page.
    """
    return [cursor.fetch_all()
            for cursor in execute_plans_cursors(store, plans)]


def execute_plan(store: TripleStore, plan: QueryPlan) -> List[Binding]:
    """Evaluate one plan with the ID-space executor (see :func:`execute_plans`)."""
    return execute_plans(store, [plan])[0]

