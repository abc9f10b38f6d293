"""In-memory span recording around the public calls of each layer.

Nothing here is imported by ``src/``: :func:`install` monkey-patches
the layer entry points (client, protocol, server, service, planner,
executor, store, WAL, cluster, pipeline stages) with thin wrappers that
record one span per call.  A span is ``[sid, parent, name, start, end,
tid, extra]``; ``start``/``end`` are ``time.perf_counter()`` values,
which on Linux read the system-wide monotonic clock, so spans recorded
by different processes on one machine share a time base.  Spans stay
in memory and are written out once, by :meth:`Tracer.dump`.

Spans of one request are linked by:

* ``parent`` - the enclosing span on the same thread;
* ``extra["port"]``/``extra["id"]`` - the client's local port and wire
  request id, recorded on the client's ``client.call`` span and on the
  server's ``server.frame`` span (the server sees the client's local
  port as its peer port);
* ``extra["serial"]``/``extra["serials"]`` - a ``service.request`` span
  (submit until its future resolves) and the dispatcher's
  ``service.batch`` span that served it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, List, Optional

now = time.perf_counter

# Field positions of a span list.
SID, PARENT, NAME, START, END, TID, EXTRA = range(7)


class Tracer:
    """Records spans for wrapped calls; one instance per process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[tuple] = []
        self._serials: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    # span stack
    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Optional[list]:
        stack = self._stack()
        return stack[-1] if stack else None

    def span(self, name: str, **extra) -> "_SpanContext":
        """Context manager recording a span around a block of code."""
        return _SpanContext(self, name, extra)

    def _open(self, name: str, extra: Optional[dict]) -> list:
        stack = self._stack()
        parent = stack[-1][SID] if stack else None
        span = [next(self._ids), parent, name, now(), None,
                threading.get_ident(), extra]
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = now()
        self._stack().pop()
        self.spans.append(span)

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def wrap(self, owner, attr: str, name: str, *,
             annotate: Optional[Callable] = None,
             outermost: bool = False) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``annotate(span, args, kwargs, result)`` may fill ``span[EXTRA]``
        after a successful call.  With ``outermost`` a call nested in a
        span of the same name on this thread records nothing (a backend
        method that calls its base class is one fetch, not two).
        """
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if outermost and any(open_span[NAME] == name
                                 for open_span in self._stack()):
                return original(*args, **kwargs)
            span = self._open(name, {})
            try:
                result = original(*args, **kwargs)
                if annotate is not None:
                    annotate(span, args, kwargs, result)
                return result
            finally:
                self._close(span)

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def wrap_enqueue(self, service_class) -> None:
        """``service.request`` spans: from enqueue until the future resolves."""
        original = service_class._enqueue

        @functools.wraps(original)
        def wrapper(service, request):
            parent = self.current()
            span = [next(self._ids), parent[SID] if parent else None,
                    "service.request", now(), None, threading.get_ident(),
                    {"kind": request.kind}]
            serial = span[SID]
            span[EXTRA]["serial"] = serial
            # Registered before the enqueue: the dispatcher may take the
            # request (and look its serial up) before enqueue returns.
            self._serials[id(request.future)] = serial
            future = original(service, request)

            def finished(_future, span=span):
                span[END] = now()
                self.spans.append(span)

            future.add_done_callback(finished)
            return future

        service_class._enqueue = wrapper
        self._undo.append((service_class, "_enqueue", original))

    def batch_serials(self, batch) -> List[int]:
        """Serials of the queued requests a dispatcher batch serves."""
        return [self._serials.pop(id(request.future), 0) for request in batch]

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def dump(self, path) -> None:
        """Write every finished span as one JSON document."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([span for span in self.spans if span[END] is not None],
                      handle, separators=(",", ":"))


class _SpanContext:
    __slots__ = ("tracer", "name", "extra", "record")

    def __init__(self, tracer: Tracer, name: str, extra: dict) -> None:
        self.tracer, self.name, self.extra = tracer, name, extra
        self.record = None

    def __enter__(self) -> list:
        self.record = self.tracer._open(self.name, self.extra)
        return self.record

    def __exit__(self, *_exc) -> None:
        self.tracer._close(self.record)


# ---------------------------------------------------------------------- #
# annotations
# ---------------------------------------------------------------------- #
def _set(span: list, **values) -> None:
    span[EXTRA].update(values)


def _rows_of_encode(span, args, _kwargs, result) -> None:
    items = args[3]
    rows = sum(len(item[1]) for item in items if item[0] == "block")
    _set(span, rows=rows, bytes=len(result))


def _rows_of_decode(span, args, _kwargs, result) -> None:
    value = result.get("result")
    values = value if isinstance(value, list) else [value]
    rows = 0
    for item in values:
        if isinstance(item, dict):
            item = item.get("rows")
        if hasattr(item, "to_rows"):
            rows += len(item)
    _set(span, rows=rows, bytes=len(args[1]))


def _count_first_arg(span, args, _kwargs, _result) -> None:
    _set(span, n=len(args[1]))


def _rows_of_fetch(span, args, _kwargs, result) -> None:
    _set(span, n=len(args[1]), rows=sum(len(rows) for rows in result))


def _rows_of_execute(span, args, _kwargs, result) -> None:
    _set(span, n=len(args[1]),
         rows=sum(cursor.total_rows for cursor in result))


def install(tracer: Tracer) -> Tracer:
    """Wrap every layer entry point the benchmark reports on."""
    from repro.benchmark.builders import BenchmarkBuilder
    from repro.construction import pipeline
    from repro.embedding import KGETrainer, LinkPredictionEvaluator
    from repro.kg import client, server, service
    from repro.kg.backend import ColumnarBackend, _BatchedQueriesMixin
    from repro.kg.cluster import ClusterBackend
    from repro.kg.graph import KnowledgeGraph
    from repro.kg.protocol import BinaryResponseDecoder, BinaryResponseEncoder
    from repro.kg.sharded_backend import ShardedBackend
    from repro.kg.store import TripleStore
    from repro.kg.wal import WriteAheadLog
    from repro.ontology.validation import OntologyValidator

    wrap = tracer.wrap

    # client: one span per call; the round trip tags it with the
    # (local port, request id) key the server's frame span also carries.
    wrap(client.RemoteClient, "call", "client.call")
    roundtrip = client.RemoteClient._roundtrip

    @functools.wraps(roundtrip)
    def tagged_roundtrip(remote, message):
        port = remote._sock.getsockname()[1]
        response = roundtrip(remote, message)
        span = tracer.current()
        if span is not None and span[NAME] == "client.call":
            _set(span, port=port, id=message.get("id"))
        return response

    client.RemoteClient._roundtrip = tagged_roundtrip
    tracer._undo.append((client.RemoteClient, "_roundtrip", roundtrip))

    # protocol
    wrap(BinaryResponseEncoder, "encode", "protocol.encode",
         annotate=_rows_of_encode)
    wrap(BinaryResponseDecoder, "decode", "protocol.decode",
         annotate=_rows_of_decode)
    wrap(client, "encode_tagged_json", "protocol.encode_request")
    wrap(client, "encode_frame", "protocol.encode_request")
    wrap(client, "decode_json_body", "protocol.decode_json")
    wrap(server, "decode_json_body", "protocol.decode_request")
    wrap(server, "encode_tagged_json", "protocol.encode_json")
    wrap(server, "encode_frame", "protocol.encode_json")

    # server: the frame span carries the peer port, the handle span
    # copies the request id onto it.
    frame = server.KGServer._serve_frame

    @functools.wraps(frame)
    def traced_frame(kg_server, conn, entry):
        peer = conn.peer
        with tracer.span("server.frame",
                         port=peer[1] if isinstance(peer, tuple) else None):
            return frame(kg_server, conn, entry)

    server.KGServer._serve_frame = traced_frame
    tracer._undo.append((server.KGServer, "_serve_frame", frame))

    def request_id(span, args, _kwargs, _result) -> None:
        message = args[1]
        stack = tracer._stack()
        parent = stack[-2] if len(stack) > 1 else None
        if parent is not None and parent[NAME] == "server.frame":
            _set(parent, id=message.get("id"), op=message.get("op"))
        _set(span, op=message.get("op"))

    wrap(server.KGServer, "handle_message", "server.handle",
         annotate=request_id)

    # service: request spans end when their future resolves; the batch
    # span lists the requests it served.
    tracer.wrap_enqueue(service.QueryService)
    serve = service.QueryService._serve

    @functools.wraps(serve)
    def traced_serve(query_service, batch):
        with tracer.span("service.batch",
                         serials=tracer.batch_serials(batch)):
            return serve(query_service, batch)

    service.QueryService._serve = traced_serve
    tracer._undo.append((service.QueryService, "_serve", serve))
    wrap(service.QueryService, "compact", "service.compact")

    # planner / executor, as the service module references them
    wrap(service, "plan_queries", "planner.plan", annotate=_count_first_arg)
    wrap(service, "execute_plans_cursors", "executor.execute",
         annotate=_rows_of_execute)

    # store: batched fetches, writes, scalar reads
    for backend in (ColumnarBackend, ShardedBackend):
        wrap(backend, "match_ids_many", "store.fetch",
             annotate=_rows_of_fetch, outermost=True)
    for backend in (_BatchedQueriesMixin, ShardedBackend):
        wrap(backend, "count_many", "store.fetch",
             annotate=_count_first_arg, outermost=True)
    wrap(TripleStore, "add_many", "store.write", outermost=True)
    wrap(TripleStore, "remove_many", "store.write", outermost=True)
    for method in ("match", "tails", "heads", "count", "degree",
                   "__contains__", "tails_many", "match_many"):
        wrap(TripleStore, method, "store.scalar", outermost=True)
    for method in ("parents", "children", "ancestors", "descendants",
                   "is_subclass_of", "instances_of", "types_of",
                   "taxonomy_depth", "leaves_under"):
        wrap(KnowledgeGraph, method, "store.graph", outermost=True)

    # WAL
    append = WriteAheadLog.append

    @functools.wraps(append)
    def traced_append(log, op, triples):
        with tracer.span("wal.append") as span:
            before = log._file.tell() if log._file is not None else 0
            seq = append(log, op, triples)
            _set(span, bytes=log._file.tell() - before, triples=len(triples))
            return seq

    WriteAheadLog.append = traced_append
    tracer._undo.append((WriteAheadLog, "append", append))
    wrap(TripleStore, "compact", "wal.compact")

    # cluster coordinator
    wrap(ClusterBackend, "match_ids_many", "cluster.fetch",
         annotate=_rows_of_fetch)
    wrap(ClusterBackend, "count_many", "cluster.fetch",
         annotate=_count_first_arg)

    # paper pipeline stages
    wrap(pipeline, "generate_catalog", "datagen.catalog")
    wrap(pipeline.OpenBGBuilder, "build", "construction.build")
    wrap(OntologyValidator, "validate", "ontology.validate")
    wrap(BenchmarkBuilder, "build_suite", "benchmark.sample")
    wrap(KGETrainer, "fit", "embedding.train")
    wrap(LinkPredictionEvaluator, "evaluate", "embedding.eval")
    return tracer
