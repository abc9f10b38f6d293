"""Per-layer breakdown of a traced run.

Spans from every process of the run (the load generator, servers,
shards, the pipeline worker) are stitched into one request graph:

* explicit parents - the enclosing span on the same thread;
* ``client.call`` -> ``server.frame`` - matched on (client local port,
  wire request id), across processes;
* ``service.request`` -> ``service.batch`` - the dispatcher batch that
  served the request (matched on the request serial);
* an un-parented ``client.call`` on a coordinator's scatter thread ->
  the ``cluster.fetch`` of that process open at its start.

Each root span (one load-generator op, or one pipeline job) is then
swept over its window: every instant goes to the innermost span covering
it, the earliest-started child winning where siblings overlap.  A
layer's self time is the time so attributed to its spans; per request
the layer times sum to the root's duration, so over a run they sum to
the traced end-to-end time by construction.  The check that the wrappers
cover the request is ``trace.unattributed_share``: the share of root
time inside no wrapped call at all (load-generator glue or pipeline
glue), which only the root's own layer can absorb.  A batch served for
several requests counts for each of them: the table shows where
requests waited, not how busy each thread was
(``service.dispatch_busy_ratio`` gives that).
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

LAYERS = ("client", "io", "protocol", "server", "service", "planner",
          "executor", "store", "wal", "cluster", "pipeline", "datagen",
          "construction", "ontology", "benchmark", "embedding")

#: What each layer's self time covers, for the printed table.
LAYER_NOTES = {
    "client": "load generator + RemoteQueryEngine/RemoteStore glue",
    "io": "RemoteClient.call minus codec and server frame: socket, "
          "selector thread, worker-pool handoff",
    "protocol": "request/response encode and decode",
    "server": "KGServer frame + handle_message, minus service wait",
    "service": "QueryService queue wait, batching, result cache",
    "planner": "plan_queries",
    "executor": "execute_plans_cursors minus backend fetches",
    "store": "backend fetches, writes, scalar reads",
    "wal": "WriteAheadLog.append, compaction",
    "cluster": "ClusterBackend fetch minus shard round trips",
    "pipeline": "pipeline glue outside the named stages",
    "datagen": "generate_catalog",
    "construction": "OpenBGBuilder.build minus catalog and validation",
    "ontology": "OntologyValidator.validate minus store reads",
    "benchmark": "BenchmarkBuilder.build_suite",
    "embedding": "KGETrainer.fit + LinkPredictionEvaluator.evaluate",
}


class Span:
    __slots__ = ("pid", "sid", "parent", "name", "start", "end", "tid",
                 "extra", "children")

    def __init__(self, pid: str, row: list) -> None:
        (self.sid, self.parent, self.name, self.start, self.end, self.tid,
         self.extra) = row
        self.pid = pid
        self.extra = self.extra or {}
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        if self.name == "client.call":
            return "io"
        if self.name == "client.op":
            return "client"
        return self.name.split(".", 1)[0]


def load_spans(path, pid: str) -> List[Span]:
    with open(path, encoding="utf-8") as handle:
        return [Span(pid, row) for row in json.load(handle)]


def from_rows(rows: Iterable[list], pid: str) -> List[Span]:
    return [Span(pid, list(row)) for row in rows if row[4] is not None]


def link(spans: Sequence[Span]) -> Dict[str, float]:
    """Build the request graph in place; returns link statistics."""
    by_uid = {(span.pid, span.sid): span for span in spans}
    orphans = []
    for span in spans:
        parent = by_uid.get((span.pid, span.parent)) \
            if span.parent is not None else None
        if parent is not None:
            parent.children.append(span)
        else:
            orphans.append(span)
    frames = {(span.extra.get("port"), span.extra.get("id")): span
              for span in spans if span.name == "server.frame"
              and span.extra.get("id") is not None}
    batches = {}
    for span in spans:
        if span.name == "service.batch":
            for serial in span.extra.get("serials", ()):
                batches[(span.pid, serial)] = span
    fetches: Dict[str, List[Span]] = {}
    for span in spans:
        if span.name == "cluster.fetch":
            fetches.setdefault(span.pid, []).append(span)
    for group in fetches.values():
        group.sort(key=lambda span: span.start)
    starts = {pid: [span.start for span in group]
              for pid, group in fetches.items()}
    calls = linked = 0
    for span in spans:
        if span.name == "client.call":
            calls += 1
            frame = frames.get((span.extra.get("port"), span.extra.get("id")))
            if frame is not None:
                span.children.append(frame)
                linked += 1
        elif span.name == "service.request":
            batch = batches.get((span.pid, span.extra.get("serial")))
            if batch is not None:
                span.children.append(batch)
    for span in orphans:
        if span.name == "client.call" and span.pid in fetches:
            group = fetches[span.pid]
            index = bisect.bisect_right(starts[span.pid], span.start) - 1
            if index >= 0 and group[index].end >= span.start:
                group[index].children.append(span)
    for span in spans:
        span.children.sort(key=lambda child: child.start)
    return {"client_calls": calls, "linked_calls": linked}


def _sweep(span: Span, low: float, high: float, out: Dict[str, float]) -> None:
    low, high = max(low, span.start), min(high, span.end)
    if high <= low:
        return
    cursor = low
    own = 0.0
    for child in span.children:
        child_low, child_high = max(child.start, cursor), min(child.end, high)
        if child_high <= child_low:
            continue
        own += child_low - cursor
        _sweep(child, child_low, child_high, out)
        cursor = child_high
    own += high - cursor
    out[span.layer] = out.get(span.layer, 0.0) + own


def attribute(roots: Sequence[Span]) -> Dict[str, float]:
    """Layer -> self seconds, summed over the windows of ``roots``."""
    out: Dict[str, float] = {}
    for root in roots:
        _sweep(root, root.start, root.end, out)
    return out


def self_time(span: Span) -> float:
    """Duration minus the union of the children's (clipped) intervals."""
    covered = 0.0
    cursor = span.start
    for child in span.children:
        low, high = max(child.start, cursor), min(child.end, span.end)
        if high > low:
            covered += high - low
            cursor = high
    return span.duration - covered


def _named(spans: Iterable[Span], name: str,
           pids: Optional[Sequence[str]] = None) -> List[Span]:
    return [span for span in spans if span.name == name
            and (pids is None or span.pid in pids)]


def _mean(total: float, count: float) -> float:
    return total / count if count else 0.0


def layer_metrics(spans: Sequence[Span], roots: Sequence[Span],
                  links: Dict[str, int], *,
                  bench: str, main: Optional[str] = None,
                  shards: Sequence[str] = (), phase_seconds: float = 0.0,
                  client_ops: int = 0) -> Dict[str, float]:
    """Every per-layer metric this benchmark reports, 0 where idle."""
    main_pids = [main] if main else []
    metrics: Dict[str, float] = {}

    calls = _named(spans, "client.call", [bench])
    metrics["client.calls"] = len(calls)
    metrics["client.call_p50_us"] = np.median(
        [span.duration for span in calls]) * 1e6 if calls else 0.0
    metrics["server.io_p50_us"] = np.median(
        [self_time(span) for span in calls]) * 1e6 if calls else 0.0

    encodes = _named(spans, "protocol.encode", main_pids)
    decodes = _named(spans, "protocol.decode", [bench])
    metrics["protocol.encode_calls"] = len(encodes)
    metrics["protocol.encode_us_per_call"] = _mean(
        sum(span.duration for span in encodes), len(encodes)) * 1e6
    metrics["protocol.decode_us_per_call"] = _mean(
        sum(span.duration for span in decodes), len(decodes)) * 1e6
    metrics["protocol.response_rows"] = sum(
        span.extra.get("rows", 0) for span in encodes)
    metrics["protocol.response_bytes_per_row"] = _mean(
        sum(span.extra.get("bytes", 0) for span in encodes),
        metrics["protocol.response_rows"])

    handles = _named(spans, "server.handle", main_pids)
    metrics["server.handle_p50_us"] = np.median(
        [self_time(span) for span in handles]) * 1e6 if handles else 0.0

    requests = _named(spans, "service.request", main_pids)
    metrics["service.requests"] = len(requests)
    metrics["service.request_p50_us"] = np.median(
        [span.duration for span in requests]) * 1e6 if requests else 0.0
    batches = _named(spans, "service.batch", main_pids)
    busy = sum(child.duration for batch in batches
               for child in batch.children
               if child.layer in ("planner", "executor", "store", "wal",
                                  "cluster"))
    metrics["service.dispatch_busy_ratio"] = _mean(busy, phase_seconds)

    plans = _named(spans, "planner.plan", main_pids)
    metrics["planner.calls"] = len(plans)
    metrics["planner.queries"] = sum(span.extra.get("n", 0) for span in plans)
    metrics["planner.plan_us_per_query"] = _mean(
        sum(span.duration for span in plans), metrics["planner.queries"]) * 1e6

    executes = _named(spans, "executor.execute", main_pids)
    queries = sum(span.extra.get("n", 0) for span in executes)
    returned = sum(span.extra.get("rows", 0) for span in executes)
    fetched = sum(child.extra.get("rows", 0) for span in executes
                  for child in span.children
                  if child.name in ("store.fetch", "cluster.fetch"))
    metrics["executor.queries"] = queries
    metrics["executor.execute_us_per_query"] = _mean(
        sum(self_time(span) for span in executes), queries) * 1e6
    metrics["executor.rows_returned"] = returned
    metrics["executor.rows_fetched_per_row_returned"] = _mean(fetched,
                                                              returned)

    store_pids = main_pids + list(shards)
    store_fetches = _named(spans, "store.fetch", store_pids)
    metrics["store.fetch_calls"] = len(store_fetches)
    metrics["store.fetch_us_per_call"] = _mean(
        sum(span.duration for span in store_fetches), len(store_fetches)) * 1e6
    metrics["store.rows_fetched"] = sum(span.extra.get("rows", 0)
                                        for span in store_fetches)
    scalar_names = ("store.scalar", "store.graph")
    by_key = {(span.pid, span.sid): span for span in spans}
    scalar_top = [span for span in spans if span.name in scalar_names
                  and getattr(by_key.get((span.pid, span.parent)), "name",
                              None) not in scalar_names]
    metrics["store.scalar_calls"] = len(_named(spans, "store.scalar"))
    metrics["store.scalar_s"] = sum(span.duration for span in scalar_top)

    appends = _named(spans, "wal.append")
    metrics["wal.appends"] = len(appends)
    metrics["wal.append_p50_us"] = np.median(
        [span.duration for span in appends]) * 1e6 if appends else 0.0
    metrics["wal.bytes_per_triple"] = _mean(
        sum(span.extra.get("bytes", 0) for span in appends),
        sum(span.extra.get("triples", 0) for span in appends))
    compacts = _named(spans, "service.compact", main_pids)
    metrics["wal.compactions"] = len(compacts)
    metrics["wal.compact_s"] = sum(span.duration for span in compacts)

    cluster_fetches = _named(spans, "cluster.fetch", main_pids)
    metrics["cluster.fetch_calls"] = len(cluster_fetches)
    metrics["cluster.fetch_us_per_call"] = _mean(
        sum(span.duration for span in cluster_fetches),
        len(cluster_fetches)) * 1e6
    metrics["cluster.rounds_per_batch"] = _mean(len(cluster_fetches),
                                                client_ops) \
        if cluster_fetches else 0.0
    shard_handles = _named(spans, "server.handle", list(shards))
    metrics["cluster.shard_handle_p50_us"] = np.median(
        [span.duration for span in shard_handles]) * 1e6 \
        if shard_handles else 0.0

    stage = {name: sum(span.duration for span in _named(spans, name))
             for name in ("datagen.catalog", "construction.build",
                          "ontology.validate", "benchmark.sample",
                          "embedding.train", "embedding.eval")}
    metrics["datagen.catalog_s"] = stage["datagen.catalog"]
    metrics["construction.build_s"] = max(
        0.0, stage["construction.build"] - stage["datagen.catalog"]
        - stage["ontology.validate"])
    metrics["ontology.validate_s"] = stage["ontology.validate"]
    metrics["benchmark.sample_s"] = stage["benchmark.sample"]
    metrics["embedding.train_s"] = stage["embedding.train"]
    metrics["embedding.eval_s"] = stage["embedding.eval"]

    e2e = sum(root.duration for root in roots)
    shares = attribute(roots)
    for layer in LAYERS:
        metrics[f"self.{layer}"] = _mean(shares.get(layer, 0.0), e2e)
    metrics["trace.ops"] = len(roots)
    metrics["trace.e2e_us_per_op"] = _mean(e2e, len(roots)) * 1e6
    # Root time covered by no wrapped call: what the named layers miss.
    metrics["trace.unattributed_share"] = _mean(
        sum(self_time(root) for root in roots), e2e)
    metrics["trace.unlinked_calls"] = links["client_calls"] \
        - links["linked_calls"]
    return metrics


def table(metrics: Dict[str, float]) -> str:
    """The per-layer self-time table for the printed report."""
    lines = [f"{'layer':<13} {'self share':>10} {'us/op':>11}  covers"]
    per_op = metrics.get("trace.e2e_us_per_op", 0.0)
    for layer in LAYERS:
        share = metrics.get(f"self.{layer}", 0.0)
        if share:
            lines.append(f"{layer:<13} {share:>10.4f} {share * per_op:>11.1f}"
                         f"  {LAYER_NOTES[layer]}")
    lines.append(f"{'total':<13} {1.0:>10.4f} {per_op:>11.1f}  over "
                 f"{int(metrics.get('trace.ops', 0))} traced ops; "
                 f"{metrics.get('trace.unattributed_share', 0):.4f} of it "
                 f"inside no wrapped call")
    return "\n".join(lines)
