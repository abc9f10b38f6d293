"""The four workloads: inputs from the seed, set-up, load, output checks.

Every workload fills a :class:`Run`: end-to-end metrics (untraced runs),
per-layer metrics (traced runs), ops attempted and failed, output
checks and the settings it ran with.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from dataclasses import replace as dataclass_replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import report
import tracing
from harness import (BENCH_DIR, NPROC, ROOT, Server, closed_loop, dir_bytes,
                     metered, now, open_loop, pin_client, spawn, stop_all)

sys.path.insert(0, str(ROOT / "benchmarks"))
from _zipf import zipf_trace  # noqa: E402
from repro.kg.client import (RemoteClient, RemoteQueryEngine,  # noqa: E402
                             RemoteStore)
from repro.kg.cluster import shard_split  # noqa: E402
from repro.kg.planner import PatternQuery  # noqa: E402
from repro.kg.query import QueryEngine  # noqa: E402
from repro.kg.sharded_backend import ShardedBackend  # noqa: E402
from repro.kg.store import TripleStore  # noqa: E402
from repro.kg.triple import Triple, triples_from_tuples  # noqa: E402

#: Sizes per scale; ``tiny`` is the smoke test's.
SCALES = {
    "full": {
        "pipeline_products": 1200,
        "brands": 16, "categories": 128, "combo_products": 40,
        "cluster_products": 12_000,
        "setups": 3,
    },
    "tiny": {
        "pipeline_products": 60,
        "brands": 4, "categories": 8, "combo_products": 5,
        "cluster_products": 600,
        "setups": 2,
    },
}

#: Rough wall time of one pipeline job at full scale; a run makes
#: ``round(seconds / PIPELINE_JOB_SECONDS)`` jobs (at least one).
PIPELINE_JOB_SECONDS = 5.0
ZIPF_S = 1.1
CLIENTS = min(2, NPROC)
CACHE_MB = 64
#: Open-loop offered rates (requests/s) and the latency limits the
#: open-loop p99 is held to.  On a 2-core x86 VM the closed-loop capacity
#: is ~2,400/s on serve_hot (warm cache) and ~160/s on serve_rw.  serve_rw
#: runs at half of it; serve_hot at ~15%, because near half load the
#: dispatcher coalesces a timing-dependent share of requests, which made
#: CPU per op 4x less steady between runs (IQR/median 0.115 against
#: 0.028 over 6 interleaved seeds).
HOT_RATE = 350.0
RW_RATE = 80.0
HOT_LIMIT_MS = 20.0
RW_LIMIT_MS = 100.0
#: serve_rw: every WRITE_EVERY-th op is an add_many of WRITE_TRIPLES
#: new triples; every COMPACT_EVERY-th write batch is followed by a
#: compact.
WRITE_EVERY = 10
WRITE_TRIPLES = 16
COMPACT_EVERY = 12
#: cluster_join: head-bound joins per execute_many batch.
JOIN_BATCH = 64
CHECK_SAMPLE = 64
#: Share of a serve run spent in the open loop (the rest is closed loop).
OPEN_SHARE = 0.6
#: Windows a measured phase is split into; CPU per op is their median.
WINDOWS = 6
#: Length of a traced phase, as a share of --seconds.
TRACED_SHARE = 0.4
WARM_BATCH = 256


class Run:
    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, scale: str, work: Path) -> None:
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.trace, self.scale, self.work = trace, scale, work
        self.sizes = SCALES[scale]
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[list] = []
        self.settings: Dict[str, object] = {
            "workload": workload, "seed": seed, "seconds": seconds,
            "trace": trace, "scale": scale, "nproc": NPROC,
            "python": sys.version.split()[0], "clients": CLIENTS,
        }
        self.notes: List[str] = []

    def metric(self, name: str, value: float) -> None:
        self.metrics[name] = float(value)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append([name, bool(ok), detail])

    def count(self, phase) -> None:
        self.attempted += phase.attempted
        self.failed += phase.failed
        if phase.errors:
            self.notes.append(f"first failure: {phase.errors[0]}")

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(ok for _, ok, _ in self.checks)


# ---------------------------------------------------------------------- #
# inputs
# ---------------------------------------------------------------------- #
def serve_rows(seed: int, sizes: dict) -> List[Tuple[str, str, str]]:
    """Products spread evenly over brand x category combos; the seed
    decides which product lands in which combo."""
    brands, categories = sizes["brands"], sizes["categories"]
    count = brands * categories * sizes["combo_products"]
    names = np.random.default_rng(seed).permutation(count)
    rows = []
    for index, name in enumerate(names.tolist()):
        product = f"product:{name:06d}"
        rows.append((product, "brandIs", f"brand:{index % brands}"))
        rows.append((product, "rdf:type",
                     f"category:{(index // brands) % categories}"))
    return rows


def serve_catalog(seed: int, sizes: dict) -> List[PatternQuery]:
    """The brand x category 2-pattern joins, hottest first (the seed
    decides which combos are hot)."""
    brands, categories = sizes["brands"], sizes["categories"]
    order = np.random.default_rng(seed + 1).permutation(brands * categories)
    return [PatternQuery.from_patterns(
        [("?p", "brandIs", f"brand:{combo % brands}"),
         ("?p", "rdf:type", f"category:{combo // brands}")],
        select=("?p",), limit=10) for combo in order.tolist()]


def written_triples(seed: int, sizes: dict, batch: int) -> List[Triple]:
    """The WRITE_TRIPLES new triples of write batch ``batch``."""
    brands, categories = sizes["brands"], sizes["categories"]
    rng = np.random.default_rng([seed, batch])
    triples = []
    for item in range(WRITE_TRIPLES // 2):
        product = f"product:w{batch:06d}-{item}"
        triples.append(Triple(product, "brandIs",
                              f"brand:{int(rng.integers(brands))}"))
        triples.append(Triple(product, "rdf:type",
                              f"category:{int(rng.integers(categories))}"))
    return triples


def cluster_rows(seed: int, sizes: dict) -> List[Tuple[str, str, str]]:
    """The test_bench_cluster shape: product -> brand/place/category and
    brand -> country; the seed permutes the product names."""
    count = sizes["cluster_products"]
    names = np.random.default_rng(seed).permutation(count)
    rows = []
    for index, name in enumerate(names.tolist()):
        product = f"product:{name:06d}"
        rows.append((product, "brandIs", f"brand:{index % 24}"))
        rows.append((product, "placeOfOrigin", f"place:{index % 23}"))
        rows.append((product, "rdf:type", f"category:{index % 111}"))
    for brand in range(24):
        rows.append((f"brand:{brand}", "headquartersIn",
                     f"country:{brand % 4}"))
    return rows


def cluster_batches(seed: int, sizes: dict, count: int) -> List[list]:
    rng = np.random.default_rng(seed + 2)
    picks = rng.integers(sizes["cluster_products"], size=(count, JOIN_BATCH))
    return [[PatternQuery.from_patterns(
        [(f"product:{int(index):06d}", "brandIs", "?b"),
         ("?b", "headquartersIn", "?c")]) for index in row]
        for row in picks]


# ---------------------------------------------------------------------- #
# clients
# ---------------------------------------------------------------------- #
class Conn:
    """One client connection (binary codec) with both remote surfaces."""

    def __init__(self, url: str) -> None:
        self.client = RemoteClient(url, codec="binary")
        self.engine = RemoteQueryEngine(self.client)
        self.store = RemoteStore(self.client)

    def close(self) -> None:
        self.client.close()


def connect(url: str, count: int = CLIENTS) -> List[Conn]:
    return [Conn(url) for _ in range(count)]


def close_all(conns: Sequence[Conn]) -> None:
    for conn in conns:
        conn.close()


def server_stats(url: str) -> dict:
    conn = Conn(url)
    try:
        return conn.client.stats()["service"]
    finally:
        conn.close()


def remote_triples(conn: Conn) -> set:
    block = conn.store.match_many_blocks([(None, None, None)])[0]
    return {(t.head, t.relation, t.tail) for t in block.to_triples()}


def traced(tracer: tracing.Tracer, run_op):
    def op(conn, item):
        with tracer.span("client.op"):
            return run_op(conn, item)
    return op


# ---------------------------------------------------------------------- #
# pipeline
# ---------------------------------------------------------------------- #
class _Worker:
    def __init__(self, log: Path) -> None:
        self._log = open(log, "ab")
        self.proc = spawn(
            [sys.executable, str(BENCH_DIR / "pipeline_worker.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=self._log)

    def ready(self) -> None:
        line = self.proc.stdout.readline()
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError(f"pipeline worker failed to start: {line!r}")

    def request(self, payload: dict) -> dict:
        self.proc.stdin.write(json.dumps(payload) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line.strip():
            raise RuntimeError("pipeline worker died (see worker log)")
        return json.loads(line)

    def finish(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("\n")
                self.proc.stdin.flush()
            except BrokenPipeError:
                pass
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except BrokenPipeError:
                pass
        self._log.close()


def run_pipeline(run: Run) -> None:
    products = run.sizes["pipeline_products"]
    run.settings.update(products=products, model="TransE", epochs=5,
                        backend="columnar", validation=True)
    log = run.work / "worker.log"
    setups, worker = [], None
    try:
        for _ in range(run.sizes["setups"]):
            if worker is not None:
                worker.finish()
            start = now()
            worker = _Worker(log)
            worker.ready()
            setups.append(now() - start)
        spans = run.work / "pipeline-spans.json"
        out = worker.request({"products": products, "seed": run.seed,
                              "jobs": max(1, round(run.seconds
                                                   / PIPELINE_JOB_SECONDS)),
                              "trace": run.trace, "work": str(run.work),
                              "spans": str(spans)})
    except BaseException:
        if worker is not None:
            worker.proc.kill()
        raise
    finally:
        if worker is not None:
            worker.finish()
    for name, ok, detail in out["checks"]:
        run.check(name, ok, detail)
    jobs = out["job_s"]
    run.attempted += len(jobs) + (1 if run.trace else 0)
    run.notes.append(f"{len(jobs)} job(s) of {products} products: "
                     + ", ".join(f"{seconds:.3f}s" for seconds in jobs)
                     + f"; {out['triples']} triples, MRR {out['mrr']:.4f}")
    run.metric("setup_s", np.median(setups))
    run.metric("cpu_ms_per_op", np.median(out["cpu_s"]) * 1e3)
    run.metric("peak_rss_mb", out["peak_rss_mb"])
    run.metric("disk_bytes_per_triple", out["disk_bytes_per_triple"])
    _load_metrics(run, jobs, [], len(jobs) / sum(jobs))
    run.metric("host.steal_share", out["steal_share"])
    run.settings["steal_share"] = round(out["steal_share"], 4)
    if not run.trace:
        return
    rows = report.load_spans(spans, "worker")
    links = report.link(rows)
    roots = [span for span in rows if span.name == "pipeline.job"]
    layers = report.layer_metrics(rows, roots, links, bench="worker",
                                  main="worker")
    _stats_layers(layers, {}, {})
    layers["trace.overhead_pct"] = (out["traced_job_s"] / jobs[0] - 1) * 100
    _set_layers(run, layers)


def _load_metrics(run: Run, latencies: Sequence[float],
                  writes: Sequence[float], throughput: float,
                  lags: Sequence[float] = (), misses: float = 0.0) -> None:
    """The load generator's view, untraced: reported per layer because
    wall-clock latency on a shared host is too noisy to bound."""
    run.metric("load.samples", len(latencies))
    run.metric("load.p50_ms", np.median(latencies) * 1e3)
    run.metric("load.p99_ms", np.percentile(latencies, 99) * 1e3)
    run.metric("load.write_p50_ms", np.median(writes) * 1e3 if writes else 0.0)
    run.metric("load.write_p99_ms",
               np.percentile(writes, 99) * 1e3 if writes else 0.0)
    run.metric("load.throughput_ops", throughput)
    run.metric("load.lag_p99_ms",
               np.percentile(lags, 99) * 1e3 if lags else 0.0)
    run.metric("load.limit_miss_share", misses)


# ---------------------------------------------------------------------- #
# serve_hot / serve_rw
# ---------------------------------------------------------------------- #
class _ServeSetup:
    def __init__(self, run: Run, index: int, live: bool,
                 spans: Optional[Path] = None) -> None:
        start = now()
        self.rows = serve_rows(run.seed, run.sizes)
        self.store = TripleStore(triples_from_tuples(self.rows))
        self.directory = run.work / f"store-{index}"
        if live:
            self.store.save_live(self.directory)
        else:
            self.store.save(self.directory)
        self.server = Server(["serve", "--store-dir", str(self.directory),
                              "--port", "0", "--cache-mb", str(CACHE_MB)],
                             run.work / "server.log", spans).wait_ready()
        try:
            # Read-only serving warms every catalog query once, so the
            # measured phases start from a warm cache instead of paying
            # first-touch misses whose count depends on how long the phase
            # ran.  On a live store the first write drops the cache anyway.
            catalog = serve_catalog(run.seed, run.sizes)
            if live:
                catalog = catalog[:WARM_BATCH]
            conn = Conn(self.server.url)
            try:
                for offset in range(0, len(catalog), WARM_BATCH):
                    conn.engine.execute_many(
                        catalog[offset:offset + WARM_BATCH])
            finally:
                conn.close()
        except BaseException:
            self.server.stop()
            raise
        self.seconds = now() - start


def _set_up_serve(run: Run, live: bool) -> _ServeSetup:
    setups: List[_ServeSetup] = []
    try:
        for index in range(run.sizes["setups"] if not run.trace else 1):
            if setups:
                setups[-1].server.stop()
            setups.append(_ServeSetup(run, index, live))
    except BaseException:
        if setups:
            setups[-1].server.stop()
        raise
    run.metric("setup_s", np.median([setup.seconds for setup in setups]))
    return setups[-1]


def _check_reads(run: Run, url: str, oracle: TripleStore,
                 catalog: Sequence[PatternQuery], ranks,
                 ordered: bool = True) -> None:
    """Reads on a checked sample equal the in-process QueryEngine's.

    ``ordered`` compares the exact row lists.  Where concurrent writers
    left the server's interning order unknown to the client, the row
    order (and so which rows a ``limit`` keeps) may differ from the
    oracle's: then the full results are compared as sorted row lists.
    """
    picked = list(dict.fromkeys(int(rank) for rank in ranks))[:CHECK_SAMPLE]
    queries = [catalog[rank] if ordered
               else dataclass_replace(catalog[rank], limit=None)
               for rank in picked]
    engine = QueryEngine(oracle)

    def canonical(rows):
        return rows if ordered else sorted(tuple(sorted(row.items()))
                                           for row in rows)

    conn = Conn(url)
    try:
        mismatched = sum(1 for query in queries
                         if canonical(conn.engine.execute(query))
                         != canonical(engine.execute(query)))
    finally:
        conn.close()
    run.check("reads_match_oracle" if ordered else "reads_match_oracle_sorted",
              mismatched == 0,
              f"{len(queries)} queries, {mismatched} differ")


def run_serve(run: Run, live: bool) -> None:
    sizes = run.sizes
    catalog = serve_catalog(run.seed, sizes)
    rate = RW_RATE if live else HOT_RATE
    limit_ms = RW_LIMIT_MS if live else HOT_LIMIT_MS
    run.settings.update(
        triples=2 * sizes["brands"] * sizes["categories"]
        * sizes["combo_products"], queries=len(catalog), zipf_s=ZIPF_S,
        backend="mmap (live, WAL)" if live else "mmap snapshot",
        fsync="on" if live else "n/a", codec="binary",
        cache_mb=CACHE_MB, offered_rate=rate, latency_limit_ms=limit_ms)
    if live:
        run.settings.update(write_every=WRITE_EVERY,
                            write_triples=WRITE_TRIPLES,
                            compact_every_writes=COMPACT_EVERY)
    trace_ranks = zipf_trace(400_000, len(catalog), s=ZIPF_S, seed=run.seed)
    acked: List[Triple] = []
    acked_lock = threading.Lock()
    writes = [0]

    def make_ops(offset: int, count: int) -> list:
        ranks = trace_ranks[offset:offset + count].tolist()
        if not live:
            return ranks
        ops = []
        for index, rank in enumerate(ranks):
            if index % WRITE_EVERY == WRITE_EVERY - 1:
                ops.append(("write", offset + index))
                writes[0] += 1
                if writes[0] % COMPACT_EVERY == 0:
                    ops.append(("compact", 0))
            else:
                ops.append(("read", rank))
        return ops

    def run_op(conn: Conn, op):
        if not live:
            conn.engine.execute(catalog[op])
            return "read"
        kind, arg = op
        if kind == "read":
            conn.engine.execute(catalog[arg])
        elif kind == "write":
            triples = written_triples(run.seed, sizes, arg)
            conn.store.add_many(triples)
            with acked_lock:
                acked.extend(triples)
        else:
            conn.store.compact()
        return kind

    pin_client()
    setup = _set_up_serve(run, live)
    try:
        conns = connect(setup.server.url)
        try:
            # CPU is metered over the open loop only, in WINDOWS
            # consecutive windows: its ops are a fixed seeded sequence, and
            # the median over windows sheds bursts of host interference.
            # On a live store a window is one whole compaction cycle.
            ops = make_ops(0, 200_000)
            if live:
                per_window = COMPACT_EVERY * WRITE_EVERY + 1
                windows = max(2, round(rate * run.seconds * OPEN_SHARE
                                       / per_window))
            else:
                windows = WINDOWS
                per_window = int(rate * run.seconds * OPEN_SHARE / windows)
            open_phase, costs, meters = metered(
                [setup.server.pid], windows,
                lambda k: open_loop(
                    conns, ops[k * per_window:(k + 1) * per_window], rate,
                    per_window / rate, run_op))
            closed_phase = closed_loop(conns, make_ops(200_000, 200_000),
                                       run.seconds * (1 - OPEN_SHARE),
                                       run_op)
        finally:
            close_all(conns)
        run.count(open_phase)
        run.count(closed_phase)
        _cpu_metric(run, costs, meters, open_phase.completed())
        _serve_load(run, open_phase, closed_phase, rate, limit_ms, live)
        run.metric("peak_rss_mb", setup.server.peak_rss_mb())
        live_triples = len(setup.rows) + len({(t.head, t.relation, t.tail)
                                              for t in acked})
        run.metric("disk_bytes_per_triple",
                   dir_bytes(setup.directory) / live_triples)
        if run.trace:
            acked.clear()
            setup.server.stop()
            _serve_traced(run, closed_phase, make_ops, run_op, catalog,
                          trace_ranks, acked, live)
        else:
            _serve_checks(run, setup, catalog, trace_ranks, acked, live)
    finally:
        setup.server.stop()


def _serve_load(run: Run, open_phase, closed_phase, rate: float,
                limit_ms: float, live: bool) -> None:
    reads = open_phase.latencies.get("read", [])
    writes = open_phase.latencies.get("write", [])
    missed = sum(1 for value in reads if value * 1e3 > limit_ms) \
        + open_phase.failed
    _load_metrics(run, reads, writes,
                  closed_phase.completed() / closed_phase.elapsed,
                  open_phase.lags, missed / max(1, open_phase.attempted))
    run.notes.append(
        f"open loop: {open_phase.attempted} ops offered at {rate:.0f}/s; "
        f"{len(reads)} reads p50 {np.median(reads) * 1e3:.3f} ms, p99 "
        f"{np.percentile(reads, 99) * 1e3:.3f} ms; {missed} over the "
        f"{limit_ms:.0f} ms limit or failed; generator lag p50 "
        f"{np.median(open_phase.lags) * 1e3:.3f} ms, p99 "
        f"{np.percentile(open_phase.lags, 99) * 1e3:.3f} ms")
    if live:
        run.notes.append(
            f"writes: {len(writes)} acked in the open loop, p50 "
            f"{np.median(writes) * 1e3:.3f} ms, p99 "
            f"{np.percentile(writes, 99) * 1e3:.3f} ms; compactions "
            f"{len(open_phase.latencies.get('compact', []))} open + "
            f"{len(closed_phase.latencies.get('compact', []))} closed")
    run.notes.append(
        f"closed loop: {closed_phase.completed()} ops in "
        f"{closed_phase.elapsed:.2f} s on {CLIENTS} connections")


def _cpu_metric(run: Run, costs: Sequence[float], meters, ops: int,
                ops_per_completion: int = 1) -> None:
    """``cpu_ms_per_op``: the median over windows of CPU seconds per
    completed op, all program processes plus the client process."""
    run.metric("cpu_ms_per_op", np.median(costs) / ops_per_completion * 1e3)
    program = sum(meter.program for meter in meters)
    client = sum(meter.client for meter in meters)
    steal = np.median([meter.steal_share for meter in meters])
    run.metric("host.steal_share", steal)
    run.notes.append(
        f"cpu per op: program {program / ops * 1e6:.1f} us + client "
        f"{client / ops * 1e6:.1f} us over {ops} ops; per window (ms): "
        + " ".join(f"{cost / ops_per_completion * 1e3:.4f}"
                   for cost in costs)
        + f"; host steal {steal:.3f} of {NPROC} CPUs")
    run.settings["steal_share"] = round(steal, 4)


def _serve_checks(run: Run, setup: _ServeSetup, catalog, trace_ranks,
                  acked: List[Triple], live: bool) -> None:
    server = setup.server
    ranks = list(trace_ranks[:CHECK_SAMPLE]) \
        + list(range(min(CHECK_SAMPLE, len(catalog))))
    if not live:
        _check_reads(run, server.url, setup.store, catalog, ranks)
        return
    expected = set(setup.rows) | {(t.head, t.relation, t.tail)
                                  for t in acked}
    conn = Conn(server.url)
    try:
        served = remote_triples(conn)
    finally:
        conn.close()
    run.check("state_matches_acked_writes", served == expected,
              f"{len(served)} served, {len(expected)} expected")
    oracle = TripleStore(triples_from_tuples(sorted(expected)))
    _check_reads(run, server.url, oracle, catalog, ranks, ordered=False)
    if run.trace:
        return
    # Durability: kill -9, reopen the live directory, compare again.
    server.stop(kill=True)
    reopened = Server(["serve", "--store-dir", str(setup.directory),
                       "--port", "0"], run.work / "server.log").wait_ready()
    try:
        conn = Conn(reopened.url)
        try:
            recovered = remote_triples(conn)
        finally:
            conn.close()
    finally:
        reopened.stop()
    run.check("state_survives_kill_and_reopen", recovered == expected,
              f"{len(recovered)} recovered")


def _serve_traced(run: Run, base, make_ops, run_op, catalog, trace_ranks,
                  acked: List[Triple], live: bool) -> None:
    """The base phases ran on the real server; repeat the closed loop on
    a traced launcher with client-side spans for the per-layer metrics."""
    spans_path = run.work / "server-spans.json"
    setup = _ServeSetup(run, 9, live, spans=spans_path)
    try:
        tracer = tracing.install(tracing.Tracer())
        conns = connect(setup.server.url)
        try:
            before = server_stats(setup.server.url)
            start = now()
            phase = closed_loop(conns, make_ops(300_000, 100_000),
                                run.seconds * TRACED_SHARE,
                                traced(tracer, run_op))
            window = (start, now())
            after = server_stats(setup.server.url)
        finally:
            close_all(conns)
            tracer.uninstall()
        run.count(phase)
        _serve_checks(run, setup, catalog, trace_ranks, acked, live)
    finally:
        setup.server.stop()
    spans = report.from_rows(tracer.spans, "bench") \
        + report.load_spans(spans_path, "server")
    layers = _trace_layers(spans, main="server", shards=(), window=window)
    _stats_layers(layers, before, after)
    layers["trace.overhead_pct"] = _overhead(base, phase)
    _set_layers(run, layers)


def _trace_layers(spans, *, main: str, shards: Sequence[str],
                  window: Tuple[float, float]) -> dict:
    """Per-layer metrics from the spans inside the traced phase (the
    servers' set-up and warm-up also left spans)."""
    low, high = window
    spans = [span for span in spans if span.start >= low and span.end <= high]
    links = report.link(spans)
    roots = [span for span in spans if span.name == "client.op"]
    return report.layer_metrics(spans, roots, links, bench="bench",
                                main=main, shards=shards,
                                phase_seconds=high - low,
                                client_ops=len(roots))


def _stats_layers(layers: dict, before: dict, after: dict) -> None:
    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    hits, misses = delta("cache_hits"), delta("cache_misses")
    layers["service.cache_hits"] = hits
    layers["service.cache_misses"] = misses
    layers["service.cache_hit_ratio"] = hits / (hits + misses) \
        if hits + misses else 0.0
    layers["service.cache_invalidations"] = delta("cache_invalidations")
    batches = delta("batches_dispatched")
    layers["service.batches"] = batches
    layers["service.batch_size_mean"] = delta("requests_served") / batches \
        if batches else 0.0


def _overhead(base, traced_phase) -> float:
    def mean_latency(phase) -> float:
        values = [value for group in phase.latencies.values()
                  for value in group]
        return sum(values) / len(values)
    return (mean_latency(traced_phase) / mean_latency(base) - 1) * 100


def _set_layers(run: Run, layers: dict) -> None:
    for name, value in layers.items():
        run.metric(name, value)
    run.notes.append("per-layer self time (share of traced end-to-end):\n"
                     + report.table(layers))


# ---------------------------------------------------------------------- #
# cluster_join
# ---------------------------------------------------------------------- #
class _ClusterSetup:
    def __init__(self, run: Run, index: int, spans: bool = False) -> None:
        start = now()
        self.rows = cluster_rows(run.seed, run.sizes)
        source = TripleStore(triples_from_tuples(self.rows),
                             backend=ShardedBackend(1))
        source_dir = run.work / f"source-{index}"
        source.save(source_dir)
        self.split = run.work / f"split-{index}"
        shard_split(source_dir, 2, self.split)
        log = run.work / "cluster.log"
        self.spans = [run.work / f"shard-{k}-spans.json" for k in range(2)] \
            + [run.work / "coordinator-spans.json"] if spans else [None] * 3
        self.servers: List[Server] = []
        try:
            for shard in range(2):
                self.servers.append(Server(
                    ["serve", "--store-dir", str(self.split / f"shard-{shard}"),
                     "--port", "0", "--shard-of", f"{shard}/2"],
                    log, self.spans[shard]))
            for server in self.servers:
                server.wait_ready()
            self.servers.append(Server(
                ["cluster", "--store-dir", str(self.split), "--shards",
                 ",".join(server.url for server in self.servers),
                 "--port", "0", "--no-cache"],
                log, self.spans[2]).wait_ready())
            conn = Conn(self.url)
            try:
                for batch in cluster_batches(run.seed + 7, run.sizes, 4):
                    conn.engine.execute_many(batch)
            finally:
                conn.close()
        except BaseException:
            stop_all(self.servers)
            raise
        self.seconds = now() - start

    @property
    def url(self) -> str:
        return self.servers[-1].url

    def stop(self) -> None:
        stop_all(self.servers)

    def peak_rss_mb(self) -> float:
        return sum(server.peak_rss_mb() for server in self.servers)


def run_cluster(run: Run) -> None:
    sizes = run.sizes
    run.settings.update(products=sizes["cluster_products"], shards=2,
                        join_batch=JOIN_BATCH, codec="binary",
                        backend="cluster of 2 live mmap shards",
                        coordinator_cache="off", fsync="on (idle)",
                        offered_rate="closed loop")
    batches = cluster_batches(run.seed, sizes, 4096)
    pin_client()

    def run_op(conn: Conn, batch_index: int) -> str:
        conn.engine.execute_many(batches[batch_index])
        return "batch"

    setups: List[_ClusterSetup] = []
    try:
        for index in range(sizes["setups"] if not run.trace else 1):
            if setups:
                setups[-1].stop()
            setups.append(_ClusterSetup(run, index))
        setup = setups[-1]
        conns = connect(setup.url)
        try:
            per_window = len(batches) // WINDOWS
            phase, costs, meters = metered(
                [server.pid for server in setup.servers], WINDOWS,
                lambda k: closed_loop(
                    conns, range(k * per_window, (k + 1) * per_window),
                    run.seconds / WINDOWS, run_op))
        finally:
            close_all(conns)
        run.count(phase)
        latencies = phase.latencies.get("batch", [])
        _cpu_metric(run, costs, meters, len(latencies) * JOIN_BATCH,
                    JOIN_BATCH)
        _load_metrics(run, latencies, [],
                      len(latencies) * JOIN_BATCH / phase.elapsed)
        run.metric("setup_s", np.median([s.seconds for s in setups]))
        run.metric("peak_rss_mb", setup.peak_rss_mb())
        run.metric("disk_bytes_per_triple",
                   sum(dir_bytes(setup.split / f"shard-{k}")
                       for k in range(2)) / len(setup.rows))
        run.notes.append(
            f"closed loop: {len(latencies)} batches of {JOIN_BATCH} joins "
            f"over {CLIENTS} connections, batch p50 "
            f"{np.median(latencies) * 1e3:.2f} ms, p99 "
            f"{np.percentile(latencies, 99) * 1e3:.2f} ms")
        if run.trace:
            setup.stop()
            _cluster_traced(run, batches, run_op, phase)
        else:
            _cluster_checks(run, setup, batches)
    finally:
        if setups:
            setups[-1].stop()


def _cluster_checks(run: Run, setup: _ClusterSetup, batches) -> None:
    """Coordinator rows equal in-process ShardedBackend(2) rows."""
    oracle = QueryEngine(TripleStore(triples_from_tuples(setup.rows),
                                     backend=ShardedBackend(2)))
    conn = Conn(setup.url)
    try:
        sample = batches[:8]
        differ = sum(1 for batch in sample
                     if conn.engine.execute_many(batch)
                     != oracle.execute_many(batch))
    finally:
        conn.close()
    run.check("joins_match_sharded_oracle", differ == 0,
              f"{len(sample)} batches of {JOIN_BATCH}, {differ} differ")


def _cluster_traced(run: Run, batches, run_op, base) -> None:
    setup = _ClusterSetup(run, 9, spans=True)
    try:
        tracer = tracing.install(tracing.Tracer())
        conns = connect(setup.url)
        try:
            before = server_stats(setup.url)
            start = now()
            phase = closed_loop(conns, range(len(batches)),
                                run.seconds * TRACED_SHARE,
                                traced(tracer, run_op))
            window = (start, now())
            after = server_stats(setup.url)
        finally:
            close_all(conns)
            tracer.uninstall()
        run.count(phase)
        _cluster_checks(run, setup, batches)
    finally:
        setup.stop()
    spans = report.from_rows(tracer.spans, "bench")
    for label, path in zip(("shard-0", "shard-1", "coordinator"),
                           setup.spans):
        spans += report.load_spans(path, label)
    layers = _trace_layers(spans, main="coordinator",
                           shards=("shard-0", "shard-1"), window=window)
    _stats_layers(layers, before, after)
    layers["trace.overhead_pct"] = _overhead(base, phase)
    _set_layers(run, layers)


WORKLOADS = {
    "pipeline": run_pipeline,
    "serve_hot": lambda run: run_serve(run, live=False),
    "serve_rw": lambda run: run_serve(run, live=True),
    "cluster_join": run_cluster,
}
