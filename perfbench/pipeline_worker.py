"""The ``pipeline`` workload's program process: the paper's batch path.

One job is the ``repro --products N --seed S --store-dir D linkpred
--model TransE --epochs 5`` path, called through the same public
functions: ``generate_catalog`` -> ``OpenBGBuilder.build`` (with
ontology validation, persisting the store) ->
``BenchmarkBuilder.build_suite`` -> TransE ``KGETrainer.fit`` on
OpenBG500 -> ``LinkPredictionEvaluator.evaluate``.

Protocol: the process prints ``ready`` once its imports are done, reads
one JSON request line from stdin (an empty line makes it exit), runs
``jobs`` jobs (job ``j`` on the catalog of seed ``seed * 1000 + j``),
checks the last job's outputs outside the timed region and prints one
JSON result line.  With ``trace`` set it runs one untraced job and then
the same job traced under a ``pipeline.job`` root span, and writes the
spans to ``spans``.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from repro.benchmark.builders import BenchmarkBuilder  # noqa: E402
from repro.construction.pipeline import OpenBGBuilder  # noqa: E402
from repro.datagen.catalog import SyntheticCatalogConfig  # noqa: E402
from repro.embedding import (KGETrainer, LinkPredictionEvaluator,  # noqa: E402
                             TrainingConfig, TransE)
from harness import NPROC, steal_seconds, vm_hwm_mb  # noqa: E402

EPOCHS = 5
DIM = 32


def run_job(products: int, seed: int, store_dir: Path):
    shutil.rmtree(store_dir, ignore_errors=True)
    config = SyntheticCatalogConfig(num_products=products, seed=seed)
    result = OpenBGBuilder(config, seed=seed, store_dir=store_dir).build()
    suite = BenchmarkBuilder(result.graph, seed=seed).build_suite()
    dataset = suite["OpenBG500"]
    encoded = dataset.encoded_splits()
    model = TransE(len(dataset.entity_vocab), len(dataset.relation_vocab),
                   dim=DIM, seed=seed)
    training = TrainingConfig(epochs=EPOCHS, batch_size=256,
                              learning_rate=0.08, seed=seed,
                              normalize_entities=True)
    KGETrainer(model, training).fit(encoded["train"])
    evaluator = LinkPredictionEvaluator(encoded["train"], encoded["dev"],
                                        encoded["test"])
    metrics = evaluator.evaluate(model, encoded["test"])
    return result, dataset, metrics


def check_job(result, dataset, metrics) -> list:
    """Zero validation errors, disjoint splits inside the graph, finite MRR."""
    splits = {name: {(t.head, t.relation, t.tail)
                     for t in getattr(dataset, name)}
              for name in ("train", "dev", "test")}
    disjoint = not (splits["train"] & splits["dev"]
                    or splits["train"] & splits["test"]
                    or splits["dev"] & splits["test"])
    graph = {(t.head, t.relation, t.tail) for t in result.graph.triples()}
    outside = sum(len(triples - graph) for triples in splits.values())
    mrr = metrics.mean_reciprocal_rank
    return [
        ["validation_errors_zero", len(result.validation.errors) == 0,
         f"{len(result.validation.errors)} errors"],
        ["splits_disjoint", disjoint,
         " / ".join(f"{name} {len(triples)}"
                    for name, triples in splits.items())],
        ["splits_inside_graph", outside == 0, f"{outside} outside"],
        ["mrr_finite", math.isfinite(mrr) and mrr > 0, f"MRR {mrr:.4f}"],
    ]


def serve_request(request: dict) -> dict:
    products, seed = request["products"], request["seed"]
    steal, wall = steal_seconds(), time.perf_counter()
    store_dir = Path(request["work"]) / "pipeline-store"
    job_seconds, cpu_seconds = [], []
    traced_seconds = None
    if request["trace"]:
        start, cpu = time.perf_counter(), time.process_time()
        run_job(products, seed, store_dir)
        job_seconds.append(time.perf_counter() - start)
        cpu_seconds.append(time.process_time() - cpu)
        import tracing

        tracer = tracing.install(tracing.Tracer())
        start = time.perf_counter()
        with tracer.span("pipeline.job"):
            outputs = run_job(products, seed, store_dir)
        traced_seconds = time.perf_counter() - start
        tracer.uninstall()
        tracer.dump(request["spans"])
    else:
        # Each job builds its own catalog, so one run averages over
        # several inputs; the job count is fixed by the request.
        for job in range(request["jobs"]):
            start, cpu = time.perf_counter(), time.process_time()
            outputs = run_job(products, seed * 1000 + job, store_dir)
            job_seconds.append(time.perf_counter() - start)
            cpu_seconds.append(time.process_time() - cpu)
    steal_share = (steal_seconds() - steal) / (
        NPROC * (time.perf_counter() - wall))
    result, dataset, metrics = outputs
    disk = sum(entry.stat().st_size for entry in store_dir.rglob("*")
               if entry.is_file())
    return {
        "job_s": job_seconds,
        "cpu_s": cpu_seconds,
        "traced_job_s": traced_seconds,
        "checks": check_job(result, dataset, metrics),
        "peak_rss_mb": vm_hwm_mb(),
        "steal_share": steal_share,
        "triples": len(result.graph),
        "disk_bytes_per_triple": disk / len(result.graph),
        "validation_errors": len(result.validation.errors),
        "mrr": metrics.mean_reciprocal_rank,
    }


def main() -> int:
    print("ready", flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    print(json.dumps(serve_request(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
