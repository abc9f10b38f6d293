"""Repository benchmark: the paper pipeline plus served-traffic workloads.

Run from the repository root::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md``): ``pipeline``, ``serve_hot``,
``serve_rw``, ``cluster_join``.  With ``--trace 0`` the end-to-end
metrics of ``BENCHMARK.json`` are measured with tracing off; with
``--trace 1`` a traced run reports the per-layer metrics instead.  The
last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (``{name: {"value", "unit"}}``).  Earlier
lines are the human-readable report and a ``settings`` record.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=("pipeline", "serve_hot", "serve_rw",
                                 "cluster_join"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the smoke test")
    return parser.parse_args(argv)


def declared_metrics(trace: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"]
            for entry in spec["per_layer" if trace else "end_to_end"]}


def _interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    args = parse_args(argv)
    # A terminated run still stops its servers (the finally blocks).
    signal.signal(signal.SIGTERM, _interrupt)
    if not (ROOT / "src" / "repro" / "kg" / "server.py").is_file():
        print(f"error: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import harness
    import workloads

    declared = declared_metrics(bool(args.trace))
    work = harness.make_work_dir(args.workload)
    run = workloads.Run(args.workload, args.seed, args.seconds,
                        bool(args.trace), args.scale, work)
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            harness.WORK_DIR.rmdir()
        except OSError:
            pass

    for note in run.notes:
        print(note)
    for name, ok, detail in run.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    print("settings " + json.dumps(run.settings, sort_keys=True))
    missing = sorted(set(declared) - set(run.metrics))
    if missing:
        print(f"error: workload produced no value for {missing}",
              file=sys.stderr)
        return 3
    metrics = {}
    for name, unit in declared.items():
        value = run.metrics[name]
        if not math.isfinite(value):
            print(f"error: metric {name} is {value}", file=sys.stderr)
            return 3
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": run.correct,
                      "attempted": max(1, run.attempted),
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
