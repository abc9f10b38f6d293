"""Tiny-scale smoke test of the benchmark (a few seconds per run).

    python3 perfbench/smoke.py

Runs every workload once untraced and once traced at ``--scale tiny``
and asserts the output contract: exit code 0, a last stdout line with
exactly ``correct``/``attempted``/``failed``/``metrics``, every metric
``BENCHMARK.json`` declares for the mode (finite, with its unit), all
output checks passing and no failed ops.  It also asserts that the
benchmark refuses to run, without printing a result, from a copy that
holds only ``BENCHMARK.json`` and ``perfbench/``, and that the CPU meter
counts a server thread that starts and exits inside a window.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from harness import CpuMeter  # noqa: E402

#: A child that, per stdin line, burns CPU on a fresh thread that then
#: exits, and answers when that thread is gone.
_BURNER = '''
import sys, threading, time
def burn():
    start = time.thread_time()
    while time.thread_time() - start < 0.3:
        pass
print("ready", flush=True)
for line in sys.stdin:
    thread = threading.Thread(target=burn)
    thread.start()
    thread.join()
    print("done", flush=True)
'''
WORKLOADS = ("pipeline", "serve_hot", "serve_rw", "cluster_join")


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "2", "--trace", str(trace),
         "--scale", "tiny"],
        cwd=str(root), capture_output=True, text=True, timeout=180)


def check_result(workload: str, trace: int, spec: dict) -> None:
    done = run(ROOT, workload, trace)
    label = f"{workload} --trace {trace}"
    assert done.returncode == 0, f"{label} exited {done.returncode}:\n" \
        f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}"
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label} checks failed:\n{done.stdout}"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    declared = {entry["name"]: entry["unit"] for entry in
                spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(declared), label
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name], (label, name)
        assert math.isfinite(metric["value"]), (label, name)
        if not trace:
            assert metric["value"] > 0, (label, name, metric)
    print(f"ok  {label}: attempted {result['attempted']}")


def check_refuses_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT) as scratch:
        copy = Path(scratch)
        shutil.copy(ROOT / "BENCHMARK.json", copy / "BENCHMARK.json")
        shutil.copytree(HERE, copy / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = run(copy, "serve_hot", 0)
        assert done.returncode != 0, "ran without the program sources"
        assert '"metrics"' not in done.stdout, "printed a result"
    print("ok  refuses to run without the program sources")


def check_cpu_meter_counts_exited_threads() -> None:
    child = subprocess.Popen([sys.executable, "-c", _BURNER], text=True,
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE)
    try:
        assert child.stdout.readline().strip() == "ready"
        meter = CpuMeter([child.pid])
        child.stdin.write("\n")
        child.stdin.flush()
        assert child.stdout.readline().strip() == "done"
        meter.stop()
    finally:
        child.stdin.close()
        child.wait(timeout=30)
        child.stdout.close()
    assert meter.program >= 0.25, f"metered {meter.program:.3f} s of 0.3 s"
    print(f"ok  CPU meter counts an exited thread: {meter.program:.3f} s")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    check_cpu_meter_counts_exited_threads()
    check_refuses_without_program()
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_result(workload, trace, spec)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
