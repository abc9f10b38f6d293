"""Process management and load generation for the benchmark.

Servers are the real programs: ``python -m repro.cli serve`` and
``python -m repro.cli cluster`` subprocesses, or - for the traced run -
``perfbench/launcher.py``, which installs the span wrappers and then
runs the same ``repro.cli.main`` path.

Load comes from this one process with at most ``nproc`` client threads,
each owning one connection:

* :func:`open_loop` sends request ``i`` at its due time
  ``t0 + i / rate`` whether or not earlier requests finished, and times
  it from that due time, so a stall also charges the requests queued
  behind it; the send lag (start minus due) says how late the generator
  itself ran;
* :func:`closed_loop` sends each client's next request when its last
  one completed.
"""

from __future__ import annotations

import ctypes
import os
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".perfbench_work"
NPROC = os.cpu_count() or 1
#: Where servers run and where the load generator runs, when there are
#: two CPUs to split: the generator then never competes with the server
#: for a core, and thread handoffs inside the server stay on one CPU.
PROGRAM_CPUS = {0} if NPROC >= 2 else None
CLIENT_CPUS = {1} if NPROC >= 2 else None

now = time.perf_counter


# ---------------------------------------------------------------------- #
# files and processes
# ---------------------------------------------------------------------- #
def make_work_dir(label: str) -> Path:
    WORK_DIR.mkdir(exist_ok=True)
    path = WORK_DIR / f"{label}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir()
    return path


def dir_bytes(path: Path) -> int:
    return sum(entry.stat().st_size for entry in Path(path).rglob("*")
               if entry.is_file())


_LIBC = ctypes.CDLL(None, use_errno=True)
_PR_SET_PDEATHSIG = 1


def _child_setup() -> None:
    """Child-side, before exec: get SIGKILL if the benchmark process dies
    first, so a killed run leaves no server behind; and take SIGINT back
    to its default, which a benchmark started in the background inherits
    as ignored (the graceful stop is a SIGINT)."""
    _LIBC.prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL))
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def spawn(command: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start a program process from the repository root."""
    return subprocess.Popen(list(command), env=program_env(), cwd=str(ROOT),
                            text=True, preexec_fn=_child_setup, **kwargs)


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def cpu_seconds(pid: int) -> float:
    """On-CPU time of a live process so far: its kernel process CPU clock
    (``CLOCK_PROCESS_CPUTIME_ID`` of that pid, nanosecond resolution),
    summed over every thread it ever ran, exited ones included.  Host
    steal is not counted."""
    return time.clock_gettime(((~pid) << 3) | 2)  # MAKE_PROCESS_CPUCLOCK


def steal_seconds() -> float:
    """Host steal time of this machine so far, summed over CPUs."""
    with open("/proc/stat", encoding="ascii") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def own_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def pin_client() -> None:
    """Move the load generator onto its own CPU (see CLIENT_CPUS)."""
    if CLIENT_CPUS:
        os.sched_setaffinity(0, CLIENT_CPUS)


class CpuMeter:
    """CPU seconds used by the given processes and by this (client)
    process, plus host steal, between construction and :meth:`stop`."""

    def __init__(self, pids: Sequence[int]) -> None:
        self.pids = list(pids)
        self._start = (sum(cpu_seconds(pid) for pid in self.pids),
                       own_cpu_seconds(), steal_seconds(), now())
        self.program = self.client = self.steal_share = 0.0

    def stop(self) -> "CpuMeter":
        servers, client, steal, wall = self._start
        self.program = sum(cpu_seconds(pid) for pid in self.pids) - servers
        self.client = own_cpu_seconds() - client
        self.steal_share = (steal_seconds() - steal) / (
            NPROC * (now() - wall))
        return self


def vm_hwm_mb(pid="self") -> float:
    """Peak resident set of a live process (``VmHWM``), in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """One ``repro serve``/``repro cluster`` process on an ephemeral port.

    With ``spans`` set, the process is the traced launcher and writes
    its spans to that path when it shuts down.
    """

    def __init__(self, cli_args: Sequence[str], log: Path,
                 spans: Optional[Path] = None) -> None:
        if spans is None:
            command = [sys.executable, "-m", "repro.cli", *cli_args]
        else:
            command = [sys.executable, str(BENCH_DIR / "launcher.py"),
                       str(spans), *cli_args]
        self.spans = spans
        self._log = open(log, "ab")
        self.proc = spawn(command, stdout=subprocess.PIPE, stderr=self._log,
                          stdin=subprocess.DEVNULL)
        if PROGRAM_CPUS:
            os.sched_setaffinity(self.proc.pid, PROGRAM_CPUS)
        self._label = f"{cli_args[0]} (log {log})"
        self.url: Optional[str] = None

    def wait_ready(self) -> "Server":
        """Block until the server printed its bound address."""
        line = self.proc.stdout.readline()
        if " on " not in line:
            self.stop(kill=True)
            raise RuntimeError(f"{self._label} failed to start: {line!r}")
        self.url = line.split(" on ", 1)[1].split()[0].rstrip(",")
        return self

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        return vm_hwm_mb(self.proc.pid)

    def stop(self, kill: bool = False) -> None:
        """SIGINT (graceful; a traced launcher dumps its spans) or SIGKILL,
        then wait for the process to end."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL if kill else signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def stop_all(servers: Sequence[Server]) -> None:
    for server in reversed(list(servers)):
        server.stop()


# ---------------------------------------------------------------------- #
# load generation
# ---------------------------------------------------------------------- #
class Result:
    """Outcome of one load phase: per-op latencies (seconds), kinds and
    failures, plus the generator's send lag for open loops."""

    def __init__(self) -> None:
        self.latencies: Dict[str, List[float]] = {}
        self.lags: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.elapsed = 0.0

    def record(self, kind: str, latency: float) -> None:
        self.latencies.setdefault(kind, []).append(latency)

    def completed(self) -> int:
        return sum(len(values) for values in self.latencies.values())

    @classmethod
    def merged(cls, parts: Sequence["Result"]) -> "Result":
        """Consecutive phases as one."""
        out = cls()
        for part in parts:
            for kind, values in part.latencies.items():
                out.latencies.setdefault(kind, []).extend(values)
            out.lags.extend(part.lags)
            out.attempted += part.attempted
            out.failed += part.failed
            out.errors.extend(part.errors)
            out.elapsed += part.elapsed
        return out


def metered(pids: Sequence[int], windows: int, run_window: Callable):
    """Run ``run_window(k)`` for ``k`` in ``range(windows)``, metering
    CPU around each; returns the merged :class:`Result`, the per-window
    CPU seconds per completed op (program + client) and the meters."""
    parts, costs, meters = [], [], []
    for index in range(windows):
        meter = CpuMeter(pids)
        part = run_window(index)
        meters.append(meter.stop())
        parts.append(part)
        costs.append((meter.program + meter.client)
                     / max(1, part.completed()))
    return Result.merged(parts), costs, meters


def _run_workers(clients: Sequence, body: Callable) -> None:
    threads = [threading.Thread(target=body, args=(client,), daemon=True)
               for client in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def open_loop(clients: Sequence, ops: Sequence, rate: float,
              seconds: float, run_op: Callable) -> Result:
    """Send ``ops[i]`` at ``t0 + i / rate`` for ``seconds`` seconds.

    ``run_op(client, op)`` performs one op and returns its kind; an
    exception counts the op as failed.  Each op is timed from its due
    time.
    """
    result = Result()
    total = min(len(ops), round(rate * seconds))
    lock = threading.Lock()
    cursor = iter(range(total))
    start = now() + 0.01

    def worker(client) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            wait = due - now()
            if wait > 0:
                time.sleep(wait)
            sent = now()
            try:
                kind = run_op(client, ops[index])
                done = now()
            except Exception as exc:  # counted, never fatal to the phase
                with lock:
                    result.failed += 1
                    result.errors.append(repr(exc))
                continue
            with lock:
                result.record(kind, done - due)
                result.lags.append(sent - due)

    _run_workers(clients, worker)
    result.attempted = total
    result.elapsed = now() - start
    return result


def closed_loop(clients: Sequence, ops: Sequence, seconds: float,
                run_op: Callable) -> Result:
    """Each client sends its next op as soon as the last one completed,
    until ``seconds`` have passed; ops are taken in order from ``ops``
    (wrapping around)."""
    result = Result()
    lock = threading.Lock()
    counter = [0]
    start = now()
    deadline = start + seconds

    def worker(client) -> None:
        while now() < deadline:
            with lock:
                index = counter[0]
                counter[0] += 1
                result.attempted += 1
            op = ops[index % len(ops)]
            sent = now()
            try:
                kind = run_op(client, op)
                done = now()
            except Exception as exc:
                with lock:
                    result.failed += 1
                    result.errors.append(repr(exc))
                continue
            with lock:
                result.record(kind, done - sent)

    _run_workers(clients, worker)
    result.elapsed = now() - start
    return result
