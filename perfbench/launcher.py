"""Traced server launcher: ``repro.cli`` with the span wrappers installed.

Usage (from the repository root)::

    python3 perfbench/launcher.py SPANS.json serve --store-dir DIR --port 0
    python3 perfbench/launcher.py SPANS.json cluster --store-dir DIR \\
        --shards HOST:PORT,HOST:PORT --port 0

Runs exactly the ``repro.cli.main`` path of ``python -m repro.cli`` after
:func:`tracing.install`.  SIGINT (or SIGTERM) shuts the server down the
way Ctrl-C does; the recorded spans are then written to ``SPANS.json``.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def _interrupt(_signum, _frame):
    raise KeyboardInterrupt


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: launcher.py SPANS.json CLI-ARGS...", file=sys.stderr)
        return 2
    import tracing

    from repro import cli

    tracer = tracing.install(tracing.Tracer())
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        code = cli.main(argv[1:])
    finally:
        tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
