"""End-to-end benchmark of the live service (``repro serve``).

Usage, from the repository root::

    python3 perfbench/run.py --workload market-open --seed 1 --seconds 20 --trace 0

Each run starts ``python -m repro serve --port 0`` as its own process
on a fresh result store, drives it over the socket from this process
with at most ``nproc`` open connections, checks every answer, and
prints one JSON object as its last line of output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the workload twice
on the same seed, untraced and then through the tracing launcher, and
reports the per-layer metrics.  The exit code is 0 only when the run
completed; wrong answers still exit 0 but report ``correct: false``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Connection cap: one open connection per core.
CONNECTIONS = os.cpu_count() or 1

#: How many times each run sets the service up; ``setup_s`` is the
#: median, and the last set-up serves the timed phase.
SETUPS = 3


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over the service's sources: identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "serve").is_dir():
        return _fail(f"no service sources under {SRC}; run from a repository checkout")
    if args.seconds <= 0:
        return _fail("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"expected one of {sorted(workloads.WORKLOADS)}")
    # A terminated benchmark still stops its service: SIGTERM unwinds
    # through the same clean-up as a normal exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    work = ROOT / ".perfbench_work" / str(os.getpid())
    work.mkdir(parents=True)
    try:
        result = workloads.run(args.workload, args.seed, args.seconds,
                               bool(args.trace), work, CONNECTIONS, SETUPS)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "connections": CONNECTIONS,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": _commit(), "source_sha256": _source_digest(),
    }
    for line in result.pop("log", []):
        print(line)
    print("environment: " + json.dumps(environment))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
