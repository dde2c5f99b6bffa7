"""Start, sample and stop the service as its own process."""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Ledger size for every run: large enough that no allocate is ever
#: refused, so a 409 is always an unexpected response.
MARKET_BUDGET = 10**15

_LISTENING = re.compile(r"listening on http://([^:]+):(\d+)")


class Server:
    """One ``repro serve`` process on a fresh store.

    With *spans* set, the service starts through the benchmark's
    tracing launcher, which writes its spans to that path at shutdown.
    """

    def __init__(self, store_dir: Path, spans: Path | None = None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        serve_args = ["serve", "--port", "0", "--store", str(store_dir),
                      "--market-budget", str(MARKET_BUDGET)]
        if spans is None:
            argv = [sys.executable, "-m", "repro", *serve_args]
        else:
            launcher = Path(__file__).resolve().parent / "launcher.py"
            argv = [sys.executable, str(launcher), str(spans), *serve_args]
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=env, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        line = self.proc.stdout.readline()
        match = _LISTENING.search(line)
        if match is None:
            self.stop()
            raise RuntimeError(f"service did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))

    def cpu_seconds(self) -> float:
        """User + system CPU time the service has used so far."""
        fields = Path(f"/proc/{self.proc.pid}/stat").read_text().rsplit(")", 1)[1].split()
        ticks = int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        """``VmHWM`` of the service process, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """Interrupt the service (so it shuts down cleanly) and wait."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
