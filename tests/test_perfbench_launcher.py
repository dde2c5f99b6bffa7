"""The benchmark launcher still finds every name it patches.

``perfbench/launcher.py`` wraps library functions and methods by name
(``repro.perf.dp.budget_indexed_dp_fast``, ``Tuner.tune``, ...).  A
layer that renames one of them makes the traced benchmark run fail
with an ``AttributeError`` or ``KeyError`` at start-up; this test
catches that without starting a service.  ``install()`` runs in a
subprocess because it replaces names process-wide.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_INSTALL = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("launcher", sys.argv[1])
launcher = importlib.util.module_from_spec(spec)
spec.loader.exec_module(launcher)
launcher.install()
print("installed")
"""


def test_launcher_install_finds_every_patched_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _INSTALL, str(ROOT / "perfbench" / "launcher.py")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "installed"
