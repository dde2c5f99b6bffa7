"""Concurrent store access: racing batches must never tear an entry.

Two real processes run overlapping ``run-many`` batches against the
same store root.  Results are deterministic, so racing writers of the
same key carry identical bytes and ``os.replace`` last-writer-wins
atomicity guarantees the invariant: **exactly one valid,
checksum-passing entry per key**, no torn files, no stray temps.

Gated behind ``REPRO_EXEC_TESTS=1`` (the ``result-store`` CI job) like
the process-pool suite — tier-1 stays in-process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from repro.store import ResultStore

from store_tiny import TINY_PARAMS, requires_subprocesses

#: The checkout root: the subprocesses import its ``src``.
CHECKOUT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def batch_command(root, names):
    specs = [
        json.dumps({"experiment": name, "params": TINY_PARAMS[name]})
        for name in names
    ]
    return [
        sys.executable,
        "-m",
        "repro",
        "run-many",
        *specs,
        "--store",
        str(root),
        "--json",
    ]


@requires_subprocesses
class TestConcurrentBatches:
    def test_racing_batches_leave_one_valid_entry_per_key(self, tmp_path):
        root = tmp_path / "rs"
        names = list(TINY_PARAMS)  # fig2 / fig3 / fig4
        env = {**os.environ, "PYTHONPATH": "src"}
        # Overlapping batches, launched together: both race to write
        # fig3/fig4; each also owns one exclusive spec.
        procs = [
            subprocess.Popen(
                batch_command(root, group),
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
                cwd=CHECKOUT,
                text=True,
            )
            for group in (names, names[::-1])
        ]
        reports = []
        for proc in procs:
            out, err = proc.communicate(timeout=300)
            assert proc.returncode == 0, err
            reports.append(json.loads(out))

        store = ResultStore(root)
        # Exactly one entry per unique (spec, config) key...
        assert len(store) == len(names)
        # ...every one checksum-valid and envelope-current...
        verify = store.verify()
        assert verify.ok
        assert verify.checked == verify.intact == len(names)
        assert store.quarantined() == []
        # ...and no torn or temporary files anywhere in the tree.
        stray = [
            path
            for path in root.rglob(".*")
            if path.is_file()
        ]
        assert stray == []
        # Both reports completed every spec; outcome documents agree
        # on the shared keys regardless of who computed and who served.
        for report in reports:
            assert len(report["outcomes"]) == len(names)
            assert all(
                o["status"] == "succeeded" for o in report["outcomes"]
            )
        first = {
            o["result"]["fingerprint"]: o["result"]
            for o in reports[0]["outcomes"]
        }
        second = {
            o["result"]["fingerprint"]: o["result"]
            for o in reports[1]["outcomes"]
        }
        assert first == second
