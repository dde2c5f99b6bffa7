"""Append-only JSONL checkpoint journal for ``Session.run_many``.

One line per completed spec::

    {"fingerprint": "<16 hex>", "status": "succeeded", "result": {...}}

``result`` is the full :meth:`~repro.api.session.RunResult.to_dict`
document (``status`` is always ``succeeded``: only completed specs are
journaled), so a resumed batch can reconstruct *exactly* the report
entry the uninterrupted run would have produced — the golden test in
``tests/resilience/test_checkpoint.py`` asserts the two serialize
byte-identically.

Lines are flushed and fsynced as they are appended; a process killed
mid-write leaves at most one partial trailing line, which
:meth:`CheckpointJournal.load` tolerates (everything before it is
kept).  Any other malformed content raises
:class:`~repro.errors.CheckpointError` rather than silently skipping
completed work.

Supervisor *events* (worker crashes, requeues, respawns — see
:class:`repro.exec.ProcessExecutor`) may be interleaved as
``{"event": {...}}`` lines by :meth:`CheckpointJournal.append_event`.
They are an audit trail only: :meth:`load` skips them, so a resumed
batch replays completed work identically whether or not the previous
attempt suffered worker failures.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping, Union

from ..errors import CheckpointError

__all__ = ["CheckpointJournal"]

_REQUIRED_KEYS = {"fingerprint", "status", "result"}


class CheckpointJournal:
    """The journal file behind ``Session.run_many(checkpoint=...)``."""

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)

    def load(self) -> dict:
        """Completed entries keyed by fingerprint (``{}`` if absent).

        Tolerates exactly one partial trailing line (a mid-write
        kill); earlier corruption raises :class:`CheckpointError`.
        """
        if not self.path.exists():
            return {}
        entries: dict = {}
        lines = self.path.read_text(encoding="utf-8").splitlines()
        last = len(lines) - 1
        for index, line in enumerate(lines):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                if index == last:
                    break  # partial trailing line from a killed writer
                raise CheckpointError(
                    f"checkpoint {self.path}: malformed journal line "
                    f"{index + 1} (not trailing — refusing to guess)"
                ) from None
            if isinstance(entry, Mapping) and set(entry) == {"event"}:
                continue  # supervisor audit line, not completed work
            if not isinstance(entry, Mapping) or not _REQUIRED_KEYS <= set(
                entry
            ):
                raise CheckpointError(
                    f"checkpoint {self.path}: line {index + 1} is not a "
                    f"journal entry (need keys {sorted(_REQUIRED_KEYS)})"
                )
            entries[entry["fingerprint"]] = dict(entry)
        return entries

    def load_events(self) -> list:
        """The journaled supervisor events, in append order."""
        if not self.path.exists():
            return []
        events = []
        for line in self.path.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # load() polices corruption; events are best-effort
            if isinstance(entry, Mapping) and set(entry) == {"event"}:
                events.append(dict(entry["event"]))
        return events

    def append(self, fingerprint: str, result: dict) -> None:
        """Durably journal one completed spec."""
        self._write_line(
            {
                "fingerprint": fingerprint,
                "status": "succeeded",
                "result": result,
            }
        )

    def append_event(self, event: Mapping) -> None:
        """Durably journal one supervisor event (audit trail only)."""
        self._write_line({"event": dict(event)})

    def _write_line(self, document: dict) -> None:
        line = json.dumps(document, sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
