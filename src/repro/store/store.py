"""Content-addressed, crash-safe persistent result store.

``ResultStore`` files :class:`~repro.api.session.RunResult` documents
under their fingerprint (the ``(spec, config)`` digest from
:func:`repro.api.config.fingerprint`) in a **sharded JSON directory**::

    <root>/objects/<fp[:2]>/<fingerprint>.json   one entry per key
    <root>/quarantine/<fingerprint>-<n>.json     corrupt bytes, verbatim
    <root>/quarantine/<fingerprint>-<n>.reason.json

A document directory was chosen over sqlite deliberately: entries are
already canonical JSON documents (the same shape the checkpoint
journal stores), POSIX ``os.replace`` gives lock-free last-writer-wins
atomicity for concurrent cross-process writers (results are
deterministic, so racing writers of the same key carry identical
bytes), quarantining is a rename that preserves the corrupt bytes for
forensics, and the read path is one ``open`` + one ``json.loads`` with
no connection state and no new dependency.

Durability and integrity are the contracts, not performance:

* **Atomic writes** — entries are written to a temp file in the final
  shard directory, flushed, fsynced, then ``os.replace``-d into place;
  a crash at any point leaves either the old entry or the new one,
  never a torn file (stray temp files are invisible to readers).
* **Verify-before-serve** — every read re-derives the sha256 checksum
  of the entry's result document and compares the validity envelope
  (:mod:`repro.store.envelope`); any mismatch quarantines the entry
  with a typed :class:`~repro.errors.StoreError` code and reports a
  miss, so the caller recomputes.  A corrupt store degrades to a cold
  cache — it never serves a wrong answer and never crashes a run.
* **Deterministic failure drill** — the ``store.read`` /
  ``store.write`` / ``store.corrupt`` fault sites
  (:data:`repro.resilience.faults.FAULT_SITES`) are consulted against
  an explicitly passed :class:`~repro.resilience.faults.FaultState`,
  exactly like the ``worker.*`` sites, so every recovery path above is
  drivable from a serialized :class:`FaultPlan`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping, Optional, Union

from ..errors import (
    ModelError,
    StoreCorruptError,
    StoreError,
    StoreStaleError,
    StoreWriteError,
)
from .envelope import current_envelope, envelope_mismatch

__all__ = ["ResultStore", "StoreLookup", "VerifyReport", "resolve_store"]

#: Keys every intact entry document must carry.
_ENTRY_KEYS = frozenset(
    {"fingerprint", "status", "result", "checksum", "envelope"}
)

_tmp_counter = itertools.count()


def _canonical(document) -> bytes:
    """Canonical bytes of a JSON document (checksum + write format)."""
    return json.dumps(
        document, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def _checksum(result_document) -> str:
    """sha256 hex of the canonical result document."""
    return hashlib.sha256(_canonical(result_document)).hexdigest()


@dataclass(frozen=True)
class StoreLookup:
    """One lookup's fate: served, absent, or quarantined-and-missed.

    ``hit`` is the only field a caller needs to branch on — every
    non-hit (absent entry, injected read failure, corruption,
    staleness) means "recompute".  ``quarantined`` + ``code`` record
    *why* an existing entry could not be served.
    """

    fingerprint: str
    hit: bool
    result: Optional[dict] = None
    quarantined: bool = False
    code: Optional[str] = None


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of :meth:`ResultStore.verify` — the integrity walk."""

    checked: int
    intact: int
    quarantined: tuple = field(default_factory=tuple)
    previously_quarantined: int = 0

    @property
    def ok(self) -> bool:
        return not self.quarantined

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "intact": self.intact,
            "quarantined": [
                {"fingerprint": f, "code": c, "message": m}
                for f, c, m in self.quarantined
            ],
            "previously_quarantined": self.previously_quarantined,
        }


class ResultStore:
    """The disk-backed result store behind ``Session.run(store=...)``.

    Parameters
    ----------
    root:
        Directory holding the store (created on first write).
    envelope:
        Override of the validity envelope stamped on written entries —
        testing hook only; the default (``None``) stamps
        :func:`repro.store.envelope.current_envelope` at each write, so
        entries always record the registries that actually produced
        them.
    """

    def __init__(
        self,
        root: Union[str, Path],
        envelope: Optional[Mapping] = None,
    ) -> None:
        self.root = Path(root)
        self._envelope_override = (
            dict(envelope) if envelope is not None else None
        )
        self._counters = {
            "hits": 0,
            "misses": 0,
            "quarantined": 0,
            "writes": 0,
            "write_failures": 0,
        }

    # -- layout --------------------------------------------------------

    @property
    def objects_dir(self) -> Path:
        return self.root / "objects"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def path_for(self, token: str) -> Path:
        """The entry file a fingerprint is stored at."""
        token = _check_token(token)
        return self.objects_dir / token[:2] / f"{token}.json"

    def envelope(self) -> dict:
        """The envelope stamped on the next write."""
        if self._envelope_override is not None:
            return dict(self._envelope_override)
        return current_envelope()

    # -- write path ----------------------------------------------------

    def put(
        self,
        token: str,
        result_document: Mapping,
        fault_state=None,
    ) -> Path:
        """Atomically store *result_document* under *token*.

        *result_document* is a completed :meth:`RunResult.to_dict`
        document; the entry records it with status ``succeeded``.  Raises
        :class:`~repro.errors.StoreWriteError` when the entry cannot be
        written durably (callers treat that as "memoization lost", not
        as a run failure).
        """
        token = _check_token(token)
        if fault_state is not None:
            fired = fault_state.fires("store.write")
            if fired is not None:
                occurrence, rule = fired
                self._counters["write_failures"] += 1
                raise StoreWriteError(
                    f"injected fault at site 'store.write' "
                    f"(occurrence {occurrence}) for entry {token}"
                    + (f": {rule.detail}" if rule.detail else "")
                )
        entry = {
            "fingerprint": token,
            "status": "succeeded",
            "result": result_document,
            "checksum": _checksum(result_document),
            "envelope": self.envelope(),
        }
        blob = _canonical(entry)
        if fault_state is not None:
            fired = fault_state.fires("store.corrupt")
            if fired is not None:
                # Deterministic single-byte flip: the write "succeeds",
                # and the next read's checksum verification must catch
                # it — the drill for real at-rest corruption.
                mutable = bytearray(blob)
                mutable[len(mutable) // 2] ^= 0x01
                blob = bytes(mutable)
        path = self.path_for(token)
        try:
            self._write_atomic(path, blob)
        except OSError as exc:
            self._counters["write_failures"] += 1
            raise StoreWriteError(
                f"could not write store entry {token} at {path}: {exc}"
            ) from exc
        self._counters["writes"] += 1
        return path

    def _write_atomic(self, path: Path, blob: bytes) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / (
            f".tmp-{path.stem}-{os.getpid()}-{next(_tmp_counter)}"
        )
        try:
            with open(tmp, "wb") as handle:
                handle.write(blob)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
        except OSError:
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            raise
        self._fsync_dir(path.parent)

    @staticmethod
    def _fsync_dir(directory: Path) -> None:
        # Durability of the rename itself; best-effort on platforms
        # without directory fds.
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    # -- read path -----------------------------------------------------

    def lookup(self, token: str, fault_state=None) -> StoreLookup:
        """Verify-before-serve lookup of *token*.

        Absent entries are plain misses.  Existing entries are served
        only after the checksum and validity envelope pass; any failure
        quarantines the entry (bytes preserved verbatim, reason
        document alongside) and reports a miss so the caller
        recomputes.  Never raises for entry-level problems.
        """
        token = _check_token(token)
        path = self.path_for(token)
        if not path.exists():
            self._counters["misses"] += 1
            return StoreLookup(fingerprint=token, hit=False)
        if fault_state is not None:
            fired = fault_state.fires("store.read")
            if fired is not None:
                occurrence, rule = fired
                return self._miss_quarantined(
                    token,
                    path,
                    StoreCorruptError.code,
                    f"injected fault at site 'store.read' "
                    f"(occurrence {occurrence})"
                    + (f": {rule.detail}" if rule.detail else ""),
                )
        try:
            code, message, entry = self._verify_entry(token, path)
        except OSError as exc:
            code, message, entry = (
                StoreCorruptError.code,
                f"unreadable entry file: {exc}",
                None,
            )
        if code is not None:
            return self._miss_quarantined(token, path, code, message)
        self._counters["hits"] += 1
        return StoreLookup(
            fingerprint=token,
            hit=True,
            result=entry["result"],
        )

    def _verify_entry(self, token: str, path: Path):
        """``(code, message, entry)`` — code ``None`` when servable."""
        blob = path.read_bytes()
        try:
            entry = json.loads(blob.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            return (
                StoreCorruptError.code,
                f"entry is not valid JSON: {exc}",
                None,
            )
        if not isinstance(entry, Mapping) or not _ENTRY_KEYS <= set(entry):
            return (
                StoreCorruptError.code,
                f"entry document is missing required keys "
                f"(need {sorted(_ENTRY_KEYS)})",
                None,
            )
        if entry["fingerprint"] != token:
            return (
                StoreCorruptError.code,
                f"entry claims fingerprint {entry['fingerprint']!r} but is "
                f"filed under {token!r}",
                None,
            )
        if entry["status"] != "succeeded":
            return (
                StoreCorruptError.code,
                f"entry status {entry['status']!r} is not servable",
                None,
            )
        expected = _checksum(entry["result"])
        if entry["checksum"] != expected:
            return (
                StoreCorruptError.code,
                f"checksum mismatch: entry records {entry['checksum']!r}, "
                f"payload hashes to {expected!r}",
                None,
            )
        stale = envelope_mismatch(entry["envelope"])
        if stale:
            return (StoreStaleError.code, f"stale envelope: {stale}", None)
        return None, None, entry

    def get(self, token: str, fault_state=None) -> Optional[dict]:
        """The stored result document for *token*, or ``None``."""
        return self.lookup(token, fault_state=fault_state).result

    def inspect(self, token: str):
        """Non-destructive verification of one entry.

        Returns ``(code, message, entry)``: ``(None, None, entry)``
        for an intact entry, a typed store-error code and message
        (entry ``None``) otherwise — without quarantining anything
        (that is :meth:`lookup`/:meth:`verify`'s job) and without
        touching the counters.  Raises :class:`~repro.errors.StoreError`
        only for an absent fingerprint.
        """
        token = _check_token(token)
        path = self.path_for(token)
        if not path.exists():
            raise StoreError(
                f"no stored entry for fingerprint {token!r} in {self.root}"
            )
        try:
            return self._verify_entry(token, path)
        except OSError as exc:
            return (
                StoreCorruptError.code,
                f"unreadable entry file: {exc}",
                None,
            )

    def __contains__(self, token: str) -> bool:
        """Existence only — no verification, no counters."""
        return self.path_for(token).exists()

    # -- quarantine ----------------------------------------------------

    def _miss_quarantined(
        self, token: str, path: Path, code: str, message: str
    ) -> StoreLookup:
        self.quarantine(token, path, code, message)
        self._counters["misses"] += 1
        self._counters["quarantined"] += 1
        return StoreLookup(
            fingerprint=token, hit=False, quarantined=True, code=code
        )

    def quarantine(
        self, token: str, path: Path, code: str, message: str
    ) -> Path:
        """Move the entry at *path* aside and record why.

        The offending bytes move verbatim to
        ``quarantine/<token>-<n>.json``; the reason lands next to them
        as an :class:`~repro.resilience.document.ErrorDocument`-style
        ``.reason.json``.  Returns the reason path.
        """
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for n in itertools.count():
            dest = self.quarantine_dir / f"{token}-{n}.json"
            reason_path = self.quarantine_dir / f"{token}-{n}.reason.json"
            if not dest.exists() and not reason_path.exists():
                break
        try:
            os.replace(path, dest)
        except OSError:
            pass  # a racing reader already moved it; keep our reason
        reason = {
            "code": code,
            "error": _ERROR_NAMES.get(code, StoreError.__name__),
            "message": message,
            "fingerprint": token,
            "quarantined_file": dest.name,
            "envelope_expected": current_envelope(),
        }
        reason_path.write_text(
            json.dumps(reason, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )
        return reason_path

    def quarantined(self) -> list:
        """The recorded quarantine reason documents, sorted by name."""
        if not self.quarantine_dir.is_dir():
            return []
        reasons = []
        for reason_path in sorted(
            self.quarantine_dir.glob("*.reason.json")
        ):
            try:
                reasons.append(
                    json.loads(reason_path.read_text(encoding="utf-8"))
                )
            except (OSError, json.JSONDecodeError):
                reasons.append(
                    {
                        "code": StoreCorruptError.code,
                        "message": f"unreadable reason file {reason_path.name}",
                        "fingerprint": reason_path.name.split("-")[0],
                    }
                )
        return reasons

    # -- enumeration / verification ------------------------------------

    def fingerprints(self) -> list:
        """Stored fingerprints, sorted (existence only)."""
        if not self.objects_dir.is_dir():
            return []
        return sorted(
            path.stem
            for path in self.objects_dir.glob("*/*.json")
            if not path.name.startswith(".")
        )

    def entries(self) -> Iterator[dict]:
        """Best-effort summaries of every stored entry, sorted.

        Non-destructive (nothing is quarantined — that is
        :meth:`verify`'s job): unreadable entries are reported with
        ``intact=False`` instead.
        """
        for token in self.fingerprints():
            path = self.path_for(token)
            try:
                code, _, entry = self._verify_entry(token, path)
            except OSError:
                code, entry = StoreCorruptError.code, None
            if code is None:
                yield {
                    "fingerprint": token,
                    "experiment": entry["result"].get("experiment"),
                    "status": entry["status"],
                    "intact": True,
                }
            else:
                yield {
                    "fingerprint": token,
                    "experiment": None,
                    "status": code,
                    "intact": False,
                }

    def verify(self, fault_state=None) -> VerifyReport:
        """Walk every entry, quarantine the bad, report the damage."""
        quarantined = []
        intact = 0
        tokens = self.fingerprints()
        for token in tokens:
            path = self.path_for(token)
            if fault_state is not None:
                fired = fault_state.fires("store.read")
                if fired is not None:
                    occurrence, rule = fired
                    message = (
                        f"injected fault at site 'store.read' "
                        f"(occurrence {occurrence})"
                    )
                    self.quarantine(
                        token, path, StoreCorruptError.code, message
                    )
                    self._counters["quarantined"] += 1
                    quarantined.append(
                        (token, StoreCorruptError.code, message)
                    )
                    continue
            try:
                code, message, _ = self._verify_entry(token, path)
            except OSError as exc:
                code, message = (
                    StoreCorruptError.code,
                    f"unreadable entry file: {exc}",
                )
            if code is None:
                intact += 1
                continue
            self.quarantine(token, path, code, message)
            self._counters["quarantined"] += 1
            quarantined.append((token, code, message))
        return VerifyReport(
            checked=len(tokens),
            intact=intact,
            quarantined=tuple(quarantined),
            previously_quarantined=len(self.quarantined())
            - len(quarantined),
        )

    # -- bookkeeping ---------------------------------------------------

    def stats(self) -> dict:
        """Lifetime counters of this store object (not persisted)."""
        return dict(self._counters)

    def __len__(self) -> int:
        return len(self.fingerprints())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResultStore({str(self.root)!r}, entries={len(self)})"


_ERROR_NAMES = {
    StoreCorruptError.code: StoreCorruptError.__name__,
    StoreStaleError.code: StoreStaleError.__name__,
    StoreWriteError.code: StoreWriteError.__name__,
    StoreError.code: StoreError.__name__,
}


def _check_token(token) -> str:
    if not isinstance(token, str) or not token or "/" in token or "." in token:
        raise ModelError(
            f"store fingerprints are non-empty hex strings, got {token!r}"
        )
    return token


def resolve_store(
    store: Union[None, str, Path, ResultStore],
) -> Optional[ResultStore]:
    """The single place ``store=`` resolution happens.

    ``None`` stays ``None`` (no memoization); paths open a
    :class:`ResultStore` rooted there; store objects pass through.
    """
    if store is None or isinstance(store, ResultStore):
        return store
    if isinstance(store, (str, Path)):
        return ResultStore(store)
    raise ModelError(
        f"cannot resolve result store from {store!r}; expected a "
        "ResultStore, a directory path, or None"
    )
