"""Unit tests for :class:`repro.store.ResultStore`.

Everything here drives the store directly with plain JSON documents —
the integrity machinery (atomic writes, checksum + envelope
verification, quarantine) does not care what a result document
contains, only that it round-trips canonically.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.errors import (
    ModelError,
    StoreCorruptError,
    StoreError,
    StoreStaleError,
    error_code,
)
from repro.store import (
    ResultStore,
    current_envelope,
    registry_contents_hash,
    resolve_store,
)

DOC = {"experiment": "fig3", "payload": {"answer": 42.0}}
TOKEN = "ab" * 8
OTHER = "cd" * 8


def put_one(store, token=TOKEN, doc=DOC, **kwargs):
    store.put(token, doc, **kwargs)
    return store.path_for(token)


class TestRoundTrip:
    def test_put_then_lookup_hits(self, store):
        put_one(store)
        lookup = store.lookup(TOKEN)
        assert lookup.hit
        assert lookup.result == DOC
        assert not lookup.quarantined and lookup.code is None

    def test_get_returns_document(self, store):
        put_one(store)
        assert store.get(TOKEN) == DOC
        assert store.get(OTHER) is None

    def test_entry_file_is_canonical_json(self, store):
        path = put_one(store)
        blob = path.read_bytes()
        entry = json.loads(blob)
        recanonical = json.dumps(
            entry, sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        assert blob == recanonical
        assert set(entry) == {
            "fingerprint", "status", "result", "checksum", "envelope",
        }
        assert entry["envelope"] == current_envelope()

    def test_no_stray_temp_files_after_put(self, store):
        path = put_one(store)
        stray = [p for p in path.parent.iterdir() if p.name.startswith(".")]
        assert stray == []

    def test_overwrite_is_idempotent(self, store):
        put_one(store)
        put_one(store)
        assert len(store) == 1
        assert store.lookup(TOKEN).hit

    def test_counters(self, store):
        put_one(store)
        store.lookup(TOKEN)
        store.lookup(OTHER)
        assert store.stats() == {
            "hits": 1,
            "misses": 1,
            "quarantined": 0,
            "writes": 1,
            "write_failures": 0,
        }

    def test_contains_and_enumeration(self, store):
        assert TOKEN not in store
        assert store.fingerprints() == []
        put_one(store)
        put_one(store, token=OTHER)
        assert TOKEN in store and OTHER in store
        assert store.fingerprints() == sorted([TOKEN, OTHER])
        assert len(store) == 2
        summaries = list(store.entries())
        assert [e["fingerprint"] for e in summaries] == sorted([TOKEN, OTHER])
        assert all(e["intact"] and e["experiment"] == "fig3" for e in summaries)


class TestValidation:
    def test_rejects_unservable_status(self, store):
        # put takes no status: every entry it writes is "succeeded".
        with pytest.raises(TypeError):
            store.put(TOKEN, DOC, status="failed")
        entry = json.loads(put_one(store).read_bytes())
        assert entry["status"] == "succeeded"

    @pytest.mark.parametrize(
        "token", ["", "a/b", "a.json", "../escape", 42, None]
    )
    def test_rejects_malformed_tokens(self, store, token):
        with pytest.raises(ModelError):
            store.path_for(token)

    def test_resolve_store(self, store, tmp_path):
        assert resolve_store(None) is None
        assert resolve_store(store) is store
        opened = resolve_store(tmp_path / "other")
        assert isinstance(opened, ResultStore)
        assert opened.root == tmp_path / "other"
        with pytest.raises(ModelError):
            resolve_store(42)


class TestCorruptionQuarantine:
    def flip_byte(self, path):
        # Flip a letter inside the result document (not the envelope or
        # checksum fields), so the checksum verification is what trips.
        blob = bytearray(path.read_bytes())
        blob[blob.index(b'"result":') + 11] ^= 0x01
        path.write_bytes(bytes(blob))

    def test_bit_flip_quarantines_and_misses(self, store):
        path = put_one(store)
        self.flip_byte(path)
        lookup = store.lookup(TOKEN)
        assert not lookup.hit
        assert lookup.quarantined
        assert lookup.code == StoreCorruptError.code
        # The entry moved aside verbatim with a typed reason next to it.
        assert not path.exists()
        reasons = store.quarantined()
        assert len(reasons) == 1
        assert reasons[0]["code"] == "store-corrupt"
        assert reasons[0]["fingerprint"] == TOKEN
        assert "checksum mismatch" in reasons[0]["message"]
        quarantined_file = store.quarantine_dir / reasons[0]["quarantined_file"]
        assert quarantined_file.exists()

    def test_truncation_quarantines(self, store):
        path = put_one(store)
        path.write_bytes(path.read_bytes()[: len(path.read_bytes()) // 2])
        lookup = store.lookup(TOKEN)
        assert lookup.quarantined and lookup.code == StoreCorruptError.code
        assert "not valid JSON" in store.quarantined()[0]["message"]

    def test_missing_keys_quarantine(self, store):
        path = put_one(store)
        path.write_text(json.dumps({"fingerprint": TOKEN}))
        assert store.lookup(TOKEN).code == StoreCorruptError.code

    def test_misfiled_entry_quarantines(self, store):
        path = put_one(store)
        misfiled = store.path_for(OTHER)
        misfiled.parent.mkdir(parents=True, exist_ok=True)
        misfiled.write_bytes(path.read_bytes())
        lookup = store.lookup(OTHER)
        assert lookup.code == StoreCorruptError.code
        assert "filed under" in store.quarantined()[0]["message"]

    def test_stale_envelope_quarantines_as_stale(self, store, tmp_path):
        old = ResultStore(
            tmp_path / "store",
            envelope={
                "schema": 1,
                "package": "0.0.0-ancient",
                "registries": registry_contents_hash(),
            },
        )
        put_one(old)
        lookup = store.lookup(TOKEN)
        assert not lookup.hit
        assert lookup.code == StoreStaleError.code
        reason = store.quarantined()[0]
        assert reason["code"] == "store-stale"
        assert "package" in reason["message"]

    def test_degraded_entry_is_quarantined_never_served(self, store):
        # Older releases also stored runs completed on a fallback engine,
        # as intact entries with status "degraded". No run can produce
        # that status now, so such an entry is never served.
        def write_degraded(token):
            entry = {
                "fingerprint": token,
                "status": "degraded",
                "result": DOC,
                "checksum": hashlib.sha256(
                    json.dumps(
                        DOC, sort_keys=True, separators=(",", ":")
                    ).encode("utf-8")
                ).hexdigest(),
                "envelope": current_envelope(),
            }
            path = store.path_for(token)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(entry, sort_keys=True, separators=(",", ":"))
            )

        write_degraded(TOKEN)
        lookup = store.lookup(TOKEN)
        assert not lookup.hit and lookup.result is None
        assert lookup.quarantined and lookup.code == StoreCorruptError.code
        assert TOKEN not in store
        assert "'degraded' is not servable" in store.quarantined()[0]["message"]

        write_degraded(OTHER)
        report = store.verify()
        assert not report.ok
        assert [t for t, _, _ in report.quarantined] == [OTHER]

    def test_quarantine_slots_never_collide(self, store):
        for _ in range(3):
            path = put_one(store)
            self.flip_byte(path)
            store.lookup(TOKEN)
        names = sorted(p.name for p in store.quarantine_dir.iterdir())
        assert names == [
            f"{TOKEN}-0.json",
            f"{TOKEN}-0.reason.json",
            f"{TOKEN}-1.json",
            f"{TOKEN}-1.reason.json",
            f"{TOKEN}-2.json",
            f"{TOKEN}-2.reason.json",
        ]

    def test_recompute_after_quarantine_serves_again(self, store):
        path = put_one(store)
        self.flip_byte(path)
        assert not store.lookup(TOKEN).hit
        put_one(store)  # the recompute writes the entry back
        assert store.lookup(TOKEN).hit
        assert store.stats()["quarantined"] == 1


class TestVerifyAndInspect:
    def test_verify_clean_store(self, store):
        put_one(store)
        put_one(store, token=OTHER)
        report = store.verify()
        assert report.ok
        assert (report.checked, report.intact) == (2, 2)
        assert report.previously_quarantined == 0
        assert report.to_dict()["quarantined"] == []

    def test_verify_quarantines_damage(self, store):
        put_one(store)
        path = put_one(store, token=OTHER)
        TestCorruptionQuarantine().flip_byte(path)
        report = store.verify()
        assert not report.ok
        assert (report.checked, report.intact) == (2, 1)
        assert [t for t, _, _ in report.quarantined] == [OTHER]
        assert OTHER not in store
        # A second walk finds the store clean and remembers the damage.
        again = store.verify()
        assert again.ok
        assert (again.checked, again.intact) == (1, 1)
        assert again.previously_quarantined == 1

    def test_inspect_is_non_destructive(self, store):
        path = put_one(store)
        TestCorruptionQuarantine().flip_byte(path)
        before = store.stats()
        code, message, entry = store.inspect(TOKEN)
        assert code == StoreCorruptError.code and entry is None
        assert "checksum mismatch" in message
        assert path.exists()  # nothing moved
        assert store.stats() == before  # nothing counted

    def test_inspect_intact_entry(self, store):
        put_one(store)
        code, message, entry = store.inspect(TOKEN)
        assert code is None and message is None
        assert entry["result"] == DOC

    def test_inspect_absent_raises_typed_error(self, store):
        with pytest.raises(StoreError) as excinfo:
            store.inspect(TOKEN)
        assert error_code(excinfo.value) == "store-error"
