"""Resumable ``run_many``: a batch resumed from its result store must
serialize byte-identically to the uninterrupted one."""

from __future__ import annotations

from repro.api import RunConfig, Session
from repro.store import ResultStore

from tiny import tiny_spec


def _specs():
    return [tiny_spec("fig2"), tiny_spec("fig3"), tiny_spec("fig4")]


def test_resumed_batch_is_byte_identical(tmp_path):
    store = ResultStore(tmp_path / "store")
    uninterrupted = Session(RunConfig()).run_many(_specs(), store=store)
    golden = uninterrupted.to_json()

    # Simulate a kill after two completed specs: drop the third entry.
    assert len(store) == 3
    store.path_for(uninterrupted.outcomes[2].result.fingerprint).unlink()

    session = Session(RunConfig())
    resumed = session.run_many(_specs(), store=store)
    assert resumed.to_json() == golden
    assert [o.served for o in resumed.outcomes] == [True, True, False]
    assert session.runs_completed == 1
    # the resumed run stored the third spec: a second resume is a
    # full serve and still byte-identical
    re_resumed = Session(RunConfig()).run_many(_specs(), store=store)
    assert re_resumed.to_json() == golden
    assert all(o.served for o in re_resumed.outcomes)


def test_corrupt_entries_are_recomputed_not_served(tmp_path):
    store = ResultStore(tmp_path / "store")
    first = Session(RunConfig()).run_many(_specs(), store=store)
    for token in store.fingerprints():
        store.path_for(token).write_bytes(b"{torn")
    session = Session(RunConfig())
    resumed = session.run_many(_specs(), store=store)
    assert session.runs_completed == 3  # nothing corrupt was served
    assert resumed.store["quarantined"] == 3
    assert resumed.to_json() == first.to_json()
    # the recompute healed the store
    healed = Session(RunConfig()).run_many(_specs(), store=store)
    assert healed.store["hits"] == 3


def test_temp_file_of_a_killed_writer_is_ignored(tmp_path):
    store = ResultStore(tmp_path / "store")
    first = Session(RunConfig()).run_many(_specs(), store=store)
    # A writer killed before its rename leaves only its temp file.
    path = store.path_for(first.outcomes[2].result.fingerprint)
    torn = path.read_bytes()[:40]
    path.unlink()
    (path.parent / f".tmp-{path.stem}-1-0").write_bytes(torn)
    resumed = Session(RunConfig()).run_many(_specs(), store=store)
    assert resumed.to_json() == first.to_json()
    assert [o.served for o in resumed.outcomes] == [True, True, False]
    assert resumed.store["quarantined"] == 0


def test_served_results_rebuild_run_results(tmp_path):
    store = ResultStore(tmp_path / "store")
    first = Session(RunConfig()).run_many([tiny_spec("fig2")], store=store)
    second = Session(RunConfig()).run_many([tiny_spec("fig2")], store=store)
    [served] = second.results
    [original] = first.results
    # a served result holds the JSON-form payload; the serialized
    # documents (what any downstream consumer sees) are identical.
    assert served.fingerprint == original.fingerprint
    assert served.to_dict() == original.to_dict()
    assert served.to_dict()["payload"] == original.to_dict()["payload"]


def test_failed_specs_are_not_stored_and_rerun(tmp_path):
    store = ResultStore(tmp_path / "store")
    bad = RunConfig(faults={"rules": [{"site": "run.start", "at": [0]}]})
    report = Session(bad).run_many([tiny_spec("fig2")], store=store)
    assert not report.ok
    # nothing durably completed
    assert len(store) == 0
    # a rerun with the fault removed completes and stores
    good = Session(RunConfig()).run_many([tiny_spec("fig2")], store=store)
    assert good.ok
    assert len(store) == 1
