"""Session/store integration: memoized serving and batch resume.

The headline contract is **byte-identity**: a result served from the
store must serialize exactly like the one that was computed, and a
batch report mixing served / computed outcomes must serialize exactly
like an uninterrupted run's.
"""

from __future__ import annotations

import json

from repro.api import RunConfig, Session

from store_tiny import tiny_spec, tiny_specs


class TestRunMemoized:
    def test_second_run_is_served_byte_identically(self, store, fig3_spec):
        session = Session(RunConfig())
        computed = session.run(fig3_spec, store=store)
        assert session.runs_completed == 1
        served = session.run(fig3_spec, store=store)
        # Nothing executed: the engine never ran for the second call.
        assert session.runs_completed == 1
        assert served.to_dict() == computed.to_dict()
        assert served.to_json() == computed.to_json()
        assert served.fingerprint == computed.fingerprint
        assert store.stats()["hits"] == 1
        assert store.stats()["misses"] == 1
        assert store.stats()["writes"] == 1

    def test_store_accepts_a_path(self, tmp_path, fig3_spec):
        session = Session(RunConfig())
        first = session.run(fig3_spec, store=tmp_path / "rs")
        second = session.run(fig3_spec, store=tmp_path / "rs")
        assert session.runs_completed == 1
        assert second.to_dict() == first.to_dict()

    def test_store_never_enters_the_fingerprint(self, store, fig3_spec):
        session = Session(RunConfig())
        with_store = session.run(fig3_spec, store=store)
        without = Session(RunConfig()).run(fig3_spec)
        assert with_store.fingerprint == without.fingerprint
        assert with_store.to_dict() == without.to_dict()

    def test_different_configs_use_different_entries(self, store, fig3_spec):
        Session(RunConfig(seed=0)).run(fig3_spec, store=store)
        Session(RunConfig(seed=1)).run(fig3_spec, store=store)
        assert len(store) == 2

    def test_corrupt_entry_recomputes_correctly(self, store, fig3_spec):
        session = Session(RunConfig())
        computed = session.run(fig3_spec, store=store)
        path = store.path_for(computed.fingerprint)
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x01
        path.write_bytes(bytes(blob))
        recomputed = session.run(fig3_spec, store=store)
        assert session.runs_completed == 2
        assert recomputed.to_dict() == computed.to_dict()
        assert store.stats()["quarantined"] == 1
        # The recompute healed the store: the next run serves again.
        assert session.run(fig3_spec, store=store).to_dict() == computed.to_dict()
        assert session.runs_completed == 2


class TestRunManyMemoized:
    def test_hit_miss_tally_and_served_flags(self, store):
        session = Session(RunConfig())
        cold = session.run_many(tiny_specs(), store=store)
        assert cold.ok
        assert cold.store == {
            "hits": 0, "misses": 3, "quarantined": 0, "write_failures": 0,
        }
        assert cold.served == ()
        warm = session.run_many(tiny_specs(), store=store)
        assert warm.store == {
            "hits": 3, "misses": 0, "quarantined": 0, "write_failures": 0,
        }
        assert len(warm.served) == 3
        assert all(o.served for o in warm.outcomes)
        assert session.runs_completed == 3  # cold batch only

    def test_reports_serialize_identically(self, store):
        cold = Session(RunConfig()).run_many(tiny_specs(), store=store)
        warm = Session(RunConfig()).run_many(tiny_specs(), store=store)
        plain = Session(RunConfig()).run_many(tiny_specs())
        # served/store are bookkeeping, not identity: default documents
        # are byte-identical across computed / served / storeless runs.
        assert json.dumps(warm.to_dict(), sort_keys=True) == json.dumps(
            cold.to_dict(), sort_keys=True
        )
        assert warm.to_dict() == plain.to_dict()
        # The tally is opt-in.
        assert "store" not in warm.to_dict()
        assert warm.to_dict(include_store=True)["store"]["hits"] == 3

    def test_partial_overlap_mixes_hits_and_misses(self, store):
        session = Session(RunConfig())
        session.run_many([tiny_spec("fig3")], store=store)
        report = session.run_many(tiny_specs(), store=store)
        assert report.store["hits"] == 1
        assert report.store["misses"] == 2
        assert [o.served for o in report.outcomes] == [False, True, False]


class TestSerialExecutorStore:
    """The executor fan-out path consults the store in the parent."""

    def test_serial_executor_serves_and_writes(self, store):
        config = RunConfig(executor="serial")
        session = Session(config)
        cold = session.run_many(tiny_specs(), store=store)
        assert cold.ok
        assert cold.store["misses"] == 3
        assert len(store) == 3
        warm = session.run_many(tiny_specs(), store=store)
        assert warm.store == {
            "hits": 3, "misses": 0, "quarantined": 0, "write_failures": 0,
        }
        assert all(o.served for o in warm.outcomes)
        # Documents are executor- and store-invariant.
        inline = Session(RunConfig()).run_many(tiny_specs())
        assert warm.to_dict() == inline.to_dict()
