"""The envelope sees *bindings*, not just registered names.

A spec naming ``family="homo"`` fingerprints identically whatever
``"homo"`` resolves to, so rebinding a registered name must make
entries written under the old binding stale.
"""

from __future__ import annotations

from repro.api import RunConfig, Session
from repro.api.specs import BudgetSweepSpec
from repro.store.envelope import registry_contents_hash
from repro.workloads.families import get_family_builder, register_family


def test_rebinding_a_family_quarantines_entries_as_stale(store):
    spec = BudgetSweepSpec(
        family="homo", n_tasks=4, budgets=(800,), n_samples=20
    )
    session = Session(RunConfig())
    computed = session.run(spec, store=store)
    original = get_family_builder("homo")
    before = registry_contents_hash()
    register_family("homo", get_family_builder("repe"), replace=True)
    try:
        assert registry_contents_hash() != before
        rebound = session.run(spec, store=store)
        assert session.runs_completed == 2  # recomputed, not served
        assert rebound.fingerprint == computed.fingerprint
        reasons = store.quarantined()
        assert [reason["code"] for reason in reasons] == ["store-stale"]
        assert "registries" in reasons[0]["message"]
        # The recompute rewrote the entry under the new binding.
        assert session.run(spec, store=store).to_dict() == rebound.to_dict()
        assert session.runs_completed == 2
    finally:
        register_family("homo", original, replace=True)
    assert registry_contents_hash() == before
