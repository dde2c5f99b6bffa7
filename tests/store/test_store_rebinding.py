"""The envelope sees *bindings*, not just registered names.

A spec naming ``family="homo"`` fingerprints identically whatever
``"homo"`` resolves to, so rebinding a registered name must make
entries written under the old binding stale.
"""

from __future__ import annotations

from repro.api import RunConfig, Session
from repro.api.specs import BudgetSweepSpec
from repro.resilience.faults import _PLANS, FaultPlan, register_fault_plan
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


def _never_firing_plan(at: int) -> FaultPlan:
    return FaultPlan(rules=({"site": "store.corrupt", "at": [at]},))


def test_rebinding_a_fault_plan_quarantines_entries_as_stale(store):
    """A ``faults="name"`` run fingerprints by the name; the envelope
    digests the plan's rules, so rebinding the name to other rules
    makes the entry stale even though the plan's type is unchanged."""
    spec = BudgetSweepSpec(
        family="homo", n_tasks=4, budgets=(800,), n_samples=20
    )
    register_fault_plan("test-rebinding-plan", _never_firing_plan(97))
    try:
        session = Session(RunConfig(faults="test-rebinding-plan"))
        computed = session.run(spec, store=store)
        before = registry_contents_hash()
        register_fault_plan(
            "test-rebinding-plan", _never_firing_plan(98), replace=True
        )
        assert registry_contents_hash() != before
        rebound = session.run(spec, store=store)
        assert session.runs_completed == 2  # recomputed, not served
        assert rebound.fingerprint == computed.fingerprint
        reasons = store.quarantined()
        assert [reason["code"] for reason in reasons] == ["store-stale"]
        assert "registries" in reasons[0]["message"]
    finally:
        _PLANS.pop("test-rebinding-plan", None)
