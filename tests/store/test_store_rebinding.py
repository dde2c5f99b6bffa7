"""The envelope sees *bindings*, not just registered names.

A spec naming ``family="homo"`` fingerprints identically whatever
``"homo"`` resolves to, so rebinding a registered name must make
entries written under the old binding stale.
"""

from __future__ import annotations

import pytest

from repro.api import RunConfig, Session
from repro.api.specs import BudgetSweepSpec, DeadlineSweepSpec
from repro.core.deadline import min_cost_for_deadline_sweep
from repro.perf.deadline import (
    get_deadline_comparator,
    register_deadline_comparator,
)
from repro.perf.engine import EvaluationEngine, get_engine, register_engine
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


@pytest.mark.parametrize("executor", [None, "serial"])
def test_rebinding_a_family_makes_a_resumed_batch_recompute(
    store, executor
):
    """``run_many(store=...)`` resumes through the same envelope check
    as ``Session.run``, inline and on an executor: a batch rerun after
    its family was rebound quarantines the old entry and reports what a
    fresh run reports."""
    spec = BudgetSweepSpec(
        family="repe", n_tasks=6, budgets=(200,), strategies=("re",),
        scoring="numeric",
    )
    config = RunConfig(executor=executor)
    first = Session(config).run_many([spec], store=store)
    assert first.store["misses"] == 1
    original = get_family_builder("repe")
    register_family("repe", get_family_builder("heter"), replace=True)
    try:
        fresh = Session(config).run_many([spec])
        assert fresh.to_dict() != first.to_dict()  # the rebinding matters
        session = Session(config)
        rerun = session.run_many([spec], store=store)
        assert session.runs_completed == 1  # recomputed, not served
        assert rerun.store == {
            "hits": 0, "misses": 1, "quarantined": 1, "write_failures": 0,
        }
        assert not rerun.outcomes[0].served
        assert rerun.to_dict() == fresh.to_dict()
        reasons = store.quarantined()
        assert [reason["code"] for reason in reasons] == ["store-stale"]
        # The recompute rewrote the entry under the new binding.
        again = Session(config).run_many([spec], store=store)
        assert again.store["hits"] == 1
        assert again.to_dict() == fresh.to_dict()
    finally:
        register_family("repe", original, replace=True)


def test_rebinding_an_engine_to_a_subclass_quarantines_entries_as_stale(
    store,
):
    """Every engine name binds the one ``EvaluationEngine`` class, so
    the envelope tells bindings apart by type: a subclass bound under
    ``"scalar"`` must not be served entries the base class wrote."""

    class Subclassed(EvaluationEngine):
        pass

    spec = BudgetSweepSpec(
        family="homo", n_tasks=4, budgets=(800,), n_samples=20
    )
    session = Session(RunConfig(engine="scalar"))
    computed = session.run(spec, store=store)
    original = get_engine("scalar")
    before = registry_contents_hash()
    register_engine(Subclassed("scalar"), replace=True)
    try:
        assert registry_contents_hash() != before
        rebound = session.run(spec, store=store)
        assert session.runs_completed == 2  # recomputed, not served
        assert rebound.to_dict()["payload"] == computed.to_dict()["payload"]
        reasons = store.quarantined()
        assert [reason["code"] for reason in reasons] == ["store-stale"]
    finally:
        register_engine(original, replace=True)
    assert registry_contents_hash() == before


def test_rebinding_a_comparator_quarantines_entries_as_stale(store):
    """Both comparator names bind one solver, so a run fingerprints by
    the name alone; rebinding the name must make its entries stale."""

    def wrapped_sweep(*args, **kwargs):
        return min_cost_for_deadline_sweep(*args, **kwargs)

    spec = DeadlineSweepSpec(
        family="repe", n_tasks=4, deadlines=(3.0, 6.0), max_price=12
    )
    session = Session(RunConfig(comparator="reference"))
    computed = session.run(spec, store=store)
    original = get_deadline_comparator("reference")
    before = registry_contents_hash()
    register_deadline_comparator("reference", wrapped_sweep, replace=True)
    try:
        assert registry_contents_hash() != before
        rebound = session.run(spec, store=store)
        assert session.runs_completed == 2  # recomputed, not served
        assert rebound.fingerprint == computed.fingerprint
        assert rebound.to_dict()["payload"] == computed.to_dict()["payload"]
        reasons = store.quarantined()
        assert [reason["code"] for reason in reasons] == ["store-stale"]
        assert "registries" in reasons[0]["message"]
    finally:
        register_deadline_comparator("reference", original, replace=True)
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
