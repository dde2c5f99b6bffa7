"""FaultRule / FaultPlan values, registry, and runtime semantics."""

from __future__ import annotations

import json
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    FaultInjectedError,
    ModelError,
    RegistryError,
    RunTimeoutError,
)
from repro.resilience import FaultPlan, FaultRule
from repro.resilience.faults import (
    FAULT_SITES,
    active_fault_state,
    available_fault_plans,
    get_fault_plan,
    register_fault_plan,
    resolve_fault_plan,
    runtime_scope,
    site_check,
)


# ---------------------------------------------------------------------------
# value validation
# ---------------------------------------------------------------------------


def test_rule_rejects_unknown_site():
    with pytest.raises(ModelError, match="unknown fault site"):
        FaultRule(site="nope", at=(0,))


def test_rule_needs_a_trigger():
    with pytest.raises(ModelError, match="trigger"):
        FaultRule(site="run.start")


def test_rule_rejects_negative_occurrence():
    with pytest.raises(ModelError):
        FaultRule(site="run.start", at=(-1,))


def test_rule_rejects_out_of_range_rate():
    with pytest.raises(ModelError):
        FaultRule(site="run.start", rate=1.5)


def test_rule_from_dict_rejects_unknown_keys():
    with pytest.raises(ModelError, match="unknown FaultRule keys"):
        FaultRule.from_dict({"site": "run.start", "at": [0], "bogus": 1})


def test_plan_from_dict_rejects_unknown_keys():
    with pytest.raises(ModelError, match="unknown FaultPlan keys"):
        FaultPlan.from_dict({"rules": [], "extra": True})


def test_plan_coerces_rule_dicts():
    plan = FaultPlan(rules=({"site": "engine.sample", "at": [1]},))
    assert isinstance(plan.rules[0], FaultRule)
    assert plan.rules[0].at == (1,)


# ---------------------------------------------------------------------------
# serialization round-trips (property-based)
# ---------------------------------------------------------------------------

#: (at, rate) pairs that always carry at least one trigger — a rule
#: with neither is invalid by construction, so guarantee the invariant
#: in the strategy instead of filtering after __post_init__ raises.
_triggers = st.one_of(
    st.tuples(
        st.lists(st.integers(0, 50), min_size=1, max_size=4).map(tuple),
        st.just(0.0),
    ),
    st.tuples(
        st.lists(st.integers(0, 50), max_size=4).map(tuple),
        st.floats(0.001, 1.0, allow_nan=False),
    ),
)

_rules = st.builds(
    lambda site, trigger, replication, engine, comparator, on_attempts,
    detail: FaultRule(
        site=site,
        at=trigger[0],
        rate=trigger[1],
        replication=replication,
        engine=engine,
        comparator=comparator,
        on_attempts=on_attempts,
        detail=detail,
    ),
    site=st.sampled_from(FAULT_SITES),
    trigger=_triggers,
    replication=st.none() | st.integers(0, 10),
    engine=st.none() | st.sampled_from(["scalar", "batch", "agent-batch"]),
    comparator=st.none() | st.sampled_from(["batched", "reference"]),
    on_attempts=st.none() | st.lists(st.integers(0, 5), max_size=3).map(tuple),
    detail=st.text(max_size=20),
)


@settings(max_examples=50, deadline=None)
@given(rule=_rules)
def test_rule_roundtrips_through_json(rule):
    payload = json.loads(json.dumps(rule.to_dict()))
    assert FaultRule.from_dict(payload) == rule


@settings(max_examples=25, deadline=None)
@given(rules=st.lists(_rules, max_size=4), seed=st.integers(0, 2**31))
def test_plan_roundtrips_through_json(rules, seed):
    plan = FaultPlan(rules=tuple(rules), seed=seed)
    assert FaultPlan.from_dict(json.loads(plan.to_json())) == plan


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


def test_registry_roundtrip_and_unknown_name():
    plan = FaultPlan(rules=({"site": "run.start", "at": [0]},), seed=3)
    register_fault_plan("test-faults-registry", plan, replace=True)
    try:
        assert get_fault_plan("test-faults-registry") is plan
        assert "test-faults-registry" in available_fault_plans()
        assert resolve_fault_plan("test-faults-registry") is plan
        with pytest.raises(RegistryError, match="test-faults-registry"):
            get_fault_plan("no-such-plan")
    finally:
        from repro.resilience.faults import _PLANS

        _PLANS.pop("test-faults-registry", None)


def test_resolve_passthrough_and_rejection():
    assert resolve_fault_plan(None) is None
    plan = FaultPlan(seed=1)
    assert resolve_fault_plan(plan) is plan
    inline = resolve_fault_plan({"rules": [{"site": "run.start", "at": [0]}]})
    assert isinstance(inline, FaultPlan)
    with pytest.raises(ModelError):
        resolve_fault_plan(42)


def test_registry_error_is_a_model_error_and_lookup_error():
    with pytest.raises(ModelError):
        get_fault_plan("nope")
    with pytest.raises(LookupError):
        get_fault_plan("nope")


# ---------------------------------------------------------------------------
# runtime scope + deterministic firing
# ---------------------------------------------------------------------------


def test_site_check_is_noop_without_scope():
    site_check("run.start")  # must not raise


def test_occurrence_indexed_firing():
    plan = FaultPlan(rules=(FaultRule(site="engine.sample", at=(2,)),))
    state = plan.activate()
    with runtime_scope(state):
        site_check("engine.sample")  # occurrence 0
        site_check("engine.sample")  # occurrence 1
        with pytest.raises(FaultInjectedError) as exc:
            site_check("engine.sample")  # occurrence 2 fires
    assert exc.value.site == "engine.sample"
    assert exc.value.occurrence == 2
    site_check("engine.sample")  # scope restored: no-op again


def test_context_filters_gate_firing():
    plan = FaultPlan(
        rules=(FaultRule(site="engine.sample", at=(0,), engine="batch"),)
    )
    with runtime_scope(plan.activate()):
        site_check("engine.sample", engine="scalar")  # filtered out
        with pytest.raises(FaultInjectedError):
            site_check("engine.sample", engine="batch")


def test_replication_counters_are_independent():
    plan = FaultPlan(
        rules=(FaultRule(site="market.replication", at=(1,)),)
    )
    with runtime_scope(plan.activate()):
        # occurrence 0 of each replication: no fire either way.
        site_check("market.replication", replication=0)
        site_check("market.replication", replication=1)
        # occurrence 1, replication 1 fires — replication 0 untouched.
        with pytest.raises(FaultInjectedError) as exc:
            site_check("market.replication", replication=1)
    assert exc.value.replication == 1


def test_rate_firing_is_seed_deterministic():
    def fire_pattern(seed, n=64):
        plan = FaultPlan(
            rules=(FaultRule(site="engine.sample", rate=0.3),), seed=seed
        )
        pattern = []
        with runtime_scope(plan.activate()):
            for _ in range(n):
                try:
                    site_check("engine.sample")
                    pattern.append(False)
                except FaultInjectedError:
                    pattern.append(True)
        return pattern

    first = fire_pattern(seed=7)
    assert fire_pattern(seed=7) == first
    assert any(first) and not all(first)
    assert fire_pattern(seed=8) != first


def test_on_attempts_filter():
    plan = FaultPlan(
        rules=(FaultRule(site="run.start", at=(0,), on_attempts=(0,)),)
    )
    with runtime_scope(plan.activate(attempt=0)):
        with pytest.raises(FaultInjectedError):
            site_check("run.start")
    with runtime_scope(plan.activate(attempt=1)):
        site_check("run.start")  # rule restricted to attempt 0


def test_timeout_deadline_raises_at_next_site():
    with runtime_scope(None, timeout_seconds=1e-12):
        with pytest.raises(RunTimeoutError) as exc:
            site_check("run.start")
    assert exc.value.site == "run.start"


def test_scopes_nest_and_restore():
    outer = FaultPlan(rules=(FaultRule(site="run.start", at=(0,)),))
    inner = FaultPlan(rules=(FaultRule(site="engine.sample", at=(0,)),))
    with runtime_scope(outer.activate()):
        with runtime_scope(inner.activate()):
            site_check("run.start")  # outer plan shadowed
            with pytest.raises(FaultInjectedError):
                site_check("engine.sample")
        with pytest.raises(FaultInjectedError):
            site_check("run.start")  # outer restored


def test_scopes_on_two_threads_stay_apart():
    # Enter A, enter B, exit A, exit B on two threads: each thread must
    # see only its own scope, and neither may outlive its own exit.
    plan = FaultPlan(rules=(FaultRule(site="engine.sample", at=(0,)),))
    state_a, state_b = plan.activate(), plan.activate()
    a_entered, b_entered, a_exited = (threading.Event() for _ in range(3))
    seen: dict = {}
    errors: list = []

    def run_a():
        try:
            # An already-expired deadline: site_check raises while the
            # scope is installed anywhere this thread's checks can see.
            with runtime_scope(state_a, timeout_seconds=1e-12):
                a_entered.set()
                assert b_entered.wait(10.0)
                seen["a"] = active_fault_state()
        except BaseException as exc:  # surfaced by the main thread
            errors.append(exc)
        finally:
            a_exited.set()

    def run_b():
        try:
            assert a_entered.wait(10.0)
            with runtime_scope(state_b):
                b_entered.set()
                assert a_exited.wait(10.0)
                seen["b"] = active_fault_state()
                site_check("run.start")  # A's expired deadline is not ours
        except BaseException as exc:
            errors.append(exc)
        finally:
            b_entered.set()

    threads = [threading.Thread(target=run_a), threading.Thread(target=run_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(10.0)
    assert not errors, errors
    assert seen == {"a": state_a, "b": state_b}
    assert active_fault_state() is None
    site_check("run.start")  # nothing is left installed
