"""Spec serialization: from_dict(to_dict(spec)) is the identity.

Covers **every** registered experiment twice over:

* a default-constructed spec for each registry entry (so newly
  registered experiments are automatically under test), and
* hypothesis property tests drawing randomized parameters per spec
  class, pushed through a real ``json.dumps``/``json.loads`` cycle.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import (
    BudgetSweepSpec,
    DeadlineFrontierSpec,
    DeadlineSweepSpec,
    ExperimentSpec,
    Fig2Spec,
    Fig3Spec,
    Fig4Spec,
    Fig5abSpec,
    Fig5cSpec,
    available_experiments,
    get_experiment,
    make_spec,
    register_experiment,
    spec_from_dict,
)
from repro.errors import ModelError


def _json_round_trip(spec: ExperimentSpec) -> ExperimentSpec:
    blob = json.dumps(spec.to_dict(), sort_keys=True)
    return ExperimentSpec.from_dict(json.loads(blob))


class TestEveryRegisteredExperiment:
    @pytest.mark.parametrize("name", available_experiments())
    def test_default_spec_round_trips(self, name):
        spec = get_experiment(name)()
        restored = _json_round_trip(spec)
        assert restored == spec
        assert type(restored) is type(spec)

    @pytest.mark.parametrize("name", available_experiments())
    def test_to_dict_shape(self, name):
        doc = get_experiment(name)().to_dict()
        assert doc["experiment"] == name
        assert isinstance(doc["params"], dict)
        # Strictly JSON-typed: a full dumps must succeed.
        json.dumps(doc)

    @pytest.mark.parametrize("name", available_experiments())
    def test_describe_is_jsonable(self, name):
        json.dumps(get_experiment(name).describe())


_SCENARIOS = st.sampled_from(["homo", "repe", "heter"])
_CASES = st.sampled_from(list("abcdef"))
_BUDGETS = st.lists(
    st.integers(min_value=100, max_value=10_000), min_size=1, max_size=6
)

#: Per-class randomized parameter strategies.  Every registered
#: experiment must appear here — the completeness test below enforces
#: it, so adding an experiment without extending the property coverage
#: fails loudly.
SPEC_STRATEGIES = {
    "table1": st.fixed_dictionaries({}),
    "fig2": st.fixed_dictionaries(
        {
            "scenario": _SCENARIOS,
            "case": _CASES,
            "budgets": _BUDGETS,
            "n_tasks": st.integers(1, 200),
            "scoring": st.sampled_from(["mc", "numeric"]),
            "n_samples": st.integers(1, 5000),
        }
    ),
    "fig3": st.fixed_dictionaries(
        {"n_arrivals": st.integers(1, 100), "price": st.integers(1, 20)}
    ),
    "fig4": st.fixed_dictionaries(
        {
            "prices": st.lists(st.integers(1, 30), min_size=1, max_size=6),
            "repetitions": st.integers(1, 20),
        }
    ),
    "fig5ab": st.fixed_dictionaries(
        {
            "vote_counts": st.lists(st.integers(2, 10), min_size=1, max_size=4),
            "prices": st.lists(st.integers(1, 20), min_size=1, max_size=4),
            "repetitions": st.integers(1, 20),
            "n_tasks": st.integers(1, 50),
        }
    ),
    "fig5c": st.fixed_dictionaries(
        {
            "budgets": _BUDGETS,
            "repetitions": st.tuples(
                st.integers(1, 30), st.integers(1, 30), st.integers(1, 30)
            ).map(list),
            "n_samples": st.integers(1, 2000),
        }
    ),
    "deadline-frontier": st.fixed_dictionaries(
        {
            "scenario": _SCENARIOS,
            "case": _CASES,
            "n_tasks": st.integers(1, 200),
            "n_deadlines": st.integers(2, 30),
            "confidences": st.lists(
                st.floats(0.01, 0.99, allow_nan=False), min_size=1, max_size=4
            ),
            "max_price": st.integers(1, 100),
            "deadlines": st.one_of(
                st.none(),
                st.lists(
                    st.floats(0.1, 100.0, allow_nan=False),
                    min_size=1,
                    max_size=5,
                ),
            ),
        }
    ),
    "budget-sweep": st.fixed_dictionaries(
        {
            "family": _SCENARIOS,
            "case": _CASES,
            "n_tasks": st.integers(1, 200),
            "budgets": _BUDGETS,
            "strategies": st.lists(
                st.sampled_from(["ea", "ra", "ha", "te", "re"]),
                max_size=3,
                unique=True,
            ),
            "scoring": st.sampled_from(["mc", "numeric"]),
            "n_samples": st.integers(1, 5000),
            "include_processing": st.booleans(),
        }
    ),
    "deadline-sweep": st.fixed_dictionaries(
        {
            "family": _SCENARIOS,
            "case": _CASES,
            "n_tasks": st.integers(1, 200),
            "deadlines": st.lists(
                st.floats(0.1, 100.0, allow_nan=False), min_size=1, max_size=5
            ),
            "confidences": st.lists(
                st.floats(0.01, 0.99, allow_nan=False), min_size=1, max_size=4
            ),
            "max_price": st.integers(1, 2000),
            "include_processing": st.booleans(),
        }
    ),
}


def test_property_coverage_is_complete():
    """Every registered experiment has a randomized-params strategy."""
    assert set(SPEC_STRATEGIES) == set(available_experiments())


@pytest.mark.parametrize("name", sorted(SPEC_STRATEGIES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_randomized_specs_round_trip(name, data):
    params = data.draw(SPEC_STRATEGIES[name])
    spec = make_spec(name, **params)
    restored = _json_round_trip(spec)
    assert restored == spec
    # And a second hop is still the identity (serialization is stable).
    assert _json_round_trip(restored) == restored


class TestDispatchAndErrors:
    def test_base_from_dict_dispatches_by_name(self):
        spec = spec_from_dict(
            {"experiment": "fig3", "params": {"n_arrivals": 7}}
        )
        assert isinstance(spec, Fig3Spec)
        assert spec.n_arrivals == 7

    def test_subclass_rejects_foreign_document(self):
        with pytest.raises(ModelError):
            Fig2Spec.from_dict({"experiment": "fig3", "params": {}})

    def test_unknown_experiment(self):
        with pytest.raises(ModelError):
            spec_from_dict({"experiment": "fig99", "params": {}})

    def test_unknown_parameter(self):
        with pytest.raises(ModelError):
            make_spec("fig2", warp_factor=9)

    def test_unknown_document_key(self):
        with pytest.raises(ModelError):
            spec_from_dict({"experiment": "fig2", "payload": {}})

    def test_lists_coerce_to_tuples(self):
        spec = make_spec("fig2", budgets=[1000, 2000])
        assert spec.budgets == (1000, 2000)

    def test_bad_param_types_fail_loudly(self):
        with pytest.raises(ModelError):
            make_spec("fig2", n_tasks="lots")
        with pytest.raises(ModelError):
            make_spec("fig5c", repetitions=[1, 2])  # needs exactly 3

    def test_registry_rejects_duplicates_and_non_dataclasses(self):
        with pytest.raises(ModelError):
            register_experiment(Fig2Spec)  # already registered

        class NotADataclass(ExperimentSpec):
            name = "not-a-dataclass"

        with pytest.raises(ModelError):
            register_experiment(NotADataclass)

    def test_specs_are_frozen_and_normalized(self):
        spec = Fig5cSpec(budgets=[600.0, 700.0], repetitions=(10, 15, 20))
        assert spec.budgets == (600, 700)
        with pytest.raises(Exception):
            spec.n_samples = 1

    def test_deadline_frontier_optional_deadlines(self):
        none_spec = DeadlineFrontierSpec()
        assert none_spec.deadlines is None
        assert _json_round_trip(none_spec) == none_spec
        grid_spec = DeadlineFrontierSpec(deadlines=[1.5, 2.5])
        assert grid_spec.deadlines == (1.5, 2.5)
        assert _json_round_trip(grid_spec) == grid_spec


class TestTypeHintCache:
    def test_hints_resolve_once_per_spec_class(self, monkeypatch):
        import typing

        from repro.api import spec as spec_module

        calls = []
        real = typing.get_type_hints

        def counting(cls, *args, **kwargs):
            calls.append(cls)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(typing, "get_type_hints", counting)
        spec_module._type_hints.cache_clear()
        doc = make_spec("fig3", n_arrivals=3).to_dict()
        first = ExperimentSpec.from_dict(doc)
        for _ in range(5):
            assert ExperimentSpec.from_dict(doc) == first
        assert calls == [type(first)]
