"""Session.run(spec) is byte-identical across every way of asking.

The acceptance contract of the api: for every registered experiment,
running from a serialized spec document produces *exactly* the object
a direct ``Session.run(spec)`` returns, for every engine / comparator;
the generic sweep specs match the runner functions they wrap.
"""

from __future__ import annotations

import pytest

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
    RunConfig,
    RunResult,
    Session,
    Table1Spec,
)
from repro.errors import ModelError
from repro.experiments import (
    motivation_example_1,
    motivation_example_2,
    run_budget_sweep,
    run_deadline_sweep,
)
from repro.perf import clear_phase_caches
from repro.workloads import scenario_family


def _run_via_document(spec, config=None):
    """The long way round: serialize, rebuild via the registry, run."""
    session = Session(config)
    return session.run(ExperimentSpec.from_dict(spec.to_dict())).payload


def _assert_round_trip(spec, config=None):
    """The document round trip equals a direct ``Session.run(spec)``."""
    direct = Session(config).run(spec).payload
    assert _run_via_document(spec, config) == direct


class TestGoldenFigures:
    def test_table1(self):
        payload = _run_via_document(Table1Spec())
        assert payload["example_1"] == motivation_example_1()
        assert payload["example_2"] == motivation_example_2()

    @pytest.mark.parametrize("engine", [None, "scalar", "batch", "chunked-batch"])
    def test_fig2_every_engine(self, engine):
        spec = Fig2Spec(
            scenario="homo", case="a", budgets=(1000, 1500), n_tasks=6,
            n_samples=40,
        )
        _assert_round_trip(spec, RunConfig(seed=3, engine=engine))

    @pytest.mark.parametrize("engine", [None, "scalar", "agent-batch"])
    def test_fig3_every_engine_with_replications(self, engine):
        config = RunConfig(seed=1, replications=2, engine=engine)
        _assert_round_trip(Fig3Spec(n_arrivals=6), config)

    def test_fig4_aggregate_default(self):
        spec = Fig4Spec(prices=(5, 8), repetitions=3)
        _assert_round_trip(spec, RunConfig(seed=2))

    def test_fig4_agent_engines_agree_with_legacy(self):
        spec = Fig4Spec(prices=(5, 8), repetitions=2)
        for engine in ("scalar", "agent-batch"):
            config = RunConfig(seed=4, replications=2, engine=engine)
            _assert_round_trip(spec, config)

    def test_fig5ab(self):
        spec = Fig5abSpec(
            vote_counts=(4,), prices=(5,), repetitions=2, n_tasks=3
        )
        _assert_round_trip(spec, RunConfig(seed=6))

    def test_fig5c(self):
        spec = Fig5cSpec(budgets=(600, 700), n_samples=30)
        _assert_round_trip(spec, RunConfig(seed=5))

    @pytest.mark.parametrize("comparator", [None, "batched", "reference"])
    def test_deadline_frontier_every_comparator(self, comparator):
        spec = DeadlineFrontierSpec(
            scenario="repe", case="a", n_tasks=8, n_deadlines=3, max_price=12
        )
        _assert_round_trip(spec, RunConfig(comparator=comparator))


class TestGoldenGenericSweeps:
    def test_budget_sweep_spec_matches_runner(self):
        family = scenario_family("repe", case="a", n_tasks=6)
        legacy = run_budget_sweep(
            family,
            budgets=(600, 900),
            strategies=("ra", "te"),
            n_samples=40,
            seed=9,
            label="budget-sweep-repe(a)",
        )
        spec = BudgetSweepSpec(
            family="repe",
            case="a",
            n_tasks=6,
            budgets=(600, 900),
            strategies=("ra", "te"),
            n_samples=40,
        )
        assert _run_via_document(spec, RunConfig(seed=9)) == legacy

    def test_budget_sweep_default_strategies_are_fig2_lineup(self):
        spec = BudgetSweepSpec(
            family="homo", case="a", n_tasks=4, budgets=(400,),
            n_samples=20, scoring="numeric",
        )
        payload = Session().run(spec).payload
        assert set(payload.series) == {"ea", "bias_1", "bias_2"}

    def test_deadline_sweep_spec_matches_runner(self):
        family = scenario_family("repe", case="a", n_tasks=6)
        deadlines = (2.0, 4.0)
        legacy = run_deadline_sweep(
            family,
            deadlines=deadlines,
            confidences=(0.8,),
            max_price=10,
            label="deadline-sweep-repe(a)",
        )
        spec = DeadlineSweepSpec(
            family="repe",
            case="a",
            n_tasks=6,
            deadlines=deadlines,
            confidences=(0.8,),
            max_price=10,
        )
        assert _run_via_document(spec) == legacy


class TestSessionFacade:
    def test_run_accepts_name_document_and_spec(self):
        session = Session(RunConfig(seed=0))
        by_spec = session.run(Table1Spec()).payload
        by_doc = session.run({"experiment": "table1", "params": {}}).payload
        by_name = session.run("table1").payload
        assert by_spec == by_doc == by_name
        assert session.runs_completed == 3

    def test_run_many_matches_individual_runs(self):
        specs = [
            Fig2Spec(
                scenario="homo", case=c, budgets=(800,), n_tasks=4,
                n_samples=20,
            )
            for c in ("a", "b")
        ]
        config = RunConfig(seed=7)
        batched = Session(config).run_many(specs)
        singles = [Session(config).run(s) for s in specs]
        assert [r.payload for r in batched] == [r.payload for r in singles]

    def test_cold_runs_are_bit_identical_to_shared(self):
        specs = [
            DeadlineFrontierSpec(
                scenario="repe", case="a", n_tasks=5, n_deadlines=3,
                max_price=8, confidences=(c,),
            )
            for c in (0.7, 0.9)
        ]
        shared = Session().run_many(specs)
        cold = []
        for spec in specs:
            clear_phase_caches()
            cold.append(Session().run(spec))
        assert [r.payload for r in shared] == [r.payload for r in cold]

    def test_rejects_unapplied_recorder_policy(self):
        # Built-in figures compute outputs from their own trace records
        # (uses_recorder=False): a requested policy would be a silent
        # no-op baked into the fingerprint, so run() must refuse it.
        session = Session(RunConfig(recorder="null"))
        with pytest.raises(ModelError, match="recorder"):
            session.run(Fig3Spec(n_arrivals=3))
        with pytest.raises(ModelError, match="recorder"):
            Session(RunConfig(recorder="trace")).run(Table1Spec())

    def test_custom_spec_can_consume_recorder_policy(self):
        from dataclasses import dataclass

        from repro.api import register_experiment
        from repro.api.spec import _EXPERIMENTS
        from repro.market.trace import NULL_RECORDER

        @dataclass(frozen=True)
        class RecorderProbeSpec(ExperimentSpec):
            name = "recorder-probe"
            uses_recorder = True

            def run(self, session):
                return session.resolved.make_recorders(2)

        register_experiment(RecorderProbeSpec)
        try:
            assert Session(RunConfig(recorder="null")).run(
                RecorderProbeSpec()
            ).payload is NULL_RECORDER
            traces = Session(RunConfig(recorder="trace")).run(
                RecorderProbeSpec()
            ).payload
            assert len(traces) == 2
            assert Session().run(RecorderProbeSpec()).payload is None
        finally:
            _EXPERIMENTS.pop("recorder-probe", None)

    def test_rejects_non_config(self):
        with pytest.raises(ModelError):
            Session(config={"engine": "batch"})

    def test_rejects_unrunnable_spec(self):
        with pytest.raises(ModelError):
            Session().run(42)


class TestRunResult:
    def _result(self) -> RunResult:
        spec = Fig2Spec(
            scenario="homo", case="a", budgets=(800,), n_tasks=4,
            n_samples=20,
        )
        return Session(RunConfig(seed=1, engine="batch")).run(spec)

    def test_fingerprint_is_stable_and_config_sensitive(self):
        a = self._result()
        b = self._result()
        assert a.fingerprint == b.fingerprint
        other = Session(RunConfig(seed=2, engine="batch")).run(a.spec)
        assert other.fingerprint != a.fingerprint

    def test_to_dict_is_json_serializable(self):
        import json

        doc = self._result().to_dict()
        blob = json.dumps(doc)
        assert doc["experiment"] == "fig2"
        assert doc["spec"]["params"]["budgets"] == [800]
        assert doc["config"]["engine"] == "batch"
        assert len(doc["fingerprint"]) == 16
        assert "series" in doc["payload"]
        assert json.loads(blob) == doc

    def test_tuple_keyed_payloads_serialize(self):
        result = Session(RunConfig(seed=3)).run(
            Fig5abSpec(vote_counts=(4,), prices=(5,), repetitions=2, n_tasks=2)
        )
        doc = result.to_dict()
        assert "4,5" in doc["payload"]["mean_phase1"]

    def test_generator_seed_runs_but_cannot_fingerprint(self):
        from repro.stats import ensure_rng

        result = Session(RunConfig(seed=ensure_rng(0))).run(Table1Spec())
        assert result.payload["example_1"] == motivation_example_1()
        with pytest.raises(ModelError):
            result.fingerprint
