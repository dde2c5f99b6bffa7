"""Replication fan-out of the figure harnesses through the engine
registry: byte-identical outputs for every engine, legacy defaults
untouched."""

from __future__ import annotations

import pytest

from repro.api import Fig3Spec, Fig4Spec, Fig5abSpec, RunConfig, Session
from repro.errors import ModelError
from repro.experiments import evaluate_allocation_with_ci


class TestFig3Replications:
    def test_engines_byte_identical(self):
        spec = Fig3Spec(n_arrivals=8)
        reference = Session(RunConfig(seed=0)).run(spec).payload
        for engine in ("scalar", "batch", "agent-batch"):
            config = RunConfig(seed=0, engine=engine)
            assert Session(config).run(spec).payload == reference

    def test_multi_replication_engines_byte_identical(self):
        spec = Fig3Spec(n_arrivals=8)
        sequential = Session(
            RunConfig(seed=0, replications=4, engine="scalar")
        ).run(spec).payload
        lockstep = Session(
            RunConfig(seed=0, replications=4, engine="agent-batch")
        ).run(spec).payload
        assert sequential == lockstep
        # Averaging over worlds changes the figure (it smooths noise).
        assert sequential != Session(RunConfig(seed=0)).run(spec).payload
        assert len(sequential.arrival_epochs) == 8

    def test_replications_validated(self):
        with pytest.raises(ModelError):
            Session(RunConfig(replications=0)).run(Fig3Spec(n_arrivals=4))


class TestFig4Replications:
    def test_aggregate_default_untouched_by_engine_alias(self):
        default = Session(RunConfig(seed=0)).run(Fig4Spec()).payload
        aggregate = Session(RunConfig(seed=0, engine="aggregate")).run(
            Fig4Spec()
        ).payload
        assert default == aggregate

    def test_agent_engines_byte_identical(self):
        spec = Fig4Spec(prices=(5, 8), repetitions=4)
        sequential = Session(
            RunConfig(seed=0, replications=3, engine="scalar")
        ).run(spec).payload
        lockstep = Session(
            RunConfig(seed=0, replications=3, engine="agent-batch")
        ).run(spec).payload
        assert sequential == lockstep
        assert sequential.prices == (5, 8)
        assert all(
            len(orders) == 4 for orders in sequential.latency_orders.values()
        )

    def test_aggregate_path_rejects_fanout(self):
        with pytest.raises(ModelError):
            Session(RunConfig(seed=0, replications=3)).run(Fig4Spec())


class TestFig5abReplications:
    def test_aggregate_default_untouched_by_engine_alias(self):
        spec = Fig5abSpec(
            vote_counts=(4, 6), prices=(5,), repetitions=2, n_tasks=3
        )
        default = Session(RunConfig(seed=0)).run(spec).payload
        aggregate = Session(RunConfig(seed=0, engine="aggregate")).run(
            spec
        ).payload
        assert default == aggregate

    def test_agent_engines_byte_identical(self):
        spec = Fig5abSpec(
            vote_counts=(4, 6), prices=(5,), repetitions=2, n_tasks=3
        )
        sequential = Session(
            RunConfig(seed=0, replications=2, engine="scalar")
        ).run(spec).payload
        lockstep = Session(
            RunConfig(seed=0, replications=2, engine="agent-batch")
        ).run(spec).payload
        assert sequential == lockstep

    def test_aggregate_path_rejects_fanout(self):
        with pytest.raises(ModelError):
            Session(RunConfig(seed=0, replications=2)).run(Fig5abSpec())


class TestCiEngineParameter:
    def test_ci_byte_identical_across_engines(self):
        from repro import Allocation, HTuningProblem, TaskSpec
        from repro.market import LinearPricing

        pricing = LinearPricing(1.0, 1.0)
        tasks = [TaskSpec(i, 2, pricing, 2.0) for i in range(6)]
        problem = HTuningProblem(tasks, budget=100)
        allocation = Allocation.uniform(problem, 4)
        reference = evaluate_allocation_with_ci(
            problem, allocation, n_samples=500, rng=0
        )
        for engine in ("scalar", "batch", "chunked-batch", "agent-batch"):
            assert (
                evaluate_allocation_with_ci(
                    problem, allocation, n_samples=500, rng=0, engine=engine
                )
                == reference
            )
