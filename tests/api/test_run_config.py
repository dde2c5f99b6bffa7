"""Unit tests for repro.api.config — RunConfig resolution + serialization."""

from __future__ import annotations

import json

import pytest

from repro.api import RECORDER_POLICIES, RunConfig
from repro.errors import ModelError
from repro.perf.deadline import get_deadline_comparator
from repro.perf.engine import get_engine, resolve_engine
from repro.stats import ensure_rng


class TestValidation:
    def test_defaults(self):
        config = RunConfig()
        assert config.engine is None
        assert config.comparator is None
        assert config.recorder is None
        assert config.seed == 0
        assert config.replications == 1

    def test_rejects_nonpositive_replications(self):
        with pytest.raises(ModelError):
            RunConfig(replications=0)
        with pytest.raises(ModelError):
            RunConfig(replications=-1)

    def test_rejects_unknown_recorder_policy(self):
        with pytest.raises(ModelError):
            RunConfig(recorder="tape")
        for policy in RECORDER_POLICIES:
            RunConfig(recorder=policy)

    def test_frozen(self):
        with pytest.raises(Exception):
            RunConfig().engine = "batch"

    def test_replace_returns_new_config(self):
        base = RunConfig(seed=3)
        other = base.replace(engine="batch")
        assert base.engine is None
        assert other.engine == "batch"
        assert other.seed == 3


class TestResolve:
    """RunConfig.resolve() is the single place defaulting happens."""

    def test_none_resolves_to_defaults(self):
        resolved = RunConfig().resolve()
        assert resolved.engine is get_engine(None)
        assert resolved.engine_name == "scalar"
        assert resolved.comparator is get_deadline_comparator(None)
        assert resolved.comparator_name == "batched"

    def test_named_engine_and_comparator(self):
        resolved = RunConfig(engine="batch", comparator="reference").resolve()
        assert resolved.engine is get_engine("batch")
        assert resolved.comparator is get_deadline_comparator("reference")
        assert resolved.comparator_name == "reference"

    def test_unknown_names_fail_at_resolve(self):
        with pytest.raises(ModelError):
            RunConfig(engine="warp").resolve()
        with pytest.raises(ModelError):
            RunConfig(comparator="warp").resolve()

    def test_replication_seeds_protocol(self):
        resolved = RunConfig(seed=5, replications=1).resolve()
        assert resolved.replication_seeds() == [5]
        many = RunConfig(seed=5, replications=3).resolve()
        assert len(many.replication_seeds()) == 3

    def test_recorder_policies(self):
        from repro.market.trace import NULL_RECORDER, TraceRecorder

        assert RunConfig().resolve().make_recorders(2) is None
        null = RunConfig(recorder="null").resolve().make_recorders(2)
        assert null is NULL_RECORDER
        traces = RunConfig(recorder="trace").resolve().make_recorders(3)
        assert len(traces) == 3
        assert all(isinstance(t, TraceRecorder) for t in traces)


class TestRegistryAcceptsConfigObjects:
    """Every engine=/comparator= parameter accepts the config itself."""

    def test_resolve_engine_unwraps_config(self):
        assert resolve_engine(RunConfig()) is get_engine(None)
        assert resolve_engine(RunConfig(engine="batch")) is get_engine("batch")

    def test_comparator_registry_unwraps_config(self):
        assert get_deadline_comparator(
            RunConfig(comparator="reference")
        ) is get_deadline_comparator("reference")
        assert get_deadline_comparator(RunConfig()) is get_deadline_comparator(
            None
        )

    def test_sampling_call_site_accepts_config(self):
        import numpy as np

        from repro.core.latency import sample_job_latencies
        from repro.workloads import homogeneity_workload

        problem = homogeneity_workload(budget=200, n_tasks=8)
        from repro.core import even_allocation

        allocation = even_allocation(problem)
        a = sample_job_latencies(problem, allocation, 50, rng=0)
        b = sample_job_latencies(
            problem, allocation, 50, rng=0, engine=RunConfig(engine="batch")
        )
        np.testing.assert_array_equal(a, b)


class TestSerialization:
    def test_round_trip(self):
        config = RunConfig(
            engine="batch",
            comparator="reference",
            recorder="null",
            seed=17,
            replications=4,
        )
        assert RunConfig.from_dict(config.to_dict()) == config
        assert RunConfig.from_json(config.to_json()) == config

    def test_json_stable(self):
        blob = RunConfig(seed=2).to_json()
        assert json.loads(blob) == {
            "engine": None,
            "comparator": None,
            "recorder": None,
            "seed": 2,
            "replications": 1,
        }

    def test_engine_instance_serializes_by_registered_name(self):
        config = RunConfig(engine=get_engine("chunked-batch"))
        assert config.to_dict()["engine"] == "chunked-batch"

    def test_unregistered_engine_instance_rejected(self):
        from repro.perf.engine import EvaluationEngine

        with pytest.raises(ModelError):
            RunConfig(engine=EvaluationEngine("not-in-registry")).to_dict()

    def test_callable_comparator_rejected(self):
        with pytest.raises(ModelError):
            RunConfig(comparator=get_deadline_comparator("reference"))

    def test_generator_seed_rejected(self):
        with pytest.raises(ModelError):
            RunConfig(seed=ensure_rng(0)).to_dict()

    def test_unknown_keys_rejected(self):
        with pytest.raises(ModelError):
            RunConfig.from_dict({"engine": None, "warp_factor": 9})

    def test_fingerprint_tracks_content(self):
        a = RunConfig(seed=1).fingerprint()
        b = RunConfig(seed=1).fingerprint()
        c = RunConfig(seed=2).fingerprint()
        assert a == b
        assert a != c
