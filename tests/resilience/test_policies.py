"""Retry and timeout policies on the resilient executor."""

from __future__ import annotations

import pytest

from repro.api import RunConfig, Session
from repro.errors import (
    FaultInjectedError,
    ModelError,
    RunTimeoutError,
)
from repro.resilience import RetryPolicy, TimeoutPolicy
from repro.resilience.policy import ExecutionRecord


# ---------------------------------------------------------------------------
# policy values
# ---------------------------------------------------------------------------


def test_retry_policy_validates():
    with pytest.raises(ModelError):
        RetryPolicy(attempts=0)
    with pytest.raises(ModelError):
        RetryPolicy(backoff=-1.0)


def test_backoff_is_deterministic_and_capped():
    policy = RetryPolicy(attempts=5, backoff=0.5, backoff_cap=1.0)
    assert policy.delay(0) == 0.5
    assert policy.delay(1) == 1.0
    assert policy.delay(4) == 1.0  # capped, not 8.0
    assert RetryPolicy(attempts=3).delay(2) == 0.0  # no backoff configured


def test_policy_roundtrips():
    policy = RetryPolicy(attempts=3, backoff=0.1)
    assert RetryPolicy.from_dict(policy.to_dict()) == policy
    with pytest.raises(ModelError, match="fallback_engines"):
        RetryPolicy.from_dict({"fallback_engines": ["scalar"]})
    timeout = TimeoutPolicy(seconds=2.5)
    assert TimeoutPolicy.from_dict(timeout.to_dict()) == timeout
    with pytest.raises(ModelError):
        TimeoutPolicy(seconds=0.0)


def test_config_normalizes_policy_dicts():
    config = RunConfig(retry={"attempts": 2}, timeout=1.5)
    assert isinstance(config.retry, RetryPolicy)
    assert config.retry.attempts == 2
    assert isinstance(config.timeout, TimeoutPolicy)
    assert config.timeout.seconds == 1.5
    # emitted only when set — and round-trips
    assert "retry" in config.to_dict()
    assert RunConfig.from_dict(config.to_dict()).retry == config.retry
    assert "retry" not in RunConfig().to_dict()
    assert set(RunConfig(retry={"attempts": 2}).to_dict()["retry"]) == {
        "attempts", "backoff", "backoff_cap",
    }


# ---------------------------------------------------------------------------
# executor behavior
# ---------------------------------------------------------------------------


def test_retry_recovers_from_attempt_zero_fault(fig2_spec, run_tiny):
    baseline = run_tiny("fig2")
    config = RunConfig(
        faults={
            "rules": [
                {"site": "engine.sample", "at": [0], "on_attempts": [0]}
            ]
        },
        retry={"attempts": 2},
    )
    result = Session(config).run(fig2_spec)
    assert result.payload == baseline.payload
    assert result.execution is not None
    assert set(result.execution.to_dict()) == {"attempts"}
    [attempt] = result.execution.attempts
    assert attempt["code"] == "fault-injected"
    assert attempt["site"] == "engine.sample"


def test_retries_exhaust_then_raise_with_document(fig2_spec):
    config = RunConfig(
        faults={"rules": [{"site": "run.start", "at": [0]}]},
        retry={"attempts": 3},
    )
    with pytest.raises(FaultInjectedError) as exc:
        Session(config).run(fig2_spec)
    assert exc.value.error_document.code == "fault-injected"


def test_execution_record_roundtrips():
    record = ExecutionRecord(
        attempts=({"attempt": 0, "code": "fault-injected"},),
    )
    assert ExecutionRecord.from_dict(record.to_dict()) == record


def test_default_path_result_has_timing_only_execution_record(run_tiny):
    result = run_tiny("fig2")
    # Timing is always recorded ...
    assert result.execution is not None
    assert not result.execution.significant
    assert result.execution.started_at is not None
    assert result.execution.elapsed >= 0.0
    # ... but never serialized by default, so default-path documents
    # keep their historical layout byte-for-byte.
    assert "execution" not in result.to_dict()
    timed = result.to_dict(include_timing=True)
    assert timed["execution"]["elapsed"] == result.execution.elapsed
    assert timed["execution"]["started_at"] == result.execution.started_at


def test_timeout_policy_raises_run_timeout(fig2_spec):
    with pytest.raises(RunTimeoutError):
        Session(RunConfig(timeout=1e-12)).run(fig2_spec)


def test_timeout_error_is_not_retried_into_simulation_error(fig2_spec):
    # RunTimeoutError must surface as itself, not wrapped per-replication.
    config = RunConfig(timeout=1e-12, retry={"attempts": 2})
    with pytest.raises(RunTimeoutError) as exc:
        Session(config).run(fig2_spec)
    assert exc.value.error_document.code == "timeout"


def test_resilient_defaults_are_bit_identical_to_fast_path(run_tiny):
    plain = run_tiny("fig2")
    armed = run_tiny(
        "fig2", RunConfig(faults={"rules": []}, retry={"attempts": 2})
    )
    assert plain.payload == armed.payload
    assert plain.to_dict()["payload"] == armed.to_dict()["payload"]
