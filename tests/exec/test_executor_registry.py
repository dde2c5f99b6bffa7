"""Executor registry + did-you-mean hints across every registry."""

from __future__ import annotations

import pytest

from repro.api import RunConfig
from repro.errors import ModelError, RegistryError
from repro.exec import (
    DEFAULT_EXECUTOR,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    available_executors,
    get_executor,
    register_executor,
    resolve_executor,
)


class TestExecutorRegistry:
    def test_builtins_are_registered(self):
        assert available_executors() == ("process", "serial")

    def test_none_defaults_to_serial(self):
        assert DEFAULT_EXECUTOR == "serial"
        assert get_executor(None).name == "serial"

    def test_instances_pass_through(self):
        executor = SerialExecutor()
        assert get_executor(executor) is executor
        assert resolve_executor(executor) is executor

    def test_resolve_unwraps_config_objects(self):
        assert resolve_executor(RunConfig(executor="process")).name == "process"
        assert resolve_executor(RunConfig()).name == "serial"
        pool = ProcessExecutor(workers=1)
        assert resolve_executor(RunConfig(executor=pool)) is pool

    def test_register_rejects_duplicates_and_anonymous(self):
        with pytest.raises(ModelError, match="already registered"):
            register_executor(SerialExecutor())

        class Nameless(Executor):
            name = ""

        with pytest.raises(ModelError, match="non-empty name"):
            register_executor(Nameless())

    def test_register_replace_overrides(self):
        custom = SerialExecutor()
        register_executor(custom, name="serial", replace=True)
        try:
            assert get_executor("serial") is custom
        finally:
            register_executor(SerialExecutor(), name="serial", replace=True)

    def test_config_rejects_non_executor_values(self):
        with pytest.raises(ModelError, match="executor"):
            RunConfig(executor=42)

    def test_executor_never_serializes(self):
        # Orchestration is not run identity: serial and process runs
        # must share fingerprints, checkpoints, and golden documents.
        doc = RunConfig(executor="process").to_dict()
        assert "executor" not in doc
        assert doc == RunConfig().to_dict()
        assert (
            RunConfig(executor="process").fingerprint()
            == RunConfig().fingerprint()
        )


class TestDidYouMean:
    """Every registry suggests the nearest name on a typo'd lookup."""

    def test_executor(self):
        with pytest.raises(RegistryError) as exc:
            get_executor("proces")
        assert "unknown executor" in str(exc.value)
        assert "did you mean 'process'?" in str(exc.value)

    def test_engine(self):
        from repro.perf.engine import get_engine

        with pytest.raises(RegistryError) as exc:
            get_engine("scaler")
        assert "did you mean 'scalar'?" in str(exc.value)

    def test_comparator(self):
        from repro.perf.deadline import get_deadline_comparator

        with pytest.raises(RegistryError) as exc:
            get_deadline_comparator("bathced")
        assert "did you mean 'batched'?" in str(exc.value)

    def test_experiment(self):
        from repro.api import make_spec

        with pytest.raises(RegistryError) as exc:
            make_spec("fig22")
        assert "did you mean 'fig2'?" in str(exc.value)

    def test_family(self):
        from repro.workloads.families import get_family_builder

        with pytest.raises(RegistryError) as exc:
            get_family_builder("hetero")
        assert "did you mean 'heter'?" in str(exc.value)

    def test_fault_plan(self):
        from repro.resilience.faults import (
            _PLANS,
            FaultPlan,
            get_fault_plan,
            register_fault_plan,
        )

        register_fault_plan(
            "exec-suite-chaos",
            FaultPlan(rules=({"site": "run.start", "at": [0]},)),
            replace=True,
        )
        try:
            with pytest.raises(RegistryError) as exc:
                get_fault_plan("exec-suite-chaso")
            assert "did you mean 'exec-suite-chaos'?" in str(exc.value)
        finally:
            # The store envelope digests every registered plan, so a
            # leaked plan would make later suites' entries stale.
            _PLANS.pop("exec-suite-chaos")

    def test_removed_async_name_points_at_process(self):
        # "async" wrapped the process pool; the service now dispatches
        # every executor off its event loop itself.
        with pytest.raises(RegistryError) as exc:
            get_executor("async")
        assert "did you mean 'process'?" in str(exc.value)

    def test_no_suggestion_when_nothing_is_close(self):
        with pytest.raises(RegistryError) as exc:
            get_executor("zzzzzzzz")
        message = str(exc.value)
        assert "did you mean" not in message
        assert "'process'" in message  # still lists what exists
