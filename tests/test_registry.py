"""Unit tests for repro.registry.Registry (the one name-registry type)."""

from __future__ import annotations

import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from repro.errors import ModelError, RegistryError
from repro.registry import Registry


class Widget:
    pass


class Config:
    def __init__(self, widget):
        self.widget = widget


@pytest.fixture
def widgets():
    registry = Registry(
        "widget",
        noun="a test widget",
        default="plain",
        accepts=Widget,
        unwrap="widget",
        hint="or a Widget instance",
        retired={"old": "plain"},
    )
    registry.register("plain", Widget())
    registry.register("fancy", Widget())
    return registry


def test_none_resolves_to_default(widgets):
    assert widgets.resolve(None) is widgets["plain"]
    assert widgets.resolve() is widgets["plain"]


def test_accepted_objects_pass_through(widgets):
    mine = Widget()
    assert widgets.resolve(mine) is mine


def test_names_resolve(widgets):
    assert widgets.resolve("fancy") is widgets.lookup("fancy")


def test_config_objects_are_unwrapped(widgets):
    assert widgets.resolve(Config("fancy")) is widgets["fancy"]
    assert widgets.resolve(Config(None)) is widgets["plain"]
    mine = Widget()
    assert widgets.resolve(Config(mine)) is mine
    assert widgets.unwrap(Config("fancy")) == "fancy"
    assert widgets.unwrap("fancy") == "fancy"


def test_predicate_accepts():
    comparators = Registry("comparator", default="f", accepts=callable)
    comparators.register("f", len)
    assert comparators.resolve(None) is len
    assert comparators.resolve(abs) is abs


def test_miss_message_names_entries_and_suggests(widgets):
    with pytest.raises(RegistryError) as exc:
        widgets.lookup("fancey")
    message = str(exc.value)
    assert message.startswith("unknown widget 'fancey'; expected one of ")
    assert "['fancy', 'plain']" in message
    assert "or a Widget instance" in message
    assert "did you mean 'fancy'?" in message
    assert exc.value.code == "registry-lookup"


def test_retired_name_suggests_replacement(widgets):
    with pytest.raises(RegistryError, match="did you mean 'plain'"):
        widgets.resolve("old")


def test_duplicate_rejected_unless_replace(widgets):
    with pytest.raises(ModelError, match="widget 'plain' is already"):
        widgets.register("plain", Widget())
    replacement = Widget()
    assert widgets.register("plain", replacement, replace=True) is replacement
    assert widgets.lookup("plain") is replacement


def test_empty_name_rejected(widgets):
    with pytest.raises(ModelError, match="a test widget needs a non-empty"):
        widgets.register("", Widget())
    with pytest.raises(ModelError, match="a widget needs a non-empty"):
        Registry("widget").register("", Widget())


def test_mapping_view_and_sorted_names(widgets):
    assert isinstance(widgets, Mapping)
    assert widgets.names() == ("fancy", "plain")
    assert "fancy" in widgets and len(widgets) == 2
    assert not hasattr(widgets, "__setitem__")
    with pytest.raises(KeyError):
        widgets["nope"]


def test_mutations_bump_generation(widgets):
    before = Registry.generation
    widgets.register("extra", Widget())
    assert Registry.generation > before
    before = Registry.generation
    assert widgets.pop("extra") is not None
    assert Registry.generation > before
    assert "extra" not in widgets
    assert widgets.pop("extra") is None


def test_module_registries_are_registry_instances():
    from repro.api.spec import _EXPERIMENTS
    from repro.exec.base import _REGISTRY as executors
    from repro.perf.deadline import _COMPARATORS
    from repro.perf.engine import _REGISTRY as engines
    from repro.resilience.faults import _PLANS
    from repro.workloads.families import _FAMILY_REGISTRY

    for table in (
        engines, _COMPARATORS, executors, _EXPERIMENTS, _FAMILY_REGISTRY,
        _PLANS,
    ):
        assert isinstance(table, Registry)


def test_builtin_comparators_bound_by_plain_kernel_import():
    """The builtins are registered at import, not looked up lazily: a
    fresh interpreter importing only the kernel module sees both."""
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run(
        [
            sys.executable,
            "-c",
            "import repro.perf.deadline as d; "
            "print(d.available_deadline_comparators())",
        ],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "('batched', 'reference')"
