"""Validity envelope for stored result entries.

A stored :class:`~repro.api.session.RunResult` document is only
servable while the process reading it would have computed the same
bytes.  The envelope captures everything the fingerprint does *not*
cover but correctness depends on:

* ``schema`` — the store's own entry-layout version; bumped whenever
  the entry shape changes incompatibly;
* ``package`` — ``repro.__version__`` at write time (result semantics
  may shift between releases even for identical specs);
* ``registries`` — a digest of what every name a run can reference
  is bound to: ``name -> module.qualname`` of each engine (its type),
  deadline comparator, experiment spec, workload family and tuning
  strategy.  A spec naming ``family="homo"`` or a config naming
  ``engine="batch"`` fingerprints identically whatever the name
  currently resolves to, so a process that registered or rebound a
  name must not serve entries written under the old binding.  Fault
  plans are digested by content (``name -> plan.to_dict()``): a plan
  is an instance, whose type says nothing about the rules a
  ``faults="name"`` run injects.

An intact entry whose envelope mismatches is **stale**, not corrupt:
it is quarantined with the :class:`~repro.errors.StoreStaleError` code
and the run falls through to recompute — the entry was valid once and
stays inspectable, it just cannot be trusted here.
"""

from __future__ import annotations

from typing import Mapping

from ..api.config import fingerprint
from ..registry import Registry

__all__ = ["SCHEMA_VERSION", "current_envelope", "registry_contents_hash"]

#: Store entry-layout version.  Bump on incompatible entry changes;
#: entries written under another schema quarantine as stale.
SCHEMA_VERSION = 1


def _binding(obj) -> str:
    """``module.qualname`` of a bound function or class (the type for
    instances), plus what a closure captured: the ``repr`` of each
    int, float, str, bool or ``None`` cell (stable across processes)
    and the ``module.qualname`` of any other, so two closures of one
    factory (``_make_bias(0.67)`` and ``_make_bias(0.9)``) differ."""
    name = _qualname(obj)
    cells = getattr(obj, "__closure__", None)
    if not cells:
        return name
    captured = []
    for cell in cells:
        try:
            value = cell.cell_contents
        except ValueError:  # an empty cell
            captured.append("<empty>")
            continue
        if value is None or type(value) in (bool, int, float, str):
            captured.append(repr(value))
        else:
            captured.append(_qualname(value))
    return f"{name}({', '.join(captured)})"


def _qualname(obj) -> str:
    if not hasattr(obj, "__qualname__"):
        obj = type(obj)
    return f"{obj.__module__}.{obj.__qualname__}"


#: ``(Registry.generation, digest)`` of the last computation.
_digest = (-1, "")


def registry_contents_hash() -> str:
    """Digest of what the engine, comparator, experiment, family,
    strategy and fault-plan registries currently bind each name to
    (recomputed only after a registry changed)."""
    global _digest
    generation = Registry.generation
    if _digest[0] != generation:
        from ..api.spec import _EXPERIMENTS
        from ..core.tuner import STRATEGIES
        from ..perf.deadline import _COMPARATORS
        from ..perf.engine import _REGISTRY as _ENGINES
        from ..resilience.faults import _PLANS
        from ..workloads.families import _FAMILY_REGISTRY

        tables = {
            "engines": _ENGINES,
            "comparators": _COMPARATORS,
            "experiments": _EXPERIMENTS,
            "families": _FAMILY_REGISTRY,
            "strategies": STRATEGIES,
        }
        contents = {
            kind: {name: _binding(obj) for name, obj in table.items()}
            for kind, table in tables.items()
        }
        contents["fault_plans"] = {
            name: plan.to_dict() for name, plan in _PLANS.items()
        }
        _digest = (generation, fingerprint(contents))
    return _digest[1]


def current_envelope() -> dict:
    """The envelope this process stamps on (and requires of) entries."""
    from .. import __version__

    return {
        "schema": SCHEMA_VERSION,
        "package": __version__,
        "registries": registry_contents_hash(),
    }


def envelope_mismatch(envelope: object) -> str:
    """Human-readable diff against the current envelope, or ``""``.

    Returns an empty string when *envelope* matches this process;
    otherwise names every differing field (the quarantine reason).
    """
    expected = current_envelope()
    if not isinstance(envelope, Mapping):
        return f"envelope is {envelope!r}, expected a mapping"
    differences = []
    for key, want in expected.items():
        got = envelope.get(key)
        if got != want:
            differences.append(f"{key}: entry has {got!r}, process has {want!r}")
    unknown = sorted(set(envelope) - set(expected))
    if unknown:
        differences.append(f"unknown envelope fields {unknown}")
    return "; ".join(differences)
