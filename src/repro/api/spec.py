"""Declarative experiment specs + the experiment registry.

An :class:`ExperimentSpec` is the *what* of a run: a frozen dataclass
of experiment parameters (workload sizes, budgets, confidences — never
engines, seeds, or replication counts, which belong to
:class:`~repro.api.config.RunConfig`).  Specs serialize losslessly::

    {"experiment": "fig2", "params": {"scenario": "homo", ...}}

and the registry makes every experiment addressable by name:
``register_experiment`` / :func:`available_experiments` /
:func:`get_experiment` front a :class:`~repro.registry.Registry`, so
``ExperimentSpec.from_dict(payload)`` can rebuild any registered spec
from a dict that crossed a wire, a queue, or a JSON file.
``from_dict(to_dict(spec))`` is the identity for every registered
experiment (property-tested in ``tests/api/test_spec_roundtrip.py``).
"""

from __future__ import annotations

import dataclasses
import functools
import json
import typing
from typing import Any, ClassVar, Mapping, Optional, Type, Union

import numpy as np

from ..errors import ModelError
from ..registry import Registry

__all__ = [
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "available_experiments",
    "make_spec",
    "spec_from_dict",
]


# ---------------------------------------------------------------------------
# JSON-side conversion helpers
# ---------------------------------------------------------------------------


def _jsonable(value):
    """Normalize a param value into plain JSON types (tuples → lists)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        return value.item()
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    raise ModelError(
        f"spec parameter value {value!r} is not JSON-serializable"
    )


@functools.cache
def _type_hints(cls) -> dict:
    """``typing.get_type_hints(cls)``, resolved once per spec class.

    Resolving compiles every annotation string again, and
    ``from_dict`` runs for each submitted run.
    """
    return typing.get_type_hints(cls)


def _coerce(value, hint):
    """Coerce a JSON-decoded *value* back into the field type *hint*.

    The inverse of :func:`_jsonable` at the type level: lists become
    tuples where the field is tuple-typed, numbers are normalized to
    the annotated scalar type, and ``Optional``/``Union`` members are
    tried in order.  Coercion is strict enough that a malformed
    payload fails loudly instead of half-building a spec.
    """
    if hint is None or hint is Any:
        return value
    origin = typing.get_origin(hint)
    args = typing.get_args(hint)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        for member in args:
            if member is type(None):
                continue
            try:
                return _coerce(value, member)
            except (ModelError, TypeError, ValueError):
                continue
        raise ModelError(f"cannot coerce {value!r} into {hint}")
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ModelError(f"expected a sequence for {hint}, got {value!r}")
        if args and len(args) == 2 and args[1] is Ellipsis:
            return tuple(_coerce(v, args[0]) for v in value)
        if args:
            if len(value) != len(args):
                raise ModelError(
                    f"expected {len(args)} entries for {hint}, got "
                    f"{len(value)}"
                )
            return tuple(_coerce(v, a) for v, a in zip(value, args))
        return tuple(value)
    if origin is list:
        if not isinstance(value, (list, tuple)):
            raise ModelError(f"expected a sequence for {hint}, got {value!r}")
        return [_coerce(v, args[0]) if args else v for v in value]
    if hint is bool:
        if isinstance(value, bool):
            return value
        raise ModelError(f"expected a bool, got {value!r}")
    if hint is int:
        if isinstance(value, bool) or not isinstance(
            value, (int, np.integer)
        ):
            raise ModelError(f"expected an int, got {value!r}")
        return int(value)
    if hint is float:
        if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)
        ):
            raise ModelError(f"expected a number, got {value!r}")
        return float(value)
    if hint is str:
        if not isinstance(value, str):
            raise ModelError(f"expected a string, got {value!r}")
        return value
    return value


# ---------------------------------------------------------------------------
# the spec base class
# ---------------------------------------------------------------------------


class ExperimentSpec:
    """Base class for declarative experiment specifications.

    Concrete specs are frozen dataclasses whose fields are the
    experiment's *parameters* (execution strategy lives in
    :class:`~repro.api.config.RunConfig`).  Subclasses set the
    class-level ``name`` (the registry address) and implement
    :meth:`run`, which receives the owning
    :class:`~repro.api.session.Session` and returns the experiment's
    payload (for the paper's figures, the result object of the
    matching ``repro.experiments.figures._run_*`` implementation).
    """

    #: Registry address; subclasses must set it.
    name: ClassVar[str] = ""

    #: Whether :meth:`run` consumes the config's recorder policy
    #: (``RunConfig.recorder``) — e.g. via
    #: ``session.resolved.make_recorders``.  The built-in figure
    #: experiments all *require* their own trace recorders to compute
    #: their outputs, so they leave this ``False`` and
    #: :meth:`Session.run` rejects a non-default recorder policy
    #: rather than silently recording an unapplied one into the run's
    #: fingerprint.  Custom replication-study specs that honor the
    #: policy set it ``True``.
    uses_recorder: ClassVar[bool] = False

    # -- parameters ----------------------------------------------------

    def params(self) -> dict:
        """The spec's parameters as an ordered field dict."""
        return {
            f.name: getattr(self, f.name)
            for f in dataclasses.fields(self)  # type: ignore[arg-type]
        }

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """``{"experiment": name, "params": {...}}`` with JSON types."""
        return {
            "experiment": self.name,
            "params": {k: _jsonable(v) for k, v in self.params().items()},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "ExperimentSpec":
        """Rebuild a spec from its :meth:`to_dict` form.

        Called on :class:`ExperimentSpec` itself, dispatches through
        the experiment registry by ``payload["experiment"]``; called
        on a concrete subclass, validates the name and coerces the
        params back into the field types (lists → tuples, etc.), so
        ``from_dict(to_dict(spec)) == spec``.
        """
        if not isinstance(payload, Mapping):
            raise ModelError(
                f"spec payload must be a mapping, got {payload!r}"
            )
        name = payload.get("experiment")
        params = payload.get("params", {})
        unknown_keys = sorted(set(payload) - {"experiment", "params"})
        if unknown_keys:
            raise ModelError(
                f"unknown spec document keys {unknown_keys}; expected "
                "'experiment' and 'params'"
            )
        if cls is ExperimentSpec:
            if name is None:
                raise ModelError("spec document needs an 'experiment' name")
            return get_experiment(name).from_dict(payload)
        if name is not None and name != cls.name:
            raise ModelError(
                f"spec document names experiment {name!r} but was handed "
                f"to {cls.name!r}"
            )
        if not isinstance(params, Mapping):
            raise ModelError(f"spec params must be a mapping, got {params!r}")
        field_names = {f.name for f in dataclasses.fields(cls)}  # type: ignore[arg-type]
        unknown = sorted(set(params) - field_names)
        if unknown:
            raise ModelError(
                f"unknown parameters {unknown} for experiment "
                f"{cls.name!r}; expected a subset of {sorted(field_names)}"
            )
        hints = _type_hints(cls)
        kwargs = {
            key: _coerce(value, hints.get(key)) for key, value in params.items()
        }
        return cls(**kwargs)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    # -- execution -----------------------------------------------------

    def run(self, session) -> Any:
        """Execute against *session* (config + caches); returns the
        payload.  Implemented by concrete specs."""
        raise NotImplementedError

    @classmethod
    def describe(cls) -> dict:
        """Parameter schema: ``{param: {"default": ..., "type": ...}}``.

        What ``repro experiments --json`` prints — enough for a caller
        to construct a valid params dict without reading the source.
        """
        out = {}
        for f in dataclasses.fields(cls):  # type: ignore[arg-type]
            entry: dict = {"type": str(f.type)}
            if f.default is not dataclasses.MISSING:
                entry["default"] = _jsonable(f.default)
            elif f.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                entry["default"] = _jsonable(f.default_factory())
            out[f.name] = entry
        return out


# ---------------------------------------------------------------------------
# the experiment registry
# ---------------------------------------------------------------------------

_EXPERIMENTS = Registry("experiment", noun="an experiment spec")


def register_experiment(
    spec_cls: Type[ExperimentSpec],
    name: Optional[str] = None,
    replace: bool = False,
) -> Type[ExperimentSpec]:
    """Add *spec_cls* to the registry under *name* (default: its own).

    Registered names are what ``repro run <experiment>`` and
    ``ExperimentSpec.from_dict`` accept; registering a spec makes the
    experiment addressable by ``(name, params)`` everywhere — CLI,
    serialized batches, future service endpoints.  Usable as a class
    decorator.
    """
    if not dataclasses.is_dataclass(spec_cls):
        raise ModelError(
            f"experiment spec {spec_cls!r} must be a dataclass"
        )
    return _EXPERIMENTS.register(
        name or spec_cls.name, spec_cls, replace=replace
    )


#: Resolve a registered experiment name to its spec class.
get_experiment = _EXPERIMENTS.lookup

#: Registered experiment names, sorted (CLI choices come from here).
available_experiments = _EXPERIMENTS.names


def make_spec(name: str, **params) -> ExperimentSpec:
    """Build a registered experiment's spec from keyword params.

    Params take the same JSON-side shapes ``from_dict`` accepts (lists
    where the field is a tuple, etc.) — the CLI's ``--param k=v``
    pairs land here.
    """
    return get_experiment(name).from_dict(
        {"experiment": name, "params": params}
    )


def spec_from_dict(payload: Mapping) -> ExperimentSpec:
    """Registry-dispatched :meth:`ExperimentSpec.from_dict`."""
    return ExperimentSpec.from_dict(payload)
