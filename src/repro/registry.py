"""One name registry type behind every ``name -> object`` lookup.

Engines, deadline comparators, executors, experiments, workload
families and fault plans are all addressed by name — on the CLI, in
serialized specs and configs, over the service wire.  Each is a
:class:`Registry` owned by the module that defines what it holds, so
a new registry is one line::

    _WIDGETS = Registry("widget", default="plain", accepts=Widget)

Depends only on :mod:`repro.errors`, so every layer can own one.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Callable, Iterator, Optional, Union

from .errors import ModelError, RegistryError

__all__ = ["Registry"]


def _never(value) -> bool:
    return False


class Registry(Mapping):
    """A read-only ``name -> object`` mapping with checked registration.

    Parameters
    ----------
    kind:
        What the entries are, as error messages name them
        (``"engine"``, ``"deadline comparator"``, ...).
    noun:
        The empty-name message's subject (default ``"a <kind>"``).
    default:
        The name :meth:`resolve` uses for ``None``.
    accepts:
        A type (or predicate) whose instances :meth:`resolve` returns
        unchanged instead of looking them up.
    unwrap:
        Attribute :meth:`unwrap` takes from any other non-string
        object (a :class:`repro.api.RunConfig`) before resolving.
    hint:
        Appended to the miss message (e.g. ``"or a callable"``).
    retired:
        Removed names mapped to their replacement; a miss on one of
        them suggests the replacement.
    """

    #: Bumped by every mutation of any registry, so a digest of registry
    #: contents can be cached until one changes (the store envelope is
    #: checked on every lookup; see :mod:`repro.store.envelope`).
    generation = 0

    def __init__(
        self,
        kind: str,
        *,
        noun: str = "",
        default: Optional[str] = None,
        accepts: Union[type, Callable[[Any], bool], None] = None,
        unwrap: str = "",
        hint: str = "",
        retired: Optional[Mapping] = None,
    ) -> None:
        self.kind = kind
        self.noun = noun or f"a {kind}"
        self.default = default
        if accepts is None:
            accepts = _never
        elif isinstance(accepts, type):
            cls = accepts
            accepts = lambda value: isinstance(value, cls)  # noqa: E731
        self._accepts = accepts
        self._unwrap = unwrap
        self._hint = hint
        self._retired = dict(retired or {})
        self._entries: dict = {}

    # -- mutation --------------------------------------------------------

    def register(self, name: str, obj, replace: bool = False):
        """Bind *name* to *obj* and return *obj*."""
        if not name:
            raise ModelError(f"{self.noun} needs a non-empty name")
        if name in self._entries and not replace:
            raise ModelError(
                f"{self.kind} {name!r} is already registered; pass "
                "replace=True to override"
            )
        self._entries[name] = obj
        Registry.generation += 1
        return obj

    def pop(self, name: str, default=None):
        """Unbind *name*, returning what it was bound to (or *default*)."""
        Registry.generation += 1
        return self._entries.pop(name, default)

    # -- resolution ------------------------------------------------------

    def lookup(self, name):
        """The object bound to *name*; a miss raises
        :class:`~repro.errors.RegistryError`."""
        obj = self._entries.get(name)
        if obj is None:
            hint = self._hint
            if name in self._retired:
                hint += f" — did you mean {self._retired[name]!r}?"
            raise RegistryError.unknown(
                self.kind, name, self._entries, hint=hint
            )
        return obj

    def unwrap(self, value):
        """*value*'s ``unwrap`` attribute when it is a config object,
        else *value* itself (names, ``None`` and accepted objects pass
        through)."""
        if (
            self._unwrap
            and value is not None
            and not isinstance(value, str)
            and not self._accepts(value)
        ):
            return getattr(value, self._unwrap, value)
        return value

    def resolve(self, value=None):
        """The single place ``None`` / as-is / config / name resolution
        happens for this registry's parameter."""
        value = self.unwrap(value)
        if value is None:
            value = self.default
        if self._accepts(value):
            return value
        return self.lookup(value)

    def names(self) -> tuple:
        """Registered names, sorted (CLI choices come from here)."""
        return tuple(sorted(self._entries))

    # -- Mapping ---------------------------------------------------------

    def __getitem__(self, name: str):
        return self._entries[name]

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)
