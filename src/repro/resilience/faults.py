"""Deterministic fault injection at named sites (``FaultPlan``).

A :class:`FaultPlan` is a frozen, serializable value describing *which*
failures to inject *where*: each :class:`FaultRule` names a site (one
of :data:`FAULT_SITES`), and fires either on explicit occurrence
indexes (``at=(0, 2)`` — the 1st and 3rd time the site is reached) or
with a seeded pseudo-random ``rate`` hashed from
``(plan seed, rule, replication, occurrence)`` — never from wall-clock
or global RNG state, so a plan produces the *same* failures on every
run, every engine, and every replay of an error document.

Plans resolve through a name registry exactly like engines
(:func:`repro.perf.engine.get_engine`) and comparators: a
:class:`~repro.api.config.RunConfig` can carry a registered plan name,
an inline plan object, or its dict form.

Instrumented sites call :func:`site_check` — a module-global check
that is a single ``None`` test when no plan (and no timeout) is
active, which is what keeps the no-fault overhead of the resilient
execution path under the bench budget (``session_resilience`` section
of ``benchmarks/bench_perf_engine.py``).

The ``market.abandon`` site is special: instead of raising, it makes
an arriving worker *abandon* a task they just chose — the task stays
open for a later worker, no processing time is drawn, no worker id is
consumed.  Both the scalar :class:`~repro.market.simulator.AgentSimulator`
event loop and the lock-step replication kernel consult the same
per-replication acceptance counters, so an abandonment plan produces
bit-identical trajectories on either path.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Union

from ..errors import FaultInjectedError, ModelError, RunTimeoutError
from ..registry import Registry

__all__ = [
    "FAULT_SITES",
    "FaultRule",
    "FaultPlan",
    "FaultState",
    "register_fault_plan",
    "get_fault_plan",
    "available_fault_plans",
    "resolve_fault_plan",
    "runtime_scope",
    "site_check",
    "active_fault_state",
    "abandonment_hook",
]

#: The named injection points threaded through the library.
#:
#: * ``run.start`` — top of every :meth:`repro.api.Session.run` attempt
#:   (reached by every experiment);
#: * ``engine.sample`` — entry of every registered engine's Monte-Carlo
#:   ``sample`` (context: engine name);
#: * ``comparator.min_cost`` — entry of the deadline solver (context:
#:   ``comparator="batched"``, whichever registered name selected it);
#: * ``market.replication`` — before each market-simulator replication
#:   (context: replication index), on the sequential and lock-step
#:   fan-outs alike;
#: * ``market.abandon`` — worker abandonment in the agent market (does
#:   not raise; see module docstring);
#: * ``worker.spawn`` / ``worker.task`` / ``worker.hang`` — the
#:   **process-level** sites, evaluated by the
#:   :class:`repro.exec.ProcessExecutor` supervisor (which owns the
#:   single deterministic counter stream for the whole pool) and acted
#:   out by real subprocesses: a firing ``worker.spawn`` rule makes the
#:   freshly spawned pool member die immediately (occurrence = spawn
#:   index), ``worker.task`` makes the assigned worker crash
#:   (``os._exit``) on receipt of the task (occurrence = dispatch
#:   index), and ``worker.hang`` wedges it — heartbeats stop and the
#:   main thread sleeps — so straggler detection has something real to
#:   kill.  None of the three is reachable from the in-run
#:   :func:`site_check` hook; they exist for the supervisor.
#: * ``store.read`` / ``store.write`` / ``store.corrupt`` — the
#:   **result-store** sites, evaluated by
#:   :class:`repro.store.ResultStore` against an explicitly passed
#:   state (the same pattern as the ``worker.*`` sites: not reachable
#:   from the in-run :func:`site_check` hook).  A firing ``store.read``
#:   rule makes a lookup treat the entry as unreadable — it is
#:   quarantined and the run recomputes (occurrence = lookup index); a
#:   firing ``store.write`` rule makes the atomic write fail with a
#:   :class:`~repro.errors.StoreWriteError` after the result is
#:   computed (the run still returns it); a firing ``store.corrupt``
#:   rule deterministically bit-flips one byte of the entry *as it is
#:   written*, so the next read's checksum verification must catch it.
#: * ``serve.request`` / ``serve.backend`` — the **service-layer**
#:   sites, evaluated by :class:`repro.serve.ReproService` against an
#:   explicitly passed state (same pattern as ``worker.*`` /
#:   ``store.*``: not reachable from the in-run :func:`site_check`
#:   hook).  A firing ``serve.request`` rule fails one HTTP request
#:   before it is handled — the client sees a 500 with a replayable
#:   :class:`~repro.resilience.document.ErrorDocument` and the service
#:   keeps serving (occurrence = request index); a firing
#:   ``serve.backend`` rule kills one dispatched run as it reaches the
#:   backend — the run record goes ``failed`` with the injected error
#:   while the service, store and ledger stay consistent, so a
#:   resubmission recovers (occurrence = dispatch index).
FAULT_SITES = (
    "run.start",
    "engine.sample",
    "comparator.min_cost",
    "market.replication",
    "market.abandon",
    "worker.spawn",
    "worker.task",
    "worker.hang",
    "store.read",
    "store.write",
    "store.corrupt",
    "serve.request",
    "serve.backend",
)


def _unit_draw(seed: int, rule_index: int, replication, occurrence: int):
    """Deterministic uniform in [0, 1) for a fault coordinate."""
    key = f"{seed}:{rule_index}:{replication}:{occurrence}"
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class FaultRule:
    """One injection rule: *where* (site + filters) and *when* it fires.

    ``at`` lists explicit occurrence indexes (0-based, counted per
    replication for market sites); ``rate`` adds seeded pseudo-random
    firing on the remaining occurrences.  ``replication`` / ``engine``
    / ``comparator`` restrict the rule to matching contexts, and
    ``on_attempts`` restricts it to specific retry attempts (0-based)
    — the lever that makes retry-then-succeed recovery testable
    deterministically.
    """

    site: str
    at: tuple = ()
    rate: float = 0.0
    replication: Optional[int] = None
    engine: Optional[str] = None
    comparator: Optional[str] = None
    on_attempts: Optional[tuple] = None
    detail: str = ""

    def __post_init__(self) -> None:
        if self.site not in FAULT_SITES:
            raise ModelError(
                f"unknown fault site {self.site!r}; expected one of "
                f"{list(FAULT_SITES)}"
            )
        object.__setattr__(
            self, "at", tuple(int(k) for k in _as_seq(self.at, "at"))
        )
        if any(k < 0 for k in self.at):
            raise ModelError(f"at indexes must be >= 0, got {self.at}")
        if not 0.0 <= float(self.rate) <= 1.0:
            raise ModelError(f"rate must be in [0, 1], got {self.rate}")
        object.__setattr__(self, "rate", float(self.rate))
        if self.on_attempts is not None:
            object.__setattr__(
                self,
                "on_attempts",
                tuple(int(k) for k in _as_seq(self.on_attempts, "on_attempts")),
            )
        if not self.at and self.rate == 0.0:
            raise ModelError(
                "a FaultRule needs at least one trigger: a non-empty `at` "
                "tuple or a rate > 0"
            )

    def to_dict(self) -> dict:
        out: dict = {"site": self.site}
        if self.at:
            out["at"] = list(self.at)
        if self.rate:
            out["rate"] = self.rate
        if self.replication is not None:
            out["replication"] = int(self.replication)
        if self.engine is not None:
            out["engine"] = self.engine
        if self.comparator is not None:
            out["comparator"] = self.comparator
        if self.on_attempts is not None:
            out["on_attempts"] = list(self.on_attempts)
        if self.detail:
            out["detail"] = self.detail
        return out

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultRule":
        known = {
            "site", "at", "rate", "replication", "engine", "comparator",
            "on_attempts", "detail",
        }
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ModelError(
                f"unknown FaultRule keys {unknown}; expected a subset of "
                f"{sorted(known)}"
            )
        data = dict(payload)
        if "at" in data:
            data["at"] = tuple(data["at"])
        if "on_attempts" in data and data["on_attempts"] is not None:
            data["on_attempts"] = tuple(data["on_attempts"])
        return cls(**data)


def _as_seq(value, name: str):
    if isinstance(value, (list, tuple)):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return (value,)
    raise ModelError(f"{name} must be a tuple of ints, got {value!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable set of :class:`FaultRule` entries.

    ``activate(attempt=k)`` mints fresh per-attempt counter state
    (:class:`FaultState`) — every attempt of a retried run sees the
    same deterministic fault sequence unless a rule's ``on_attempts``
    says otherwise.
    """

    rules: tuple = ()
    seed: int = 0

    def __post_init__(self) -> None:
        rules = tuple(
            r if isinstance(r, FaultRule) else FaultRule.from_dict(r)
            for r in self.rules
        )
        object.__setattr__(self, "rules", rules)
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ModelError(f"plan seed must be an int, got {self.seed!r}")

    def activate(self, attempt: int = 0) -> "FaultState":
        return FaultState(self, attempt)

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "rules": [rule.to_dict() for rule in self.rules],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "FaultPlan":
        unknown = sorted(set(payload) - {"seed", "rules"})
        if unknown:
            raise ModelError(
                f"unknown FaultPlan keys {unknown}; expected a subset of "
                "['rules', 'seed']"
            )
        return cls(
            rules=tuple(payload.get("rules", ())),
            seed=int(payload.get("seed", 0)),
        )


class FaultState:
    """Mutable per-attempt occurrence counters of an activated plan.

    Counters key on ``(rule index, replication)`` so the per-replication
    occurrence streams are identical whether replications run
    sequentially or interleaved (the lock-step replication kernel).
    """

    __slots__ = (
        "plan", "attempt", "current_replication", "has_abandon",
        "_site_rules", "_counters",
    )

    def __init__(self, plan: FaultPlan, attempt: int = 0) -> None:
        self.plan = plan
        self.attempt = int(attempt)
        self.current_replication = 0
        site_rules: dict = {}
        for index, rule in enumerate(plan.rules):
            site_rules.setdefault(rule.site, []).append((index, rule))
        self._site_rules = site_rules
        self._counters: dict = {}
        self.has_abandon = "market.abandon" in site_rules

    def enter_replication(self, replication: int) -> None:
        self.current_replication = replication

    def _fires(self, index: int, rule: FaultRule, replication, context):
        if rule.on_attempts is not None and self.attempt not in rule.on_attempts:
            return None
        if rule.replication is not None and replication != rule.replication:
            return None
        for attr in ("engine", "comparator"):
            want = getattr(rule, attr)
            if want is not None and context.get(attr) != want:
                return None
        key = (index, replication)
        occurrence = self._counters.get(key, 0)
        self._counters[key] = occurrence + 1
        if occurrence in rule.at:
            return occurrence
        if rule.rate > 0.0 and (
            _unit_draw(self.plan.seed, index, replication, occurrence)
            < rule.rate
        ):
            return occurrence
        return None

    def fires(
        self, site: str, replication=None, engine=None, comparator=None
    ):
        """First firing ``(occurrence, rule)`` at *site*, else ``None``.

        The non-raising twin of :meth:`check`, advancing the same
        counters — the :class:`repro.exec.ProcessExecutor` supervisor
        consults it for the ``worker.*`` sites, where the reaction is
        killing/wedging a subprocess rather than raising in-line.
        """
        rules = self._site_rules.get(site)
        if not rules:
            return None
        context = {"engine": engine, "comparator": comparator}
        for index, rule in rules:
            occurrence = self._fires(index, rule, replication, context)
            if occurrence is not None:
                return occurrence, rule
        return None

    def check(self, site: str, replication=None, engine=None, comparator=None):
        fired = self.fires(
            site, replication=replication, engine=engine, comparator=comparator
        )
        if fired is not None:
            occurrence, rule = fired
            raise FaultInjectedError(
                site=site,
                replication=replication,
                occurrence=occurrence,
                detail=rule.detail,
            )

    def abandon_fires(self, replication: int) -> bool:
        """Whether the next acceptance in *replication* is abandoned.

        The boolean twin of :meth:`check` for the ``market.abandon``
        site; called once per would-be acceptance by both market
        engines, advancing the same per-replication counters.
        """
        rules = self._site_rules.get("market.abandon")
        if not rules:
            return False
        fired = False
        for index, rule in rules:
            if self._fires(index, rule, replication, _NO_CONTEXT) is not None:
                fired = True
        return fired


_NO_CONTEXT: Mapping = {"engine": None, "comparator": None}


# ---------------------------------------------------------------------------
# fault-plan registry
# ---------------------------------------------------------------------------

_PLANS = Registry("fault plan", hint="or an inline FaultPlan")


def register_fault_plan(
    name: str, plan: FaultPlan, replace: bool = False
) -> FaultPlan:
    """Register *plan* under *name* (what ``RunConfig(faults=...)``
    accepts as a string)."""
    if not isinstance(plan, FaultPlan):
        raise ModelError(f"expected a FaultPlan, got {plan!r}")
    return _PLANS.register(name, plan, replace=replace)


#: Resolve a registered fault-plan name.
get_fault_plan = _PLANS.lookup

#: Registered fault-plan names, sorted.
available_fault_plans = _PLANS.names


def resolve_fault_plan(
    faults: Union[str, FaultPlan, Mapping, None],
) -> Optional[FaultPlan]:
    """The single place ``faults=`` resolution happens.

    ``None`` stays ``None`` (no injection); strings resolve through the
    registry; mappings are inline plan documents.
    """
    if faults is None or isinstance(faults, FaultPlan):
        return faults
    if isinstance(faults, str):
        return get_fault_plan(faults)
    if isinstance(faults, Mapping):
        return FaultPlan.from_dict(faults)
    raise ModelError(
        f"cannot resolve fault plan from {faults!r}; expected a registered "
        "name, a FaultPlan, its dict form, or None"
    )


# ---------------------------------------------------------------------------
# runtime: the module-global active scope the hot paths consult
# ---------------------------------------------------------------------------


class _Runtime:
    __slots__ = ("state", "deadline", "timeout_seconds")

    def __init__(self, state, deadline, timeout_seconds) -> None:
        self.state = state
        self.deadline = deadline
        self.timeout_seconds = timeout_seconds


#: The active scope, or ``None`` (the common case — one global load and
#: one ``is None`` test per instrumented call).
_RUNTIME: Optional[_Runtime] = None


class runtime_scope:
    """Context manager installing a fault state and/or timeout deadline.

    ``runtime_scope(None, None)`` is a no-op (nothing installed, the
    hot-path checks stay single-comparison cheap).  Scopes nest: the
    previous runtime is restored on exit, so a resilient run inside
    another resilient run keeps its own fault coordinates.
    """

    __slots__ = ("state", "timeout_seconds", "_previous", "_installed")

    def __init__(
        self,
        state: Optional[FaultState],
        timeout_seconds: Optional[float] = None,
    ) -> None:
        self.state = state
        self.timeout_seconds = timeout_seconds
        self._previous = None
        self._installed = False

    def __enter__(self) -> "runtime_scope":
        global _RUNTIME
        if self.state is None and self.timeout_seconds is None:
            return self
        deadline = (
            time.monotonic() + self.timeout_seconds
            if self.timeout_seconds is not None
            else None
        )
        self._previous = _RUNTIME
        _RUNTIME = _Runtime(self.state, deadline, self.timeout_seconds)
        self._installed = True
        return self

    def __exit__(self, *exc_info) -> None:
        global _RUNTIME
        if self._installed:
            _RUNTIME = self._previous
            self._installed = False


def site_check(
    site: str, replication=None, engine=None, comparator=None
) -> None:
    """Hot-path hook: raise if the active plan/timeout says this site
    fails.  A no-op costing one global load + ``None`` test when no
    resilience scope is active."""
    runtime = _RUNTIME
    if runtime is None:
        return
    if (
        runtime.deadline is not None
        and time.monotonic() > runtime.deadline
    ):
        raise RunTimeoutError(runtime.timeout_seconds, site=site)
    if runtime.state is not None:
        runtime.state.check(
            site, replication=replication, engine=engine, comparator=comparator
        )


def active_fault_state() -> Optional[FaultState]:
    """The installed :class:`FaultState`, or ``None`` outside a scope."""
    runtime = _RUNTIME
    return runtime.state if runtime is not None else None


def abandonment_hook() -> Optional[Callable[[], bool]]:
    """A zero-arg abandonment test bound to the current replication.

    Fetched once per market run; ``None`` (the common case) unless the
    active plan has ``market.abandon`` rules, so the per-acceptance
    cost in the no-fault path is zero.
    """
    runtime = _RUNTIME
    if runtime is None:
        return None
    state = runtime.state
    if state is None or not state.has_abandon:
        return None
    replication = state.current_replication
    return lambda: state.abandon_fires(replication)
