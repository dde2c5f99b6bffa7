"""Seeded inputs for the three workloads.

Everything here is a pure function of the workload seed: the service
only ever sees the requests these functions return.  Open-loop phases
use a fixed request count per phase with arrival times drawn as sorted
uniforms, which is a Poisson stream conditioned on its count, so the
number of requests a phase offers does not vary from seed to seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.api import RunConfig, Session
from repro.api.config import fingerprint
from repro.api.spec import ExperimentSpec
from repro.core.deadline import latency_quantile
from repro.workloads.families import scenario_family

SCENARIOS = ("homo", "repe", "heter")
CASES = ("a", "b", "c", "d", "e", "f")

#: Per-repetition price at which a family's 0.9 latency quantile sets
#: the scale of the deadlines drawn for it; the drawn deadline is that
#: quantile times a factor in [1.0, 1.5), so the deadline kernel always
#: finds a feasible price vector well below its price cap.
_DEADLINE_REFERENCE_PRICE = 5


@dataclass(frozen=True)
class Request:
    """One planned HTTP request.

    ``offset`` is when it is due, in seconds after its phase starts
    (0 for closed-loop traffic); ``step`` is the ladder step it belongs
    to (-1 for the nominal phase).
    """

    kind: str
    method: str
    path: str
    body: Optional[dict] = None
    offset: float = 0.0
    step: int = -1


@dataclass(frozen=True)
class Ladder:
    """The fixed geometric rate ladder an open-loop run climbs."""

    start_rps: float
    factor: float
    step_seconds: float
    limit_ms: float

    def rate(self, step: int) -> float:
        return self.start_rps * self.factor**step


def arrival_offsets(rng: np.random.Generator, count: int, seconds: float):
    """*count* arrival times in ``[0, seconds)``, Poisson given the count."""
    return np.sort(rng.uniform(0.0, seconds, size=count))


def canonical(doc) -> str:
    """The byte form documents are compared in."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def run_id(spec: dict, config: Optional[dict] = None) -> str:
    """The id the service gives a submission (its content fingerprint)."""
    cfg = RunConfig.from_dict(config or {})
    return fingerprint(
        {"spec": ExperimentSpec.from_dict(spec).to_dict(), "config": cfg.to_dict()}
    )


# -- market-open ------------------------------------------------------


class AllocateDraws:
    """Draws allocate requests; caches per-family budget and deadline scales."""

    def __init__(self) -> None:
        self._min_budget: dict = {}
        self._deadline: dict = {}

    def min_budget(self, scenario: str, case: str, n_tasks: int) -> int:
        key = (scenario, case, n_tasks)
        if key not in self._min_budget:
            family = scenario_family(scenario, case=case, n_tasks=n_tasks)
            self._min_budget[key] = family.min_feasible_budget
        return self._min_budget[key]

    def deadline_scale(self, scenario: str, case: str, n_tasks: int) -> float:
        key = (scenario, case, n_tasks)
        if key not in self._deadline:
            family = scenario_family(scenario, case=case, n_tasks=n_tasks)
            problem = family.problem_at(family.min_feasible_budget)
            prices = {g.key: _DEADLINE_REFERENCE_PRICE for g in problem.groups()}
            self._deadline[key] = latency_quantile(problem, prices, 0.9)
        return self._deadline[key]

    def draw(self, rng: np.random.Generator, deadline_share: float = 0.25) -> dict:
        scenario = SCENARIOS[int(rng.integers(len(SCENARIOS)))]
        case = CASES[int(rng.integers(len(CASES)))]
        if rng.random() >= deadline_share:
            n_tasks = int(rng.integers(4, 21))
            floor = self.min_budget(scenario, case, n_tasks)
            budget = int(floor * rng.uniform(1.05, 3.0)) + 1
            return {"scenario": scenario, "case": case, "n_tasks": n_tasks,
                    "budget": budget}
        # Deadline batches use sizes on a coarser grid so the per-family
        # deadline scale is computed for at most 90 families.
        n_tasks = int(rng.choice((4, 8, 12, 16, 20)))
        scale = self.deadline_scale(scenario, case, n_tasks)
        deadline = round(scale * rng.uniform(1.0, 1.5), 6)
        return {"scenario": scenario, "case": case, "n_tasks": n_tasks,
                "deadline": deadline}


def _market_request(rng, draws: AllocateDraws, offset: float, step: int) -> Request:
    if rng.random() < 0.10:
        return Request("state", "GET", "/market/state", None, offset, step)
    return Request("allocate", "POST", "/market/allocate", draws.draw(rng),
                   offset, step)


def open_loop(rng, make, rate: float, seconds: float, ladder: Ladder,
              ladder_seconds: float) -> list:
    """Nominal phase at *rate*, then every ladder step that fits.

    ``make(offset, step)`` draws one request.  Offsets are absolute
    from the start of the nominal phase.
    """
    requests = [make(t, -1) for t in arrival_offsets(rng, round(rate * seconds), seconds)]
    start = seconds
    step = 0
    while (step + 1) * ladder.step_seconds <= ladder_seconds + 1e-9:
        count = round(ladder.rate(step) * ladder.step_seconds)
        for t in arrival_offsets(rng, count, ladder.step_seconds):
            requests.append(make(start + t, step))
        start += ladder.step_seconds
        step += 1
    return requests


def market_open(seed: int, rate: float, seconds: float, ladder: Ladder,
                ladder_seconds: float, warmup: int):
    """``(warm-up requests, timed requests)`` for market-open."""
    draws = AllocateDraws()
    warm_rng = np.random.default_rng([seed, 0])
    # Half the warm-up is deadline batches: a deadline family's first
    # batches build its phase-kernel ladders, the costliest cold path.
    warm = [Request("allocate", "POST", "/market/allocate", draws.draw(warm_rng, 0.5))
            for _ in range(warmup)]
    rng = np.random.default_rng([seed, 1])
    timed = open_loop(rng, lambda t, s: _market_request(rng, draws, t, s),
                      rate, seconds, ladder, ladder_seconds)
    return warm, timed


# -- runs-cold --------------------------------------------------------


def _budgets(rng, family: str, case: str, n_tasks: int, draws: AllocateDraws):
    floor = draws.min_budget(family, case, n_tasks)
    picks = sorted({int(floor * f) + 1 for f in rng.uniform(1.05, 2.5, size=2)})
    return picks


#: The tuning strategy a scenario's own algorithm uses (Tuner "auto").
OWN_STRATEGY = {"homo": "ea", "repe": "ra", "heter": "ha"}


def run_spec(rng, kind: int, family: str, case: str, n_tasks: int,
             draws: AllocateDraws, block: int = 0):
    """One ``(spec, config)`` submission of the given kind (0..3).

    A run's cost depends on its parameters far more than on its seed,
    so the parameters are fixed by the combination and the block's
    place in a four-block cycle; the seed draws each run's config seed
    (and so its samples, its simulated market and its id) and the order
    of the runs.  Sizes keep a run in the tens of milliseconds, so a
    run of the benchmark completes enough of them for a p99: the
    numeric sweep (exact phase-type scoring of on-hold latency, the
    costliest kind) prices one budget with the scenario's own strategy,
    and the agent-market run simulates one vote count, picked by the
    family, at a lower price picked by the case.
    """
    phase = block % 4
    floor = draws.min_budget(family, case, n_tasks)
    config = {"seed": int(rng.integers(0, 2**31))}
    if kind == 0:
        return {"experiment": "budget-sweep", "params": {
            "family": family, "case": case, "n_tasks": n_tasks,
            "budgets": [int(floor * (1.3 + 0.4 * phase)) + 1],
            "strategies": [OWN_STRATEGY[family]], "scoring": "numeric",
            "include_processing": False}}, config
    if kind == 1:
        return {"experiment": "budget-sweep", "params": {
            "family": family, "case": case, "n_tasks": n_tasks,
            "budgets": [int(floor * (1.2 + 0.2 * phase)) + 1,
                        int(floor * (1.8 + 0.2 * phase)) + 1],
            "scoring": "mc", "n_samples": 80}}, config
    if kind == 2:
        return {"experiment": "deadline-sweep", "params": {
            "family": family, "case": case, "n_tasks": n_tasks,
            "deadlines": [15.0 + 5.0 * phase, 30.0 + 10.0 * phase]}}, config
    spec = {"experiment": "fig5ab", "params": {
        "vote_counts": [(4, 6, 8)[SCENARIOS.index(family)]],
        "prices": [3 + CASES.index(case), 9 + 2 * phase],
        "repetitions": 2 + phase % 2, "n_tasks": n_tasks}}
    return spec, dict(config, engine="agent-batch", replications=2 + phase // 2)


#: Every (kind, family, case, n_tasks) a run can have.  Runs are drawn
#: in shuffled blocks that hold each combination once, so every seed
#: offers the same mix of cheap and costly runs.
RUN_COMBOS = [(kind, family, case, n_tasks) for kind in range(4)
              for family in SCENARIOS for case in CASES for n_tasks in (25, 50, 100)]


def distinct_runs(rng, count: int, draws: AllocateDraws, seen: set) -> list:
    """*count* submissions with ids not in *seen*, in shuffled blocks."""
    out = []
    block = 0
    while len(out) < count:
        for index in rng.permutation(len(RUN_COMBOS)):
            spec, config = run_spec(rng, *RUN_COMBOS[index], draws, block)
            rid = run_id(spec, config)
            if rid not in seen:
                seen.add(rid)
                out.append((rid, spec, config))
        block += 1
    return out[:count]


def runs_cold(seed: int, count: int, warmup: int):
    """``(warm-up runs, timed runs)``; every run id is distinct.

    The warm-up runs are the same for every seed, so set-up time does
    not depend on the seed.
    """
    draws = AllocateDraws()
    seen: set = set()
    warm = distinct_runs(np.random.default_rng(0), warmup, draws, seen)
    timed = distinct_runs(np.random.default_rng([seed, 1]), count, draws, seen)
    return warm, timed


# -- mixed-serve ------------------------------------------------------


def corpus_specs(seed: int, count: int) -> list:
    """Distinct, cheap runs written to the store before the service starts.

    Small Monte-Carlo sweeps: every set-up fills the corpus again, and
    these cost the same whether or not this process has computed them
    before.
    """
    draws = AllocateDraws()
    rng = np.random.default_rng([seed, 2])
    out, seen = [], set()
    while len(out) < count:
        family = SCENARIOS[int(rng.integers(len(SCENARIOS)))]
        case = CASES[int(rng.integers(len(CASES)))]
        n_tasks = int(rng.integers(4, 13))
        spec = {"experiment": "budget-sweep", "params": {
            "family": family, "case": case, "n_tasks": n_tasks,
            "budgets": _budgets(rng, family, case, n_tasks, draws),
            "strategies": [OWN_STRATEGY[family]], "scoring": "mc", "n_samples": 40}}
        rid = run_id(spec)
        if rid not in seen:
            seen.add(rid)
            out.append((rid, spec))
    return out


def fill_corpus(store_dir: str, corpus: list) -> dict:
    """Write every corpus run through ``Session.run(store=)``; id -> document."""
    session = Session()
    docs = {}
    for rid, spec in corpus:
        docs[rid] = session.run(spec, store=store_dir).to_dict()
    return docs


def _zipf(rng, n: int, exponent: float = 1.1):
    """A draw of an index in ``0..n-1``, Zipf-popular over a seeded order."""
    weights = 1.0 / np.arange(1, n + 1) ** exponent
    weights /= weights.sum()
    order = rng.permutation(n)
    return lambda: int(order[rng.choice(n, p=weights)])


#: Request mix of mixed-serve (shares of the timed requests).
MIXED_SHARES = (("result", 0.50), ("submit", 0.15), ("poll", 0.10),
                ("allocate", 0.15), ("state", 0.10))


def mixed_serve(seed: int, corpus: list, rate: float, seconds: float,
                ladder: Ladder, ladder_seconds: float):
    """``(warm-up requests, timed requests)`` for mixed-serve.

    The corpus splits in two: ids that are only ever read through
    ``GET /runs/<id>/result`` (the service never sees them submitted,
    so every read falls back to the store), and specs that are
    re-submitted and polled (submitted once during warm-up, so polls
    always address a known run).
    """
    rng = np.random.default_rng([seed, 3])
    n_read = len(corpus) * 3 // 4
    read_ids = [rid for rid, _ in corpus[:n_read]]
    submit_set = corpus[n_read:]
    draws = AllocateDraws()
    read_pick = _zipf(rng, len(read_ids))
    submit_pick = _zipf(rng, len(submit_set))
    kinds = [k for k, _ in MIXED_SHARES]
    shares = np.array([s for _, s in MIXED_SHARES])

    def make(offset, step):
        kind = kinds[int(rng.choice(len(kinds), p=shares))]
        if kind == "result":
            rid = read_ids[read_pick()]
            return Request(kind, "GET", f"/runs/{rid}/result", None, offset, step)
        if kind in ("submit", "poll"):
            rid, spec = submit_set[submit_pick()]
            if kind == "poll":
                return Request(kind, "GET", f"/runs/{rid}", None, offset, step)
            return Request(kind, "POST", "/runs", {"spec": spec}, offset, step)
        if kind == "state":
            return Request(kind, "GET", "/market/state", None, offset, step)
        return Request(kind, "POST", "/market/allocate", draws.draw(rng), offset, step)

    warm = [Request("submit", "POST", "/runs", {"spec": spec}) for _, spec in submit_set]
    warm += [Request("result", "GET", f"/runs/{rid}/result") for rid in read_ids[:50]]
    timed = open_loop(rng, make, rate, seconds, ladder, ladder_seconds)
    return warm, timed


def repeat_share(requests) -> float:
    """Share of *requests* that exactly repeat an earlier one."""
    seen, repeats = set(), 0
    for r in requests:
        key = (r.method, r.path, canonical(r.body))
        repeats += key in seen
        seen.add(key)
    return repeats / max(1, len(requests))
