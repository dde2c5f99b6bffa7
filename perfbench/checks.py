"""Correctness checks on what the service answered.

Each check returns a list of problems (empty when the responses are
right); the benchmark runs them after the timed phase and reports
``correct: false`` on any problem.
"""

from __future__ import annotations

from repro.api import RunConfig, Session
from repro.serve.market import LiveMarket

from schedule import canonical

_PRICE_BUDGET = 10**15


def price_locally(bodies) -> list:
    """``(cost, group_prices)`` for each allocate body, priced in process."""
    market = LiveMarket(budget=_PRICE_BUDGET)
    priced = []
    for body in bodies:
        doc = market.allocate(body)
        priced.append((doc["cost"], doc["group_prices"]))
    return priced


def check_allocations(pairs) -> tuple:
    """Compare each ``(request body, response doc)`` with local pricing.

    Returns ``(problems, costs)`` where *costs* are the locally priced
    charges, in the order given.
    """
    pairs = list(pairs)
    priced = price_locally(body for body, _ in pairs)
    problems = []
    for (body, doc), (cost, prices) in zip(pairs, priced):
        if not isinstance(doc, dict):
            problems.append(f"allocate {body}: no response document")
        elif doc.get("cost") != cost:
            problems.append(f"allocate {body}: cost {doc.get('cost')} != {cost}")
        elif canonical(doc.get("group_prices")) != canonical(prices):
            problems.append(f"allocate {body}: group_prices differ")
    return problems, [cost for cost, _ in priced]


def check_ledger(state: dict, costs, sent: int) -> list:
    """The final ledger must hold exactly the charges that were sent."""
    ledger = state.get("ledger", {}) if isinstance(state, dict) else {}
    problems = []
    if ledger.get("spent") != sum(costs):
        problems.append(f"ledger spent {ledger.get('spent')} != {sum(costs)}")
    if ledger.get("accepted") != sent:
        problems.append(f"ledger accepted {ledger.get('accepted')} != {sent}")
    if ledger.get("rejected") != 0:
        problems.append(f"ledger rejected {ledger.get('rejected')} batches")
    return problems


def check_documents(served, expected: dict) -> list:
    """Every ``(run id, served document)`` byte-equals the expected one.

    Both sides drop ``execution`` (per-run timing, the only field a
    recomputation may change).
    """
    problems = []
    for rid, doc in served:
        want = expected.get(rid)
        if want is None:
            problems.append(f"run {rid}: nothing to compare against")
            continue
        got = dict(doc) if isinstance(doc, dict) else {}
        got.pop("execution", None)
        want = dict(want)
        want.pop("execution", None)
        if canonical(got) != canonical(want):
            problems.append(f"run {rid}: served document differs")
    return problems


def direct_runs(runs) -> dict:
    """Run id -> document of a direct ``Session.run`` of each ``(id, spec, config)``."""
    return {rid: Session(RunConfig.from_dict(config or {})).run(spec).to_dict()
            for rid, spec, config in runs}
