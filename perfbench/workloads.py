"""The three workloads: set-up, timed phase, checks and metrics.

* ``market-open`` — open-loop Poisson ``POST /market/allocate`` (10%
  ``GET /market/state``): the online pricing path, with the store,
  executors and sessions idle.
* ``runs-cold`` — two researchers in a closed loop submit distinct runs
  to an empty store, poll them and fetch the result: the compute
  layers and store writes, with the market and store reads idle.
* ``mixed-serve`` — open loop over a store filled in set-up: store
  reads with verification, fingerprinting and the wire path, plus a
  share of allocates that catches a read-path change slowing ledger
  writes.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import statistics
import time
from pathlib import Path

import numpy as np

import checks
import driver
import schedule
import spans
from server import Server

#: Open-loop shapes: nominal rate, and the ladder climbed after it.
#: The ladder starts below where the service saturates on a 2-core
#: machine.  The latency limit is far above any pause of the service's
#: garbage collector, so it is saturation that ends a climb.
NOMINAL_RPS = 200.0
MARKET_LADDER = schedule.Ladder(start_rps=360.0, factor=1.06, step_seconds=0.75,
                                limit_ms=250.0)
MIXED_LADDER = schedule.Ladder(start_rps=300.0, factor=1.07, step_seconds=0.75,
                               limit_ms=250.0)

#: Share of ``--seconds`` the open-loop nominal phase takes; the
#: ladder gets the rest.
NOMINAL_SHARE = 0.65

MARKET_WARMUP = 600
RUNS_WARMUP = 12
RUNS_POLL_INTERVAL_S = 0.005
#: Upper bound on the run rate the closed loop can reach; sizes the
#: list of distinct runs a run draws.
RUNS_MAX_RPS = 100
RUNS_CHECKED = 8
CORPUS = 160

#: First request id of each phase (ids ride in the query string and
#: link client timings to server spans).
WARM_IDS, TIMED_IDS, LADDER_IDS = 0, 1_000_000, 2_000_000


def _cpu_ms_per_request(server, before: float, requests: int) -> float:
    return (server.cpu_seconds() - before) * 1000.0 / max(1, requests)


class _OpenLoop:
    """Shared shape of the two open-loop workloads."""

    ladder: schedule.Ladder

    def __init__(self, seed, seconds, connections, trace) -> None:
        self.seed = seed
        self.connections = connections
        # A traced run makes two passes of half the time each, nominal
        # phase only: the ladder would saturate the service and skew
        # every per-layer median.
        self.nominal_seconds = seconds / 2 if trace else seconds * NOMINAL_SHARE
        self.ladder_seconds = 0.0 if trace else seconds - self.nominal_seconds

    def warm_up(self, server) -> None:
        outcomes = asyncio.run(driver.closed(server.host, server.port, self.warm,
                                             self.connections, WARM_IDS))
        self.sent = list(zip(self.warm, outcomes))

    def measure(self, server) -> dict:
        nominal = [r for r in self.timed if r.step < 0]
        climb = [dataclasses.replace(r, offset=r.offset - self.nominal_seconds)
                 for r in self.timed if r.step >= 0]
        cpu0 = server.cpu_seconds()
        outcomes, started, _ = asyncio.run(driver.open_loop(
            server.host, server.port, nominal, self.connections, None, TIMED_IDS))
        cpu_ms = _cpu_ms_per_request(server, cpu0, len(outcomes))
        self.sent += list(zip(nominal, outcomes))
        timed, steps = list(outcomes), []
        if climb:
            climbed, _, steps = asyncio.run(driver.open_loop(
                server.host, server.port, climb, self.connections, self.ladder, LADDER_IDS))
            self.sent += list(zip(climb, climbed))
            timed += climbed
        done = [o for o in outcomes if o.ok]
        lat = [o.latency_ms for o in done]
        throughput = len(done) / (max(o.done for o in outcomes) - started)
        passed = [s for s in steps if s.passed]
        return {
            "calls": [(o.index, o.sent, o.done) for o in outcomes],
            "latency_p50_ms": driver.percentile(lat, 50),
            "latency_p99_ms": driver.windowed_p99(lat),
            "throughput_rps": throughput,
            "max_rate_rps": passed[-1].completed_rps if passed else throughput,
            "cpu_ms_per_request": cpu_ms,
            "attempted": len(timed),
            "failed": sum(1 for o in timed if not o.ok),
            "lag_p99_ms": driver.percentile([o.lag * 1000 for o in outcomes], 99),
            "backlog_max": driver.max_backlog(outcomes),
            "steps": steps,
            "repeat_share": schedule.repeat_share(nominal),
        }

    def market_problems(self, server) -> list:
        pairs = [(r.body, o.doc) for r, o in self.sent if r.kind == "allocate"]
        problems, costs = checks.check_allocations(pairs)
        _, state = asyncio.run(driver.http_get(server.host, server.port, "/market/state"))
        return problems + checks.check_ledger(state, costs, len(pairs))


class MarketOpen(_OpenLoop):
    ladder = MARKET_LADDER

    def __init__(self, seed, seconds, connections, trace) -> None:
        super().__init__(seed, seconds, connections, trace)
        self.warm, self.timed = schedule.market_open(
            seed, NOMINAL_RPS, self.nominal_seconds, self.ladder,
            self.ladder_seconds, MARKET_WARMUP)

    def setup(self, store: Path, spans_path=None):
        server = Server(store, spans_path)
        self.warm_up(server)
        return server

    def check(self, server, measured) -> list:
        return self.market_problems(server)


class MixedServe(_OpenLoop):
    ladder = MIXED_LADDER

    def __init__(self, seed, seconds, connections, trace) -> None:
        super().__init__(seed, seconds, connections, trace)
        self.corpus = schedule.corpus_specs(seed, CORPUS)
        self.warm, self.timed = schedule.mixed_serve(
            seed, self.corpus, NOMINAL_RPS, self.nominal_seconds, self.ladder,
            self.ladder_seconds)

    def setup(self, store: Path, spans_path=None):
        self.documents = schedule.fill_corpus(str(store), self.corpus)
        server = Server(store, spans_path)
        self.warm_up(server)
        return server

    def check(self, server, measured) -> list:
        problems = self.market_problems(server)
        served = []
        for request, outcome in self.sent:
            if request.kind == "result":
                served.append((request.path.split("/")[2], outcome.doc))
            elif request.kind in ("submit", "poll"):
                doc = outcome.doc if isinstance(outcome.doc, dict) else {}
                if doc.get("status") != "succeeded":
                    problems.append(f"{request.kind} {request.path}: status {doc.get('status')}")
        return problems + checks.check_documents(served, self.documents)


class RunsCold:
    def __init__(self, seed, seconds, connections, trace) -> None:
        self.seed = seed
        self.connections = connections
        self.seconds = seconds / 2 if trace else seconds
        count = int(RUNS_MAX_RPS * self.seconds) + 50
        self.warm, self.timed = schedule.runs_cold(seed, count, RUNS_WARMUP)

    def setup(self, store: Path, spans_path=None):
        server = Server(store, spans_path)
        outcomes, _, _ = asyncio.run(driver.researchers(
            server.host, server.port, self.warm, self.connections, 3600.0,
            RUNS_POLL_INTERVAL_S, WARM_IDS))
        self.warm_outcomes = outcomes
        return server

    def measure(self, server) -> dict:
        cpu0 = server.cpu_seconds()
        outcomes, calls, elapsed = asyncio.run(driver.researchers(
            server.host, server.port, self.timed, self.connections, self.seconds,
            RUNS_POLL_INTERVAL_S, TIMED_IDS))
        requests = sum(o.requests for o in outcomes)
        done = [o for o in outcomes if o.error is None and o.unexpected == 0]
        lat = [o.latency_ms for o in done]
        throughput = len(done) / elapsed
        self.outcomes = outcomes
        return {
            "calls": calls,
            "latency_p50_ms": driver.percentile(lat, 50),
            "latency_p99_ms": driver.percentile(lat, 99),
            "throughput_rps": throughput,
            # A closed loop keeps the service saturated, so the rate it
            # completes runs at is the highest rate it sustains.
            "max_rate_rps": throughput,
            "cpu_ms_per_request": _cpu_ms_per_request(server, cpu0, requests),
            "attempted": requests,
            "failed": sum(o.unexpected + (o.error is not None) for o in outcomes),
            "polls_per_run": sum(o.polls for o in outcomes) / max(1, len(outcomes)),
            "lag_p99_ms": 0.0,
            "backlog_max": 0,
            "repeat_share": 0.0,
            "runs": len(outcomes),
        }

    def check(self, server, measured) -> list:
        problems = []
        finished = self.warm_outcomes + self.outcomes
        for o in finished:
            doc = o.doc if isinstance(o.doc, dict) else {}
            if doc.get("fingerprint") != o.run_id:
                problems.append(f"run {o.run_id}: result is not the submitted run")
        specs = {rid: (rid, spec, config) for rid, spec, config in self.warm + self.timed}
        rng = np.random.default_rng([self.seed, 9])
        picks = rng.choice(len(finished), size=min(RUNS_CHECKED, len(finished)), replace=False)
        sample = [finished[int(i)] for i in sorted(picks)]
        expected = checks.direct_runs(specs[o.run_id] for o in sample)
        return problems + checks.check_documents([(o.run_id, o.doc) for o in sample], expected)


WORKLOADS = {"market-open": MarketOpen, "runs-cold": RunsCold, "mixed-serve": MixedServe}


def _timed(workload, server) -> dict:
    """The timed phase, with this process's garbage collector held off.

    A collection in the load generator would stall the requests in
    flight and show up as service latency.
    """
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        return workload.measure(server)
    finally:
        gc.enable()
        gc.unfreeze()


def _untraced(workload, work: Path, setups: int) -> dict:
    times = []
    server = None
    for i in range(setups):
        if server is not None:
            server.stop()
        started = time.perf_counter()
        server = workload.setup(work / f"store-{i}")
        times.append(time.perf_counter() - started)
    try:
        measured = _timed(workload, server)
        measured["peak_rss_mb"] = server.peak_rss_mb()
        measured["problems"] = workload.check(server, measured)
    finally:
        server.stop()
    measured["setup_s"] = statistics.median(times)
    return measured


def _traced(workload, work: Path) -> tuple:
    span_file = work / "spans.json"
    server = workload.setup(work / "store-traced", span_file)
    try:
        measured = _timed(workload, server)
        measured["problems"] = workload.check(server, measured)
    finally:
        server.stop()
    return measured, spans.load(span_file)


def run(name, seed, seconds, trace, work: Path, connections, setups) -> dict:
    cls = WORKLOADS[name]
    if not trace:
        measured = _untraced(cls(seed, seconds, connections, False), work, setups)
        metrics = {
            "setup_s": (measured["setup_s"], "s"),
            "latency_p50_ms": (measured["latency_p50_ms"], "ms"),
            "throughput_rps": (measured["throughput_rps"], "1/s"),
            "max_rate_rps": (measured["max_rate_rps"], "1/s"),
            "peak_rss_mb": (measured["peak_rss_mb"], "MiB"),
        }
        problems = measured["problems"]
        log = [f"ladder (rate, p99 ms, passed): "
               f"{[(round(s.rate), round(s.p99_ms, 1), s.passed) for s in measured.get('steps', [])]}"]
    else:
        plain = _untraced(cls(seed, seconds, connections, True), work, 1)
        measured, recorded = _traced(cls(seed, seconds, connections, True), work)
        metrics = spans.per_layer(recorded, measured, plain)
        problems = plain["problems"] + measured["problems"]
        measured = {"attempted": plain["attempted"] + measured["attempted"],
                    "failed": plain["failed"] + measured["failed"]}
        log = []
    return {
        "correct": not problems and measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
        "log": log + [f"problem: {p}" for p in problems[:20]],
    }
