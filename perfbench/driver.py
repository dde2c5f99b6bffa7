"""Drive the service over its socket: open loop, ladder and closed loop.

One asyncio loop in one process issues every request through the
public ``repro.serve.loadgen.http_request`` (one connection per
request, as the service closes each).  At most ``connections``
requests are in flight at once.  Open-loop latency runs from the
moment a request was *due*, so time spent waiting for a free
connection counts.
"""

from __future__ import annotations

import asyncio
import time
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.serve.loadgen import http_request

TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """What one request did.  Times are ``perf_counter`` seconds."""

    index: int
    due: float
    sent: float = 0.0
    done: float = 0.0
    status: Optional[int] = None
    doc: object = None
    error: Optional[str] = None
    step: int = -1
    lag: float = 0.0  # how late the generator woke for this request

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1000.0

    @property
    def ok(self) -> bool:
        return self.status is not None and 200 <= self.status < 300


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


#: Fewest requests a p99 is taken over: ten lie beyond it.
P99_WINDOW = 1000


def windowed_p99(latencies) -> float:
    """p99 of each run of ``P99_WINDOW`` or more consecutive samples; their median.

    A rare stall (a full collection in the service) lands in one window
    and moves that window's p99 only.
    """
    windows = max(1, len(latencies) // P99_WINDOW)
    return float(np.median([percentile(part, 99)
                            for part in np.array_split(np.asarray(latencies), windows)]))


async def _send(host, port, request, index: int):
    """One exchange; the request index rides in the query string."""
    sep = "&" if "?" in request.path else "?"
    return await http_request(host, port, request.method,
                              f"{request.path}{sep}rid={index}", request.body,
                              timeout=TIMEOUT_S)


async def closed(host, port, requests, connections: int, base: int = 0) -> list:
    """Send *requests* back to back on *connections* lanes (warm-up).

    Request ids start at *base*, here and in the other drivers, so the
    phases of one run never share an id.
    """
    queue = [(base + i, r) for i, r in enumerate(requests)]
    outcomes = []

    async def lane():
        while queue:
            index, request = queue.pop(0)
            outcome = Outcome(index, time.perf_counter())
            outcome.sent = outcome.due
            try:
                outcome.status, outcome.doc = await _send(host, port, request, index)
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                outcome.error = repr(exc)
            outcome.done = time.perf_counter()
            outcomes.append(outcome)

    await asyncio.gather(*(lane() for _ in range(connections)))
    outcomes.sort(key=lambda o: o.index)
    return outcomes


@dataclass
class StepResult:
    step: int
    rate: float
    requests: int
    p99_ms: float
    completed_rps: float
    passed: bool


def evaluate_step(outcomes, step: int, rate: float, start: float,
                  seconds: float, limit_ms: float) -> StepResult:
    """Whether one ladder step met the latency limit and kept up.

    The step meets the limit when at most 1% of its requests miss it; a
    failed request counts as a miss.  It keeps up when, at some request's
    due time in the second half of the step, no earlier request was still
    waiting for a connection: a backlog that grows never drains, while
    one left by a pause of the service does.  *outcomes* are ordered by
    due time; unsent ones have ``sent == 0``.
    """
    mine = [o for o in outcomes if o.step == step]
    misses = sum(1 for o in mine if not o.ok or o.latency_ms > limit_ms)
    p99 = percentile([o.latency_ms for o in mine if o.ok], 99)
    end = start + seconds
    dues = np.array([o.due for o in outcomes if o.due <= end])
    sents = np.array([o.sent or np.inf for o in outcomes[: len(dues)]])
    probes = np.array([o.due for o in mine if o.due >= start + seconds / 2])
    waiting = np.searchsorted(dues, probes, "right") - np.searchsorted(sents, probes, "right")
    kept_up = len(probes) > 0 and int(waiting.min()) <= 1
    last_done = max((o.done for o in mine), default=end)
    completed = sum(1 for o in mine if o.ok) / (last_done - start)
    passed = bool(mine) and misses <= 0.01 * len(mine) and kept_up
    return StepResult(step, rate, len(mine), p99, completed, passed)


async def open_loop(host, port, requests, connections: int, ladder, base: int):
    """Replay *requests* at their offsets; returns ``(outcomes, started, steps)``.

    Requests with ``step >= 0`` form the ladder: steps are judged in
    order as each completes, and the requests of the steps after the
    first failed one are never sent.  *outcomes* holds the requests that
    were sent.
    """
    semaphore = asyncio.Semaphore(connections)
    started = time.perf_counter() + 0.02
    outcomes = [Outcome(base + i, started + r.offset, step=r.step)
                for i, r in enumerate(requests)]
    remaining = Counter(o.step for o in outcomes)
    steps: list = []
    stop = asyncio.Event()

    def judge() -> None:
        while not stop.is_set() and len(steps) in remaining and remaining[len(steps)] == 0:
            step = len(steps)
            result = evaluate_step(outcomes, step, ladder.rate(step),
                                   started + step * ladder.step_seconds,
                                   ladder.step_seconds, ladder.limit_ms)
            steps.append(result)
            if not result.passed:
                stop.set()

    async def one(outcome: Outcome, request) -> None:
        try:
            outcome.status, outcome.doc = await _send(host, port, request, outcome.index)
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            outcome.error = repr(exc)
        finally:
            outcome.done = time.perf_counter()
            semaphore.release()
            remaining[outcome.step] -= 1
            if outcome.step >= 0:
                judge()

    tasks = []
    for outcome, request in zip(outcomes, requests):
        if stop.is_set():
            break
        delay = outcome.due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
            outcome.lag = time.perf_counter() - outcome.due
        await semaphore.acquire()
        outcome.sent = time.perf_counter()
        tasks.append(asyncio.ensure_future(one(outcome, request)))
    await asyncio.gather(*tasks)
    return outcomes[: len(tasks)], started, steps


@dataclass
class RunOutcome:
    """One researcher's submit -> poll -> result cycle for one run."""

    run_id: str
    started: float
    done: float = 0.0
    polls: int = 0
    requests: int = 0
    unexpected: int = 0
    doc: object = None
    error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.started) * 1000.0


async def researchers(host, port, runs, connections: int, seconds: float,
                      poll_interval: float, base: int) -> tuple:
    """Closed loop: *connections* researchers each submit, poll, fetch.

    Returns ``(outcomes, calls, elapsed seconds)`` where *calls* holds
    ``(request id, sent, done)`` per request; a researcher stops taking
    new runs once *seconds* have passed.
    """
    pending = list(runs)
    pending.reverse()
    outcomes = []
    counter = [base]
    calls = []
    begin = time.perf_counter()
    deadline = begin + seconds

    async def call(outcome, method, path, body=None):
        counter[0] += 1
        outcome.requests += 1
        request = _Plain(method, path, body)
        sent = time.perf_counter()
        status, doc = await _send(host, port, request, counter[0])
        calls.append((counter[0], sent, time.perf_counter()))
        if not 200 <= status < 300:
            outcome.unexpected += 1
        return status, doc

    async def researcher():
        while pending and time.perf_counter() < deadline:
            rid, spec, config = pending.pop()
            body = {"spec": spec} if config is None else {"spec": spec, "config": config}
            outcome = RunOutcome(rid, time.perf_counter())
            try:
                status, doc = await call(outcome, "POST", "/runs", body)
                while status == 202 or doc.get("status") in ("queued", "running"):
                    await asyncio.sleep(poll_interval)
                    outcome.polls += 1
                    status, doc = await call(outcome, "GET", f"/runs/{rid}")
                status, outcome.doc = await call(outcome, "GET", f"/runs/{rid}/result")
            except (OSError, asyncio.TimeoutError, ValueError) as exc:
                outcome.error = repr(exc)
            outcome.done = time.perf_counter()
            outcomes.append(outcome)

    await asyncio.gather(*(researcher() for _ in range(connections)))
    return outcomes, calls, time.perf_counter() - begin


@dataclass(frozen=True)
class _Plain:
    method: str
    path: str
    body: Optional[dict] = None


async def http_get(host, port, path: str):
    return await http_request(host, port, "GET", path, timeout=TIMEOUT_S)


def max_backlog(outcomes) -> int:
    """Most requests ever due but not yet sent at one moment."""
    events = sorted([(o.due, 1) for o in outcomes] + [(o.sent, -1) for o in outcomes])
    depth = peak = 0
    for _, delta in events:
        depth += delta
        peak = max(peak, depth)
    return peak
