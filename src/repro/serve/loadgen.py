"""Seeded synthetic traffic for the service layer.

The generator has two halves with a hard line between them:

* :func:`build_schedule` — a **pure function of its seed**.  It draws
  the request sequence (kinds, payloads, exponential inter-arrival
  offsets — the agent market's Poisson arrival model, applied to
  requesters instead of workers) from one
  ``numpy.random.default_rng(seed)`` stream and returns plain
  records.  Same seed → byte-identical schedule, every process, every
  machine.
* :func:`run_load` — the asyncio client fleet that *replays* a
  schedule against a live service: ``concurrency`` requesters drain
  the schedule in order, each request opening a fresh connection
  (``Connection: close`` matches the server).  Latency per request and
  the outcome of every exchange land in a :class:`LoadReport` with
  p50/p95/p99 and sustained requests/sec.

Determinism of *service state* follows from determinism of the
schedule whenever requests are applied in schedule order
(``concurrency=1``): the market ledger's trajectory digest is then a
pure function of the seed, which is exactly what the serve test suite
asserts.  At higher concurrency the interleaving (and thus latency
numbers) vary, but every submitted run's *payload* is still
deterministic — runs are content-addressed.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..errors import ModelError

__all__ = [
    "ScheduledRequest",
    "LoadReport",
    "build_schedule",
    "run_load",
    "http_request",
    "DEFAULT_MIX",
]

#: Default traffic mix (weights; normalized by the schedule builder).
#: ``submit`` drives the batch path, ``poll`` / ``result`` exercise the
#: read side against previously submitted runs, ``allocate`` / ``state``
#: drive the online market.
DEFAULT_MIX = {
    "submit": 0.25,
    "poll": 0.2,
    "result": 0.15,
    "allocate": 0.3,
    "state": 0.1,
}

#: The tiny spec pool submissions draw from.  Deliberately small so a
#: seeded schedule resubmits the same (spec, config) pairs and the
#: store's hit path sees real traffic.
_SPEC_POOL = [
    {
        "experiment": "budget-sweep",
        "params": {
            "family": "repe",
            "case": "a",
            "n_tasks": 4,
            "budgets": [600, 900],
            "strategies": ["ra"],
            "scoring": "numeric",
        },
    },
    {
        "experiment": "budget-sweep",
        "params": {
            "family": "homo",
            "case": "a",
            "n_tasks": 4,
            "budgets": [400],
            "strategies": ["ea"],
            "n_samples": 30,
        },
    },
    {
        "experiment": "fig4",
        "params": {"prices": [5, 8], "repetitions": 2},
    },
]

_ALLOCATE_SCENARIOS = ("homo", "repe", "heter")


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned request: when, what, and with which payload."""

    index: int
    offset: float  # seconds after schedule start (exponential gaps)
    kind: str  # "submit" | "poll" | "result" | "allocate" | "state"
    payload: Optional[dict] = None
    #: For poll/result: which submit (by schedule position among
    #: submits) to address; the runner resolves it to a run id.
    target_submit: Optional[int] = None


@dataclass
class LoadReport:
    """What a replayed schedule did to (and learned from) the service."""

    requests: int = 0
    failures: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    status_counts: dict = field(default_factory=dict)
    latencies_ms: dict = field(default_factory=dict)
    duration_sec: float = 0.0
    requests_per_sec: float = 0.0
    market_state: Optional[dict] = None
    health: Optional[dict] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def percentiles(self, kind: Optional[str] = None) -> dict:
        """p50/p95/p99 (ms) over one kind, or all requests pooled."""
        if kind is None:
            pool: list = sum(self.latencies_ms.values(), [])
        else:
            pool = list(self.latencies_ms.get(kind, []))
        if not pool:
            return {"p50_ms": 0.0, "p95_ms": 0.0, "p99_ms": 0.0}
        arr = np.sort(np.asarray(pool, dtype=float))
        return {
            "p50_ms": float(np.percentile(arr, 50)),
            "p95_ms": float(np.percentile(arr, 95)),
            "p99_ms": float(np.percentile(arr, 99)),
        }

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "counts": dict(self.counts),
            "status_counts": {
                str(k): v for k, v in sorted(self.status_counts.items())
            },
            "failures": len(self.failures),
            "duration_sec": self.duration_sec,
            "requests_per_sec": self.requests_per_sec,
            "percentiles": self.percentiles(),
            "market_state": self.market_state,
            "health": self.health,
        }


def build_schedule(
    seed: int,
    n_requests: int,
    mix: Optional[dict] = None,
    arrival_rate: float = 200.0,
    market_budget_range: tuple = (150, 400),
) -> list[ScheduledRequest]:
    """Draw a deterministic request schedule from *seed*.

    ``arrival_rate`` is the requester arrival intensity (requests/sec);
    offsets accumulate exponential inter-arrival gaps exactly like the
    agent market draws worker arrivals.  ``mix`` maps request kinds to
    weights (default :data:`DEFAULT_MIX`).
    """
    if n_requests < 1:
        raise ModelError(f"n_requests must be >= 1, got {n_requests}")
    mix = dict(DEFAULT_MIX if mix is None else mix)
    kinds = sorted(mix)
    weights = np.asarray([float(mix[k]) for k in kinds], dtype=float)
    if (weights < 0).any() or weights.sum() <= 0:
        raise ModelError(f"mix weights must be non-negative and sum > 0: {mix}")
    weights = weights / weights.sum()

    rng = np.random.default_rng(seed)
    schedule: list[ScheduledRequest] = []
    clock = 0.0
    n_submits = 0
    for index in range(n_requests):
        clock += float(rng.exponential(1.0 / arrival_rate))
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        if kind in ("poll", "result") and n_submits == 0:
            kind = "submit"  # nothing to read yet: promote to a write
        payload = None
        target = None
        if kind == "submit":
            payload = _SPEC_POOL[int(rng.integers(len(_SPEC_POOL)))]
            n_submits += 1
        elif kind in ("poll", "result"):
            target = int(rng.integers(n_submits))
        elif kind == "allocate":
            scenario = _ALLOCATE_SCENARIOS[
                int(rng.integers(len(_ALLOCATE_SCENARIOS)))
            ]
            lo, hi = market_budget_range
            payload = {
                "scenario": scenario,
                "case": "a",
                "n_tasks": int(rng.integers(4, 9)),
                "budget": int(rng.integers(lo, hi)),
            }
        schedule.append(
            ScheduledRequest(
                index=index,
                offset=clock,
                kind=kind,
                payload=payload,
                target_submit=target,
            )
        )
    return schedule


async def http_request(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[dict] = None,
    timeout: float = 30.0,
) -> tuple[int, dict]:
    """One HTTP/1.1 exchange over a fresh connection; returns (status, doc)."""
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {host}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("latin-1") + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(-1), timeout)
    finally:
        try:
            writer.close()
            await writer.wait_closed()
        except Exception:
            pass
    header, _, rest = raw.partition(b"\r\n\r\n")
    status_line = header.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split()[1])
    doc = json.loads(rest.decode("utf-8")) if rest else {}
    return status, doc


#: Responses the schedule treats as expected (not failures): 2xx
#: always; 409 for allocate (an exhausted ledger is a correct answer).
def _expected(kind: str, status: int) -> bool:
    if 200 <= status < 300:
        return True
    return kind == "allocate" and status == 409


async def run_load(
    host: str,
    port: int,
    schedule: Sequence[ScheduledRequest],
    concurrency: int = 8,
    paced: bool = False,
    poll_until_done: bool = False,
    timeout: float = 30.0,
) -> LoadReport:
    """Replay *schedule* against a live service.

    ``concurrency`` requesters drain the schedule in order.  With
    ``paced=True`` each request additionally waits for its arrival
    offset (open-loop traffic); the default is closed-loop maximum
    throughput.  ``poll_until_done=True`` makes ``poll`` requests spin
    until their target run leaves the queue (used by smoke tests that
    need every outcome settled).  The service holds a read of an
    unsettled run until it settles (up to
    :data:`~repro.serve.service.HOLD_SECONDS`), so the spin usually
    ends in one round.
    """
    if concurrency < 1:
        raise ModelError(f"concurrency must be >= 1, got {concurrency}")
    report = LoadReport()
    submit_ids: dict[int, str] = {}
    queue: asyncio.Queue = asyncio.Queue()
    for request in schedule:
        queue.put_nowait(request)
    started = time.perf_counter()

    async def one(request: ScheduledRequest) -> None:
        if paced:
            delay = started + request.offset - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
        method, path, body = "GET", "/health", None
        if request.kind == "submit":
            method, path, body = "POST", "/runs", {"spec": request.payload}
        elif request.kind == "allocate":
            method, path, body = "POST", "/market/allocate", request.payload
        elif request.kind == "state":
            method, path = "GET", "/market/state"
        elif request.kind in ("poll", "result"):
            run_id = submit_ids.get(request.target_submit)
            if run_id is None:
                path = "/health"  # target submit still in flight
            elif request.kind == "poll":
                path = f"/runs/{run_id}"
            else:
                path = f"/runs/{run_id}/result"
        t0 = time.perf_counter()
        status, doc = await http_request(
            host, port, method, path, body, timeout=timeout
        )
        if (
            poll_until_done
            and request.kind in ("poll", "result")
            and status == 202
        ):
            while status == 202:
                await asyncio.sleep(0.005)
                status, doc = await http_request(
                    host, port, method, path, None, timeout=timeout
                )
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if request.kind == "submit" and isinstance(doc, dict):
            run_id = doc.get("run_id")
            if run_id:
                submit_ids.setdefault(len(submit_ids), run_id)
        report.requests += 1
        report.counts[request.kind] = report.counts.get(request.kind, 0) + 1
        report.status_counts[status] = report.status_counts.get(status, 0) + 1
        report.latencies_ms.setdefault(request.kind, []).append(elapsed_ms)
        if not _expected(request.kind, status):
            report.failures.append(
                {"index": request.index, "kind": request.kind,
                 "status": status, "body": doc}
            )

    async def worker() -> None:
        while True:
            try:
                request = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            try:
                await one(request)
            except Exception as exc:
                report.requests += 1
                report.failures.append(
                    {"index": request.index, "kind": request.kind,
                     "status": None, "body": repr(exc)}
                )

    await asyncio.gather(*(worker() for _ in range(min(concurrency, len(schedule)))))
    report.duration_sec = time.perf_counter() - started
    if report.duration_sec > 0:
        report.requests_per_sec = report.requests / report.duration_sec
    try:
        _, report.market_state = await http_request(
            host, port, "GET", "/market/state", timeout=timeout
        )
        _, report.health = await http_request(
            host, port, "GET", "/health", timeout=timeout
        )
    except Exception:
        pass
    return report
