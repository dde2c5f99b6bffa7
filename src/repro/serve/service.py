"""``ReproService``: the asyncio HTTP app over sessions, store, market.

Pure stdlib (asyncio streams + a hand-rolled HTTP/1.1 exchange per
connection — every response closes the connection, which keeps the
parser tiny and the load generator honest about connection cost).
The service composes the layers underneath without reimplementing any
of them:

* **Batch endpoints** — ``POST /runs`` validates the submitted spec /
  config documents through the experiment registry, addresses the run
  by the same content fingerprint :meth:`repro.api.Session.run`
  memoizes under, serves store hits *without touching compute*, and
  dispatches misses to the executor backend (under ``"process"`` a
  worker pool computes them outside the service process).  A computed
  result is written to the store on a writer thread, and the run
  reads ``succeeded`` only once that write has returned;
  ``GET /runs/<id>`` polls status; ``GET /runs/<id>/result`` returns
  the full
  :class:`~repro.api.session.RunResult` document (byte-identical to a
  direct ``Session.run`` of the same pair).  Both reads of a run still
  ``queued`` or ``running`` **hold** until it settles, at most
  :data:`HOLD_SECONDS`, then answer: a researcher learns that a run is
  done in one poll, not a spin of them.  The wait is an
  :class:`asyncio.Event` per run, so it never blocks the loop.
* **Bounded run records** — :attr:`ReproService.runs` keeps every
  in-flight run plus the :data:`FINISHED_RUNS` most recently used
  finished ones.  Status and result reads of an evicted run fall back
  to the store, and resubmitting one is a store hit; without a store
  an evicted id is unknown (404).
* **Online market** — ``POST /market/allocate`` prices arriving task
  batches with the DP / deadline kernels against the live
  :class:`~repro.serve.market.LiveMarket` ledger;
  ``GET /market/state`` exposes ledger + open-task queue.
* **Faults** — the ``serve.request`` / ``serve.backend`` sites are
  evaluated against one explicitly activated
  :class:`~repro.resilience.faults.FaultState` shared with the store's
  ``store.*`` sites, so an injected plan exercises the whole
  request → backend → store path deterministically.

Every error response body is a replayable
:class:`~repro.resilience.document.ErrorDocument` dict with the
library's stable error codes: 400 for invalid documents, 404 for
unknown ids/routes, 409 for an exhausted ledger, 500 for injected or
unexpected failures.
"""

from __future__ import annotations

import asyncio
import contextvars
import functools
import json
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from ..api.config import RunConfig, fingerprint
from ..api.spec import ExperimentSpec, available_experiments
from ..errors import (
    InfeasibleAllocationError,
    FaultInjectedError,
    ModelError,
    ReproError,
    RunNotFoundError,
    StoreError,
)
from ..resilience.document import ErrorDocument
from ..resilience.faults import FaultState, resolve_fault_plan
from ..store import resolve_store
from ..workloads.families import available_families
from .backend import ExecutorBackend
from .market import DEFAULT_MARKET_BUDGET, LiveMarket

__all__ = [
    "ReproService",
    "ServiceHandle",
    "start_in_thread",
    "serve_forever",
    "HOLD_SECONDS",
    "FINISHED_RUNS",
]

#: Longest a status or result read of an unsettled run holds, seconds.
HOLD_SECONDS = 1.0

#: Finished run records kept in memory (least recently used evicted
#: first); in-flight records are never evicted.
FINISHED_RUNS = 256

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    500: "Internal Server Error",
}


class _RunRecord:
    """One submitted run's lifecycle, addressed by its fingerprint."""

    __slots__ = (
        "run_id", "experiment", "spec_doc", "config_doc",
        "status", "served", "result_doc", "error", "settled",
    )

    def __init__(self, run_id, experiment, spec_doc, config_doc) -> None:
        self.run_id = run_id
        self.experiment = experiment
        self.spec_doc = spec_doc
        self.config_doc = config_doc
        self.status = "queued"
        self.served = False
        self.result_doc: Optional[dict] = None
        self.error: Optional[dict] = None
        self.settled = asyncio.Event()  # set once the run is done

    @property
    def done(self) -> bool:
        return self.status in ("succeeded", "failed")

    def status_document(self) -> dict:
        doc = {
            "run_id": self.run_id,
            "experiment": self.experiment,
            "status": self.status,
            "served": self.served,
        }
        if self.error is not None:
            doc["error"] = self.error
        return doc


def _error_body(exc: BaseException, spec=None, config=None) -> dict:
    return ErrorDocument.capture(exc, spec=spec, config=config).to_dict()


def _http_status(exc: BaseException) -> int:
    if isinstance(exc, RunNotFoundError):
        return 404
    if isinstance(exc, InfeasibleAllocationError):
        return 409
    if isinstance(exc, FaultInjectedError):
        return 500
    if isinstance(exc, (ModelError, ValueError)):
        return 400
    return 500


class ReproService:
    """The service app: routing, run records, market, fault sites.

    Parameters
    ----------
    store:
        Result store (path or :class:`~repro.store.ResultStore`) for
        store-first serving; ``None`` disables memoization.
    executor / workers:
        Executor that runs submitted runs and how many compute at once
        (see :class:`~repro.serve.backend.ExecutorBackend`):
        ``"process"`` keeps one worker pool of that size for the
        service's lifetime, started by the first run that misses the
        store; ``"serial"`` (the default, for embedded services)
        computes on that many dispatch threads in-process.
    faults:
        A fault plan (name / dict / :class:`FaultPlan`) whose
        ``serve.*`` and ``store.*`` rules are evaluated against one
        explicit state owned by the service.
    market_budget:
        Ledger units for the online market.
    """

    def __init__(
        self,
        store=None,
        executor="serial",
        workers: int = 2,
        faults=None,
        market_budget: int = DEFAULT_MARKET_BUDGET,
    ) -> None:
        self.store = resolve_store(store)
        self.backend = ExecutorBackend(executor, workers=workers)
        # One writer thread: store writes leave the loop, and their
        # store.* fault occurrences advance in one order.
        self._store_writer = (
            ThreadPoolExecutor(max_workers=1, thread_name_prefix="repro-store")
            if self.store is not None
            else None
        )
        plan = resolve_fault_plan(faults) if faults is not None else None
        self._fault_state = FaultState(plan) if plan is not None else None
        self.market = LiveMarket(budget=market_budget)
        self.runs: dict[str, _RunRecord] = {}
        # Ids of the finished records in `runs`, least recently used
        # first.
        self._finished: OrderedDict = OrderedDict()
        self._inflight: set = set()
        self.tally = {
            "requests": 0,
            "store_hits": 0,
            "store_misses": 0,
            "computed": 0,
            "failed_runs": 0,
            "store_write_failures": 0,
            "injected_request_faults": 0,
        }

    # -- routing -------------------------------------------------------

    async def handle(self, method: str, path: str, body: bytes):
        """Dispatch one request; returns ``(http_status, json_doc)``."""
        self.tally["requests"] += 1
        if self._fault_state is not None:
            fired = self._fault_state.fires("serve.request")
            if fired is not None:
                occurrence, _rule = fired
                self.tally["injected_request_faults"] += 1
                exc = FaultInjectedError(
                    "serve.request",
                    occurrence=occurrence,
                    detail=f"{method} {path}",
                )
                return 500, _error_body(exc)
        try:
            return await self._route(method, path, body)
        except ReproError as exc:
            return _http_status(exc), _error_body(exc)
        except Exception as exc:  # defensive: the loop must survive
            return 500, _error_body(exc)

    async def _route(self, method: str, path: str, body: bytes):
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/health":
            return 200, self.health_document()
        if method == "GET" and path == "/experiments":
            return 200, {
                "experiments": list(available_experiments()),
                "families": list(available_families()),
            }
        if method == "POST" and path == "/runs":
            return await self._submit(self._json_body(body))
        if method == "GET" and path.startswith("/runs/"):
            rest = path[len("/runs/"):]
            if rest.endswith("/result"):
                return await self._result(rest[: -len("/result")])
            if "/" not in rest and rest:
                return await self._status(rest)
        if method == "POST" and path == "/market/allocate":
            return 200, self.market.allocate(self._json_body(body))
        if method == "GET" and path == "/market/state":
            return 200, self.market.state_document()
        raise RunNotFoundError(f"{method} {path}")

    @staticmethod
    def _json_body(body: bytes) -> dict:
        if not body:
            return {}
        try:
            doc = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ModelError(f"request body is not valid JSON: {exc}")
        if not isinstance(doc, dict):
            raise ModelError(
                f"request body must be a JSON object, got {type(doc).__name__}"
            )
        return doc

    def health_document(self) -> dict:
        return {
            "status": "ok",
            "runs": len(self.runs),
            "store": self.store is not None,
            "executor": {
                "name": self.backend.executor.name,
                "pool": self.backend.pool_document(),
            },
            "tally": dict(self.tally),
        }

    # -- batch endpoints -----------------------------------------------

    async def _submit(self, payload: dict):
        spec_doc = payload.get("spec")
        if not isinstance(spec_doc, dict):
            raise ModelError(
                "a submission needs a 'spec' document "
                '({"experiment": name, "params": {...}})'
            )
        spec = ExperimentSpec.from_dict(spec_doc)
        config_doc = payload.get("config")
        if config_doc is not None:
            if not isinstance(config_doc, dict):
                raise ModelError("'config' must be a JSON object when given")
            config = RunConfig.from_dict(config_doc)
        else:
            config = RunConfig()
        token = fingerprint(
            {"spec": spec.to_dict(), "config": config.to_dict()}
        )
        record = self._lookup(token)
        if record is not None and record.status != "failed":
            return 200, record.status_document()
        # Unknown or evicted id, or a failed run: a failure (backend
        # crash, injected fault) is not a cached outcome — resubmission
        # replaces the record and re-dispatches, which is the recovery
        # path the serve.backend tests replay.
        self._finished.pop(token, None)
        record = _RunRecord(
            token, spec.name, spec.to_dict(), config.to_dict()
        )
        self.runs[token] = record
        if self.store is not None:
            lookup = self.store.lookup(token, fault_state=self._fault_state)
            if lookup.hit:
                # The memoized path: a verified stored document is the
                # run, byte-identical to computing it (Session.run's
                # store-first contract) — compute is never touched.
                self.tally["store_hits"] += 1
                record.status = "succeeded"
                record.served = True
                record.result_doc = lookup.result
                self._settle(record)
                return 200, record.status_document()
            self.tally["store_misses"] += 1
        # Keep a strong reference so the dispatch task cannot be
        # garbage-collected before it completes.
        task = asyncio.ensure_future(self._execute(record))
        self._inflight.add(task)
        task.add_done_callback(self._inflight.discard)
        return 202, record.status_document()

    async def _execute(self, record: _RunRecord) -> None:
        record.status = "running"
        try:
            await self._compute(record)
        finally:
            self._settle(record)

    async def _compute(self, record: _RunRecord) -> None:
        try:
            outcome = await self.backend.execute(
                record.spec_doc, record.config_doc, self._fault_state
            )
        except Exception as exc:  # defensive: a backend bug is a failed run
            record.status = "failed"
            record.error = _error_body(exc)
            self.tally["failed_runs"] += 1
            return
        if outcome.ok:
            self.tally["computed"] += 1
            if self.store is not None:
                # The task's context variables follow the write onto the
                # writer thread, as they would with asyncio.to_thread.
                write = functools.partial(
                    contextvars.copy_context().run,
                    self.store.put,
                    record.run_id,
                    outcome.result,
                    fault_state=self._fault_state,
                )
                try:
                    await asyncio.get_running_loop().run_in_executor(
                        self._store_writer, write
                    )
                except StoreError:
                    self.tally["store_write_failures"] += 1
            # Only now: a client that reads `succeeded` finds the entry
            # durable.
            record.result_doc = outcome.result
            record.status = outcome.status
        else:
            record.status = "failed"
            record.error = outcome.error
            self.tally["failed_runs"] += 1

    # -- run records ---------------------------------------------------

    def _settle(self, record: _RunRecord) -> None:
        """Wake the reads held on *record* and make it the most
        recently used finished record, evicting past
        :data:`FINISHED_RUNS`."""
        record.settled.set()
        if not record.done or self.runs.get(record.run_id) is not record:
            return  # cancelled at shutdown, or replaced by a resubmission
        self._finished[record.run_id] = None
        self._finished.move_to_end(record.run_id)
        while len(self._finished) > FINISHED_RUNS:
            evicted, _ = self._finished.popitem(last=False)
            del self.runs[evicted]

    def _lookup(self, run_id: str) -> Optional[_RunRecord]:
        """The live record of *run_id* (marking a finished one used)."""
        record = self.runs.get(run_id)
        if run_id in self._finished:
            self._finished.move_to_end(run_id)
        return record

    async def _held(self, run_id: str) -> Optional[_RunRecord]:
        """The record of *run_id* once it settles, or as it stands
        after :data:`HOLD_SECONDS`; a settled run or an unknown id
        answers at once."""
        record = self._lookup(run_id)
        if record is not None and not record.done:
            try:
                await asyncio.wait_for(record.settled.wait(), HOLD_SECONDS)
            except asyncio.TimeoutError:
                pass
        return record

    def _stored(self, run_id: str) -> Optional[dict]:
        """The stored result of a run with no live record, or ``None``.

        Store-first even without a live record: a persistent store
        serves runs evicted from :attr:`runs` and runs submitted
        before a restart.
        """
        if self.store is None:
            return None
        lookup = self.store.lookup(run_id, fault_state=self._fault_state)
        if not lookup.hit:
            return None
        self.tally["store_hits"] += 1
        return lookup.result

    async def _status(self, run_id: str):
        record = await self._held(run_id)
        if record is not None:
            return 200, record.status_document()
        stored = self._stored(run_id)
        if stored is None:
            raise RunNotFoundError(run_id)
        return 200, {
            "run_id": run_id,
            "experiment": stored["experiment"],
            "status": "succeeded",
            "served": True,
        }

    async def _result(self, run_id: str):
        record = await self._held(run_id)
        if record is None:
            stored = self._stored(run_id)
            if stored is None:
                raise RunNotFoundError(run_id)
            return 200, stored
        if record.status == "failed":
            return 500, record.error or _error_body(
                ModelError(f"run {run_id} failed without an error document")
            )
        if not record.done:
            return 202, record.status_document()
        return 200, record.result_doc

    # -- the HTTP layer ------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            request_line = await reader.readline()
            if not request_line:
                return
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return
            method, target = parts[0].upper(), parts[1]
            headers = {}
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            raw_length = headers.get("content-length", "0") or "0"
            try:
                length = int(raw_length)
            except ValueError:
                length = -1
            if length < 0:
                status, doc = 400, _error_body(
                    ModelError(f"malformed Content-Length {raw_length!r}")
                )
            else:
                body = await reader.readexactly(length) if length else b""
                status, doc = await self.handle(method, target, body)
            payload = json.dumps(doc).encode("utf-8")
            head = (
                f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(payload)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client went away mid-exchange; nothing to answer
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def start(self, host: str = "127.0.0.1", port: int = 0):
        """Bind and return the :class:`asyncio.Server` (port 0 = any)."""
        return await asyncio.start_server(self._handle_connection, host, port)

    def close(self) -> None:
        """Stop the worker pool and the store writer (idempotent; the
        server is separate)."""
        self.backend.close()
        if self._store_writer is not None:
            self._store_writer.shutdown(wait=True)


async def serve_forever(
    service: ReproService, host: str = "127.0.0.1", port: int = 8765
) -> None:
    """Run *service* until cancelled (the ``repro serve`` entry point)."""
    server = await service.start(host, port)
    addr = server.sockets[0].getsockname()
    print(f"repro service listening on http://{addr[0]}:{addr[1]}")
    async with server:
        await server.serve_forever()


class ServiceHandle:
    """A running in-thread service: ``base_url`` + ``stop()``.

    Returned by :func:`start_in_thread`; tests, benches and examples
    use it to exercise the real socket path without blocking the
    caller.  ``stop()`` is idempotent and joins the server thread.
    """

    def __init__(self, service, host, port, loop, stop_event, thread) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._loop = loop
        self._stop_event = stop_event
        self._thread = thread

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def stop(self) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=10.0)
        self.service.close()

    def __enter__(self) -> "ServiceHandle":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_in_thread(
    service: ReproService, host: str = "127.0.0.1", port: int = 0
) -> ServiceHandle:
    """Start *service* on a daemon thread; returns a :class:`ServiceHandle`."""
    started = threading.Event()
    state: dict = {}

    def _run() -> None:
        async def main() -> None:
            server = await service.start(host, port)
            state["port"] = server.sockets[0].getsockname()[1]
            state["loop"] = asyncio.get_running_loop()
            state["stop"] = asyncio.Event()
            started.set()
            async with server:
                await state["stop"].wait()

        asyncio.run(main())

    thread = threading.Thread(
        target=_run, name="repro-serve", daemon=True
    )
    thread.start()
    if not started.wait(timeout=10.0):
        raise ModelError("service thread failed to start within 10s")
    return ServiceHandle(
        service, host, state["port"], state["loop"], state["stop"], thread
    )
