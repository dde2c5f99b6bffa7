"""Start ``repro`` with spans recorded around each layer's public calls.

Usage: ``python3 launcher.py SPANS_PATH serve [repro serve options]``.

The launcher replaces public functions at the name their caller looks
them up by (``repro.serve.market.min_cost_for_deadline``,
``repro.serve.service.fingerprint``, class methods such as
``Tuner.tune``), then runs the ``repro`` command line.  Spans stay in
memory; when the service shuts down (SIGINT) they are written to
SPANS_PATH together with the phase-cache counters.

A span is ``[id, parent, name, start, end, request, run, extra]``.
``request`` is the ``rid`` the client put in the query string;
``run`` is the run id (fingerprint) for work done on dispatch threads,
which do not inherit the request's context.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import sys
import threading
import time
from urllib.parse import parse_qs, urlsplit

sys.dont_write_bytecode = True

SPANS: list = []
_ids = itertools.count(1)
#: ``(span id, request id, run id)`` of the innermost open span.
_current = contextvars.ContextVar("perfbench_span", default=(None, None, None))
#: Backend dispatches waiting for a thread: ``id(spec_doc)`` -> (run id, request id, t).
_dispatched: dict = {}
_lock = threading.Lock()


def _record(name, parent, start, end, request, run, extra=None) -> None:
    SPANS.append([next(_ids), parent, name, start, end, request, run, extra])


def traced(name, fn, extra=None):
    """Wrap a synchronous callable in a span; ``extra(result, args)`` adds detail."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        parent, request, run = _current.get()
        sid = next(_ids)
        token = _current.set((sid, request, run))
        start = time.perf_counter()
        failed = False
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            failed = True
            raise
        finally:
            end = time.perf_counter()
            _current.reset(token)
            info = {"error": True} if failed else (extra(result, args) if extra else None)
            SPANS.append([sid, parent, name, start, end, request, run, info])

    return wrapper


def _patch(owner, attr: str, name: str, extra=None) -> None:
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(traced(name, raw.__func__, extra)))
    else:
        setattr(owner, attr, traced(name, raw, extra))


def install() -> None:
    """Wrap every layer the benchmark reports on."""
    import repro.exec.worker as worker
    import repro.experiments.runner as runner
    import repro.perf.dp as dp
    import repro.serve.market as market
    import repro.serve.service as service
    from repro.api.config import fingerprint
    from repro.api.session import Session
    from repro.api.spec import ExperimentSpec
    from repro.perf.engine import BatchEngine, EvaluationEngine, ScalarEngine
    from repro.perf.market import AgentBatchEngine
    from repro.serve.backend import ExecutorBackend
    from repro.store.store import ResultStore
    from repro.workloads.families import ProblemFamily

    # serve: one span per request, linked by the client's rid.
    handle = service.ReproService.handle

    async def traced_handle(self, method, path, body):
        query = parse_qs(urlsplit(path).query)
        request = int(query["rid"][0]) if "rid" in query else None
        sid = next(_ids)
        token = _current.set((sid, request, None))
        start = time.perf_counter()
        try:
            status, doc = await handle(self, method, path, body)
        finally:
            end = time.perf_counter()
            _current.reset(token)
        size = len(json.dumps(doc).encode("utf-8"))
        SPANS.append([sid, None, "serve.handle", start, end, request, None,
                      {"status": status, "bytes": size}])
        return status, doc

    service.ReproService.handle = traced_handle

    # exec: the backend hands a run to a dispatch thread; the thread
    # finds it again by the identity of its spec document.
    execute = ExecutorBackend.execute

    async def traced_execute(self, spec_doc, config_doc, fault_state=None):
        run = fingerprint({"spec": spec_doc, "config": config_doc})
        parent, request, _ = _current.get()
        sid = next(_ids)
        token = _current.set((sid, request, run))
        start = time.perf_counter()
        with _lock:
            _dispatched[id(spec_doc)] = (run, request, start)
        try:
            return await execute(self, spec_doc, config_doc, fault_state)
        finally:
            end = time.perf_counter()
            _current.reset(token)
            SPANS.append([sid, parent, "exec.backend", start, end, request, run, None])

    ExecutorBackend.execute = traced_execute
    run_task_document = worker.run_task_document

    def traced_run_task(spec_doc, config_doc):
        with _lock:
            run, request, queued = _dispatched.pop(id(spec_doc), (None, None, None))
        if queued is not None:
            _record("exec.dispatch_wait", None, queued, time.perf_counter(), request, run)
        token = _current.set((None, request, run))
        try:
            return traced("exec.run", run_task_document)(spec_doc, config_doc)
        finally:
            _current.reset(token)

    worker.run_task_document = traced_run_task

    # serve.market (ledger), workloads, core.
    _patch(market.LiveMarket, "allocate", "ledger.allocate")
    _patch(market.LiveMarket, "state_document", "ledger.state")
    _patch(market, "scenario_family", "workloads.family")
    _patch(ProblemFamily, "problem_at", "workloads.problem_at")
    _patch(market.Tuner, "tune", "core.tune",
           lambda result, args: {"strategy": args[0].resolve_strategy(args[1])})
    _patch(market, "min_cost_for_deadline", "core.deadline")

    # perf: the DP kernels are imported from their module at call time.
    for attr in ("budget_indexed_dp_fast", "budget_indexed_dp_sweep",
                 "heterogeneous_price_scan", "heterogeneous_closeness_sweep"):
        _patch(dp, attr, "perf.dp")
    _patch(ScalarEngine, "sample", "perf.sample")
    _patch(BatchEngine, "sample", "perf.sample")
    _patch(EvaluationEngine, "run_replications", "perf.market.replications")
    _patch(AgentBatchEngine, "run_replications", "perf.market.replications")

    # experiments, api, store.
    _patch(runner, "run_budget_sweep", "experiments.budget_sweep")
    _patch(runner, "run_deadline_sweep", "experiments.deadline_sweep")
    _patch(Session, "run", "api.session_run")
    _patch(ExperimentSpec, "from_dict", "api.spec_from_dict")
    _patch(service, "fingerprint", "api.fingerprint")
    _patch(ResultStore, "lookup", "store.lookup",
           lambda result, args: {"hit": bool(result.hit), "quarantined": bool(result.quarantined)})
    _patch(ResultStore, "put", "store.put")


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    install()
    from repro.cli import main as repro_main
    from repro.perf.cache import phase_cache_stats

    try:
        return repro_main(command) or 0
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"spans": SPANS, "phase_cache": phase_cache_stats()}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
