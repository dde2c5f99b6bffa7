"""``repro.serve`` — the live crowd-market service layer.

Turns the batch library into a long-running HTTP service (the
ROADMAP's "serving heavy traffic" north star): submissions flow
through the experiment registry and the content-addressed result
store exactly as :meth:`repro.api.Session.run` would take them, an
online market endpoint prices arriving task batches against a live
budget ledger with the paper's DP / deadline kernels, and a seeded
load generator replays deterministic traffic for tests and the
``service_latency`` bench.  Layering (see ``docs/architecture.md``):

    cli → serve → api / exec → engines

Everything is stdlib + the already-present numpy: the HTTP layer is
asyncio streams, compute runs on a registered executor through
dispatch threads (:class:`ExecutorBackend`), and failure paths are
deterministic via the ``serve.request`` / ``serve.backend`` fault
sites.
"""

from .backend import ExecutorBackend
from .loadgen import (
    DEFAULT_MIX,
    LoadReport,
    ScheduledRequest,
    build_schedule,
    http_request,
    run_load,
)
from .market import DEFAULT_MARKET_BUDGET, LiveMarket
from .service import (
    ReproService,
    ServiceHandle,
    serve_forever,
    start_in_thread,
)

__all__ = [
    "ReproService",
    "ServiceHandle",
    "ExecutorBackend",
    "LiveMarket",
    "DEFAULT_MARKET_BUDGET",
    "ScheduledRequest",
    "LoadReport",
    "DEFAULT_MIX",
    "build_schedule",
    "run_load",
    "http_request",
    "serve_forever",
    "start_in_thread",
]
