"""Per-layer metrics from the spans the tracing launcher wrote.

A span's self time is its duration minus the part of its interval its
child spans cover (children clipped to the parent's interval, overlaps
counted once).  Times are reported in milliseconds; a layer the
workload leaves idle reports 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path

import numpy as np

SID, PARENT, NAME, START, END, REQUEST, RUN, EXTRA = range(8)


def load(path: Path) -> dict:
    return json.loads(Path(path).read_text())


def self_times(spans) -> dict:
    """Span id -> self time in seconds."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] is not None:
            children[s[PARENT]].append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s[START]
        for c in sorted(children.get(s[SID], ()), key=lambda c: c[START]):
            lo, hi = max(c[START], reach), min(c[END], s[END])
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s[SID]] = (s[END] - s[START]) - covered
    return out


def _ms(values, q=50) -> float:
    return float(np.percentile(np.asarray(values) * 1000.0, q)) if len(values) else 0.0


def per_layer(recorded: dict, traced: dict, plain: dict) -> dict:
    """Every per-layer metric, as ``name -> (value, unit)``.

    *traced* and *plain* are the measurements of the traced and the
    untraced pass over the same seed.
    """
    # Keep the timed requests and the work they caused; warm-up and
    # the final checks are not part of the measurement.
    timed = {rid for rid, _, _ in traced["calls"]}
    spans = [s for s in recorded["spans"] if s[REQUEST] in timed]
    by_id = {s[SID]: s for s in spans}
    named = defaultdict(list)
    for s in spans:
        named[s[NAME]].append(s)
    own = self_times(spans)

    def durations(name, outermost=False):
        return [s[END] - s[START] for s in named[name]
                if not (outermost and s[PARENT] in by_id and by_id[s[PARENT]][NAME] == name)]

    handles = named["serve.handle"]
    handle_by_request = {s[REQUEST]: s for s in handles}
    wire = [(done - sent) - (h[END] - h[START])
            for rid, sent, done in traced["calls"]
            if (h := handle_by_request.get(rid)) is not None]
    lookups = named["store.lookup"]
    hits = sum(1 for s in lookups if (s[EXTRA] or {}).get("hit"))
    allocs = named["ledger.allocate"]
    family = defaultdict(float)
    for name in ("workloads.family", "workloads.problem_at"):
        for s in named[name]:
            family[s[REQUEST]] += s[END] - s[START]
    tunes = defaultdict(list)
    for s in named["core.tune"]:
        tunes[(s[EXTRA] or {}).get("strategy")].append(s[END] - s[START])
    cache = recorded["phase_cache"]
    sf_total = cache["sf_hits"] + cache["sf_misses"]
    ladder_total = cache["ladder_hits"] + cache["ladder_misses"]
    cpu_plain = plain["cpu_ms_per_request"]
    metrics = {
        "serve.handle.self_ms": (_ms([own[s[SID]] for s in handles]), "ms"),
        "serve.wire_ms": (_ms(wire), "ms"),
        "serve.cpu_ms_per_request": (cpu_plain, "ms"),
        # The untraced pass's p99: too unsteady from run to run for a
        # regression bound (a full collection in the service lands in a
        # window or not), so it is reported here rather than end to end.
        "latency_p99_ms": (plain["latency_p99_ms"], "ms"),
        "serve.requests": (len(handles), "count"),
        "serve.non2xx": (sum(1 for s in handles if not 200 <= s[EXTRA]["status"] < 300), "count"),
        "serve.response_bytes": (float(np.mean([s[EXTRA]["bytes"] for s in handles])) if handles else 0.0, "bytes"),
        "error_rate": (traced["failed"] / max(1, traced["attempted"]), "fraction"),
        "ledger.allocate.self_ms": (_ms([own[s[SID]] for s in allocs]), "ms"),
        "ledger.state.ms": (_ms(durations("ledger.state")), "ms"),
        "ledger.accepted": (sum(1 for s in allocs if not (s[EXTRA] or {}).get("error")), "count"),
        "ledger.rejected": (sum(1 for s in allocs if (s[EXTRA] or {}).get("error")), "count"),
        "workloads.family.ms": (_ms(list(family.values())), "ms"),
        "core.deadline.ms": (_ms(durations("core.deadline")), "ms"),
        "core.deadline.p99_ms": (_ms(durations("core.deadline"), 99), "ms"),
        "perf.dp.ms": (_ms(durations("perf.dp", True)), "ms"),
        "perf.sample.ms": (_ms(durations("perf.sample", True)), "ms"),
        "perf.market.replications.ms": (_ms(durations("perf.market.replications", True)), "ms"),
        "perf.cache.sf_hit_ratio": (cache["sf_hits"] / sf_total if sf_total else 0.0, "fraction"),
        "perf.cache.ladders": (cache["ladder_entries"], "count"),
        "perf.cache.ladder_hit_ratio": (cache["ladder_hits"] / ladder_total if ladder_total else 0.0, "fraction"),
        "experiments.budget_sweep.ms": (_ms(durations("experiments.budget_sweep")), "ms"),
        "experiments.deadline_sweep.ms": (_ms(durations("experiments.deadline_sweep")), "ms"),
        "api.session_run.ms": (_ms(durations("api.session_run", True)), "ms"),
        "api.spec_from_dict.ms": (_ms(durations("api.spec_from_dict", True)), "ms"),
        "api.fingerprint.ms": (_ms(durations("api.fingerprint")), "ms"),
        "exec.dispatch_wait_ms": (_ms(durations("exec.dispatch_wait")), "ms"),
        "exec.dispatch_wait_p99_ms": (_ms(durations("exec.dispatch_wait"), 99), "ms"),
        "store.lookup.ms": (_ms(durations("store.lookup")), "ms"),
        "store.lookups_per_request": (len(lookups) / max(1, len(handles)), "count"),
        "store.hit_ratio": (hits / len(lookups) if lookups else 0.0, "fraction"),
        "store.quarantined": (sum(1 for s in lookups if (s[EXTRA] or {}).get("quarantined")), "count"),
        "store.put.ms": (_ms(durations("store.put")), "ms"),
        "store.puts": (len(named["store.put"]), "count"),
        "bench.lag_p99_ms": (traced["lag_p99_ms"], "ms"),
        "bench.backlog_max": (traced["backlog_max"], "count"),
        "bench.polls_per_run": (traced.get("polls_per_run", 0.0), "count"),
        "bench.repeat_share": (traced["repeat_share"], "fraction"),
        "bench.trace_overhead_pct": ((traced["cpu_ms_per_request"] / cpu_plain - 1.0) * 100.0
                                     if cpu_plain else 0.0, "%"),
    }
    for strategy in ("ea", "ra", "ha"):
        metrics[f"core.tune.{strategy}.p50_ms"] = (_ms(tunes[strategy]), "ms")
        metrics[f"core.tune.{strategy}.p99_ms"] = (_ms(tunes[strategy], 99), "ms")
    return metrics
