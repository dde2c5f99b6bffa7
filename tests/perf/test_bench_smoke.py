"""Tier-1 smoke variant of ``benchmarks/bench_perf_engine.py``.

Runs the real benchmark functions at reduced size so every tier-1 run
re-certifies (a) the scalar/batch equivalences the bench asserts and
(b) that the batch engines actually are faster, keeping the perf
trajectory honest without benchmark-scale runtimes.
"""

from __future__ import annotations

import importlib.util
import json
import os
import pathlib
import sys

import pytest

_REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent.parent
_BENCH_PATH = _REPO_ROOT / "benchmarks" / "bench_perf_engine.py"

#: Sections safe for tier-1: everything that stays in-process.  The
#: ``executor_scaling`` section spawns a real worker pool and
#: ``service_latency`` binds real sockets, so tier-1 only asserts on
#: their committed numbers; the live smoke runs are gated behind
#: ``REPRO_EXEC_TESTS=1`` (the parallel-executor / service-layer CI
#: jobs).
_NON_TIER1 = ("executor_scaling", "service_latency")


def _tier1_sections(bench):
    return [name for name in bench._SECTIONS if name not in _NON_TIER1]


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_perf_engine", _BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("bench_perf_engine", module)
    spec.loader.exec_module(module)
    return module


def test_smoke_run_asserts_equivalence_and_speedup(bench, tmp_path):
    # The bench functions raise if batch output ever diverges from the
    # scalar engines, so a successful run is itself an equivalence check.
    results = bench.run(
        n_samples=200,
        n_tasks=30,
        n_budgets=5,
        n_deadlines=6,
        n_replications=8,
        write=False,
        sections=_tier1_sections(bench),
    )
    mc = results["mc_job_sampling"]
    dp = results["budget_indexed_dp_sweep"]
    one_pass = results["one_pass_strategy_sweep"]
    chunked = results["chunked_batch_sampling"]
    deadline = results["deadline_frontier"]
    market = results["agent_market_replications"]
    session = results["session_run_many"]
    resilience = results["session_resilience"]
    profile_scoring = results["numeric_profile_scoring"]
    assert mc["bit_identical"]
    assert dp["outputs_identical"]
    # The sweep bench raises internally if any one-pass allocation or
    # chunked sample diverges from the per-budget/scalar reference.
    assert one_pass["outputs_identical"]
    assert chunked["bit_identical"]
    # The deadline bench raises internally if any sweep point diverges
    # from the seed comparator.
    assert deadline["outputs_identical"]
    # The agent-market bench raises internally if any replication's
    # trace diverges from the seed event loop.
    assert market["bit_identical"]
    # Event-level scalar simulation vs one matrix draw: even at smoke
    # size the batch engine must win clearly.
    assert mc["speedup"] > 3.0
    # One DP pass vs 5 seed runs.
    assert dp["speedup"] > 1.5
    # One strategy-level DP pass vs 5 factory+tune runs.
    assert one_pass["speedup"] > 1.0
    # Shared deadline kernels vs per-deadline fresh scalar kernels.
    assert deadline["speedup"] > 1.5
    # Lock-step replications vs per-replication event loops: the full
    # 64-replication target is >= 5x; at smoke size just require a
    # clear win.
    assert market["speedup"] > 1.5
    # The session bench raises internally if a shared-cache batch's
    # payloads diverge from cold per-run sessions; sharing the kernel
    # tables strictly removes work, so batched must not lose.
    assert session["outputs_identical"]
    assert session["speedup"] > 1.0
    # The numeric-scoring bench raises internally if a shared-block
    # latency diverges from the seed kernel's; one block build per
    # grid instead of one per profile must win clearly.
    assert profile_scoring["bit_identical"]
    assert profile_scoring["speedup"] > 2.0
    # The resilience bench raises internally if the armed executor's
    # payloads diverge from the default fast path; arming the fault
    # machinery (empty plan, live site checks) must stay cheap.
    assert resilience["outputs_identical"]
    assert resilience["overhead_pct"] < 5.0
    # The store bench raises internally if a served document ever
    # diverges from the computed one or a warm re-submission misses;
    # serving a verified disk read must beat recomputing the sweep.
    serving = results["store_serving"]
    assert serving["outputs_identical"]
    assert serving["warm_hit_rate"] == 1.0
    assert serving["speedup"] > 1.0


def test_sections_filter_runs_subset(bench):
    results = bench.run(
        n_replications=8,
        write=False,
        sections=["agent_market_replications"],
    )
    assert list(results) == ["agent_market_replications"]


def test_sections_filter_merges_into_committed_json(
    bench, tmp_path, monkeypatch
):
    import json

    committed = {"other_section": {"speedup": 2.0}}
    path = tmp_path / "BENCH.json"
    path.write_text(json.dumps(committed))
    monkeypatch.setattr(bench, "RESULT_PATH", path)
    bench.run(
        n_replications=8,
        write=True,
        sections=["agent_market_replications"],
    )
    on_disk = json.loads(path.read_text())
    assert set(on_disk) == {"other_section", "agent_market_replications"}
    assert on_disk["other_section"] == {"speedup": 2.0}


def test_bench_writes_json(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(bench, "RESULT_PATH", tmp_path / "BENCH.json")
    results = bench.run(
        n_samples=50, n_tasks=10, n_budgets=3, write=True,
        sections=_tier1_sections(bench),
    )
    on_disk = json.loads((tmp_path / "BENCH.json").read_text())
    assert set(on_disk) == set(results)
    for section in on_disk.values():
        assert section["speedup"] > 0


def test_executor_scaling_section_is_committed():
    # Tier-1 stays serial-only, so it certifies the *committed* numbers
    # instead of re-spawning a pool: the section must exist, keep its
    # identity flag, and report every promised metric.
    committed = json.loads(
        (_REPO_ROOT / "BENCH_perf_engine.json").read_text()
    )
    section = committed["executor_scaling"]
    assert section["outputs_identical"] is True
    assert section["serial_specs_per_sec"] > 0
    for workers in ("1", "2", "4"):
        assert section["pool_specs_per_sec"][workers] > 0
    assert "recovery_overhead_pct" in section
    assert section["speedup"] > 0


def test_service_latency_section_is_committed():
    # Same treatment as executor_scaling: tier-1 certifies the
    # committed numbers (shape + identity + the warm-store win) rather
    # than binding sockets; the service-layer CI job re-runs it live.
    committed = json.loads(
        (_REPO_ROOT / "BENCH_perf_engine.json").read_text()
    )
    section = committed["service_latency"]
    assert section["outputs_identical"] is True
    for shape in ("cold", "warm_store", "online"):
        stats = section[shape]
        assert 0 < stats["p50_ms"] <= stats["p95_ms"] <= stats["p99_ms"]
        assert stats["requests_per_sec"] > 0
    # The acceptance bar: warm-store serving measurably faster than
    # cold compute, through the real socket path.
    assert section["speedup"] > 1.0
    assert section["warm_store"]["p50_ms"] < section["cold"]["p50_ms"]


@pytest.mark.skipif(
    os.environ.get("REPRO_EXEC_TESTS") != "1",
    reason="binds real sockets; runs in the service-layer CI job",
)
def test_service_latency_smoke(bench):
    results = bench.run(
        n_samples=50,
        n_tasks=10,
        n_budgets=3,
        write=False,
        sections=["service_latency"],
    )
    section = results["service_latency"]
    # The bench itself asserts byte-identity against direct Session.run
    # and that every warm submission was a store hit.
    assert section["outputs_identical"]
    assert section["speedup"] > 0


@pytest.mark.skipif(
    os.environ.get("REPRO_EXEC_TESTS") != "1",
    reason="spawns a worker pool; runs in the parallel-executor CI job",
)
def test_executor_scaling_smoke(bench):
    results = bench.run(
        n_samples=50,
        n_tasks=10,
        n_replications=8,
        write=False,
        sections=["executor_scaling"],
    )
    section = results["executor_scaling"]
    # The bench itself asserts byte-identity between serial and pooled
    # reports and the clean recovery merge; reaching here means those
    # contracts held at smoke size too.
    assert section["outputs_identical"]
    assert section["speedup"] > 0
