"""The compiled agent-market kernel (`repro.perf.native`).

Certifies the compiled branch of ``batch_agent_run_replications``
bit for bit against the preserved seed event loop
(:func:`repro.perf.reference.reference_agent_run_job`): weighted and
greedy choice models, null and plain traces, PCG64 and Philox seeds,
1, 3 and 64 replications, and the generators' end-of-stream
positions.  Every certification also runs with the kernel reported
unavailable, and a truncated cached build or a failing compiler must
fall back to the numpy path with identical outputs.
"""

from __future__ import annotations

import shutil

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.market import (
    NULL_RECORDER,
    AgentSimulator,
    TaskType,
    TraceRecorder,
    WorkerPool,
)
from repro.market.simulator import AtomicTaskOrder
from repro.market.worker import GreedyPriceChoice, PriceProportionalChoice
from repro.perf import native
from repro.perf.reference import reference_agent_run_job

BUILDABLE = shutil.which("cc") is not None and native._npyrandom().is_file()
needs_cc = pytest.mark.skipif(not BUILDABLE, reason="no C compiler")


def make_orders(n_tasks=12):
    task_types = [
        TaskType("easy", processing_rate=2.0, attractiveness=1.0),
        TaskType("hard", processing_rate=1.3, attractiveness=0.6),
    ]
    return [
        AtomicTaskOrder(
            task_type=task_types[i % 2],
            prices=tuple(1 + (i + k) % 4 for k in range(1 + i % 3)),
            atomic_task_id=i,
        )
        for i in range(n_tasks)
    ]


def trajectory(result):
    """Comparable trajectory; uids taken relative to the first record."""
    records = result.trace.records
    base = records[0].uid if records else 0
    return (
        result.makespan,
        result.per_atomic_completion,
        result.total_paid,
        result.answers,
        result.trace.worker_arrival_times,
        [
            (
                r.uid - base,
                r.atomic_task_id,
                r.repetition_index,
                r.type_name,
                r.price,
                r.published_at,
                r.accepted_at,
                r.completed_at,
            )
            for r in records
        ],
    )


MODELS = {
    "weighted": lambda: PriceProportionalChoice(),
    "weighted-leave": lambda: PriceProportionalChoice(leave_weight=3.0),
    "greedy": lambda: GreedyPriceChoice(),
}
BIT_GENERATORS = {"pcg64": np.random.PCG64, "philox": np.random.Philox}


def generators(bit_generator, count, base=500):
    return [np.random.Generator(bit_generator(base + k)) for k in range(count)]


def run_batched(model, gens, orders, plain):
    sim = AgentSimulator(WorkerPool(5.0, choice_model=model), seed=999)
    recorders = [TraceRecorder() for _ in gens] if plain else NULL_RECORDER
    return sim.run_replications(orders, seeds=gens, recorders=recorders)


@pytest.fixture(params=["compiled", "unavailable"])
def kernel(request, monkeypatch):
    """Run a test with the kernel loaded, then reported unavailable."""
    if request.param == "compiled":
        if not BUILDABLE:
            pytest.skip("no C compiler")
        assert native.agent_kernel() is not None
    else:
        monkeypatch.setattr(native, "agent_kernel", lambda: None)
    return request.param


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty kernel cache, and a loader that has not looked yet."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    clear = native.agent_kernel.cache_clear
    clear()
    yield tmp_path / "cache"
    clear()


@needs_cc
def test_compiled_branch_is_taken(monkeypatch):
    calls = []
    real = native.AgentJob.run

    def spy(self, gen, keep_trace):
        calls.append(keep_trace)
        return real(self, gen, keep_trace)

    monkeypatch.setattr(native.AgentJob, "run", spy)
    gens = generators(np.random.PCG64, 3)
    run_batched(PriceProportionalChoice(), gens, make_orders(), plain=True)
    assert calls == [True, True, True]


@pytest.mark.parametrize("model", sorted(MODELS))
@pytest.mark.parametrize("bit_generator", sorted(BIT_GENERATORS))
@pytest.mark.parametrize("replications", [1, 3, 64])
@pytest.mark.parametrize("plain", [True, False], ids=["plain", "null"])
def test_matches_seed_event_loop(kernel, model, bit_generator, replications, plain):
    """Trajectories and end-of-stream positions equal R sequential runs
    of the seed loop; a null trace keeps makespans and completions."""
    orders = make_orders()
    bits = BIT_GENERATORS[bit_generator]
    ref_gens = generators(bits, replications)
    sim = AgentSimulator(WorkerPool(5.0, choice_model=MODELS[model]()), seed=9)
    reference = [
        reference_agent_run_job(sim, orders, recorder=TraceRecorder(), rng=g)
        for g in ref_gens
    ]
    gens = generators(bits, replications)
    fast = run_batched(MODELS[model](), gens, orders, plain)
    if plain:
        assert [trajectory(r) for r in fast] == [
            trajectory(r) for r in reference
        ]
    else:
        assert [
            (r.makespan, r.per_atomic_completion, r.total_paid, r.answers)
            for r in fast
        ] == [
            (r.makespan, r.per_atomic_completion, r.total_paid, r.answers)
            for r in reference
        ]
    # Philox states hold arrays: compare their reprs.
    assert [repr(g.bit_generator.state) for g in gens] == [
        repr(g.bit_generator.state) for g in ref_gens
    ]


def test_max_sim_time_names_the_first_failing_replication(kernel):
    """The error names the replication the seed loop fails first, with
    the seed loop's message, and sets ``.replication`` to it."""
    tt = TaskType("slow", processing_rate=2.0)
    orders = [
        AtomicTaskOrder(task_type=tt, prices=(2, 3), atomic_task_id=i)
        for i in range(6)
    ]
    pool = WorkerPool(0.08, choice_model=PriceProportionalChoice())
    sim = AgentSimulator(pool, seed=1, max_sim_time=200.0)
    for k in range(12):
        try:
            reference_agent_run_job(sim, orders, rng=np.random.default_rng(k))
        except SimulationError as exc:
            first, message = k, str(exc)
            break
    with pytest.raises(SimulationError) as excinfo:
        sim.run_replications(orders, seeds=list(range(12)))
    assert excinfo.value.replication == first
    assert str(excinfo.value) == f"replication {first}: {message}"


def plant_truncated_build(tmp_path, monkeypatch):
    """Point the cache at a new directory holding the first 100 bytes
    of the current build, as a copy cut short would leave it.  (A new
    path: the dynamic loader reuses a library it already loaded from
    the same path.)"""
    built = native.kernel_path().read_bytes()
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "truncated"))
    path = native.kernel_path()
    path.parent.mkdir(parents=True)
    path.write_bytes(built[:100])
    native.agent_kernel.cache_clear()
    return path, len(built)


def outputs(gens):
    return [
        trajectory(r)
        for r in run_batched(PriceProportionalChoice(), gens, make_orders(), True)
    ]


def reference_outputs(gens):
    sim = AgentSimulator(WorkerPool(5.0), seed=9)
    return [
        trajectory(
            reference_agent_run_job(
                sim, make_orders(), recorder=TraceRecorder(), rng=g
            )
        )
        for g in gens
    ]


@needs_cc
def test_truncated_cached_build_is_rebuilt(fresh_cache, tmp_path, monkeypatch):
    assert native.agent_kernel() is not None
    assert native.kernel_path().parent == fresh_cache / "repro" / "kernels"
    path, size = plant_truncated_build(tmp_path, monkeypatch)
    expected = reference_outputs(generators(np.random.PCG64, 3))
    assert outputs(generators(np.random.PCG64, 3)) == expected
    assert native.agent_kernel() is not None
    assert path.stat().st_size == size


@needs_cc
def test_truncated_build_and_failing_compiler_fall_back(
    fresh_cache, tmp_path, monkeypatch
):
    assert native.agent_kernel() is not None
    plant_truncated_build(tmp_path, monkeypatch)
    monkeypatch.setattr(native.shutil, "which", lambda name: "/bin/false")
    expected = reference_outputs(generators(np.random.PCG64, 3))
    assert outputs(generators(np.random.PCG64, 3)) == expected
    assert native.agent_kernel() is None


def test_failing_compiler_falls_back(fresh_cache, monkeypatch):
    monkeypatch.setattr(native.shutil, "which", lambda name: "/bin/false")
    expected = reference_outputs(generators(np.random.Philox, 3))
    assert outputs(generators(np.random.Philox, 3)) == expected
    assert native.agent_kernel() is None
    assert not native.kernel_path().exists()
