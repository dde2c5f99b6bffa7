"""The lock-step agent-market replication engine (`repro.perf.market`).

Certifies the tentpole contract: a batched ``run_replications`` with
seeds ``[s0..sR]`` is trajectory-for-trajectory **bit-identical** to R
sequential seeded runs of the preserved seed event loop
(:func:`repro.perf.reference.reference_agent_run_job`) — across all
three built-in choice models, the custom linear-index fallback, mixed
repetition counts, jittered accuracies, payload answer sampling, and
``max_sim_time`` saturation (the error names the same replication).
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.errors import FaultInjectedError, SimulationError
from repro.market import (
    NULL_RECORDER,
    AgentSimulator,
    CrowdPlatform,
    NullTraceRecorder,
    PublishRequest,
    TaskType,
    TraceRecorder,
    WorkerPool,
)
from repro.market.dynamics import ConstantRate, NonstationaryWorkerPool
from repro.market.simulator import (
    AggregateSimulator,
    AtomicTaskOrder,
    MarketModel,
)
from repro.market.pricing import LinearPricing
from repro.market.worker import (
    ChoiceModel,
    GreedyPriceChoice,
    PriceProportionalChoice,
    SoftmaxChoice,
)
from repro.perf.market import lockstep_supported
from repro.perf.reference import reference_agent_run_job
from repro.resilience.faults import FaultPlan, runtime_scope
from repro.stats.rng import ensure_rng, replication_seeds


class CoinPayload:
    """Payload whose answers consume the RNG stream (one draw each)."""

    def sample_answer(self, rng, accuracy):
        return bool(rng.random() < accuracy)


def make_orders(n_tasks=12, with_payload=False):
    task_types = [
        TaskType("easy", processing_rate=2.0, attractiveness=1.0),
        TaskType("hard", processing_rate=1.3, attractiveness=0.6),
    ]
    return [
        AtomicTaskOrder(
            task_type=task_types[i % 2],
            prices=tuple(1 + (i + k) % 4 for k in range(1 + i % 3)),
            atomic_task_id=i,
            payload=CoinPayload() if with_payload else None,
        )
        for i in range(n_tasks)
    ]


def trajectory(result, base_uid=None, base_worker=None):
    """Comparable trajectory tuple; uids/worker ids taken relative."""
    records = result.trace.records
    rel_uid = None
    if records and base_uid is not None:
        rel_uid = [r.uid - base_uid for r in records]
    return (
        result.makespan,
        result.per_atomic_completion,
        result.total_paid,
        result.answers,
        result.trace.worker_arrival_times,
        [
            (
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
        rel_uid,
    )


def run_reference(model, seeds, orders, jitter=0.0, keep_events=False):
    pool = WorkerPool(5.0, choice_model=model, accuracy_jitter=jitter)
    sim = AgentSimulator(pool, seed=999)
    results = []
    recorders = []
    for seed in seeds:
        rec = TraceRecorder(keep_events=keep_events)
        recorders.append(rec)
        results.append(
            reference_agent_run_job(
                sim, orders, recorder=rec, rng=ensure_rng(seed)
            )
        )
    return results, recorders


def run_batched(model, seeds, orders, jitter=0.0, keep_events=False):
    pool = WorkerPool(5.0, choice_model=model, accuracy_jitter=jitter)
    sim = AgentSimulator(pool, seed=999)
    recorders = [TraceRecorder(keep_events=keep_events) for _ in seeds]
    results = sim.run_replications(
        orders, seeds=seeds, recorders=recorders, engine="agent-batch"
    )
    return results, recorders


MODELS = [
    lambda: PriceProportionalChoice(),
    lambda: PriceProportionalChoice(leave_weight=3.0),
    lambda: SoftmaxChoice(beta=1.5, leave_utility=0.3),
    lambda: SoftmaxChoice(beta=0.7, leave_utility=-1.0),
    lambda: GreedyPriceChoice(),
]


class TestLockstepBitIdentity:
    @pytest.mark.parametrize("make_model", MODELS)
    @pytest.mark.parametrize("seed_base", [0, 101])
    def test_matches_sequential_reference(self, make_model, seed_base):
        """Batched seeds [s0..sR] == R sequential seeded seed-loop runs,
        trajectory for trajectory (mixed repetition counts included)."""
        seeds = [seed_base + i for i in range(5)]
        orders = make_orders()
        ref, _ = run_reference(make_model(), seeds, orders)
        fast, _ = run_batched(make_model(), seeds, orders)
        for a, b in zip(ref, fast):
            ua = a.trace.records[0].uid
            ub = b.trace.records[0].uid
            assert trajectory(a, ua) == trajectory(b, ub)

    @pytest.mark.parametrize("make_model", MODELS[:3])
    def test_accuracy_jitter_stream(self, make_model):
        """Per-completion jitter normals are drawn in the same order."""
        seeds = [7, 8, 9]
        orders = make_orders()
        ref, _ = run_reference(make_model(), seeds, orders, jitter=0.07)
        fast, _ = run_batched(make_model(), seeds, orders, jitter=0.07)
        for a, b in zip(ref, fast):
            assert trajectory(a) == trajectory(b)

    def test_payload_answer_sampling(self):
        """Payload draws interleave identically with the event stream."""
        seeds = [3, 4, 5]
        orders = make_orders(with_payload=True)
        ref, _ = run_reference(PriceProportionalChoice(), seeds, orders)
        fast, _ = run_batched(PriceProportionalChoice(), seeds, orders)
        for a, b in zip(ref, fast):
            assert a.answers == b.answers
            assert trajectory(a) == trajectory(b)

    def test_keep_events_trace_replay(self):
        """Full event traces (kinds, times, payload timestamps) match."""
        seeds = [0, 1]
        orders = make_orders(n_tasks=8)
        ref, ref_recs = run_reference(
            SoftmaxChoice(beta=2.0), seeds, orders, keep_events=True
        )
        fast, fast_recs = run_batched(
            SoftmaxChoice(beta=2.0), seeds, orders, keep_events=True
        )
        for ra, rb in zip(ref_recs, fast_recs):
            assert [(e.kind, e.time) for e in ra.events] == [
                (e.kind, e.time) for e in rb.events
            ]

    def test_worker_ids_continue_across_replications(self):
        """One shared pool numbers workers sequentially in both modes."""
        seeds = [0, 1, 2]
        orders = make_orders(n_tasks=6)
        _, ref_recs = run_reference(
            GreedyPriceChoice(), seeds, orders, keep_events=True
        )
        _, fast_recs = run_batched(
            GreedyPriceChoice(), seeds, orders, keep_events=True
        )

        def worker_ids(recorders):
            out = []
            for rec in recorders:
                ids = [
                    e.payload.worker_id
                    for e in rec.events
                    if e.payload is not None
                    and e.payload.worker_id is not None
                    and e.kind.name == "TASK_COMPLETED"
                ]
                out.append(ids)
            base = out[0][0]
            return [[i - base for i in ids] for ids in out]

        assert worker_ids(ref_recs) == worker_ids(fast_recs)

    def test_spawned_seed_protocol_is_engine_independent(self):
        orders = make_orders(n_tasks=6)

        def run(engine):
            sim = AgentSimulator(WorkerPool(5.0), seed=42)
            return sim.run_replications(orders, 6, engine=engine)

        ra = run("scalar")
        rb = run("agent-batch")
        assert [x.makespan for x in ra] == [x.makespan for x in rb]

    def test_philox_generator_seeds(self):
        """Counter-based Philox streams work as explicit seeds."""
        orders = make_orders(n_tasks=6)

        def run(engine):
            sim = AgentSimulator(WorkerPool(5.0), seed=0)
            gens = [
                np.random.Generator(np.random.Philox(key=100 + i))
                for i in range(4)
            ]
            return sim.run_replications(orders, seeds=gens, engine=engine)

        ra = run("scalar")
        rb = run("agent-batch")
        assert [x.makespan for x in ra] == [x.makespan for x in rb]

    def test_generators_end_at_identical_stream_positions(self):
        """The lock-step engine consumes each stream draw-for-draw."""
        orders = make_orders(n_tasks=6)
        gens_a = [np.random.default_rng(s) for s in (1, 2, 3)]
        gens_b = [np.random.default_rng(s) for s in (1, 2, 3)]
        sim = AgentSimulator(WorkerPool(5.0), seed=0)
        sim.run_replications(orders, seeds=gens_a, engine="scalar")
        sim.run_replications(orders, seeds=gens_b, engine="agent-batch")
        for a, b in zip(gens_a, gens_b):
            assert a.bit_generator.state == b.bit_generator.state


class TestFallbacks:
    def test_custom_choice_model_linear_fallback(self):
        """Custom models route through the sequential reference path
        and still match it exactly."""

        class TakeCheapest(ChoiceModel):
            def choose(self, open_tasks, rng):
                if not open_tasks:
                    return None
                return min(open_tasks, key=lambda t: (t.price, t.uid))

        seeds = [0, 1, 2]
        orders = make_orders(n_tasks=8)
        ref, _ = run_reference(TakeCheapest(), seeds, orders)
        fast, _ = run_batched(TakeCheapest(), seeds, orders)
        for a, b in zip(ref, fast):
            assert trajectory(a) == trajectory(b)

    def test_nonstationary_pool_falls_back(self):
        """Overridden pools (thinning arrivals) bypass the lock-step
        kernel but keep identical results."""
        orders = make_orders(n_tasks=5)

        def run(engine):
            pool = NonstationaryWorkerPool(ConstantRate(5.0))
            sim = AgentSimulator(pool, seed=3)
            return sim.run_replications(
                orders, seeds=[0, 1, 2], engine=engine
            )

        ra = run("scalar")
        rb = run("agent-batch")
        assert [x.makespan for x in ra] == [x.makespan for x in rb]

    def test_duplicate_atomic_ids_fall_back(self):
        """Duplicate ids are degenerate in the seed loop (its id-keyed
        bookkeeping collides); the lock-step engine must not silently
        diverge — it routes to the sequential path and fails exactly
        the same way."""
        tt = TaskType("t", processing_rate=2.0)
        orders = [
            AtomicTaskOrder(task_type=tt, prices=(2,), atomic_task_id=0),
            AtomicTaskOrder(task_type=tt, prices=(3,), atomic_task_id=0),
        ]

        def run(engine):
            sim = AgentSimulator(WorkerPool(5.0), seed=3)
            return sim.run_replications(orders, seeds=[0, 1], engine=engine)

        with pytest.raises(IndexError):
            run("scalar")
        with pytest.raises(IndexError):
            run("agent-batch")


class TestMaxSimTimeSaturation:
    # Thresholds picked so the first failing replication is the first,
    # a middle, and a late index of the ensemble respectively.
    @pytest.mark.parametrize("max_sim_time", [40.0, 200.0, 260.0])
    def test_error_in_same_replication(self, max_sim_time):
        """A saturating job raises SimulationError naming the same
        replication index in both engines."""
        tt = TaskType("slow", processing_rate=2.0)
        orders = [
            AtomicTaskOrder(task_type=tt, prices=(2, 3), atomic_task_id=i)
            for i in range(6)
        ]
        seeds = list(range(12))

        def first_failure(engine):
            pool = WorkerPool(0.08, choice_model=PriceProportionalChoice())
            sim = AgentSimulator(pool, seed=1, max_sim_time=max_sim_time)
            with pytest.raises(SimulationError) as excinfo:
                sim.run_replications(orders, seeds=seeds, engine=engine)
            message = str(excinfo.value)
            assert "max_sim_time" in message
            return int(re.match(r"replication (\d+):", message).group(1))

        assert first_failure("scalar") == first_failure("agent-batch")

    @pytest.mark.parametrize("lockstep", [True, False])
    def test_error_carries_the_replication_index(self, lockstep):
        """Both fan-outs set ``.replication`` on the ``max_sim_time``
        error, the index its message names.  A choice-model subclass
        sends the job to the sequential loop."""

        class Subclassed(PriceProportionalChoice):
            pass

        model = PriceProportionalChoice() if lockstep else Subclassed()
        tt = TaskType("slow", processing_rate=2.0)
        orders = [
            AtomicTaskOrder(task_type=tt, prices=(2, 3), atomic_task_id=i)
            for i in range(6)
        ]
        sim = AgentSimulator(
            WorkerPool(0.08, choice_model=model), seed=1, max_sim_time=200.0
        )
        assert lockstep_supported(sim, orders) is lockstep
        with pytest.raises(SimulationError) as excinfo:
            sim.run_replications(orders, seeds=list(range(12)))
        message = str(excinfo.value)
        index = int(re.match(r"replication (\d+):", message).group(1))
        assert excinfo.value.replication == index


#: The two fan-outs behind ``run_replications``: the lock-step kernel
#: (built-in choice model) and the sequential loop (any other simulator).
FANOUTS = pytest.mark.parametrize(
    "make_sim, lockstep",
    [
        (lambda: AgentSimulator(WorkerPool(5.0), seed=999), True),
        (
            lambda: AggregateSimulator(
                MarketModel(LinearPricing(1.0, 1.0)), seed=11
            ),
            False,
        ),
    ],
    ids=["lockstep", "sequential"],
)


def pinned_fault(replication):
    return FaultPlan(
        rules=(
            {
                "site": "market.replication",
                "replication": replication,
                "at": [0],
            },
        )
    )


class TestFaultCoordinates:
    @FANOUTS
    def test_rule_pinned_to_a_replication_fires_there(
        self, make_sim, lockstep
    ):
        """A ``market.replication`` rule pinned to replication 4 fails
        the ensemble at its fifth seed on either fan-out."""
        plan = pinned_fault(4)
        sim = make_sim()
        orders = make_orders(n_tasks=6)
        assert lockstep_supported(sim, orders) is lockstep
        with runtime_scope(plan.activate()):
            with pytest.raises(FaultInjectedError) as excinfo:
                sim.run_replications(orders, seeds=replication_seeds(3, 6))
        assert excinfo.value.replication == 4

    @FANOUTS
    @pytest.mark.parametrize("replication", [0, 5])
    def test_first_and_last_replication(self, make_sim, lockstep, replication):
        """The coordinate is the plain index into *seeds* at both ends of
        the ensemble, and the message names it."""
        sim = make_sim()
        orders = make_orders(n_tasks=6)
        assert lockstep_supported(sim, orders) is lockstep
        with runtime_scope(pinned_fault(replication).activate()):
            with pytest.raises(FaultInjectedError) as excinfo:
                sim.run_replications(orders, seeds=replication_seeds(3, 6))
        assert excinfo.value.replication == replication
        assert f"replication {replication})" in str(excinfo.value)

    @FANOUTS
    def test_rule_past_the_ensemble_never_fires(self, make_sim, lockstep):
        """A rule pinned to replication 6 of a 6-replication ensemble
        leaves the run untouched."""
        orders = make_orders(n_tasks=6)
        plain = make_sim().run_replications(
            orders, seeds=replication_seeds(3, 6)
        )
        sim = make_sim()
        assert lockstep_supported(sim, orders) is lockstep
        with runtime_scope(pinned_fault(6).activate()):
            faulted = sim.run_replications(
                orders, seeds=replication_seeds(3, 6)
            )
        assert [trajectory(r) for r in faulted] == [
            trajectory(r) for r in plain
        ]


class TestReplicationIndependence:
    @FANOUTS
    @pytest.mark.parametrize("lo, hi", [(0, 1), (2, 5), (5, 6)])
    def test_seed_slice_reproduces_its_replications(
        self, make_sim, lockstep, lo, hi
    ):
        """Replication k depends on seed k alone: running
        ``seeds[lo:hi]`` on its own gives replications lo..hi-1 of the
        full ensemble, uids taken relative to each run's first record.
        (The spawned seeds are generators, so each run gets fresh ones.)"""
        orders = make_orders(n_tasks=6)
        sim = make_sim()
        assert lockstep_supported(sim, orders) is lockstep
        full = sim.run_replications(orders, seeds=replication_seeds(3, 6))
        part = make_sim().run_replications(
            orders, seeds=replication_seeds(3, 6)[lo:hi]
        )
        assert len(part) == hi - lo

        def relative(result):
            records = result.trace.records
            return trajectory(result, base_uid=records[0].uid)

        assert [relative(r) for r in part] == [
            relative(r) for r in full[lo:hi]
        ]


class TestNullRecorder:
    def test_scalar_null_recorder_trajectory_unchanged(self):
        orders = make_orders(n_tasks=8)
        sim_a = AgentSimulator(WorkerPool(5.0), seed=5)
        sim_b = AgentSimulator(WorkerPool(5.0), seed=5)
        full = sim_a.run_job(orders)
        null = sim_b.run_job(orders, recorder=NULL_RECORDER)
        assert null.makespan == full.makespan
        assert null.per_atomic_completion == full.per_atomic_completion
        assert null.answers == full.answers
        assert null.total_paid == full.total_paid
        assert null.trace is NULL_RECORDER
        assert null.trace.records == []
        assert null.trace.worker_arrival_times == []

    def test_batched_null_recorder_trajectory_unchanged(self):
        seeds = [0, 1, 2]
        orders = make_orders(n_tasks=8, with_payload=True)
        full, _ = run_batched(PriceProportionalChoice(), seeds, orders)
        pool = WorkerPool(5.0, choice_model=PriceProportionalChoice())
        sim = AgentSimulator(pool, seed=999)
        null = sim.run_replications(
            orders, seeds=seeds, recorders=NULL_RECORDER, engine="agent-batch"
        )
        for a, b in zip(full, null):
            assert a.makespan == b.makespan
            assert a.per_atomic_completion == b.per_atomic_completion
            assert a.answers == b.answers
            assert a.total_paid == b.total_paid
            assert b.trace is NULL_RECORDER

    def test_aggregate_null_recorder_trajectory_unchanged(self):
        from repro.market.simulator import AggregateSimulator

        market = MarketModel(LinearPricing(1.0, 1.0))
        orders = make_orders(n_tasks=6, with_payload=True)
        full = AggregateSimulator(market, seed=4).run_job(orders)
        null = AggregateSimulator(market, seed=4).run_job(
            orders, recorder=NullTraceRecorder()
        )
        assert null.makespan == full.makespan
        assert null.answers == full.answers
        assert null.trace.records == []


class TestReplicationApi:
    def test_needs_count_or_seeds(self):
        sim = AgentSimulator(WorkerPool(5.0), seed=0)
        with pytest.raises(SimulationError):
            sim.run_replications(make_orders(n_tasks=2))

    def test_count_seed_mismatch(self):
        sim = AgentSimulator(WorkerPool(5.0), seed=0)
        with pytest.raises(SimulationError):
            sim.run_replications(
                make_orders(n_tasks=2), 3, seeds=[0, 1]
            )

    def test_recorder_count_mismatch(self):
        sim = AgentSimulator(WorkerPool(5.0), seed=0)
        with pytest.raises(SimulationError):
            sim.run_replications(
                make_orders(n_tasks=2),
                seeds=[0, 1],
                recorders=[TraceRecorder()],
            )

    def test_bare_stateful_recorder_rejected(self):
        """A single TraceRecorder is ambiguous (only the null sentinel
        may be shared) and must fail with a clear error, not a
        TypeError from iteration."""
        sim = AgentSimulator(WorkerPool(5.0), seed=0)
        with pytest.raises(SimulationError, match="stateful"):
            sim.run_replications(
                make_orders(n_tasks=2),
                seeds=[0, 1],
                recorders=TraceRecorder(),
            )

    def test_shared_stateful_recorder_rejected(self):
        """One recorder object for several replications would interleave
        traces in engine-execution order — rejected up front."""
        sim = AgentSimulator(WorkerPool(5.0), seed=0)
        shared = TraceRecorder()
        with pytest.raises(SimulationError, match="share"):
            sim.run_replications(
                make_orders(n_tasks=2),
                seeds=[0, 1],
                recorders=[shared, shared],
            )

    def test_null_replications_burn_uids_like_sequential(self):
        """Mixed null/plain recorder fan-outs must consume the global
        task-uid counter identically in both engines (the sequential
        engine constructs PublishedTasks even for null replications),
        so uids line up engine-for-engine and run-for-run."""
        from repro.market.task import _task_uid

        orders = make_orders(n_tasks=4)
        total_publishes = sum(o.repetitions for o in orders)

        def consumed(engine):
            sim = AgentSimulator(WorkerPool(5.0), seed=0)
            recorders = [NullTraceRecorder(), TraceRecorder()]
            before = next(_task_uid)
            results = sim.run_replications(
                orders, seeds=[0, 1], recorders=recorders, engine=engine
            )
            after = next(_task_uid)
            rel = [
                r.uid - results[1].trace.records[0].uid
                for r in results[1].trace.records
            ]
            return after - before - 1, rel

        count_a, rel_a = consumed("scalar")
        count_b, rel_b = consumed("agent-batch")
        assert count_a == count_b == 2 * total_publishes
        assert rel_a == rel_b

    def test_aggregate_simulator_engines_agree(self):
        from repro.market.simulator import AggregateSimulator

        market = MarketModel(LinearPricing(1.0, 1.0))
        orders = make_orders(n_tasks=5)

        def run(engine):
            sim = AggregateSimulator(market, seed=11)
            return sim.run_replications(
                orders, seeds=[0, 1, 2], engine=engine
            )

        ra = run("scalar")
        rb = run("agent-batch")  # falls back to the sequential path
        assert [x.makespan for x in ra] == [x.makespan for x in rb]

    def test_platform_run_replications_charges_once(self):
        platform = CrowdPlatform.with_linear_market(
            1.0, 1.0, engine="agent", arrival_rate=5.0, budget=100, seed=0
        )
        tt = TaskType("t", processing_rate=2.0)
        requests = [
            PublishRequest(task_type=tt, prices=(2, 3)) for _ in range(4)
        ]
        results = platform.run_replications(
            requests, seeds=[0, 1, 2], engine="agent-batch"
        )
        assert len(results) == 3
        assert platform.spent == 20  # one batch charge, not 3x
        assert all(r.total_paid == 20 for r in results)

    def test_platform_replications_engines_agree(self):
        def run(engine):
            platform = CrowdPlatform.with_linear_market(
                1.0, 1.0, engine="agent", arrival_rate=5.0, seed=0
            )
            tt = TaskType("t", processing_rate=2.0)
            requests = [
                PublishRequest(task_type=tt, prices=(2,)) for _ in range(5)
            ]
            return platform.run_replications(
                requests, seeds=[0, 1], engine=engine
            )

        ra = run(None)
        rb = run("agent-batch")
        assert [x.makespan for x in ra] == [x.makespan for x in rb]
