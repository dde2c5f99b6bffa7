"""Replication fan-outs: lock-step agent markets and the sequential loop.

Replication studies — the Fig. 3/4/5(a)(b) harnesses, CI estimation,
and every engine-agreement check of the paper's modelling assumption —
run the same :class:`~repro.market.simulator.AgentSimulator` job R
times with independent seeds.  The scalar engine replays its
per-event Python loop once per replication; this module advances all R
replications **in lock-step** instead:

* every replication owns its seeded generator (default ``PCG64``
  streams via :func:`repro.stats.rng.spawn`; counter-based ``Philox``
  generators can be passed explicitly as seeds), and each round the
  engine draws exactly the values the scalar loop would draw, in the
  same per-stream order — trajectories are bit-identical by
  construction;
* open-task state lives in ``(R × S)`` structure-of-arrays — one
  weight (or utility) row per replication over the job's publish
  slots, tombstoned on acceptance exactly like the scalar Fenwick
  index — so the per-arrival task choice is one masked
  ``cumsum``/``argmax`` over all choosing replications at once;
* completion bookkeeping (``next_rep``, ``answers``, ``total_paid``,
  ``per_atomic``) is kept in column arrays/lists and materialized into
  ordinary :class:`~repro.market.simulator.JobResult` objects at the
  end; with a :class:`~repro.market.trace.NullTraceRecorder` the
  event/record materialization is skipped entirely.

The lock-step kernel covers the three built-in choice models
(price-proportional, softmax, greedy) on a plain
:class:`~repro.market.worker.WorkerPool` (:func:`lockstep_supported`);
:meth:`repro.perf.engine.EvaluationEngine.run_replications` sends
custom choice models, subclassed pools (e.g. nonstationary arrivals),
duplicate atomic ids and every other simulator to
:func:`sequential_run_replications` instead — same results, reference
speed.  The seed scalar loop is preserved verbatim as
:func:`repro.perf.reference.reference_agent_run_job` and the
equivalence is certified in ``tests/perf/test_market_replications.py``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from ..errors import SimulationError
from ..market.events import Event, EventKind
from ..market.simulator import AgentSimulator, JobResult
from ..market.task import PublishedTask, _task_uid
from ..market.trace import TaskRecord, TraceRecorder
from ..market.worker import (
    GreedyPriceChoice,
    PriceProportionalChoice,
    SoftmaxChoice,
    WorkerPool,
)
from ..resilience.faults import active_fault_state, site_check
from ..stats.rng import ensure_rng
from .engine import EvaluationEngine

__all__ = [
    "batch_agent_run_replications",
    "lockstep_supported",
    "sequential_run_replications",
]

#: The former ``"agent-batch"`` class name, bound to the one engine
#: class because the tracing launcher in ``perfbench/launcher.py``
#: still imports it.
AgentBatchEngine = EvaluationEngine

_WEIGHTED, _SOFTMAX, _GREEDY = 0, 1, 2


def _builtin_kind(model):
    """Lock-step driver for *model*, or ``None`` for custom models.

    Exact-type checks on purpose: a subclass may override ``choose``
    or ``make_index`` with arbitrary RNG consumption, which only the
    sequential fallback can reproduce.
    """
    if type(model) is PriceProportionalChoice:
        return _WEIGHTED
    if type(model) is SoftmaxChoice:
        return _SOFTMAX
    if type(model) is GreedyPriceChoice:
        return _GREEDY
    return None


def _pool_is_lockstep_safe(pool) -> bool:
    """True when the pool's RNG-consuming hooks are the base-class ones.

    ``next_arrival_delay`` and ``worker_accuracy`` are the two pool
    methods the scalar loop hands the replication's generator; the
    lock-step engine inlines their base implementations, so an
    override (e.g. :class:`~repro.market.dynamics.NonstationaryWorkerPool`
    thinning) must route through the sequential fallback instead.
    """
    cls = type(pool)
    return (
        cls.next_arrival_delay is WorkerPool.next_arrival_delay
        and cls.worker_accuracy is WorkerPool.worker_accuracy
    )


# Per-replication trace modes.
_TRACE_NULL, _TRACE_PLAIN, _TRACE_FULL = 0, 1, 2


def _trace_mode(recorder) -> int:
    if getattr(recorder, "is_null", False):
        return _TRACE_NULL
    if recorder is None or (
        type(recorder) is TraceRecorder and not recorder.keep_events
    ):
        return _TRACE_PLAIN
    return _TRACE_FULL


def lockstep_supported(simulator, orders) -> bool:
    """True when :func:`batch_agent_run_replications` can drive *orders*.

    That takes a plain :class:`AgentSimulator` (exact type, like the
    choice-model check) whose pool uses a built-in choice model and
    the base-class RNG hooks, and a non-empty job with unique atomic
    ids.
    """
    if type(simulator) is not AgentSimulator or not orders:
        return False
    pool = simulator.pool
    ids = [o.atomic_task_id for o in orders]
    return (
        _builtin_kind(pool.choice_model) is not None
        and _pool_is_lockstep_safe(pool)
        and len(set(ids)) == len(ids)
    )


def sequential_run_replications(
    simulator,
    orders,
    seeds,
    recorders=None,
    start_time: float = 0.0,
    replication_offset: int = 0,
    **run_kwargs,
) -> list:
    """One seeded ``simulator._run_job_with_rng`` run per replication.

    The reference fan-out for any simulator exposing that protocol
    (:class:`~repro.market.simulator.AgentSimulator`,
    :class:`~repro.market.simulator.AggregateSimulator`,
    :class:`~repro.perf.batch.BatchAggregateSimulator`).  A
    :class:`~repro.errors.SimulationError` raised inside one
    replication (e.g. ``max_sim_time`` exceeded) is re-raised with its
    global replication index ``replication_offset + k`` prefixed (and
    set as ``.replication``).
    """
    if recorders is None:
        recorders = [None] * len(seeds)
    offset = int(replication_offset)
    fault_state = active_fault_state()
    results = []
    for k, (seed, rec) in enumerate(zip(seeds, recorders)):
        site_check("market.replication", replication=offset + k)
        if fault_state is not None:
            fault_state.enter_replication(offset + k)
        try:
            results.append(
                simulator._run_job_with_rng(
                    orders, ensure_rng(seed), rec, start_time, **run_kwargs
                )
            )
        except SimulationError as exc:
            wrapped = SimulationError(f"replication {offset + k}: {exc}")
            wrapped.replication = offset + k
            raise wrapped from exc
    return results


def batch_agent_run_replications(
    simulator: AgentSimulator,
    orders,
    seeds,
    recorders=None,
    start_time: float = 0.0,
    replication_offset: int = 0,
) -> list[JobResult]:
    """Advance R seeded :class:`AgentSimulator` replications in lock-step.

    Produces exactly what R sequential ``simulator.run_job``-with-seed
    runs would produce — same event order, chosen tasks, answers,
    makespan, and trace content per replication (task ``uid`` /
    ``worker_id`` values come from the same global counters, assigned
    in replication order).  Callers normally reach this through
    ``run_replications``, which checks :func:`lockstep_supported`
    first; an input that fails that check raises here.

    ``replication_offset`` is the global index of ``seeds[0]`` when the
    seeds are a shard of a larger ensemble — fault-site coordinates and
    error labels use the global index, matching the sequential loop.
    """
    orders = list(orders)
    if not lockstep_supported(simulator, orders):
        raise SimulationError(
            "the lock-step kernel drives a non-empty AgentSimulator job "
            "with unique atomic ids, a built-in choice model and a "
            "base-class worker pool; use run_replications for others"
        )
    offset = int(replication_offset)
    pool = simulator.pool
    model = pool.choice_model
    kind = _builtin_kind(model)
    ids = [o.atomic_task_id for o in orders]

    R = len(seeds)
    if recorders is None:
        recorders = [None] * R
    t0 = float(start_time)
    max_sim_time = simulator.max_sim_time

    # Per-replication fault checks fire up front (the lock-step engine
    # interleaves replications, but a replication-k fault aborts the
    # whole fan-out either way — same error as the sequential path);
    # injected worker abandonment shares the sequential path's
    # per-replication counters, so trajectories stay engine-identical.
    for k in range(R):
        site_check("market.replication", replication=offset + k)
    fault_state = active_fault_state()
    abandon_state = (
        fault_state
        if fault_state is not None and fault_state.has_abandon
        else None
    )

    # -- per-order constants (mirror the scalar loop's expressions) --
    n = len(orders)
    reps_j = [o.repetitions for o in orders]
    prices_j = [o.prices for o in orders]
    attract_j = [o.task_type.attractiveness for o in orders]
    inv_proc_j = [1.0 / o.task_type.processing_rate for o in orders]
    base_acc_j = [o.task_type.accuracy for o in orders]
    answer_j = [
        o if (o.payload is not None and hasattr(o.payload, "sample_answer"))
        else None
        for o in orders
    ]
    any_answers = any(a is not None for a in answer_j)
    T = sum(reps_j)
    # Every repetition completes exactly once, so each replication's
    # total_paid is the job's full cost — no per-completion summing.
    job_cost = sum(sum(p) for p in prices_j)

    if kind == _SOFTMAX:
        beta = model.beta
        leave_utility = model.leave_utility
        # β·log(price·attractiveness) — the scalar index's _utility().
        val_jr = [
            [beta * math.log(p * attract_j[j]) for p in prices_j[j]]
            for j in range(n)
        ]
    elif kind == _WEIGHTED:
        leave_weight = model.leave_weight
        val_jr = [
            [p * attract_j[j] for p in prices_j[j]] for j in range(n)
        ]
    else:  # greedy: slot value = price (argmax ties to first slot = lowest uid)
        val_jr = [[float(p) for p in prices_j[j]] for j in range(n)]

    jitter = pool.accuracy_jitter
    draws_on_completion = jitter != 0.0 or any_answers
    inv_lambda = 1.0 / pool.arrival_rate

    # -- per-replication state ----------------------------------------
    gens = [ensure_rng(seed) for seed in seeds]
    std_exp = [g.standard_exponential for g in gens]
    draw_d = [g.random for g in gens]

    modes = [_trace_mode(rec) for rec in recorders]
    plain_traces = [
        (rec if rec is not None else TraceRecorder())
        if modes[r] == _TRACE_PLAIN
        else None
        for r, rec in enumerate(recorders)
    ]

    dead_val = -math.inf if kind == _SOFTMAX else 0.0
    slot_val = np.full((R, T), dead_val)
    slot_val[:, :n] = np.array([val_jr[j][0] for j in range(n)])

    softmax = kind == _SOFTMAX
    greedy = kind == _GREEDY

    # Event-ordering state: each replication has exactly one pending
    # arrival (time + push seq) and a heap of in-flight completions
    # ``(time, seq, slot)`` — together exactly the scalar EventQueue's
    # contents, with the same (time, push-seq) order.
    next_arr = [0.0] * R
    arr_seq = [0] * R
    seq_ctr = [1] * R  # seq 0 is the initial arrival push

    # Open-pool and job bookkeeping (per-replication scalar state).
    open_cnt = [n] * R
    slot_cnt = [n] * R
    slot_j = [list(range(n)) for _ in range(R)]
    wctr = [0] * R
    comp_heap: list[list] = [[] for _ in range(R)]
    next_rep = [[1] * n for _ in range(R)]
    remaining = [T] * R
    per_atomic = [[0.0] * n for _ in range(R)]
    answers = [
        [[] for _ in range(n)] if any_answers else None for _ in range(R)
    ]
    done = [False] * R
    failed: dict[int, bool] = {}

    # Trace columns, kept only as the replication's recorder needs:
    # null recorders skip everything; plain recorders stream arrival
    # times straight into the recorder and keep per-slot columns for
    # the finalize pass; keep-events / custom recorders additionally
    # log every event for a full replay.
    arrivals = [
        plain_traces[r].worker_arrival_times
        if plain_traces[r] is not None
        else None
        for r in range(R)
    ]
    keep_cols = [modes[r] != _TRACE_NULL for r in range(R)]
    slot_rep = [[0] * n if keep_cols[r] else None for r in range(R)]
    slot_price = [
        [p[0] for p in prices_j] if keep_cols[r] else None for r in range(R)
    ]
    pub_t = [[t0] * n if keep_cols[r] else None for r in range(R)]
    acc_t = [[0.0] * n if keep_cols[r] else None for r in range(R)]
    com_t = [[0.0] * n if keep_cols[r] else None for r in range(R)]
    wkr_of = [[-1] * n if keep_cols[r] else None for r in range(R)]
    comp_order = [
        [] if modes[r] == _TRACE_PLAIN else None for r in range(R)
    ]
    logs = [
        [(0, t0, s) for s in range(n)] if modes[r] == _TRACE_FULL else None
        for r in range(R)
    ]
    ans_of = [
        [None] * n if modes[r] == _TRACE_FULL else None for r in range(R)
    ]

    for r in range(R):
        # First arrival: pool.next_arrival_delay == Exp(Λ) drawn from
        # the replication's own stream (scale applied by
        # multiplication, exactly as Generator.exponential does).
        next_arr[r] = t0 + std_exp[r]() * inv_lambda

    # -- lock-step arrival rounds -------------------------------------
    # One round advances every live replication up to (and through) its
    # next worker arrival: in-flight completions earlier than the
    # pending arrival are drained first, in (time, push-seq) order —
    # exactly the scalar EventQueue's pop order — then the arrival is
    # processed.  Completions and publishes are pure per-replication
    # bookkeeping; the *task choice* for every arrival that found an
    # open pool is resolved afterwards in one batched cumsum/argmax
    # over the ``(|E| × S)`` structure-of-arrays weight rows, and the
    # acceptances (one processing draw each) close the round.
    act_list = list(range(R))
    # All-null fan-outs (the latency/answer replication-study shape)
    # skip every per-event trace branch behind one local bool.
    trace_any = any(m != _TRACE_NULL for m in modes)
    E_list: list[int] = []
    tE_list: list[float] = []
    while act_list:
        E_list.clear()
        tE_list.clear()
        dropped = False
        for r in act_list:
            ta = next_arr[r]
            sa = arr_seq[r]
            heap = comp_heap[r]
            # -- drain completions before the pending arrival --------
            while heap:
                head = heap[0]
                t = head[0]
                if ta < t or (ta == t and sa < head[1]):
                    break
                if t > max_sim_time:
                    failed[r] = True
                    done[r] = True
                    dropped = True
                    break
                s = head[2]
                heappop(heap)
                j = slot_j[r][s]
                if draws_on_completion:
                    accuracy = (
                        pool.worker_accuracy(base_acc_j[j], gens[r])
                        if jitter != 0.0
                        else base_acc_j[j]
                    )
                    order = answer_j[j]
                    answer = (
                        order.payload.sample_answer(gens[r], accuracy)
                        if order is not None
                        else None
                    )
                    if any_answers:
                        answers[r][j].append(answer)
                    aof = ans_of[r]
                    if aof is not None:
                        aof[s] = answer
                ct = com_t[r] if trace_any else None
                if ct is not None:
                    ct[s] = t
                    co = comp_order[r]
                    if co is not None:
                        co.append(s)
                    else:
                        logs[r].append((2, t, s))
                nr = next_rep[r][j]
                if nr < reps_j[j]:
                    # Publish the next repetition at the completion time.
                    next_rep[r][j] = nr + 1
                    s2 = slot_cnt[r]
                    slot_cnt[r] = s2 + 1
                    slot_j[r].append(j)
                    slot_val[r, s2] = val_jr[j][nr]
                    open_cnt[r] += 1
                    if ct is not None:
                        slot_rep[r].append(nr)
                        slot_price[r].append(prices_j[j][nr])
                        pub_t[r].append(t)
                        acc_t[r].append(0.0)
                        ct.append(0.0)
                        wkr_of[r].append(-1)
                        log = logs[r]
                        if log is not None:
                            log.append((0, t, s2))
                            ans_of[r].append(None)
                else:
                    per_atomic[r][j] = t
                remaining[r] -= 1
                if remaining[r] == 0:
                    done[r] = True
                    dropped = True
                    break
            if done[r]:
                continue
            # -- worker arrival --------------------------------------
            if ta > max_sim_time:
                failed[r] = True
                done[r] = True
                dropped = True
                continue
            if trace_any:
                arrs = arrivals[r]
                if arrs is not None:
                    arrs.append(ta)
                else:
                    log = logs[r]
                    if log is not None:
                        log.append((1, ta, -1))
            arr_seq[r] = seq_ctr[r]
            seq_ctr[r] += 1
            next_arr[r] = ta + std_exp[r]() * inv_lambda
            if open_cnt[r]:
                E_list.append(r)
                tE_list.append(ta)

        # -- batched task choice over the open-pool weight rows ------
        if E_list:
            E = np.array(E_list, dtype=np.intp)
            vals = slot_val[E]
            if softmax:
                # Max-shifted logit weights over live slots; dead
                # slots are -inf utilities → weight exactly 0.
                ref = np.maximum(vals.max(axis=1), leave_utility)
                cs = np.cumsum(np.exp(vals - ref[:, None]), axis=1)
                task_tot = cs[:, -1]
                tot_list = (
                    task_tot
                    + np.exp(np.minimum(leave_utility - ref, 700.0))
                ).tolist()
            elif not greedy:
                cs = np.cumsum(vals, axis=1)
                task_tot = cs[:, -1]
                tot_list = (task_tot + leave_weight).tolist()
            if greedy:  # deterministic, consumes no RNG
                t_rs = E_list
                t_ss = np.argmax(vals, axis=1).tolist()
                t_ts = tE_list
            else:
                us = [
                    # One raw double per choose, scaled by the pool
                    # total: ``random() * total`` is bitwise
                    # ``uniform(0.0, total)`` (loc 0, scale total), the
                    # scalar paths' exact stream consumption.
                    draw_d[r]() * tot
                    for r, tot in zip(E_list, tot_list)
                ]
                # Leave iff u >= task total; a taker's u sits below the
                # last prefix sum by construction, so argmax always
                # lands on a live slot (first prefix > u — the Fenwick
                # descent's selection rule).
                pick = np.argmax(
                    cs > np.array(us)[:, None], axis=1
                ).tolist()
                tt_list = task_tot.tolist()
                t_rs = []
                t_ss = []
                t_ts = []
                for i, r in enumerate(E_list):
                    if us[i] < tt_list[i]:
                        t_rs.append(r)
                        t_ss.append(pick[i])
                        t_ts.append(tE_list[i])
            for r, s, t in zip(t_rs, t_ss, t_ts):
                # -- acceptance --------------------------------------
                if abandon_state is not None and abandon_state.abandon_fires(
                    offset + r
                ):
                    # Injected abandonment: the slot stays live (no
                    # tombstone), no worker id, no processing draw —
                    # exactly the scalar loop's skip.
                    continue
                slot_val[r, s] = dead_val
                open_cnt[r] -= 1
                at = acc_t[r] if trace_any else None
                if at is not None:
                    at[s] = t
                    wkr_of[r][s] = wctr[r]
                wctr[r] += 1
                q = seq_ctr[r]
                seq_ctr[r] = q + 1
                heappush(
                    comp_heap[r],
                    (t + std_exp[r]() * inv_proc_j[slot_j[r][s]], q, s),
                )

        if dropped:
            act_list = [r for r in act_list if not done[r]]

    if failed:
        k = offset + min(failed)
        raise SimulationError(
            f"replication {k}: simulation exceeded "
            f"max_sim_time={max_sim_time}; the market is too slow for "
            "this job (rates too small?)"
        )

    return _finalize(
        simulator, orders, recorders, modes, plain_traces, t0,
        ids, reps_j, job_cost, per_atomic, answers, wctr, slot_cnt,
        logs, slot_j, slot_rep, slot_price, pub_t, acc_t, com_t,
        wkr_of, ans_of, comp_order,
    )


def _finalize(
    simulator, orders, recorders, modes, plain_traces, t0,
    ids, reps_j, job_cost, per_atomic, answers, wctr, slot_cnt,
    logs, slot_j, slot_rep, slot_price, pub_t, acc_t, com_t,
    wkr_of, ans_of, comp_order,
):
    """Materialize per-replication :class:`JobResult`s and traces.

    Worker ids and task uids are assigned from the same global
    counters the scalar loop uses, in replication order, so sequential
    runs against the same pool line up exactly.
    """
    pool = simulator.pool
    R = len(recorders)
    n = len(orders)
    type_name_j = [o.task_type.name for o in orders]

    # Worker-id assignment: replication r's workers follow r-1's,
    # exactly as sequential run_job calls against one pool would
    # number them.  The base pool hands out consecutive ids, so an
    # offset per replication suffices; an overridden new_worker_id is
    # consulted once per acceptance, in the same global order.
    worker_ids: list = [None] * R
    if type(pool).new_worker_id is WorkerPool.new_worker_id:
        base = pool._next_worker_id
        offsets = []
        for r in range(R):
            offsets.append(base)
            base += wctr[r]
        pool._next_worker_id = base
    else:
        offsets = [0] * R
        for r in range(R):
            worker_ids[r] = [pool.new_worker_id() for _ in range(wctr[r])]

    results = []
    for r in range(R):
        rec = recorders[r]
        mode = modes[r]
        if mode == _TRACE_PLAIN:
            # Stream the columns straight into the recorder: uids in
            # publish order (= slot order) from the shared counter,
            # TaskRecord rows in completion order — value-identical to
            # the scalar loop's trace without PublishedTask/Event
            # intermediaries.  (worker_arrival_times was filled during
            # the run.)
            trace = plain_traces[r]
            uids = [next(_task_uid) for _ in range(slot_cnt[r])]
            records = trace.records
            sj, sr, sp = slot_j[r], slot_rep[r], slot_price[r]
            pt, at, ct = pub_t[r], acc_t[r], com_t[r]
            tid = ids
            new_record = TaskRecord.__new__
            append = records.append
            for s in comp_order[r]:
                j = sj[s]
                # Bypass the frozen-dataclass __init__ (one
                # object.__setattr__ per field): filling the instance
                # dict directly yields field-identical, ==/hash-equal
                # records at ~1/3 the cost.
                record = new_record(TaskRecord)
                record.__dict__.update(
                    uid=uids[s],
                    atomic_task_id=tid[j],
                    repetition_index=sr[s],
                    type_name=type_name_j[j],
                    price=sp[s],
                    published_at=pt[s],
                    accepted_at=at[s],
                    completed_at=ct[s],
                )
                append(record)
        elif mode == _TRACE_FULL:
            trace = rec
            tasks: dict[int, PublishedTask] = {}
            offset = offsets[r]
            wids = worker_ids[r]
            for kind_code, t, s in logs[r]:
                if kind_code == 0:
                    j = slot_j[r][s]
                    task = PublishedTask(
                        task_type=orders[j].task_type,
                        price=slot_price[r][s],
                        atomic_task_id=ids[j],
                        repetition_index=slot_rep[r][s],
                        payload=orders[j].payload,
                    )
                    task.mark_published(t)
                    tasks[s] = task
                    trace.on_event(
                        Event(t, EventKind.TASK_PUBLISHED, payload=task)
                    )
                elif kind_code == 1:
                    trace.on_event(Event(t, EventKind.WORKER_ARRIVED))
                else:
                    task = tasks[s]
                    local = wkr_of[r][s]
                    task.mark_accepted(
                        acc_t[r][s],
                        worker_id=(
                            offset + local if wids is None else wids[local]
                        ),
                    )
                    task.mark_completed(t, answer=ans_of[r][s])
                    trace.on_event(
                        Event(t, EventKind.TASK_COMPLETED, payload=task)
                    )
                    trace.on_task_done(task)
        else:
            # Null recorder: no trace to build, but the sequential
            # engine's PublishedTask construction consumes one global
            # uid per publish even then — burn the same count so later
            # replications' (and runs') uids line up engine-for-engine.
            trace = rec
            for _ in range(slot_cnt[r]):
                next(_task_uid)

        pa = dict(zip(ids, per_atomic[r]))
        ans = answers[r]
        results.append(
            JobResult(
                trace=trace,
                makespan=max(pa.values()) - t0,
                per_atomic_completion=pa,
                answers=dict(
                    zip(
                        ids,
                        ans
                        if ans is not None
                        else ([None] * k for k in reps_j),
                    )
                ),
                total_paid=job_cost,
            )
        )
    return results
