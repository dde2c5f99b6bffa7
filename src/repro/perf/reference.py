"""Seed (pre-vectorization) implementations kept as baselines.

These are verbatim copies of the scalar hot paths this subsystem
replaced.  They exist so equivalence tests can certify that the
array-based engines return *bit-identical* optimizer outputs, and so
``benchmarks/bench_perf_engine.py`` can measure the speedup against the
true seed code rather than against a strawman.  Nothing in the library
itself should call them.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from ..errors import InfeasibleAllocationError, ModelError, SimulationError
from ..stats.rng import ensure_rng

__all__ = [
    "reference_sample_job_latencies",
    "reference_budget_indexed_dp",
    "reference_heterogeneous_prices",
    "reference_minimize_o2_prices",
    "reference_completion_probability",
    "reference_latency_quantile",
    "reference_min_cost_for_deadline",
    "reference_agent_run_job",
    "reference_poisson_mix_windows",
    "reference_sf_from_weights",
]


def reference_sample_job_latencies(
    problem,
    allocation,
    n_samples: int,
    rng=None,
    include_processing: bool = True,
):
    """Seed ``sample_job_latencies``: stream task by task.

    Each task contributes the sum of its phase draws and the job
    latency is the max across tasks.  The stream-layout oracle the
    row-blocked :func:`repro.perf.batch.sample_job_latencies_batch`
    must reproduce bit-for-bit.
    """
    if n_samples < 1:
        raise ModelError(f"n_samples must be >= 1, got {n_samples}")
    problem.validate_allocation(allocation)
    gen = ensure_rng(rng)
    job = np.zeros(n_samples)
    for task in problem.tasks:
        total = np.zeros(n_samples)
        for price in allocation[task.task_id]:
            rate_o = task.onhold_rate(price)
            total += gen.exponential(1.0 / rate_o, size=n_samples)
            if include_processing:
                total += gen.exponential(1.0 / task.processing_rate, size=n_samples)
        np.maximum(job, total, out=job)
    return job


def reference_agent_run_job(
    simulator,
    orders,
    recorder=None,
    start_time: float = 0.0,
    rng=None,
):
    """Seed ``AgentSimulator.run_job``: one event-queue Python loop.

    Verbatim copy of the scalar agent-market loop the lock-step
    kernel (:mod:`repro.perf.market`) replaced as the replication
    fan-out path.  ``rng`` defaults to the simulator's own
    generator (exactly the seed method); certification tests pass one
    explicit seeded generator per replication.
    """
    from ..market.events import Event, EventKind, EventQueue
    from ..market.simulator import AtomicTaskOrder, _draw_answer
    from ..market.task import PublishedTask
    from ..market.trace import TraceRecorder
    from ..stats.rng import ensure_rng

    rng = simulator._rng if rng is None else ensure_rng(rng)
    orders = list(orders)
    if not orders:
        raise SimulationError("job must contain at least one atomic task")
    trace = recorder if recorder is not None else TraceRecorder()
    queue = EventQueue()
    open_tasks = simulator.pool.choice_model.make_index()
    order_by_id = {o.atomic_task_id: o for o in orders}
    next_rep = {o.atomic_task_id: 0 for o in orders}
    answers = {o.atomic_task_id: [] for o in orders}
    per_atomic = {}
    total_paid = 0
    remaining = sum(o.repetitions for o in orders)

    def publish(order: "AtomicTaskOrder", now: float) -> None:
        rep = next_rep[order.atomic_task_id]
        task = PublishedTask(
            task_type=order.task_type,
            price=order.prices[rep],
            atomic_task_id=order.atomic_task_id,
            repetition_index=rep,
            payload=order.payload,
        )
        task.mark_published(now)
        next_rep[order.atomic_task_id] += 1
        open_tasks.add(task)
        trace.on_event(Event(now, EventKind.TASK_PUBLISHED, payload=task))

    for order in orders:
        publish(order, float(start_time))

    queue.push(
        Event(
            float(start_time) + simulator.pool.next_arrival_delay(rng),
            EventKind.WORKER_ARRIVED,
        )
    )

    while remaining > 0:
        if not queue:
            raise SimulationError("event queue drained before job completion")
        event = queue.pop()
        now = event.time
        if now > simulator.max_sim_time:
            raise SimulationError(
                f"simulation exceeded max_sim_time={simulator.max_sim_time}; "
                "the market is too slow for this job (rates too small?)"
            )
        if event.kind is EventKind.WORKER_ARRIVED:
            trace.on_event(event)
            queue.push(
                Event(
                    now + simulator.pool.next_arrival_delay(rng),
                    EventKind.WORKER_ARRIVED,
                )
            )
            chosen = open_tasks.choose(rng)
            if chosen is None:
                continue
            open_tasks.discard(chosen)
            worker_id = simulator.pool.new_worker_id()
            chosen.mark_accepted(now, worker_id=worker_id)
            processing = float(
                rng.exponential(1.0 / chosen.task_type.processing_rate)
            )
            queue.push(
                Event(now + processing, EventKind.TASK_COMPLETED, payload=chosen)
            )
        elif event.kind is EventKind.TASK_COMPLETED:
            task = event.payload
            order = order_by_id[task.atomic_task_id]
            accuracy = simulator.pool.worker_accuracy(
                task.task_type.accuracy, rng
            )
            answer = _draw_answer(order, rng, accuracy)
            task.mark_completed(now, answer=answer)
            trace.on_event(event)
            trace.on_task_done(task)
            answers[task.atomic_task_id].append(answer)
            total_paid += task.price
            remaining -= 1
            if next_rep[task.atomic_task_id] < order.repetitions:
                publish(order, now)
            else:
                per_atomic[task.atomic_task_id] = now
        else:  # pragma: no cover - no other kinds are scheduled
            raise SimulationError(f"unexpected event kind {event.kind}")

    from ..market.simulator import JobResult

    makespan = max(per_atomic.values()) - float(start_time)
    return JobResult(
        trace=trace,
        makespan=makespan,
        per_atomic_completion=per_atomic,
        answers=answers,
        total_paid=total_paid,
    )


def reference_budget_indexed_dp(
    groups,
    budget: int,
    group_cost_fn: Callable,
) -> dict[tuple, int]:
    """Seed ``budget_indexed_dp``: lazily grown ladders, per-state scan."""
    if not groups:
        raise ModelError("need at least one group")
    unit_costs = tuple(g.unit_cost for g in groups)
    start_cost = sum(unit_costs)
    if budget < start_cost:
        raise InfeasibleAllocationError(budget, start_cost)

    n = len(groups)
    residual = budget - start_cost

    cost_cache: list[list[float]] = [[group_cost_fn(g, 1)] for g in groups]

    def cost(i: int, price: int) -> float:
        ladder = cost_cache[i]
        while len(ladder) < price:
            ladder.append(group_cost_fn(groups[i], len(ladder) + 1))
        return ladder[price - 1]

    base_prices = tuple([1] * n)
    base_value = sum(cost(i, 1) for i in range(n))
    values: list[float] = [base_value]
    prices_at: list[tuple[int, ...]] = [base_prices]

    for x in range(1, residual + 1):
        best_value = values[x - 1]
        best_prices = prices_at[x - 1]
        for i in range(n):
            u = unit_costs[i]
            if u > x:
                continue
            prev_prices = prices_at[x - u]
            p = prev_prices[i]
            candidate = values[x - u] - (cost(i, p) - cost(i, p + 1))
            if candidate < best_value - 1e-15:
                best_value = candidate
                lst = list(prev_prices)
                lst[i] = p + 1
                best_prices = tuple(lst)
        values.append(best_value)
        prices_at.append(best_prices)

    final = prices_at[residual]
    return {g.key: final[i] for i, g in enumerate(groups)}


# ---------------------------------------------------------------------------
# seed deadline comparator (pre repro.perf.deadline)
# ---------------------------------------------------------------------------


def _reference_safe_log(x: float) -> float:
    if x <= 0.0:
        return -1e30
    return math.log(x)


def _reference_group_cdf_at(
    group, price: int, deadline: float, include_processing: bool = True
) -> float:
    """Seed ``_group_cdf_at``: fresh scalar kernel per probe."""
    from ..stats.phase_type import hypoexponential_cdf

    rates = [group.onhold_rate(price)] * group.repetitions
    if include_processing:
        rates += [group.processing_rate] * group.repetitions
    member = float(hypoexponential_cdf(rates, deadline))
    if member <= 0.0:
        return 0.0
    return member**group.size


def reference_completion_probability(
    problem,
    group_prices: dict[tuple, int],
    deadline: float,
    include_processing: bool = True,
) -> float:
    """Seed ``completion_probability``: per-group scalar cdf product."""
    if deadline < 0:
        raise ModelError(f"deadline must be >= 0, got {deadline}")
    prob = 1.0
    for group in problem.groups():
        prob *= _reference_group_cdf_at(
            group, group_prices[group.key], deadline, include_processing
        )
        if prob == 0.0:
            return 0.0
    return prob


def reference_latency_quantile(
    problem,
    group_prices: dict[tuple, int],
    confidence: float,
    include_processing: bool = True,
) -> float:
    """Seed ``latency_quantile``: scalar bracketing + 80-step bisection."""
    from ..core.latency import group_onhold_latency, group_processing_latency

    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must be in (0,1), got {confidence}")
    hi = sum(
        group_onhold_latency(g, group_prices[g.key])
        + (group_processing_latency(g) if include_processing else 0.0)
        for g in problem.groups()
    )
    hi = max(hi, 1e-9)
    while (
        reference_completion_probability(
            problem, group_prices, hi, include_processing
        )
        < confidence
    ):
        hi *= 2.0
        if hi > 1e12:
            raise ModelError("quantile search diverged; rates too small?")
    lo = 0.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if (
            reference_completion_probability(
                problem, group_prices, mid, include_processing
            )
            >= confidence
        ):
            hi = mid
        else:
            lo = mid
    return hi


def reference_min_cost_for_deadline(
    problem_tasks,
    deadline: float,
    confidence: float = 0.9,
    max_price: int = 1_000,
    include_processing: bool = True,
):
    """Seed ``min_cost_for_deadline``: scalar greedy ascent + trim.

    Every probe builds a fresh scalar kernel; the candidate scan and
    the minimality trim re-derive identical ``(group, price)`` terms
    exactly as the pre-kernel implementation did.  The kernel-backed
    comparator is certified bit-identical against this function.
    """
    from ..core.deadline import DeadlineResult
    from ..core.problem import Allocation, HTuningProblem
    from ..resilience.faults import site_check
    from ..stats.phase_type import hypoexponential_cdf

    site_check("comparator.min_cost", comparator="reference")
    if deadline <= 0:
        raise ModelError(f"deadline must be positive, got {deadline}")
    if not 0.0 < confidence < 1.0:
        raise ModelError(f"confidence must be in (0,1), got {confidence}")
    tasks = list(problem_tasks)
    if not tasks:
        raise ModelError("need at least one task")
    total_reps = sum(t.repetitions for t in tasks)
    problem = HTuningProblem(tasks, budget=total_reps * max_price)
    groups = problem.groups()

    prices = {g.key: 1 for g in groups}

    if include_processing:
        ceiling = 1.0
        for g in groups:
            member = float(
                hypoexponential_cdf(
                    [g.processing_rate] * g.repetitions, deadline
                )
            )
            ceiling *= member**g.size if member > 0 else 0.0
        if ceiling < confidence:
            achieved = reference_completion_probability(
                problem, prices, deadline, include_processing
            )
            allocation = Allocation.from_group_prices(problem, prices)
            return DeadlineResult(
                allocation=allocation,
                group_prices=prices,
                cost=allocation.total_cost,
                achieved_probability=achieved,
                deadline=deadline,
                confidence=confidence,
            )
    log_terms = {
        g.key: _reference_safe_log(
            _reference_group_cdf_at(g, 1, deadline, include_processing)
        )
        for g in groups
    }
    target_log = math.log(confidence)

    def total_log() -> float:
        return sum(log_terms.values())

    while total_log() < target_log:
        best_gain = -math.inf
        best_group = None
        best_new = 0.0
        for g in groups:
            p = prices[g.key]
            if p >= max_price:
                continue
            new_term = _reference_safe_log(
                _reference_group_cdf_at(g, p + 1, deadline, include_processing)
            )
            gain = (new_term - log_terms[g.key]) / g.unit_cost
            if gain > best_gain:
                best_gain = gain
                best_group = g
                best_new = new_term
        if best_group is None or best_gain <= 1e-15:
            break
        prices[best_group.key] += 1
        log_terms[best_group.key] = best_new

    improved = True
    while improved:
        improved = False
        for g in groups:
            p = prices[g.key]
            if p <= 1:
                continue
            trial = dict(prices)
            trial[g.key] = p - 1
            if (
                reference_completion_probability(
                    problem, trial, deadline, include_processing
                )
                >= confidence
            ):
                prices[g.key] = p - 1
                log_terms[g.key] = _reference_safe_log(
                    _reference_group_cdf_at(
                        g, p - 1, deadline, include_processing
                    )
                )
                improved = True

    achieved = reference_completion_probability(
        problem, prices, deadline, include_processing
    )
    allocation = Allocation.from_group_prices(problem, prices)
    return DeadlineResult(
        allocation=allocation,
        group_prices=prices,
        cost=allocation.total_cost,
        achieved_probability=achieved,
        deadline=deadline,
        confidence=confidence,
    )


def reference_minimize_o2_prices(problem) -> dict[tuple, int]:
    """Seed ``_minimize_o2_prices``: the per-budget O2 greedy.

    Minimize the max-group total latency within budget.

    Greedy minimax: every affordable unit of budget goes to the group
    currently attaining the maximum (raising any other group's price
    cannot lower the max).  Each step strictly lowers the argmax
    group's latency, so the procedure reaches the minimax optimum for
    decreasing per-group latencies.
    """
    from ..core.latency import group_onhold_latency, group_processing_latency

    groups = problem.groups()
    start_cost = sum(g.unit_cost for g in groups)
    if problem.budget < start_cost:
        raise InfeasibleAllocationError(problem.budget, start_cost)
    prices = {g.key: 1 for g in groups}
    totals = {
        g.key: group_onhold_latency(g, 1) + group_processing_latency(g)
        for g in groups
    }
    residual = problem.budget - start_cost
    while True:
        # Group attaining the current max, among those still affordable.
        affordable = [g for g in groups if g.unit_cost <= residual]
        if not affordable:
            break
        worst = max(groups, key=lambda g: totals[g.key])
        if worst.unit_cost > residual:
            # Cannot improve the bottleneck group; any other spend
            # leaves O2 unchanged, so stop.
            break
        prices[worst.key] += 1
        totals[worst.key] = (
            group_onhold_latency(worst, prices[worst.key])
            + group_processing_latency(worst)
        )
        residual -= worst.unit_cost
    return prices


def reference_heterogeneous_prices(problem) -> dict[tuple, int]:
    """Seed Algorithm-3 price computation (ladder-based closeness scan).

    Its utopia point comes from the seed parts too
    (:func:`reference_budget_indexed_dp` and
    :func:`reference_minimize_o2_prices`), so the oracle shares no
    solver code with the production path it certifies.
    """
    from ..core.latency import group_onhold_latency, group_processing_latency
    from ..core.objectives import ObjectivePoint, objective_o1, objective_o2

    groups = problem.groups()
    unit_costs = tuple(g.unit_cost for g in groups)
    start_cost = sum(unit_costs)
    if problem.budget < start_cost:
        raise InfeasibleAllocationError(problem.budget, start_cost)

    utopia = ObjectivePoint(
        o1=objective_o1(
            problem,
            reference_budget_indexed_dp(
                groups, problem.budget, group_onhold_latency
            ),
        ),
        o2=objective_o2(problem, reference_minimize_o2_prices(problem)),
    )
    n = len(groups)
    phase2 = tuple(group_processing_latency(g) for g in groups)
    ladders: list[list[float]] = [[group_onhold_latency(g, 1)] for g in groups]

    def phase1(i: int, price: int) -> float:
        ladder = ladders[i]
        while len(ladder) < price:
            ladder.append(group_onhold_latency(groups[i], len(ladder) + 1))
        return ladder[price - 1]

    def cl_of(prices: tuple[int, ...]) -> float:
        p1 = [phase1(i, prices[i]) for i in range(n)]
        o1 = sum(p1)
        o2 = max(p1[i] + phase2[i] for i in range(n))
        return abs(o1 - utopia.o1) + abs(o2 - utopia.o2)

    residual = problem.budget - start_cost
    base_prices = tuple([1] * n)
    values: list[float] = [cl_of(base_prices)]
    prices_at: list[tuple[int, ...]] = [base_prices]

    for x in range(1, residual + 1):
        best_value = values[x - 1]
        best_prices = prices_at[x - 1]
        for i in range(n):
            u = unit_costs[i]
            if u > x:
                continue
            prev = prices_at[x - u]
            lst = list(prev)
            lst[i] = prev[i] + 1
            candidate_prices = tuple(lst)
            candidate = cl_of(candidate_prices)
            if candidate < best_value - 1e-15:
                best_value = candidate
                best_prices = candidate_prices
        values.append(best_value)
        prices_at.append(best_prices)

    final = prices_at[residual]
    return {g.key: final[i] for i, g in enumerate(groups)}


# ---------------------------------------------------------------------------
# seed uniformization mixing (pre shared Poisson blocks)
# ---------------------------------------------------------------------------


def reference_poisson_mix_windows(qt, w, tol: float = 1e-12):
    """Seed ``_poisson_mix_windows``: one weight series, greedy chunks
    planned by a per-point python loop.

    The vectorized planner and the shared blocks of
    :func:`repro.stats.phase_type._poisson_mix_windows` must reproduce
    these chunks, and so these bytes, exactly.
    """
    import numpy as np
    from scipy.special import gammaln

    from ..stats.phase_type import _MIX_CHUNK_ELEMENTS, _tail_width

    n_terms = len(w) - 1
    qt = np.asarray(qt, dtype=float)
    half = (_tail_width(tol) * np.sqrt(qt + 1.0) + 25.0).astype(np.int64)
    base = qt.astype(np.int64)
    lo = np.maximum(0, base - half)
    hi = np.minimum(n_terms, base + half)

    acc = np.empty_like(qt)
    log_qt = np.log(qt)
    n_points = len(qt)
    # Greedy chunks of consecutive points sharing one *union* window
    # [lo_u, hi_u].  Within a chunk the Poisson factorials are a single
    # 1-D gammaln over the union, and the mixture is one matrix-vector
    # product.  Terms a point gains beyond its own window only *add*
    # Poisson mass below the truncation tolerance.  For a monotone grid
    # neighbouring windows almost coincide, so chunks stay dense; a
    # scrambled grid degrades gracefully toward one point per chunk.
    i = 0
    while i < n_points:
        lo_u = int(lo[i])
        hi_u = int(hi[i])
        j = i + 1
        while j < n_points:
            nl = min(lo_u, int(lo[j]))
            nh = max(hi_u, int(hi[j]))
            width_j = int(hi[j] - lo[j]) + 1
            # Cap the union at ~2× the joining row's own window (else
            # a wide-qt chunk pads every row to the full span) and the
            # chunk matrix at the element budget.
            if (nh - nl + 1) > 2 * width_j or (
                nh - nl + 1
            ) * (j - i + 1) > _MIX_CHUNK_ELEMENTS:
                break
            lo_u, hi_u = nl, nh
            j += 1
        blk = slice(i, j)
        ns = np.arange(lo_u, hi_u + 1, dtype=float)
        log_fact = gammaln(ns + 1.0)
        log_pmf = np.multiply.outer(log_qt[blk], ns)
        log_pmf -= qt[blk, None]
        log_pmf -= log_fact[None, :]
        np.exp(log_pmf, out=log_pmf)
        acc[blk] = log_pmf @ w[lo_u : hi_u + 1]
        i = j
    return acc


def reference_sf_from_weights(qs, weights, t_arr, tol: float = 1e-12):
    """Seed sf kernel: every profile mixed on its own, by
    :func:`reference_poisson_mix_windows`.

    Takes the arguments of
    :func:`repro.stats.phase_type._sf_from_weights`, so the benchmark
    can score through the process caches with the seed kernel behind
    them.
    """
    import numpy as np

    rows = []
    for q, w in zip(qs, weights):
        out = np.ones_like(t_arr)
        positive = (q * t_arr) > 0
        if np.any(positive):
            acc = reference_poisson_mix_windows(q * t_arr[positive], w, tol)
            out[positive] = np.clip(acc, 0.0, 1.0)
        rows.append(out)
    return rows
