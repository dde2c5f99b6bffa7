"""Per-figure experiment definitions (paper §1 + §5).

Each ``_run_<figure>(spec, config)`` regenerates the data behind one
table/figure of the paper and returns a small result object.  They are
what the registered :mod:`repro.api` specs dispatch to, so every way of
asking for a figure — ``Session.run(Fig2Spec(...))``, a serialized
spec, ``repro run fig2`` or the ``repro fig2`` alias, a batched
``run_many`` submission, ``POST /runs`` — takes this one code path.
The module is deliberately free of plotting — the *numbers* are the
reproduction; see EXPERIMENTS.md for the paper-vs-measured comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.latency import simulate_job_latency
from ..core.problem import Allocation, TaskSpec
from ..core.tuner import STRATEGIES
from ..errors import ModelError
from ..inference.linearity import LinearityFit, fit_linearity
from ..inference.mle import estimate_rate_fixed_period
from ..market.pricing import LinearPricing
from ..market.simulator import AtomicTaskOrder, AgentSimulator
from ..market.trace import TraceRecorder
from ..stats.distributions import Erlang, Exponential, MaximumOf, SumOf
from ..stats.order_statistics import expected_maximum_generic
from ..stats.rng import ensure_rng, replication_seeds
from ..workloads.amt import (
    amt_market,
    amt_pricing_model,
    amt_task_type,
    amt_worker_pool,
)
from ..workloads.families import ProblemFamily, scenario_family
from .runner import DeadlineSweepResult, SweepResult, run_budget_sweep

__all__ = [
    "motivation_example_1",
    "motivation_example_2",
    "MotivationResult",
    "FIG2_STRATEGIES",
    "Fig3Result",
    "Fig4Result",
    "Fig5abResult",
    "Fig5cResult",
]


# ---------------------------------------------------------------------------
# Table 1 + Motivation Examples (Fig. 1)
# ---------------------------------------------------------------------------

#: Table 1 — acceptance rate by reward and task type.  (The paper's
#: table header says "processing rate" but the surrounding text uses
#: these values as the price-dependent uptake rates of the motivating
#: examples; processing is price-independent in the paper's own model,
#: so we read the table as λ_o(c).)
TABLE1_RATES: dict[str, dict[float, float]] = {
    "sorting-vote": {2.0: 2.0, 3.0: 3.0, 1.5: 1.5},
    "yes-no-vote": {2.0: 3.0, 3.0: 5.0, 1.5: 2.0},
}


def _table1_rate(task: str, reward: float) -> float:
    """Table 1 lookup with linear extension beyond the listed rewards."""
    table = TABLE1_RATES[task]
    if reward in table:
        return table[reward]
    # Fit the linearity hypothesis through the three listed points.
    prices = sorted(table)
    fit = fit_linearity(prices, [table[p] for p in prices])
    return max(fit.predict(reward), 1e-9)


@dataclass(frozen=True)
class MotivationResult:
    """Expected latencies of the two allocations of a motivation example."""

    even_latency: float
    load_sensitive_latency: float

    @property
    def load_sensitive_wins(self) -> bool:
        return self.load_sensitive_latency < self.even_latency

    @property
    def improvement(self) -> float:
        """Relative latency reduction of the load-sensitive allocation."""
        return 1.0 - self.load_sensitive_latency / self.even_latency


def motivation_example_1() -> MotivationResult:
    """Example 1: sort job, tasks {o1,o2}×1 and {o3,o4}×2, budget $6.

    Case 1 (even): $3 / $3 → λ₁ = λ(3), per-rep price $1.5 → λ = 1.5.
    Case 2 (load-sensitive): $2 / $4 → λ₁ = λ(2), per-rep $2 → λ = 2.
    Phase-1 only (both tasks are sorting votes with identical λ_p, so
    phase 2 shifts both cases equally).
    """
    def expected(case_prices: tuple[float, float]) -> float:
        p1, p2_per_rep = case_prices
        rate1 = _table1_rate("sorting-vote", p1)
        rate2 = _table1_rate("sorting-vote", p2_per_rep)
        dist = MaximumOf([Exponential(rate1), Erlang(2, rate2)])
        return dist.mean()

    even = expected((3.0, 1.5))
    load = expected((2.0, 2.0))
    return MotivationResult(even_latency=even, load_sensitive_latency=load)


def motivation_example_2(
    processing_rates: tuple[float, float] = (1.0, 2.0),
) -> MotivationResult:
    """Example 2: heterogeneous job — one sorting vote + one filter vote.

    Case 1 (even): $3 / $3.  Case 2 (difficulty-balanced): $4 / $2.
    Both phases counted; *processing_rates* are (sorting, yes/no) λ_p
    (harder sorting votes process more slowly).
    """
    proc_sort, proc_yn = processing_rates

    def expected(case_prices: tuple[float, float]) -> float:
        p_sort, p_yn = case_prices
        sort_latency = SumOf(
            [
                Exponential(_table1_rate("sorting-vote", p_sort)),
                Exponential(proc_sort),
            ]
        )
        yn_latency = SumOf(
            [
                Exponential(_table1_rate("yes-no-vote", p_yn)),
                Exponential(proc_yn),
            ]
        )
        return expected_maximum_generic([sort_latency, yn_latency])

    even = expected((3.0, 3.0))
    balanced = expected((4.0, 2.0))
    return MotivationResult(even_latency=even, load_sensitive_latency=balanced)


# ---------------------------------------------------------------------------
# Fig. 2 — the synthetic sweeps
# ---------------------------------------------------------------------------

#: Strategies plotted per scenario in Fig. 2.
FIG2_STRATEGIES: dict[str, tuple[str, ...]] = {
    "homo": ("ea", "bias_1", "bias_2"),
    "repe": ("ra", "te", "re"),
    "heter": ("ha", "te", "re"),
}


def _run_fig2(spec, config) -> SweepResult:
    """Implementation behind :class:`repro.api.Fig2Spec`.

    The sweep runs over one :class:`ProblemFamily`: specs and groups
    are built once and the DP strategies tune every budget in a single
    pass.  ``config.engine`` picks the Monte-Carlo sampler; the curves
    are identical seed-for-seed whichever engine runs.
    """
    family = scenario_family(
        spec.scenario, case=spec.case, n_tasks=spec.n_tasks
    )
    return run_budget_sweep(
        family,
        budgets=spec.budgets,
        strategies=FIG2_STRATEGIES[spec.scenario],
        scoring=spec.scoring,
        n_samples=spec.n_samples,
        seed=config.seed,
        label=f"fig2-{spec.scenario}({spec.case})",
        engine=config.engine,
    )


# ---------------------------------------------------------------------------
# Deadline–cost frontier — the [29] comparator's dual sweep
# ---------------------------------------------------------------------------


def _run_deadline_frontier(spec, config) -> DeadlineSweepResult:
    """Implementation behind :class:`repro.api.DeadlineFrontierSpec`.

    Fixes deadlines and finds the cheapest spend meeting each at the
    target confidence(s).  Without explicit ``deadlines`` the grid
    spans the workload's own latency range: from the quantile at a
    generous uniform price (tight end) to the quantile at the one-unit
    floor (loose end).
    """
    from ..core.deadline import latency_quantile_batch
    from .runner import run_deadline_sweep

    family = scenario_family(
        spec.scenario, case=spec.case, n_tasks=spec.n_tasks
    )
    if not spec.confidences:
        raise ModelError("need at least one confidence")
    deadlines = spec.deadlines
    if deadlines is None:
        if spec.n_deadlines < 2:
            raise ModelError(f"need >= 2 deadlines, got {spec.n_deadlines}")
        conf = max(float(c) for c in spec.confidences)
        problem = family.problem_at(
            family.total_repetitions * max(int(spec.max_price), 1)
        )
        rich = {
            g.key: max(int(spec.max_price) // 2, 1) for g in problem.groups()
        }
        floor = {g.key: 1 for g in problem.groups()}
        tight = float(latency_quantile_batch(problem, rich, [conf])[0])
        loose = float(latency_quantile_batch(problem, floor, [conf])[0])
        deadlines = np.linspace(tight, loose, int(spec.n_deadlines))
    return run_deadline_sweep(
        family,
        deadlines=[float(d) for d in deadlines],
        confidences=spec.confidences,
        max_price=spec.max_price,
        comparator=config.comparator,
        label=f"deadline-{spec.scenario}({spec.case})",
    )


# ---------------------------------------------------------------------------
# Fig. 3 — worker arrival moments on the (simulated) platform
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig3Result:
    """First-N acceptance epochs and phase latencies at a fixed reward."""

    arrival_epochs: tuple[float, ...]
    phase1_latencies: tuple[float, ...]
    phase2_latencies: tuple[float, ...]
    linearity_r2: float

    @property
    def poisson_like(self) -> bool:
        """The paper's Fig. 3 reading: epochs grow linearly in order."""
        return self.linearity_r2 >= 0.9


def _run_fig3(spec, config) -> Fig3Result:
    """Implementation behind :class:`repro.api.Fig3Spec`.

    Issues single-repetition dot-filter tasks on the *agent* market (a
    real worker stream, so the Poisson behaviour is emergent) and
    records acceptance epochs in order, averaged order-by-order over
    ``config.replications`` seeded worlds.  Every replication engine
    yields byte-identical figures.
    """
    task_type = amt_task_type(votes=4)
    pool = amt_worker_pool()
    sim = AgentSimulator(pool, seed=config.seed, max_sim_time=1e9)
    orders = [
        AtomicTaskOrder(
            task_type=task_type,
            prices=(spec.price,),
            atomic_task_id=i,
        )
        for i in range(spec.n_arrivals)
    ]
    seeds = replication_seeds(config.seed, config.replications)
    recorders = [TraceRecorder(keep_events=True) for _ in seeds]
    sim.run_replications(
        orders, seeds=seeds, recorders=recorders, engine=config.engine
    )
    epoch_rows = []
    phase1_rows = []
    phase2_rows = []
    for recorder in recorders:
        records = sorted(recorder.records, key=lambda r: r.accepted_at)
        epoch_rows.append([r.accepted_at for r in records])
        phase1_rows.append([r.onhold_latency for r in records])
        phase2_rows.append([r.processing_latency for r in records])
    epochs = tuple(
        float(v) for v in np.asarray(epoch_rows, dtype=float).mean(axis=0)
    )
    phase1 = tuple(
        float(v) for v in np.asarray(phase1_rows, dtype=float).mean(axis=0)
    )
    phase2 = tuple(
        float(v) for v in np.asarray(phase2_rows, dtype=float).mean(axis=0)
    )
    # Linear regression of epoch against order index.
    x = np.arange(1, len(epochs) + 1, dtype=float)
    y = np.asarray(epochs)
    xc = x - x.mean()
    slope = float((xc * (y - y.mean())).sum() / (xc**2).sum())
    intercept = float(y.mean() - slope * x.mean())
    resid = y - (slope * x + intercept)
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0 else 1.0 - float((resid**2).sum()) / ss_tot
    return Fig3Result(
        arrival_epochs=epochs,
        phase1_latencies=phase1,
        phase2_latencies=phase2,
        linearity_r2=max(0.0, r2),
    )


# ---------------------------------------------------------------------------
# Fig. 4 — reward vs latency + rate inference
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig4Result:
    """Per-reward latency orders and the inferred rate curve."""

    prices: tuple[int, ...]
    latency_orders: dict[int, tuple[float, ...]]
    inferred_rates: dict[int, float]
    fit: LinearityFit

    @property
    def monotone_in_price(self) -> bool:
        """Higher rewards should yield faster mean acceptance."""
        means = [float(np.mean(self.latency_orders[p])) for p in self.prices]
        return all(a >= b for a, b in zip(means, means[1:]))


def _cell_onhold_rows(results) -> np.ndarray:
    """Per-replication on-hold latencies in repetition order."""
    rows = []
    for result in results:
        records = sorted(
            result.trace.records, key=lambda r: r.repetition_index
        )
        rows.append([r.onhold_latency for r in records])
    return np.asarray(rows, dtype=float)


def _run_fig4(spec, config) -> Fig4Result:
    """Implementation behind :class:`repro.api.Fig4Spec` (§5.2.2).

    Publishes one multi-repetition dot-filter task per price, records
    the per-order acceptance latencies and infers λ_o with the
    fixed-period estimator over the observed span.

    Reads ``config.engine`` raw: ``None``/``"aggregate"`` select the
    seed aggregate path (one stream across the price cells, so it is
    single-realization), anything else runs ``config.replications``
    agent-market worlds per price, averaged order-by-order.
    """
    prices = spec.prices
    repetitions = spec.repetitions
    engine = config.engine
    replications = config.replications
    market = amt_market()
    task_type = amt_task_type(votes=4)
    rng = ensure_rng(config.seed)
    agent_mode = engine is not None and engine != "aggregate"
    if not agent_mode and replications != 1:
        raise ModelError(
            "the aggregate fig4 path is single-realization; pass an agent "
            "engine (e.g. engine='agent-batch') to fan out replications"
        )
    latency_orders: dict[int, tuple[float, ...]] = {}
    inferred: dict[int, float] = {}
    for price in prices:
        order = AtomicTaskOrder(
            task_type=task_type,
            prices=tuple([int(price)] * repetitions),
            atomic_task_id=0,
        )
        if agent_mode:
            pool = amt_worker_pool()
            sim = AgentSimulator(pool, seed=rng, max_sim_time=1e9)
            seeds = replication_seeds(rng.integers(0, 2**62), replications)
            results = sim.run_replications(
                [order], seeds=seeds, engine=engine
            )
            onholds = tuple(
                float(v) for v in _cell_onhold_rows(results).mean(axis=0)
            )
        else:
            from ..market.simulator import AggregateSimulator

            sim = AggregateSimulator(market, seed=rng)
            recorder = TraceRecorder()
            sim.run_job([order], recorder=recorder)
            onholds = tuple(
                r.onhold_latency
                for r in sorted(
                    recorder.records, key=lambda r: r.repetition_index
                )
            )
        latency_orders[int(price)] = onholds
        span = sum(onholds)
        estimate = estimate_rate_fixed_period(len(onholds), span)
        inferred[int(price)] = estimate.rate
    fit = fit_linearity(
        [float(p) for p in prices], [inferred[int(p)] for p in prices]
    )
    return Fig4Result(
        prices=tuple(int(p) for p in prices),
        latency_orders=latency_orders,
        inferred_rates=inferred,
        fit=fit,
    )


# ---------------------------------------------------------------------------
# Fig. 5(a)/(b) — difficulty vs latency
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig5abResult:
    """Mean phase latencies per (vote count, price) combination."""

    vote_counts: tuple[int, ...]
    prices: tuple[int, ...]
    mean_phase1: dict[tuple[int, int], float]
    mean_phase2: dict[tuple[int, int], float]

    def phase1_increases_with_difficulty(self, price: int) -> bool:
        series = [self.mean_phase1[(v, price)] for v in self.vote_counts]
        return all(a <= b for a, b in zip(series, series[1:]))

    def phase2_increases_with_difficulty(self, price: int) -> bool:
        series = [self.mean_phase2[(v, price)] for v in self.vote_counts]
        return all(a <= b for a, b in zip(series, series[1:]))


def _run_fig5ab(spec, config) -> Fig5abResult:
    """Implementation behind :class:`repro.api.Fig5abSpec`.

    Like :func:`_run_fig4`, reads ``config.engine`` raw —
    ``None``/``"aggregate"`` is the seed aggregate path.
    """
    from statistics import fmean

    vote_counts = spec.vote_counts
    prices = spec.prices
    repetitions = spec.repetitions
    n_tasks = spec.n_tasks
    engine = config.engine
    replications = config.replications
    market = amt_market()
    rng = ensure_rng(config.seed)
    agent_mode = engine is not None and engine != "aggregate"
    if not agent_mode and replications != 1:
        raise ModelError(
            "the aggregate fig5ab path is single-realization; pass an "
            "agent engine (e.g. engine='agent-batch') to fan out "
            "replications"
        )
    mean_p1: dict[tuple[int, int], float] = {}
    mean_p2: dict[tuple[int, int], float] = {}
    for votes in vote_counts:
        task_type = amt_task_type(votes=votes)
        for price in prices:
            orders = [
                AtomicTaskOrder(
                    task_type=task_type,
                    prices=tuple([int(price)] * repetitions),
                    atomic_task_id=i,
                )
                for i in range(n_tasks)
            ]
            if agent_mode:
                pool = amt_worker_pool()
                sim = AgentSimulator(pool, seed=rng, max_sim_time=1e9)
                seeds = replication_seeds(
                    rng.integers(0, 2**62), replications
                )
                results = sim.run_replications(
                    orders, seeds=seeds, engine=engine
                )
                records = [
                    r for res in results for r in res.trace.records
                ]
                mean_p1[(int(votes), int(price))] = fmean(
                    r.onhold_latency for r in records
                )
                mean_p2[(int(votes), int(price))] = fmean(
                    r.processing_latency for r in records
                )
            else:
                from ..market.simulator import AggregateSimulator

                sim = AggregateSimulator(market, seed=rng)
                recorder = TraceRecorder()
                sim.run_job(orders, recorder=recorder)
                summary = recorder.summary()
                mean_p1[(int(votes), int(price))] = summary.mean_onhold
                mean_p2[(int(votes), int(price))] = summary.mean_processing
    return Fig5abResult(
        vote_counts=tuple(int(v) for v in vote_counts),
        prices=tuple(int(p) for p in prices),
        mean_phase1=mean_p1,
        mean_phase2=mean_p2,
    )


# ---------------------------------------------------------------------------
# Fig. 5(c) — OPT vs the equal-payment heuristic on the AMT workload
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Fig5cResult:
    """Per-budget, per-task-type expected latencies for OPT and HEU."""

    budgets: tuple[int, ...]
    # (strategy, type index) -> latency series over budgets
    series: dict[tuple[str, int], tuple[float, ...]]

    def overall(self, strategy: str) -> tuple[float, ...]:
        """Job latency = max across the three types, per budget."""
        out = []
        for bi in range(len(self.budgets)):
            out.append(
                max(self.series[(strategy, t)][bi] for t in range(3))
            )
        return tuple(out)

    @property
    def opt_beats_heuristic(self) -> bool:
        opt = self.overall("opt")
        heu = self.overall("heu")
        return all(o <= h * 1.02 for o, h in zip(opt, heu))


def _run_fig5c(spec, config) -> Fig5cResult:
    """Implementation behind :class:`repro.api.Fig5cSpec`.

    OPT = Algorithm 3 (vote counts 4/6/8 give the three types
    different processing rates); HEU = the equal-payment-per-type
    heuristic.  Latency is per-type completion.
    """
    from ..core.heterogeneous import heterogeneous_algorithm_sweep

    budgets = spec.budgets
    repetitions = spec.repetitions
    n_samples = spec.n_samples
    rng = ensure_rng(config.seed)
    base_pricing = amt_pricing_model()
    vote_counts = (4, 6, 8)
    types = [amt_task_type(votes=v) for v in vote_counts]
    pricings = [
        LinearPricing(
            slope=base_pricing.slope * t.attractiveness,
            intercept=base_pricing.intercept * t.attractiveness
            if base_pricing.intercept > 0
            else 0.0,
        )
        if base_pricing.intercept >= 0
        else base_pricing
        for t in types
    ]

    # One family for the whole sweep: the specs (and their pricing
    # objects) are budget-independent, so they are built exactly once.
    specs = [
        TaskSpec(
            task_id=idx,
            repetitions=reps,
            pricing=pricing,
            processing_rate=ttype.processing_rate,
            type_name=ttype.name,
        )
        for idx, (ttype, reps, pricing) in enumerate(
            zip(types, repetitions, pricings)
        )
    ]
    family = ProblemFamily(specs, label="fig5c")
    budgets = [int(b) for b in budgets]
    # OPT (Algorithm 3) for every budget in one pass — HA consumes no
    # randomness, so hoisting it out of the loop leaves the RNG stream
    # (and therefore every simulated latency) bit-identical.
    opt_allocations = heterogeneous_algorithm_sweep(family, budgets)

    # Per-type single-task sub-families, hoisted out of the budget loop
    # (the per-budget sub-problems differ only in their budget).
    sub_families = [
        ProblemFamily(
            [
                TaskSpec(
                    task_id=0,
                    repetitions=task.repetitions,
                    pricing=task.pricing,
                    processing_rate=task.processing_rate,
                    type_name=task.type_name,
                )
            ],
            label=f"fig5c-{task.type_name}",
        )
        for task in family.tasks
    ]

    series: dict[tuple[str, int], list[float]] = {
        (s, t): [] for s in ("opt", "heu") for t in range(3)
    }
    for budget in budgets:
        problem = family.problem_at(budget)
        allocations = {
            "opt": opt_allocations[budget],
            "heu": STRATEGIES["uniform"](problem, rng),
        }
        for name, allocation in allocations.items():
            for t_index, task in enumerate(problem.tasks):
                # Per-type latency: simulate just that task's chain.
                sub_problem = sub_families[t_index].problem_at(
                    sum(allocation[task.task_id])
                )
                sub_alloc = Allocation({0: list(allocation[task.task_id])})
                latency = simulate_job_latency(
                    sub_problem,
                    sub_alloc,
                    n_samples=n_samples,
                    rng=rng,
                )
                series[(name, t_index)].append(latency)
    return Fig5cResult(
        budgets=tuple(int(b) for b in budgets),
        series={k: tuple(v) for k, v in series.items()},
    )
