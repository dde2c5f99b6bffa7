"""Command-line interface: a thin shell over the experiment registry.

Usage::

    python -m repro experiments [--json]   # registered experiments + schemas
    python -m repro run fig2 --param scenario=repe --param n_tasks=50 --json
    python -m repro run deadline-frontier --param confidences=[0.8,0.9]
    python -m repro serve --port 8765 --store ./results  # live service

    python -m repro list                 # the per-figure aliases
    python -m repro table1               # motivation examples
    python -m repro fig2 --scenario homo --case a
    python -m repro fig3 | fig4 | fig5ab | fig5c
    python -m repro deadline --scenario repe --confidence 0.9 0.95
    python -m repro all                  # everything (slow)

Every command builds a :class:`repro.api.ExperimentSpec` plus a
:class:`repro.api.RunConfig` and executes through
:meth:`repro.api.Session.run` — the same path a serialized spec or a
batched ``run_many`` submission takes.  The generic ``run`` command
reaches any registered experiment by name with ``--param k=v`` pairs
(values parsed as JSON, falling back to strings); ``--json`` prints
the full :class:`~repro.api.session.RunResult` document (spec, config,
fingerprint, payload).  The per-figure commands are aliases of
``run``: their flags are spec parameters under their historical names
(``--tasks`` is ``n_tasks``), and a renderer prints the rows the
figure plots.  Every command exits 2 for a user error (bad name,
parameter or config) and 3 when the run itself fails.
"""

from __future__ import annotations

import argparse
import json
import sys

from .api import (
    ExperimentSpec,
    RunConfig,
    Session,
    available_experiments,
    get_experiment,
    make_spec,
)
from .errors import ModelError, RegistryError, ReproError
from .experiments.reporting import format_kv, format_series, format_table

__all__ = ["main", "USER_ERROR_EXIT", "EXECUTION_ERROR_EXIT"]

#: CLI exit codes: 2 = user error (bad experiment name, parameter, or
#: config), 3 = execution failure (the run itself died).
USER_ERROR_EXIT = 2
EXECUTION_ERROR_EXIT = 3


# ---------------------------------------------------------------------------
# the generic registry commands
# ---------------------------------------------------------------------------


def _parse_params(pairs: list[str]) -> dict:
    """``k=v`` pairs → params dict; values are JSON, else raw strings."""
    params: dict = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ModelError(
                f"bad --param {pair!r}: expected key=value (e.g. "
                "--param n_tasks=50 or --param confidences=[0.8,0.9])"
            )
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        params[key] = value
    return params


def _parse_faults(text: str | None):
    """``--faults`` → a registered plan name or an inline JSON plan.

    The plan is resolved here, so an unknown name is a user error
    raised before anything runs.
    """
    if not text:
        return None
    try:
        faults = json.loads(text)
    except json.JSONDecodeError:
        faults = text  # a registered plan name
    from .resilience.faults import resolve_fault_plan

    resolve_fault_plan(faults)
    return faults


def _cmd_experiments(args: argparse.Namespace) -> None:
    names = available_experiments()
    if args.json:
        print(
            json.dumps(
                {
                    name: get_experiment(name).describe()
                    for name in names
                },
                indent=2,
                sort_keys=True,
            )
        )
        return
    for name in names:
        spec_cls = get_experiment(name)
        doc = (spec_cls.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        print(f"{name:20s} {summary}")
        for param, schema in spec_cls.describe().items():
            default = schema.get("default", "<required>")
            print(f"    --param {param}={json.dumps(default)}")


def _fail(
    args: argparse.Namespace, exc: ReproError, exit_code: int,
    spec=None, config=None,
) -> None:
    """Structured ``repro run`` failure: with ``--json`` the error
    document (code, spec/config, fingerprint, fault site, seed) goes to
    stdout; either way the process exits with *exit_code*."""
    from .resilience.document import ErrorDocument

    if getattr(args, "json", False):
        document = ErrorDocument.capture(exc, spec=spec, config=config)
        print(document.to_json(indent=2))
    else:
        print(f"error: {exc}", file=sys.stderr)
    raise SystemExit(exit_code)


def _execute(args: argparse.Namespace, spec, config, store=None):
    """``Session(config).run(spec)`` under the CLI exit contract."""
    try:
        return Session(config).run(spec, store=store)
    except ReproError as exc:
        # An engine/comparator name only resolves when the run starts;
        # a miss is still the caller's typo, not an execution failure.
        exit_code = (
            USER_ERROR_EXIT
            if isinstance(exc, RegistryError)
            else EXECUTION_ERROR_EXIT
        )
        _fail(args, exc, exit_code, spec=spec, config=config)


def _cmd_run(args: argparse.Namespace) -> None:
    try:
        faults = _parse_faults(args.faults)
        spec = make_spec(args.experiment, **_parse_params(args.param))
        config = RunConfig(
            engine=args.engine,
            comparator=args.comparator,
            seed=args.seed,
            replications=args.replications,
            faults=faults,
        )
    except ReproError as exc:
        _fail(args, exc, USER_ERROR_EXIT)
    result = _execute(args, spec, config, store=args.store)
    if args.json:
        print(result.to_json(indent=2, include_timing=True))
        return
    print(f"experiment:  {result.experiment}")
    print(f"fingerprint: {result.fingerprint}")
    print(json.dumps(result.to_dict()["payload"], indent=2, sort_keys=True))


def _cmd_run_many(args: argparse.Namespace) -> None:
    """Batch execution with store resume and executor fan-out.

    Positional arguments are registered experiment names (default
    params) or inline spec JSON documents; the whole batch shares one
    config.  Exit contract matches ``run``: 2 for user errors (bad
    names, params, executor, a ``--workers`` without
    ``--executor process``), 3 when any spec's execution failed.
    """
    try:
        faults = _parse_faults(args.faults)
        executor = args.executor
        if args.workers is not None and executor != "process":
            raise ModelError(
                "--workers sizes the process pool; it needs "
                "--executor process"
            )
        if executor is not None:
            from .exec import ProcessExecutor, get_executor

            if args.workers is not None:
                executor = ProcessExecutor(workers=args.workers)
            else:
                executor = get_executor(executor)
        specs = []
        for entry in args.experiment:
            if entry.lstrip().startswith("{"):
                specs.append(ExperimentSpec.from_dict(json.loads(entry)))
            else:
                specs.append(make_spec(entry))
        config = RunConfig(
            engine=args.engine,
            comparator=args.comparator,
            seed=args.seed,
            replications=args.replications,
            faults=faults,
            retry=(
                {"attempts": args.attempts}
                if args.attempts is not None
                else None
            ),
            timeout=args.timeout,
        )
    except (ReproError, json.JSONDecodeError) as exc:
        if isinstance(exc, json.JSONDecodeError):
            exc = ModelError(f"bad inline spec document: {exc}")
        _fail(args, exc, USER_ERROR_EXIT)
    try:
        report = Session(config).run_many(
            specs,
            fail_fast=args.fail_fast,
            executor=executor,
            store=args.store,
        )
    except ReproError as exc:
        _fail(args, exc, EXECUTION_ERROR_EXIT, config=config)
    if args.json:
        print(
            json.dumps(
                report.to_dict(include_events=True, include_store=True),
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for outcome in report.outcomes:
            label = getattr(outcome.spec, "name", "?")
            marker = "+" if outcome.served else " "  # served from the store
            print(f"{label:20s} {outcome.status}{marker}")
        print(
            f"total {len(report)}  succeeded {len(report.succeeded)}  "
            f"failed {len(report.failed)}"
        )
        if report.store is not None:
            tally = report.store
            print(
                f"store: hits {tally['hits']}  misses {tally['misses']}  "
                f"quarantined {tally['quarantined']}  "
                f"write failures {tally['write_failures']}"
            )
        if report.events:
            print(f"supervisor events: {len(report.events)}")
    if not report.ok:
        raise SystemExit(EXECUTION_ERROR_EXIT)


def _inspect_entry(args: argparse.Namespace, store, fingerprint: str) -> dict:
    """One stored entry document: exit 2 if absent, 3 if corrupt."""
    try:
        code, message, entry = store.inspect(fingerprint)
    except ReproError as exc:
        _fail(args, exc, USER_ERROR_EXIT)
    if code is not None:
        from .errors import StoreCorruptError

        exc = StoreCorruptError(f"entry {fingerprint}: {message}")
        _fail(args, exc, EXECUTION_ERROR_EXIT)
    return entry


def _cmd_results(args: argparse.Namespace) -> None:
    """Inspect a persistent result store (see ``repro.store``).

    Default: list every stored entry.  ``--show FP`` prints one entry
    document, ``--verify`` walks the store quarantining corruption
    (always exits 0 — finding damage *is* the command working),
    ``--replay FP`` re-executes a stored run and compares documents
    byte-for-byte (mismatch exits 3).  Unknown fingerprints exit 2.
    """
    from .store import ResultStore

    store = ResultStore(args.store)

    if args.verify:
        report = store.verify()
        if args.json:
            print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            for token, code, message in report.quarantined:
                print(f"{token}  {code}  {message}")
            print(
                f"checked {report.checked}  intact {report.intact}  "
                f"quarantined {len(report.quarantined)}  "
                f"previously quarantined {report.previously_quarantined}"
            )
        return

    if args.show is not None:
        entry = _inspect_entry(args, store, args.show)
        print(json.dumps(entry, indent=2, sort_keys=True))
        return

    if args.replay is not None:
        entry = _inspect_entry(args, store, args.replay)
        from .api.session import RunResult

        stored = RunResult.from_document(entry["result"])
        try:
            replayed = Session(stored.config).run(stored.spec)
        except ReproError as exc:
            _fail(args, exc, EXECUTION_ERROR_EXIT)
        match = replayed.to_dict() == entry["result"]
        if args.json:
            print(
                json.dumps(
                    {
                        "fingerprint": args.replay,
                        "experiment": stored.experiment,
                        "match": match,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            verdict = "matches" if match else "DIVERGES FROM"
            print(
                f"replayed {stored.experiment} ({args.replay}): "
                f"{verdict} the stored document"
            )
        if not match:
            raise SystemExit(EXECUTION_ERROR_EXIT)
        return

    entries = list(store.entries())
    if args.json:
        print(
            json.dumps(
                {
                    "root": str(store.root),
                    "entries": entries,
                    "quarantined": len(store.quarantined()),
                },
                indent=2,
                sort_keys=True,
            )
        )
        return
    for entry in entries:
        experiment = entry["experiment"] or "?"
        print(f"{entry['fingerprint']}  {experiment:20s} {entry['status']}")
    print(
        f"total {len(entries)}  "
        f"quarantined {len(store.quarantined())}"
    )


# ---------------------------------------------------------------------------
# per-figure aliases of `run`: flags are spec params, output is a renderer
# ---------------------------------------------------------------------------


def _cmd_alias(args: argparse.Namespace) -> None:
    """Run ``args.experiment`` from the alias's flags and print
    ``args.render(result)``.

    Every namespace key that names a spec parameter becomes one (each
    alias flag declares ``dest=<param>``); ``--seed`` plus whichever
    of ``engine``/``comparator``/``replications`` the alias declares
    make the config.  Errors follow ``run``'s exit contract.
    """
    flags = vars(args)
    try:
        params = get_experiment(args.experiment).describe()
        spec = make_spec(
            args.experiment,
            **{name: flags[name] for name in params if name in flags},
        )
        config = RunConfig(
            seed=args.seed,
            **{
                key: flags[key]
                for key in ("engine", "comparator", "replications")
                if key in flags
            },
        )
    except ReproError as exc:
        _fail(args, exc, USER_ERROR_EXIT)
    print(args.render(_execute(args, spec, config)))


def _render_table1(result) -> str:
    ex1 = result.payload["example_1"]
    ex2 = result.payload["example_2"]
    return "\n\n".join(
        [
            format_kv(
                {
                    "even ($3/$3)": ex1.even_latency,
                    "load-sensitive ($2/$4)": ex1.load_sensitive_latency,
                    "improvement": f"{ex1.improvement:.1%}",
                },
                title="Motivation Example 1",
            ),
            format_kv(
                {
                    "even ($3/$3)": ex2.even_latency,
                    "balanced ($4/$2)": ex2.load_sensitive_latency,
                    "improvement": f"{ex2.improvement:.1%}",
                },
                title="Motivation Example 2",
            ),
        ]
    )


def _render_fig2(result) -> str:
    spec, sweep = result.spec, result.payload
    return format_series(
        "budget",
        sweep.budgets,
        sweep.series,
        title=f"Fig 2 {spec.scenario}({spec.case})",
    )


def _render_fig3(result) -> str:
    fig = result.payload
    rows = [
        (i + 1, e / 60.0, p1 / 60.0, p2 / 60.0)
        for i, (e, p1, p2) in enumerate(
            zip(
                fig.arrival_epochs,
                fig.phase1_latencies,
                fig.phase2_latencies,
            )
        )
    ]
    return format_table(
        ["order", "epoch/min", "phase1/min", "phase2/min"],
        rows,
        title=f"Fig 3 (R² = {fig.linearity_r2:.3f})",
    )


def _render_fig4(result) -> str:
    fig = result.payload
    rows = [
        (f"${p / 100:.2f}", fig.inferred_rates[p])
        for p in fig.prices
    ]
    return format_table(
        ["reward", "inferred rate"],
        rows,
        title=f"Fig 4 (fit slope {fig.fit.slope:.2e}, "
        f"R² {fig.fit.r_squared:.2f})",
    )


def _render_fig5ab(result) -> str:
    fig = result.payload
    rows = []
    for votes in fig.vote_counts:
        for price in fig.prices:
            rows.append(
                (
                    f"{votes}v",
                    f"${price / 100:.2f}",
                    fig.mean_phase1[(votes, price)] / 60.0,
                    fig.mean_phase2[(votes, price)],
                )
            )
    return format_table(
        ["difficulty", "reward", "phase1/min", "phase2/s"],
        rows,
        title="Fig 5(a)/(b)",
    )


def _render_fig5c(result) -> str:
    fig = result.payload
    rows = []
    for bi, budget in enumerate(fig.budgets):
        rows.append(
            (
                f"${budget / 100:.0f}",
                *(fig.series[("opt", t)][bi] / 60.0 for t in range(3)),
                *(fig.series[("heu", t)][bi] / 60.0 for t in range(3)),
            )
        )
    return format_table(
        ["budget", "OPT t1", "OPT t2", "OPT t3", "HEU t1", "HEU t2",
         "HEU t3"],
        rows,
        title="Fig 5(c) — latencies in minutes",
    )


def _render_deadline(result) -> str:
    spec, sweep = result.spec, result.payload
    return format_series(
        "deadline",
        [round(d, 4) for d in sweep.deadlines],
        sweep.series,
        title=f"Deadline–cost frontier {spec.scenario}({spec.case}) "
        f"[{sweep.comparator}]",
    )


def _cmd_all(args: argparse.Namespace) -> None:
    """The paper's figures at their defaults, through their aliases;
    Fig. 2 once per scenario (``deadline`` is an extension)."""
    figures = ("table1", "fig3", "fig4", "fig5ab", "fig5c")
    runs = [(name, [name]) for name in figures]
    runs += [
        (f"fig2 {scenario}(a)", ["fig2", "--scenario", scenario])
        for scenario in ("homo", "repe", "heter")
    ]
    parser = build_parser()
    for title, argv in runs:
        print(f"===== {title} =====")
        alias = parser.parse_args(["--seed", str(args.seed), *argv])
        alias.func(alias)
        print()


def _cmd_serve(args: argparse.Namespace) -> None:
    """Run the live service (see ``repro.serve`` / docs/service.md).

    Binds an asyncio HTTP server exposing the batch endpoints
    (``POST /runs``, ``GET /runs/<id>[/result]``) and the online
    market (``POST /market/allocate``, ``GET /market/state``).  Bad
    configuration (unknown executor/fault plan, malformed budget)
    exits 2; the server itself runs until interrupted.
    """
    import asyncio

    from .serve import DEFAULT_MARKET_BUDGET, ReproService, serve_forever

    try:
        faults = _parse_faults(args.faults)
        market_budget = (
            DEFAULT_MARKET_BUDGET
            if args.market_budget is None
            else args.market_budget
        )
        service = ReproService(
            store=args.store,
            executor=args.executor,
            workers=args.workers,
            faults=faults,
            market_budget=market_budget,
        )
    except ReproError as exc:
        _fail(args, exc, USER_ERROR_EXIT)
    try:
        asyncio.run(serve_forever(service, args.host, args.port))
    except KeyboardInterrupt:
        pass
    finally:
        service.close()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate experiments from 'Tuning Crowdsourced "
        "Human Computation' (ICDE 2017).",
    )
    parser.add_argument("--seed", type=int, default=0)
    sub = parser.add_subparsers(dest="command", required=True)
    listing = sub.add_parser("list", help="list the per-figure commands")
    sub.add_parser("all", help="run every experiment").set_defaults(
        func=_cmd_all
    )

    from .perf.deadline import (
        DEFAULT_DEADLINE_COMPARATOR,
        available_deadline_comparators,
    )
    from .perf.engine import DEFAULT_ENGINE, available_engines

    experiments = sub.add_parser(
        "experiments",
        help="list registered experiments and their parameter schemas",
    )
    experiments.add_argument(
        "--json", action="store_true", help="machine-readable schema dump"
    )
    experiments.set_defaults(func=_cmd_experiments)
    run = sub.add_parser(
        "run",
        help="run any registered experiment by name "
        "(repro run fig2 --param scenario=repe --json)",
    )
    run.add_argument(
        "experiment",
        metavar="EXPERIMENT",
        help="a registered name (see `repro experiments`)",
    )
    run.add_argument(
        "--param",
        "-p",
        action="append",
        default=[],
        metavar="K=V",
        help="spec parameter; value parsed as JSON, falling back to a "
        "bare string (repeatable)",
    )
    run.add_argument(
        "--engine",
        default=None,
        help="evaluation/replication engine name (registry-resolved; "
        f"registered: {', '.join(available_engines())})",
    )
    run.add_argument(
        "--comparator",
        default=None,
        help="deadline comparator name (registry-resolved; registered: "
        f"{', '.join(available_deadline_comparators())})",
    )
    run.add_argument(
        "--replications",
        type=int,
        default=1,
        help="independent seeded worlds per cell (experiments that "
        "support it)",
    )
    run.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault plan: a registered plan name or an "
        'inline JSON document, e.g. \'{"rules": [{"site": '
        '"engine.sample", "at": [0]}]}\' (see docs/robustness.md)',
    )
    run.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result store: serve the run from a verified "
        "stored entry if present, execute and store it otherwise "
        "(see `repro results`)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        help="print the full RunResult document (spec, config, "
        "fingerprint, payload, execution timing); on failure, the "
        "structured error document (exit 2 = bad spec/param, exit 3 = "
        "execution failure)",
    )
    run.set_defaults(func=_cmd_run)

    from .exec import available_executors

    run_many = sub.add_parser(
        "run-many",
        help="run a batch of experiments, resumable through a result "
        "store, on an optional parallel executor (repro run-many fig2 "
        "fig3 --store results --executor process)",
    )
    run_many.add_argument(
        "experiment",
        nargs="+",
        metavar="EXPERIMENT",
        help="registered experiment names (default params) and/or "
        "inline spec JSON documents",
    )
    run_many.add_argument(
        "--executor",
        default=None,
        help="where the batch executes (registry-resolved; registered: "
        f"{', '.join(available_executors())}); default: inline serial "
        "loop",
    )
    run_many.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker-pool size for --executor process",
    )
    run_many.add_argument(
        "--engine",
        default=None,
        help="evaluation/replication engine name (registry-resolved)",
    )
    run_many.add_argument(
        "--comparator",
        default=None,
        help="deadline comparator name (registry-resolved)",
    )
    run_many.add_argument(
        "--replications",
        type=int,
        default=1,
        help="independent seeded worlds per cell",
    )
    run_many.add_argument(
        "--attempts",
        type=int,
        default=None,
        help="retry attempts per run (also the supervisor's per-task "
        "requeue budget under --executor process)",
    )
    run_many.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="cooperative per-attempt timeout in seconds (also the "
        "supervisor's straggler deadline under --executor process)",
    )
    run_many.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault plan (registered name or inline JSON; "
        "worker.* sites drive the process supervisor)",
    )
    run_many.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result store: skip verified hits, execute and "
        "store misses, tally hit/miss/quarantine counts (a rerun of a "
        "killed batch resumes from it byte-identically)",
    )
    run_many.add_argument(
        "--fail-fast",
        action="store_true",
        help="stop at the first failing spec and exit 3",
    )
    run_many.add_argument(
        "--json",
        action="store_true",
        help="print the BatchReport document including supervisor "
        "events and the store tally",
    )
    run_many.set_defaults(func=_cmd_run_many)

    results = sub.add_parser(
        "results",
        help="list / inspect / verify / replay a persistent result "
        "store (repro results ./results --verify)",
    )
    results.add_argument(
        "store",
        metavar="DIR",
        help="store directory (what `repro run --store` wrote)",
    )
    results_mode = results.add_mutually_exclusive_group()
    results_mode.add_argument(
        "--show",
        default=None,
        metavar="FINGERPRINT",
        help="print one stored entry document (exit 2 if absent, 3 if "
        "corrupt)",
    )
    results_mode.add_argument(
        "--verify",
        action="store_true",
        help="walk every entry, quarantine corruption/staleness with "
        "typed reason documents, and report the damage (always exits 0)",
    )
    results_mode.add_argument(
        "--replay",
        default=None,
        metavar="FINGERPRINT",
        help="re-execute a stored run from its own spec/config and "
        "compare documents byte-for-byte (exit 3 on divergence)",
    )
    results.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output",
    )
    results.set_defaults(func=_cmd_results)

    serve = sub.add_parser(
        "serve",
        help="run the live crowd-market HTTP service (repro serve "
        "--port 8765 --store ./results)",
    )
    serve.add_argument(
        "--host",
        default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8765,
        help="bind port (default 8765; 0 picks a free port)",
    )
    serve.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="persistent result store: submissions are served from "
        "verified hits and computed results are written back",
    )
    serve.add_argument(
        "--executor",
        default="process",
        help="executor for submitted runs (registry-resolved; "
        f"registered: {', '.join(available_executors())}); the default "
        "'process' keeps one supervised worker pool for the service's "
        "lifetime, started by the first run that misses the store; "
        "'serial' computes on dispatch threads in the service process",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=2,
        help="how many submitted runs compute at once: the worker-pool "
        "size (or the number of dispatch threads under --executor serial)",
    )
    serve.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="deterministic fault plan (registered name or inline "
        "JSON; serve.request / serve.backend sites drive the service "
        "— see docs/robustness.md)",
    )
    serve.add_argument(
        "--market-budget",
        type=int,
        default=None,
        help="total ledger units for the online market (default "
        "100000)",
    )
    serve.set_defaults(func=_cmd_serve)

    def alias(name, experiment, render, **kwargs):
        command = sub.add_parser(name, **kwargs)
        command.set_defaults(
            experiment=experiment, render=render, func=_cmd_alias
        )
        return command

    alias(
        "table1", "table1", _render_table1,
        help="motivation examples (Table 1 / Fig 1)",
    )
    fig2 = alias("fig2", "fig2", _render_fig2, help="synthetic budget sweeps")
    fig2.add_argument(
        "--scenario", choices=["homo", "repe", "heter"], default="homo"
    )
    fig2.add_argument("--case", choices=list("abcdef"), default="a")
    fig2.add_argument("--tasks", dest="n_tasks", type=int, default=100)
    fig2.add_argument("--samples", dest="n_samples", type=int, default=1000)
    fig2.add_argument(
        "--scoring", choices=["mc", "numeric"], default="mc"
    )
    fig2.add_argument(
        "--engine",
        choices=list(available_engines()),
        default=DEFAULT_ENGINE,
        help="Monte-Carlo sampling engine (resolved through the "
        "repro.perf.engine registry; every name runs the same sampler, "
        "so the curves are identical seed-for-seed)",
    )
    deadline = alias(
        "deadline", "deadline-frontier", _render_deadline,
        help="deadline–cost frontier (the [29] dual sweep)",
    )
    deadline.add_argument(
        "--scenario", choices=["homo", "repe", "heter"], default="repe"
    )
    deadline.add_argument("--case", choices=list("abcdef"), default="a")
    deadline.add_argument("--tasks", dest="n_tasks", type=int, default=100)
    deadline.add_argument(
        "--points", dest="n_deadlines", type=int, default=10
    )
    deadline.add_argument(
        "--confidence",
        dest="confidences",
        type=float,
        nargs="+",
        default=[0.9],
        help="target completion probabilities (one cost curve each)",
    )
    deadline.add_argument("--max-price", type=int, default=50)
    deadline.add_argument(
        "--comparator",
        choices=list(available_deadline_comparators()),
        default=DEFAULT_DEADLINE_COMPARATOR,
        help="deadline comparator name, echoed in the output (resolved "
        "through the repro.perf.deadline registry; every builtin name "
        "runs the one grid solver)",
    )
    fig3 = alias("fig3", "fig3", _render_fig3, help="worker arrival moments")
    fig3.add_argument("--arrivals", dest="n_arrivals", type=int, default=20)
    fig3.add_argument(
        "--replications",
        type=int,
        default=1,
        help="independent seeded worlds averaged into the figure",
    )
    fig3.add_argument(
        "--engine",
        choices=list(available_engines()),
        default=None,
        help="replication engine (registry name; figures are "
        "byte-identical for every engine)",
    )
    fig4 = alias("fig4", "fig4", _render_fig4, help="reward vs latency")
    fig5ab = alias(
        "fig5ab", "fig5ab", _render_fig5ab, help="difficulty vs latency"
    )
    for agent_figure in (fig4, fig5ab):
        agent_figure.add_argument(
            "--replications",
            type=int,
            default=1,
            help="independent agent-market worlds per cell (needs an "
            "agent engine)",
        )
        agent_figure.add_argument(
            "--engine",
            choices=["aggregate", *available_engines()],
            default=None,
            help="'aggregate' (default, the seed path) or a "
            "replication-engine name to run the cells on the agent "
            "market",
        )
    alias("fig5c", "fig5c", _render_fig5c, help="OPT vs heuristic")

    aliases = sorted(
        name for name, command in sub.choices.items()
        if command.get_default("render") is not None
    )
    listing.set_defaults(func=lambda args: print("\n".join(aliases)))
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    args.func(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
