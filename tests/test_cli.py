"""Unit tests for the CLI (python -m repro)."""

from __future__ import annotations

import pytest

from repro.api import (
    DeadlineFrontierSpec,
    Fig2Spec,
    Fig3Spec,
    Fig4Spec,
    Fig5abSpec,
    Fig5cSpec,
    RunConfig,
    Session,
    Table1Spec,
)
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fig2_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.scenario == "homo"
        assert args.case == "a"

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig2", "--scenario", "quantum"])

    def test_serve_rejects_removed_async_executor(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", "--port", "0", "--executor", "async"])
        assert exc.value.code == 2
        assert "did you mean 'process'?" in capsys.readouterr().err


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("table1", "fig2", "fig3", "fig4", "fig5ab", "fig5c"):
            assert name in out
        # Only the figure aliases: not `serve`, `run` or the other tools.
        assert out.splitlines() == [
            "deadline", "fig2", "fig3", "fig4", "fig5ab", "fig5c", "table1",
        ]

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Motivation Example 1" in out
        assert "Motivation Example 2" in out

    def test_fig2_small(self, capsys):
        assert (
            main(
                [
                    "fig2",
                    "--scenario",
                    "homo",
                    "--case",
                    "a",
                    "--tasks",
                    "6",
                    "--samples",
                    "50",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "budget" in out
        assert "ea" in out

    def test_fig3(self, capsys):
        assert main(["fig3", "--arrivals", "5"]) == 0
        out = capsys.readouterr().out
        assert "epoch/min" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "inferred rate" in out

    def test_fig5ab(self, capsys):
        assert main(["fig5ab"]) == 0
        out = capsys.readouterr().out
        assert "difficulty" in out

    def test_fig5c(self, capsys):
        assert main(["fig5c"]) == 0
        out = capsys.readouterr().out
        assert "OPT t1" in out

    def test_deadline_frontier(self, capsys):
        assert (
            main(
                [
                    "deadline",
                    "--tasks",
                    "10",
                    "--points",
                    "4",
                    "--confidence",
                    "0.8",
                    "0.9",
                    "--max-price",
                    "15",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Deadline–cost frontier" in out
        assert "p0.8" in out
        assert "p0.9" in out

    def test_deadline_comparator_choices_come_from_registry(self, capsys):
        assert (
            main(
                [
                    "deadline",
                    "--tasks",
                    "8",
                    "--points",
                    "3",
                    "--comparator",
                    "reference",
                    "--max-price",
                    "10",
                ]
            )
            == 0
        )
        assert "[reference]" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            build_parser().parse_args(["deadline", "--comparator", "bogus"])


#: Each legacy alias invocation next to the spec and config it stands
#: for, written out in full: this pins the flag → parameter names, the
#: legacy defaults (fig2 --samples 1000, engine "scalar") and seeding.
ALIAS_CASES = [
    (["table1"], Table1Spec(), RunConfig(seed=0)),
    (
        ["fig2", "--scenario", "homo", "--tasks", "6", "--samples", "40"],
        Fig2Spec(scenario="homo", case="a", n_tasks=6, n_samples=40),
        RunConfig(seed=0, engine="scalar"),
    ),
    (
        ["fig2", "--scenario", "repe", "--case", "b", "--tasks", "6",
         "--samples", "40"],
        Fig2Spec(scenario="repe", case="b", n_tasks=6, n_samples=40),
        RunConfig(seed=0, engine="scalar"),
    ),
    (
        ["--seed", "3", "fig2", "--scenario", "heter", "--case", "c",
         "--tasks", "6", "--samples", "40", "--scoring", "numeric",
         "--engine", "batch"],
        Fig2Spec(
            scenario="heter", case="c", n_tasks=6, n_samples=40,
            scoring="numeric",
        ),
        RunConfig(seed=3, engine="batch"),
    ),
    (
        ["fig2", "--tasks", "4"],
        Fig2Spec(scenario="homo", case="a", n_tasks=4, n_samples=1000),
        RunConfig(seed=0, engine="scalar"),
    ),
    (
        ["fig3", "--arrivals", "5"],
        Fig3Spec(n_arrivals=5),
        RunConfig(seed=0, replications=1, engine=None),
    ),
    (
        ["--seed", "2", "fig3", "--arrivals", "5", "--replications", "3",
         "--engine", "agent-batch"],
        Fig3Spec(n_arrivals=5),
        RunConfig(seed=2, replications=3, engine="agent-batch"),
    ),
    (["fig4"], Fig4Spec(), RunConfig(seed=0, replications=1, engine=None)),
    (
        ["--seed", "1", "fig4", "--engine", "agent-batch",
         "--replications", "2"],
        Fig4Spec(),
        RunConfig(seed=1, replications=2, engine="agent-batch"),
    ),
    (["fig5ab"], Fig5abSpec(), RunConfig(seed=0, replications=1)),
    (["--seed", "5", "fig5c"], Fig5cSpec(), RunConfig(seed=5)),
    (
        ["deadline", "--tasks", "8", "--points", "3", "--max-price", "12"],
        DeadlineFrontierSpec(
            scenario="repe", case="a", n_tasks=8, n_deadlines=3,
            confidences=(0.9,), max_price=12,
        ),
        RunConfig(seed=0, comparator="batched"),
    ),
    (
        ["deadline", "--scenario", "homo", "--tasks", "8", "--points", "3",
         "--max-price", "12", "--comparator", "reference",
         "--confidence", "0.8", "0.9"],
        DeadlineFrontierSpec(
            scenario="homo", case="a", n_tasks=8, n_deadlines=3,
            confidences=(0.8, 0.9), max_price=12,
        ),
        RunConfig(seed=0, comparator="reference"),
    ),
]


@pytest.mark.parametrize(
    "argv, spec, config",
    ALIAS_CASES,
    ids=[" ".join(argv) for argv, _, _ in ALIAS_CASES],
)
def test_alias_prints_its_renderer_over_the_spec_run(
    capsys, argv, spec, config
):
    """A legacy command is ``run`` of one spec plus a renderer."""
    assert main(argv) == 0
    render = build_parser().parse_args(argv).render
    expected = render(Session(config).run(spec)) + "\n"
    assert capsys.readouterr().out == expected


class TestRegistryCommands:
    """The generic api-facing commands: `repro experiments` / `repro run`."""

    def test_experiments_lists_registry(self, capsys):
        from repro.api import available_experiments

        assert main(["experiments"]) == 0
        out = capsys.readouterr().out
        for name in available_experiments():
            assert name in out

    def test_experiments_json_schema(self, capsys):
        import json

        assert main(["experiments", "--json"]) == 0
        schema = json.loads(capsys.readouterr().out)
        assert "fig2" in schema
        assert schema["fig2"]["scenario"]["default"] == "homo"
        assert schema["deadline-frontier"]["confidences"]["default"] == [0.9]

    def test_run_fig2_json_document(self, capsys):
        import json

        assert (
            main(
                [
                    "run",
                    "fig2",
                    "--param",
                    "n_tasks=5",
                    "--param",
                    "n_samples=30",
                    "--param",
                    "budgets=[1000,1500]",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment"] == "fig2"
        assert doc["spec"]["params"]["budgets"] == [1000, 1500]
        assert len(doc["fingerprint"]) == 16
        assert set(doc["payload"]["series"]) == {"ea", "bias_1", "bias_2"}

    def test_run_matches_legacy_command_path(self, capsys):
        import json

        from repro.api import Fig2Spec, RunConfig, Session

        assert (
            main(
                [
                    "--seed",
                    "2",
                    "run",
                    "fig2",
                    "--param",
                    "n_tasks=5",
                    "--param",
                    "n_samples=30",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        legacy = Session(RunConfig(seed=2)).run(
            Fig2Spec(scenario="homo", case="a", n_tasks=5, n_samples=30)
        ).payload
        assert doc["payload"]["series"]["ea"] == list(legacy.series["ea"])

    def test_run_deadline_frontier_with_comparator(self, capsys):
        import json

        assert (
            main(
                [
                    "run",
                    "deadline-frontier",
                    "--param",
                    "n_tasks=6",
                    "--param",
                    "n_deadlines=3",
                    "--param",
                    "max_price=10",
                    "--comparator",
                    "reference",
                    "--json",
                ]
            )
            == 0
        )
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["comparator"] == "reference"
        assert doc["payload"]["comparator"] == "reference"

    def test_run_without_json_prints_fingerprint(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "fingerprint:" in out
        assert "example_1" in out

    def test_run_unknown_experiment_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "fig99"])

    def test_run_bad_param_syntax_exits(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--param", "n_tasks"])

    def test_run_unknown_param_is_clean_error(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2", "--param", "warp_factor=9"])
