"""Unit tests for the CLI (python -m repro)."""

from __future__ import annotations

import pytest

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

        from repro.experiments import fig2_experiment
        from repro.workloads import PAPER_BUDGETS

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
        legacy = fig2_experiment(
            "homo", "a", budgets=PAPER_BUDGETS, n_tasks=5, n_samples=30,
            seed=2,
        )
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
