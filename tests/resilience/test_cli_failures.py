"""CLI failure paths: distinct exit codes + structured ``--json`` errors."""

from __future__ import annotations

import json

import pytest

from repro.api import RunConfig, Session, make_spec
from repro.cli import EXECUTION_ERROR_EXIT, USER_ERROR_EXIT, main
from repro.errors import InfeasibleAllocationError
from repro.resilience import ErrorDocument

_FAULT = '{"rules": [{"site": "run.start", "at": [0]}]}'


def _run(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    return exc.value.code


def test_unknown_experiment_is_a_user_error(capsys):
    assert _run(["run", "warp-drive"]) == USER_ERROR_EXIT
    err = capsys.readouterr().err
    assert "unknown experiment" in err
    assert "fig2" in err  # names the available entries


def test_bad_param_is_a_user_error(capsys):
    assert _run(["run", "fig3", "--param", "nonsense"]) == USER_ERROR_EXIT
    assert "error:" in capsys.readouterr().err


def test_unknown_param_is_a_user_error(capsys):
    assert _run(["run", "fig3", "--param", "bogus=1"]) == USER_ERROR_EXIT


def test_unknown_fault_plan_name_is_a_user_error(capsys):
    code = _run(["run", "fig3", "--param", "n_arrivals=3",
                 "--faults", "no-such-plan"])
    assert code == USER_ERROR_EXIT
    assert "unknown fault plan" in capsys.readouterr().err


def test_execution_failure_exits_three(capsys):
    code = _run(["run", "fig3", "--param", "n_arrivals=3",
                 "--faults", _FAULT])
    assert code == EXECUTION_ERROR_EXIT
    assert "injected fault" in capsys.readouterr().err


def test_json_failure_emits_error_document(capsys):
    code = _run(["run", "fig3", "--param", "n_arrivals=3",
                 "--faults", _FAULT, "--json"])
    assert code == EXECUTION_ERROR_EXIT
    payload = json.loads(capsys.readouterr().out)
    assert payload["code"] == "fault-injected"
    assert payload["site"] == "run.start"
    assert payload["experiment"] == "fig3"
    # the printed document is a full ErrorDocument: it round-trips and
    # carries the spec/config needed to replay the failure offline.
    doc = ErrorDocument.from_dict(payload)
    assert doc.spec["experiment"] == "fig3"
    assert doc.config["faults"]["rules"][0]["site"] == "run.start"
    assert doc.fingerprint


def test_default_path_failure_attaches_the_printed_document(capsys):
    # No faults, retry or timeout: the one attempt loop runs once, and
    # its failure carries the document `repro run --json` prints.
    params = {"n_tasks": 4, "n_samples": 10, "budgets": [1]}
    spec = make_spec("fig2", **params)
    config = RunConfig()
    with pytest.raises(InfeasibleAllocationError) as exc:
        Session(config).run(spec)
    attached = exc.value.error_document
    # The attached document must equal a capture of the bare
    # exception, so `repro run --json` prints the same bytes whether
    # or not the executor attached one.
    del exc.value.error_document
    assert attached == ErrorDocument.capture(exc.value, spec=spec, config=config)
    assert attached.code == "budget-infeasible"
    assert attached.fingerprint == "fd0195bc83bc9b6c"
    argv = ["run", "fig2", "--json"]
    for key, value in params.items():
        argv += ["--param", f"{key}={json.dumps(value)}"]
    assert _run(argv) == EXECUTION_ERROR_EXIT
    assert capsys.readouterr().out == attached.to_json(indent=2) + "\n"


def test_json_user_error_emits_error_document(capsys):
    code = _run(["run", "warp-drive", "--json"])
    assert code == USER_ERROR_EXIT
    payload = json.loads(capsys.readouterr().out)
    assert payload["code"] == "registry-lookup"
    assert payload["spec"] is None  # failed before a spec existed


def test_successful_run_still_exits_zero(capsys):
    assert main(["run", "fig3", "--param", "n_arrivals=3"]) in (0, None)
    assert "fig3" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, suggestion",
    [
        (["run", "fig2", "--param", "n_tasks=4", "--param", "n_samples=10",
          "--param", "budgets=[800]", "--engine", "batc"], "'batch'"),
        (["run", "deadline-frontier", "--comparator", "refrence"],
         "'reference'"),
    ],
)
def test_unknown_engine_or_comparator_is_a_user_error(
    capsys, argv, suggestion
):
    """Engine/comparator names resolve only once the run starts; a miss
    is still a user error (exit 2), with the did-you-mean intact."""
    assert _run(argv) == USER_ERROR_EXIT
    assert f"did you mean {suggestion}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "document, code",
    [
        ('{"experiment": "fig3", "params": {"n_arrivals": "x"}}',
         "model-invalid"),
        ("{}", "model-invalid"),
        ('{"experiment": 5}', "registry-lookup"),
        ('{"experiment": "fig3", "params": [1]}', "model-invalid"),
    ],
)
def test_run_many_malformed_inline_spec_is_a_user_error(
    capsys, document, code
):
    """An inline spec document is parsed before anything runs, so a
    bad one exits 2 just as the same mistake given by name does."""
    assert _run(["run-many", document]) == USER_ERROR_EXIT
    assert "error:" in capsys.readouterr().err
    assert _run(["run-many", document, "--json"]) == USER_ERROR_EXIT
    assert json.loads(capsys.readouterr().out)["code"] == code


@pytest.mark.parametrize(
    "alias, run, exit_code, message",
    [
        (["fig3", "--replications", "0"],
         ["run", "fig3", "--replications", "0"],
         USER_ERROR_EXIT, "replications must be >= 1"),
        (["fig4", "--replications", "3"],
         ["run", "fig4", "--replications", "3"],
         EXECUTION_ERROR_EXIT, "single-realization"),
    ],
)
def test_alias_exit_codes_match_run(capsys, alias, run, exit_code, message):
    """Figure aliases share ``run``'s contract: 2 for a bad config,
    3 when the run itself fails, with the same ``error:`` line."""
    assert _run(alias) == exit_code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert _run(run) == exit_code
    assert capsys.readouterr().err == err
