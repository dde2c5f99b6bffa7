"""``Session.run_many`` graceful degradation: the ``BatchReport``."""

from __future__ import annotations

import json

import pytest

from repro.api import RunConfig, Session
from repro.errors import FaultInjectedError
from repro.resilience import BatchReport, ErrorDocument

from tiny import tiny_spec


def _specs():
    return [tiny_spec("fig2"), tiny_spec("fig3"), tiny_spec("fig4")]


def test_clean_batch_keeps_list_contract():
    report = Session(RunConfig()).run_many(_specs())
    assert isinstance(report, BatchReport)
    assert report.ok
    assert len(report) == 3
    # iterating yields completed RunResults in submission order —
    # the pre-resilience `[r.payload for r in run_many(...)]` shape.
    payloads = [r.payload for r in report]
    assert len(payloads) == 3
    assert [o.status for o in report.outcomes] == ["succeeded"] * 3


def test_failing_spec_files_an_error_document_instead_of_raising():
    # fig3 reaches market.replication; fig2/fig4 budget paths do not
    # replicate the market, so only fig3 fails.
    config = RunConfig(
        faults={"rules": [{"site": "market.replication", "at": [0]}]}
    )
    report = Session(config).run_many(_specs())
    assert not report.ok
    statuses = {o.spec.name: o.status for o in report.outcomes}
    assert statuses["fig3"] == "failed"
    assert statuses["fig2"] == "succeeded"
    failed = report.failed[0]
    assert isinstance(failed.error, ErrorDocument)
    assert failed.error.code == "fault-injected"
    assert failed.error.site == "market.replication"
    assert failed.result is None
    # completed results still iterate; the failure is skipped
    assert len(list(report)) == 2


def test_fail_fast_raises_on_first_failure():
    config = RunConfig(
        faults={"rules": [{"site": "run.start", "at": [0]}]}
    )
    with pytest.raises(FaultInjectedError):
        Session(config).run_many([tiny_spec("fig2")], fail_fast=True)


def test_report_serializes_with_counts():
    config = RunConfig(
        faults={"rules": [{"site": "run.start", "at": [0]}]}
    )
    # occurrence counters reset per run attempt, so every spec's first
    # run.start check fires: the whole batch fails.
    report = Session(config).run_many([tiny_spec("fig2"), tiny_spec("fig3")])
    doc = json.loads(report.to_json())
    assert doc["total"] == 2
    assert doc["failed"] == 2
    assert doc["succeeded"] == 0
    assert all(o["error"]["code"] == "fault-injected"
               for o in doc["outcomes"])


def test_outcome_dict_hides_served_flag(tmp_path):
    store = tmp_path / "store"
    Session(RunConfig()).run_many([tiny_spec("fig2")], store=store)
    report = Session(RunConfig()).run_many([tiny_spec("fig2")], store=store)
    assert report.outcomes[0].served
    assert "served" not in report.to_dict()["outcomes"][0]
