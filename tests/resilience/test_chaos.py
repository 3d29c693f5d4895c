"""The chaos harness: report plumbing and a tiny campaign."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.resilience import faults
from repro.resilience.chaos import (
    CHAOS_SCENARIOS,
    ChaosOutcome,
    ChaosReport,
    chaos,
    write_chaos_reproducer,
)
from repro.resilience.faults import FaultAction, FaultPlan
from repro.resilience.supervisor import clear_incidents


@pytest.fixture(autouse=True)
def _clean_state():
    faults.clear_plan()
    clear_incidents()
    yield
    faults.clear_plan()
    clear_incidents()


class TestReportPlumbing:
    def outcome(self, ok=True):
        return ChaosOutcome(
            index=0,
            scenario="store-torn",
            family="linear",
            params={"damping": 0.5},
            engine="batched-icp",
            seed=0,
            plan=FaultPlan((FaultAction("store.write", "torn"),)).to_dict(),
            ok=ok,
            detail="" if ok else "boom",
            fired=[{"seam": "store.write", "kind": "torn", "hit": 0, "detail": ""}],
            recovered=ok,
        )

    def test_report_ok_and_counts(self):
        report = ChaosReport(seed=0, samples=2)
        report.outcomes = [self.outcome(), self.outcome(ok=False)]
        assert not report.ok
        assert len(report.failures) == 1
        data = report.to_dict()
        assert data["faults_fired"] == 2
        assert data["recovered"] == 1
        assert "FAIL [store-torn]" in report.format()

    def test_reproducer_round_trips(self, tmp_path):
        path = write_chaos_reproducer(self.outcome(ok=False), tmp_path)
        data = json.loads(path.read_text())
        assert data["scenario"] == "store-torn"
        assert FaultPlan.from_dict(data["plan"]).actions[0].kind == "torn"


class TestCampaign:
    def test_rejects_unknown_scenario(self):
        with pytest.raises(ReproError, match="unknown chaos scenario"):
            chaos(samples=1, scenarios=("nope",))

    def test_rejects_zero_samples(self):
        with pytest.raises(ReproError):
            chaos(samples=0)

    def test_smoke_store_and_journal_faults(self, tmp_path):
        """Two cheap end-to-end samples: torn store write, torn journal."""
        report = chaos(
            samples=2,
            seed=0,
            families=("linear",),
            scenarios=("store-torn", "journal-torn"),
            hard_timeout=90.0,
            reproducers_dir=tmp_path,
        )
        assert [o.scenario for o in report.outcomes] == [
            "store-torn",
            "journal-torn",
        ]
        assert report.ok, report.format()
        assert all(o.fired for o in report.outcomes)
        assert not list(tmp_path.iterdir())  # no failures -> no reproducers
        # Chaos always cleans up after itself.
        assert faults.active_plan() is None

    def test_scenario_rotation_covers_the_catalog(self):
        assert len(set(CHAOS_SCENARIOS)) == len(CHAOS_SCENARIOS)
        assert CHAOS_SCENARIOS == ("pool-kill", "journal-torn", "store-torn")
