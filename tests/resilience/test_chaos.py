"""The chaos harness: fake solver, report plumbing, a tiny campaign."""

from __future__ import annotations

import json
import threading

import pytest

from repro.errors import ReproError, SolverError
from repro.resilience import faults
from repro.resilience.chaos import (
    CHAOS_SCENARIOS,
    ChaosOutcome,
    ChaosReport,
    ChaosSolver,
    chaos,
    write_chaos_reproducer,
)
from repro.resilience.faults import FaultAction, FaultPlan
from repro.resilience.supervisor import clear_incidents, reset_breakers


@pytest.fixture(autouse=True)
def _clean_state():
    faults.clear_plan()
    reset_breakers()
    clear_incidents()
    yield
    faults.clear_plan()
    reset_breakers()
    clear_incidents()


def _query():
    from repro.solvers.smtlib import SmtLibQuery

    return SmtLibQuery(text="(check-sat)", names=("x",), ops=frozenset(), delta=0.01)


class TestChaosSolver:
    def test_fault_free_answer_is_unknown(self):
        from repro.smt.result import Verdict

        result = ChaosSolver().solve(_query(), timeout=1.0)
        assert result.verdict is Verdict.UNKNOWN

    def test_spawn_fault_raises_solver_error(self):
        plan = FaultPlan((FaultAction("solver.spawn", "error", at=0),))
        with faults.injected(plan):
            with pytest.raises(SolverError):
                ChaosSolver().solve(_query(), timeout=1.0)

    def test_hang_parks_on_the_cancel_event(self):
        plan = FaultPlan((FaultAction("solver.output", "hang", at=0),))
        cancel = threading.Event()
        cancel.set()  # already cancelled: the hang must return immediately
        with faults.injected(plan):
            result = ChaosSolver().solve(_query(), timeout=30.0, cancel=cancel)
        assert result is not None

    def test_garbage_counts_as_breaker_failure(self):
        from repro.resilience.supervisor import breaker_for

        plan = FaultPlan((FaultAction("solver.output", "garbage", at=0, count=3),))
        with faults.injected(plan):
            for _ in range(3):
                ChaosSolver().solve(_query(), timeout=1.0)
        assert breaker_for("solver.chaos").state == "open"


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
        assert set(CHAOS_SCENARIOS) >= {"pool-kill", "solver-hang", "store-torn"}
