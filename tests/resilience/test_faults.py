"""The fault-injection registry: plans, counters, determinism."""

from __future__ import annotations

import pytest

from repro.errors import InjectedFault, ReproError
from repro.resilience import faults
from repro.resilience.faults import SEAM_KINDS, SEAMS, FaultAction, FaultPlan


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear_plan()
    yield
    faults.clear_plan()


class TestFaultAction:
    def test_rejects_unknown_seam(self):
        with pytest.raises(ReproError, match="unknown fault seam"):
            FaultAction("nope.worker", "kill")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ReproError, match="unknown fault kind"):
            FaultAction("pool.worker", "explode")

    def test_rejects_bad_schedule(self):
        with pytest.raises(ReproError):
            FaultAction("pool.worker", "kill", at=-1)
        with pytest.raises(ReproError):
            FaultAction("pool.worker", "kill", count=0)

    def test_round_trips_through_dict(self):
        action = FaultAction("store.read", "garbage", at=2, count=3, payload="x")
        assert FaultAction.from_dict(action.to_dict()) == action


class TestFire:
    def test_no_plan_is_inert(self):
        assert faults.fire("pool.worker") is None
        assert faults.fired_faults() == []

    def test_fires_at_scheduled_hit_only(self):
        plan = FaultPlan((FaultAction("pool.worker", "kill", at=2),))
        faults.install_plan(plan)
        assert faults.fire("pool.worker") is None
        assert faults.fire("pool.worker") is None
        action = faults.fire("pool.worker")
        assert action is not None and action.kind == "kill"
        assert faults.fire("pool.worker") is None

    def test_count_covers_consecutive_hits(self):
        plan = FaultPlan((FaultAction("store.write", "error", at=1, count=2),))
        faults.install_plan(plan)
        hits = [faults.fire("store.write") for _ in range(4)]
        assert [a is not None for a in hits] == [False, True, True, False]

    def test_counters_are_per_seam(self):
        plan = FaultPlan((FaultAction("store.read", "error", at=0),))
        faults.install_plan(plan)
        # Other seams advance their own counters without firing.
        assert faults.fire("store.write") is None
        assert faults.fire("store.read") is not None

    def test_install_resets_counters_and_log(self):
        plan = FaultPlan((FaultAction("journal.append", "torn", at=0),))
        faults.install_plan(plan)
        assert faults.fire("journal.append") is not None
        assert len(faults.fired_faults()) == 1
        faults.install_plan(plan)
        assert faults.fired_faults() == []
        assert faults.fire("journal.append") is not None

    def test_fired_log_records_seam_kind_hit(self):
        plan = FaultPlan((FaultAction("store.write", "torn", at=1),))
        faults.install_plan(plan)
        faults.fire("store.write", "aaaa")
        faults.fire("store.write", "bbbb")
        log = faults.fired_faults()
        assert log == [
            {"seam": "store.write", "kind": "torn", "hit": 1, "detail": "bbbb"}
        ]

    def test_injected_context_always_clears(self):
        plan = FaultPlan((FaultAction("store.read", "error", at=0),))
        with pytest.raises(RuntimeError):
            with faults.injected(plan):
                assert faults.active_plan() is plan
                raise RuntimeError("escape")
        assert faults.active_plan() is None

    def test_raise_if_raises_injected_fault(self):
        plan = FaultPlan((FaultAction("store.read", "error", at=0),))
        with faults.injected(plan):
            with pytest.raises(InjectedFault):
                faults.raise_if("store.read", "k")


class TestFaultPlan:
    def test_random_is_deterministic(self):
        assert FaultPlan.random(7) == FaultPlan.random(7)
        assert FaultPlan.random(7) != FaultPlan.random(8)

    def test_random_draws_only_valid_kinds(self):
        for seed in range(50):
            for action in FaultPlan.random(seed).actions:
                assert action.seam in SEAMS
                assert action.kind in SEAM_KINDS[action.seam]

    def test_random_rejects_unknown_seam(self):
        with pytest.raises(ReproError):
            FaultPlan.random(0, seams=("bogus",))

    def test_round_trips_through_dict(self):
        plan = FaultPlan.random(3)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_for_seam_filters(self):
        plan = FaultPlan(
            (
                FaultAction("pool.worker", "kill"),
                FaultAction("store.read", "error"),
            )
        )
        assert [a.seam for a in plan.for_seam("store.read")] == ["store.read"]


class TestPoolWorkerFaults:
    """Injected worker faults end in a rebuilt executor and unchanged artifacts."""

    NAMES = ["linear", "vanderpol"]

    @staticmethod
    def _strip(artifact) -> dict:
        from repro.corpus.fuzz import VOLATILE_FIELDS

        data = artifact.to_dict()
        for name in VOLATILE_FIELDS:
            data.pop(name, None)
        return data

    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_recovered_batch_matches_fault_free(self, kind, monkeypatch):
        import multiprocessing as mp

        from repro.api import run_batch
        from repro.resilience.chaos import _leaked_children
        from repro.resilience.supervisor import clear_incidents, incidents

        baseline = run_batch(self.NAMES, workers=2, seed=5, cache=False)
        before = {p.pid for p in mp.active_children()}
        # Short enough to keep the test quick, long enough for a healthy
        # chunk on a loaded machine.
        monkeypatch.setenv("REPRO_CHUNK_TIMEOUT", "5")
        clear_incidents()
        with faults.injected(FaultPlan((FaultAction("pool.worker", kind),))):
            faulted = run_batch(self.NAMES, workers=2, seed=5, cache=False)
            fired = faults.fired_faults()
        assert [f["kind"] for f in fired] == [kind]
        died = incidents("pool.worker_died")
        assert len(died) == 1 and len(incidents("pool.respawn")) == 1
        cause = "TimeoutError" if kind == "hang" else "BrokenProcessPool"
        assert cause in died[0]["detail"]
        assert [self._strip(a) for a in faulted] == [self._strip(a) for a in baseline]
        # The stopped or killed workers were reaped, not left behind (the
        # chaos gate's own audit, which polls: the executors' manager
        # threads reap their workers concurrently).
        assert not _leaked_children(frozenset(before), grace=10.0)
