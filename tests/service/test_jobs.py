"""Job state machine, spec round-trips, and journal replay."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.service import Job, JobJournal, JobSpec, JobState, new_job_id


def make_job(**kwargs) -> Job:
    defaults = dict(
        id=new_job_id(),
        spec=JobSpec(target="linear"),
        points=["linear[damping=0.5,rotation=1]"],
        params=[{"damping": 0.5, "rotation": 1.0}],
        keys=["ab" + "0" * 62],
        artifacts=[None],
    )
    defaults.update(kwargs)
    return Job(**defaults)


class TestStateMachine:
    def test_initial_state_is_queued(self):
        assert make_job().state is JobState.QUEUED

    @pytest.mark.parametrize(
        "target",
        [JobState.RUNNING, JobState.DONE, JobState.FAILED, JobState.CANCELLED],
    )
    def test_queued_can_reach_every_other_state(self, target):
        job = make_job()
        job.transition(target)
        assert job.state is target

    @pytest.mark.parametrize(
        "target", [JobState.DONE, JobState.FAILED, JobState.CANCELLED]
    )
    def test_running_terminal_transitions(self, target):
        job = make_job()
        job.transition(JobState.RUNNING)
        job.transition(target)
        assert job.state is target
        assert job.finished is not None

    def test_running_cannot_requeue(self):
        job = make_job()
        job.transition(JobState.RUNNING)
        with pytest.raises(ReproError, match="illegal transition"):
            job.transition(JobState.QUEUED)

    @pytest.mark.parametrize(
        "terminal", [JobState.DONE, JobState.FAILED, JobState.CANCELLED]
    )
    @pytest.mark.parametrize(
        "after", [JobState.QUEUED, JobState.RUNNING, JobState.DONE,
                  JobState.FAILED, JobState.CANCELLED],
    )
    def test_terminal_states_are_final(self, terminal, after):
        job = make_job()
        job.transition(terminal)
        if after is terminal:  # self-transition is a quiet no-op
            job.transition(after)
            assert job.state is terminal
        else:
            with pytest.raises(ReproError, match="illegal transition"):
                job.transition(after)

    def test_terminal_property(self):
        assert not JobState.QUEUED.terminal
        assert not JobState.RUNNING.terminal
        assert JobState.DONE.terminal
        assert JobState.FAILED.terminal
        assert JobState.CANCELLED.terminal

    def test_progress_counters(self):
        job = make_job(points=["a", "b"], params=[{}, {}],
                       keys=["ab" + "0" * 62, "cd" + "0" * 62],
                       artifacts=[None, None])
        assert job.total_points == 2
        assert job.done_points == 0
        assert not job.resolved


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec(
            target="dubins",
            grid={"speed": "1:2:2", "nn_width": [8, 10]},
            seed=7,
            engine="batched-icp",
        )
        again = JobSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.target == "dubins"
        assert again.grid == {"speed": "1:2:2", "nn_width": [8, 10]}
        assert again.seed == 7
        assert again.engine == "batched-icp"

    def test_needs_target(self):
        with pytest.raises(ReproError, match="target"):
            JobSpec(target="")

    def test_grid_and_samples_conflict(self):
        with pytest.raises(ReproError, match="not both"):
            JobSpec(target="linear", grid={"damping": "0.5"}, samples=3)

    def test_status_dict_is_json_ready(self):
        payload = json.dumps(make_job().status_dict())
        assert json.loads(payload)["state"] == "QUEUED"


class TestJournal:
    @pytest.fixture
    def journal(self, tmp_path):
        return JobJournal(tmp_path / "service" / "journal.jsonl")

    def test_replay_empty_journal(self, journal):
        assert journal.replay() == {}

    def test_submit_point_state_round_trip(self, journal):
        job = make_job()
        journal.record_submit(job)
        journal.record_point(job.id, 0, "verified", cached=False)
        journal.record_state(job.id, JobState.RUNNING)
        journal.record_state(job.id, JobState.DONE)
        replayed = journal.replay()
        assert set(replayed) == {job.id}
        again = replayed[job.id]
        assert again.state is JobState.DONE
        assert again.points == job.points
        assert again.keys == job.keys
        assert again.replayed_statuses == {0: "verified"}

    def test_cached_points_recovered(self, journal):
        job = make_job(points=["a", "b"], params=[{}, {}],
                       keys=["ab" + "0" * 62, "cd" + "0" * 62],
                       artifacts=[None, None])
        journal.record_submit(job)
        journal.record_point(job.id, 0, "verified", cached=True)
        journal.record_point(job.id, 1, "verified", cached=False)
        assert journal.replay()[job.id].cached_points == 1

    def test_duplicate_submit_resets_progress(self, journal):
        """Recovery resubmits unfinished jobs; replay keeps the latest."""
        job = make_job()
        journal.record_submit(job)
        journal.record_point(job.id, 0, "verified", cached=False)
        journal.record_submit(job)  # the restart's resubmission
        journal.record_state(job.id, JobState.RUNNING)
        replayed = journal.replay()[job.id]
        assert replayed.state is JobState.RUNNING
        assert replayed.replayed_statuses == {}

    def test_torn_final_line_is_skipped(self, journal):
        job = make_job()
        journal.record_submit(job)
        journal.record_state(job.id, JobState.DONE)
        with open(journal.path, "a", encoding="utf-8") as handle:
            handle.write('{"event": "state", "job": "tr')  # crash mid-append
        replayed = journal.replay()
        assert replayed[job.id].state is JobState.DONE

    def test_replayed_job_reports_full_progress(self, journal):
        """A recovered DONE job keeps lazy artifacts but must still
        report its journal-recorded done/verified counts."""
        job = make_job(points=["a", "b"], params=[{}, {}],
                       keys=["ab" + "0" * 62, "cd" + "0" * 62],
                       artifacts=[None, None])
        journal.record_submit(job)
        journal.record_point(job.id, 0, "verified", cached=True)
        journal.record_point(job.id, 1, "verified", cached=False)
        journal.record_state(job.id, JobState.DONE)
        replayed = journal.replay()[job.id]
        assert replayed.done_points == 2
        status = replayed.status_dict()
        assert status["done_points"] == 2
        assert status["verified_points"] == 2
        # Lazy artifacts never finalize a job a second time.
        assert not replayed.resolved

    def test_records_are_single_json_lines(self, journal):
        journal.record_submit(make_job())
        lines = journal.path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "submit"
