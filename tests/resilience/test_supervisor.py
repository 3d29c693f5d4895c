"""Backoff and the incident log."""

from __future__ import annotations

import pytest

from repro.resilience.supervisor import (
    Backoff,
    clear_incidents,
    incidents,
    record_incident,
)


@pytest.fixture(autouse=True)
def _clean_state():
    clear_incidents()
    yield
    clear_incidents()


class TestBackoff:
    def test_deterministic_per_seed(self):
        a = [Backoff(seed=5).delay(n) for n in range(4)]
        b = [Backoff(seed=5).delay(n) for n in range(4)]
        assert a == b

    def test_caps_and_jitters(self):
        backoff = Backoff(base=0.1, cap=0.4, seed=0)
        for attempt in range(8):
            delay = backoff.delay(attempt)
            raw = min(0.4, 0.1 * 2.0 ** attempt)
            assert 0.5 * raw <= delay <= raw


class TestRegistryAndIncidents:
    def test_incident_log_is_bounded(self):
        for i in range(600):
            record_incident("test.flood", str(i))
        entries = incidents("test.flood")
        assert len(entries) == 512
        assert entries[-1]["detail"] == "599"

    def test_incident_filter(self):
        record_incident("a.one")
        record_incident("b.two")
        assert [e["kind"] for e in incidents("a.one")] == ["a.one"]
