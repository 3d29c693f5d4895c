"""Self-healing primitives: backoff schedules and the incident log.

Two small pieces shared by every supervised layer of the stack:

* :class:`Backoff` — a capped exponential retry schedule with
  deterministic decorrelated jitter (seeded per instance, so tests and
  chaos runs are replayable).
* The **incident log** — a bounded, process-global record of every
  recovery event (worker respawn, chunk retry, job retry).  Recovery
  accounting lives *here* and never inside run artifacts, which is
  what keeps a recovered run's artifact byte-identical to a
  fault-free one.
"""

from __future__ import annotations

import random
import threading
import time
from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "Backoff",
    "clear_incidents",
    "incidents",
    "record_incident",
]


@dataclass
class Backoff:
    """Capped exponential backoff with deterministic jitter.

    ``delay(attempt)`` is pure given the instance's seed: attempt ``n``
    waits ``min(cap, base * 2**n)`` scaled by a jitter factor drawn from
    ``[0.5, 1.0]``.  ``sleep(attempt)`` is the convenience that actually
    waits.
    """

    base: float = 0.05
    cap: float = 2.0
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def delay(self, attempt: int) -> float:
        raw = min(self.cap, self.base * (2.0 ** max(0, attempt)))
        return raw * (0.5 + 0.5 * self._rng.random())

    def sleep(self, attempt: int) -> float:
        d = self.delay(attempt)
        if d > 0:
            time.sleep(d)
        return d


@dataclass
class _IncidentLog:
    entries: "deque[dict]" = field(default_factory=lambda: deque(maxlen=512))
    lock: threading.Lock = field(default_factory=threading.Lock)


_INCIDENTS = _IncidentLog()


def record_incident(kind: str, detail: str = "") -> None:
    """Append a recovery event to the bounded process-global log."""
    with _INCIDENTS.lock:
        _INCIDENTS.entries.append(
            {"kind": kind, "detail": detail, "at": time.time()}
        )


def incidents(kind: "str | None" = None) -> "list[dict]":
    """Recorded incidents, oldest first, optionally filtered by kind."""
    with _INCIDENTS.lock:
        entries = list(_INCIDENTS.entries)
    if kind is not None:
        entries = [e for e in entries if e["kind"] == kind]
    return entries


def clear_incidents() -> None:
    with _INCIDENTS.lock:
        _INCIDENTS.entries.clear()
