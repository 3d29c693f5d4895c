"""Deterministic fault-injection seams for the execution stack.

Every verdict-producing layer of the system has *seams*: named points
where the cooperative-environment assumption can break — a pool worker
can be OOM-killed or wedge, a store write or a journal append can
tear mid-line.  This module gives each seam a name
and a single cheap hook (:func:`fire`) the hot paths call; with no
:class:`FaultPlan` installed (the production default) the hook is one
``None`` check and nothing else, so the seam wiring is free and the
instrumented paths stay byte-identical to uninstrumented ones.

A :class:`FaultPlan` is a deterministic schedule: each
:class:`FaultAction` names a seam, a fault *kind*, and the hit index at
which it fires.  Plans install process-globally (forked children
inherit them), are reproducible from a seed via :func:`FaultPlan.random`,
and reset their hit counters on install — so a test or a ``repro
chaos`` run can replay the exact same failure at the exact same round,
forever.

Seam catalog (see ``docs/resilience.md`` for the recovery contract of
each):

========================= ============================================
``pool.worker``           warm-pool worker during a chunk dispatch
``store.read``            artifact store entry read
``store.write``           artifact store tmp-write → rename commit
``journal.append``        service job-journal record append
========================= ============================================

Fault kinds: ``kill`` (SIGKILL / hard exit), ``hang`` (unresponsive but
alive), ``garbage`` (syntactically broken bytes), ``torn`` (partial
write persisted), ``error`` (a raised :class:`~repro.errors.InjectedFault`).
Not every kind is meaningful at every seam; :data:`SEAM_KINDS` maps the
valid combinations and :meth:`FaultPlan.random` only ever draws from it.
"""

from __future__ import annotations

import contextlib
import random
import threading
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from ..errors import InjectedFault, ReproError

__all__ = [
    "SEAMS",
    "SEAM_KINDS",
    "FaultAction",
    "FaultPlan",
    "active_plan",
    "clear_plan",
    "fire",
    "fired_faults",
    "injected",
    "install_plan",
    "raise_if",
]

#: every named seam wired into the execution stack
SEAMS = (
    "pool.worker",
    "store.read",
    "store.write",
    "journal.append",
)

#: fault kinds that make sense at each seam (random plans draw from this)
SEAM_KINDS: "dict[str, tuple[str, ...]]" = {
    "pool.worker": ("kill", "hang"),
    "store.read": ("garbage", "error"),
    "store.write": ("torn", "error"),
    "journal.append": ("torn", "error"),
}

#: all fault kinds, in one place for validation
KINDS = ("kill", "hang", "garbage", "torn", "error")

@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: fire ``kind`` at hit ``at`` of ``seam``.

    ``at`` counts :func:`fire` calls on the seam (0-based) since the
    plan was installed; ``count`` consecutive hits fire, so a plan can
    model a persistently broken dependency (``count`` large) or a
    single transient blip (``count=1``, the default).
    """

    seam: str
    kind: str
    at: int = 0
    count: int = 1
    #: payload for ``garbage`` kinds (defaulted per seam when empty)
    payload: str = ""

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            known = ", ".join(SEAMS)
            raise ReproError(f"unknown fault seam {self.seam!r} (seams: {known})")
        if self.kind not in KINDS:
            known = ", ".join(KINDS)
            raise ReproError(f"unknown fault kind {self.kind!r} (kinds: {known})")
        if self.at < 0 or self.count < 1:
            raise ReproError(
                f"fault action needs at >= 0 and count >= 1, "
                f"got at={self.at} count={self.count}"
            )

    def to_dict(self) -> dict:
        return {
            "seam": self.seam,
            "kind": self.kind,
            "at": self.at,
            "count": self.count,
            "payload": self.payload,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultAction":
        return cls(
            seam=str(data["seam"]),
            kind=str(data["kind"]),
            at=int(data.get("at", 0) or 0),
            count=int(data.get("count", 1) or 1),
            payload=str(data.get("payload", "") or ""),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, replayable schedule of faults.

    Plans are immutable; the mutable state (per-seam hit counters, the
    fired-action log) lives module-globally and resets on every
    :func:`install_plan`, which is what makes a plan a pure function of
    its actions — installing the same plan twice injects the same
    faults at the same hits.
    """

    actions: "tuple[FaultAction, ...]" = ()
    #: free-text label carried into chaos accounting
    label: str = ""

    def for_seam(self, seam: str) -> "tuple[FaultAction, ...]":
        """The plan's actions targeting ``seam``."""
        return tuple(a for a in self.actions if a.seam == seam)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "actions": [a.to_dict() for a in self.actions],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultPlan":
        return cls(
            actions=tuple(
                FaultAction.from_dict(a) for a in data.get("actions", ())
            ),
            label=str(data.get("label", "") or ""),
        )

    @classmethod
    def random(
        cls,
        seed: int,
        seams: "Sequence[str] | None" = None,
        max_actions: int = 2,
        max_at: int = 3,
    ) -> "FaultPlan":
        """A seeded random schedule over ``seams`` (default: all).

        Draws 1..``max_actions`` actions, each with a seam-valid kind
        and a hit index in ``[0, max_at]`` — deterministic for a given
        seed, so chaos failures replay from the seed alone.
        """
        rng = random.Random(seed)
        pool = tuple(seams) if seams is not None else SEAMS
        for seam in pool:
            if seam not in SEAMS:
                known = ", ".join(SEAMS)
                raise ReproError(f"unknown fault seam {seam!r} (seams: {known})")
        actions = []
        for _ in range(rng.randint(1, max(1, max_actions))):
            seam = rng.choice(pool)
            kind = rng.choice(SEAM_KINDS[seam])
            actions.append(
                FaultAction(seam=seam, kind=kind, at=rng.randint(0, max_at))
            )
        return cls(actions=tuple(actions), label=f"random-{seed}")


@dataclass
class _SeamState:
    """Module-global mutable injection state (install-scoped)."""

    plan: "FaultPlan | None" = None
    hits: "dict[str, int]" = field(default_factory=dict)
    fired: "list[dict]" = field(default_factory=list)


_STATE = _SeamState()
_LOCK = threading.Lock()


def install_plan(plan: FaultPlan) -> None:
    """Activate ``plan`` process-wide, resetting counters and the log.

    Forked children inherit the active plan (and the counters as of the
    fork); spawned processes do not — the seam that matters in workers
    (``pool.worker``) is therefore fired from the *master* side, which
    keeps all counting in one process.
    """
    global _STATE
    with _LOCK:
        _STATE = _SeamState(plan=plan)


def clear_plan() -> None:
    """Deactivate fault injection (the production state)."""
    global _STATE
    with _LOCK:
        _STATE = _SeamState()


def active_plan() -> "FaultPlan | None":
    """The installed plan, or ``None`` (production default)."""
    return _STATE.plan


@contextlib.contextmanager
def injected(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Scoped installation: ``with injected(plan): ...`` always clears."""
    install_plan(plan)
    try:
        yield plan
    finally:
        clear_plan()


def fire(seam: str, detail: str = "") -> "FaultAction | None":
    """Called by instrumented code at a seam; returns the due action.

    The production fast path — no plan installed — is a single
    attribute read and ``None`` check, cheap enough for per-round hot
    paths.  With a plan active the seam's hit counter advances and the
    first action covering this hit is returned (and logged in
    :func:`fired_faults` for chaos accounting).
    """
    state = _STATE
    if state.plan is None:
        return None
    with _LOCK:
        if _STATE is not state:  # plan swapped under us
            return None
        hit = state.hits.get(seam, 0)
        state.hits[seam] = hit + 1
        for action in state.plan.actions:
            if action.seam == seam and action.at <= hit < action.at + action.count:
                state.fired.append(
                    {
                        "seam": seam,
                        "kind": action.kind,
                        "hit": hit,
                        "detail": detail,
                    }
                )
                return action
    return None


def raise_if(seam: str, detail: str = "") -> None:
    """Shorthand for seams whose only meaningful fault is ``error``."""
    action = fire(seam, detail)
    if action is not None and action.kind == "error":
        raise InjectedFault(f"injected {seam} failure ({detail or 'no detail'})")


def fired_faults() -> "list[dict]":
    """The log of actions fired since the last install (oldest first)."""
    with _LOCK:
        return list(_STATE.fired)
