"""Engine degradation ladder: step down instead of failing the run.

Some execution machinery can break without the problem being at fault
— ``portfolio`` races external solver subprocesses, and a backend may
run its work on a process pool.  When that machinery breaks
*unrecoverably* (the process pool is gone), the run itself is still
perfectly solvable: every rung of the ladder computes the same
verdicts, just slower.  :func:`run_with_degradation` walks

    ``portfolio → batched-icp → native``

(``batched-icp`` is the portfolio's documented no-binaries degrade
target) re-running on the next rung.  The determinism contract
is deliberately blunt: a degraded run **re-executes from scratch on the
fallback engine**, so its artifact is byte-identical to having requested
that engine directly — no partial results are stitched together, and
the artifact never records that degradation happened.  Degradation is
operational metadata and lives in the incident log
(:func:`~repro.resilience.incidents` kind ``engine.degrade``) instead.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool
from typing import Callable, TypeVar

from .supervisor import record_incident

__all__ = ["DEGRADE_TO", "degradation_path", "fallback_engine", "run_with_degradation"]

T = TypeVar("T")

#: next rung down for each engine that can lose workers
DEGRADE_TO = {
    "portfolio": "batched-icp",
    "batched-icp": "native",
}

#: error types that mean "the execution machinery died", not "the
#: problem is unsolvable" — only these trigger a step down
_DEGRADABLE = (BrokenProcessPool,)


def fallback_engine(name: str) -> "str | None":
    """The next rung down from ``name``, or ``None`` at the bottom."""
    return DEGRADE_TO.get(name)


def degradation_path(name: str) -> "tuple[str, ...]":
    """``name`` followed by every rung below it, in order."""
    path = [name]
    while True:
        nxt = DEGRADE_TO.get(path[-1])
        if nxt is None or nxt in path:
            return tuple(path)
        path.append(nxt)


def run_with_degradation(
    fn: "Callable[[str], T]",
    engine: str,
    detail: str = "",
) -> T:
    """Call ``fn(engine)``, stepping down the ladder on machinery loss.

    ``fn`` must be restartable from scratch with a different engine name
    (the runner's :func:`~repro.api.runner.run` is).  Each step down is
    recorded as an ``engine.degrade`` incident; errors that are not
    machinery loss — and machinery loss on the bottom rung — propagate
    unchanged.
    """
    current = engine
    while True:
        try:
            return fn(current)
        except _DEGRADABLE as exc:
            nxt = fallback_engine(current)
            if nxt is None:
                raise
            record_incident(
                "engine.degrade",
                f"{current} -> {nxt}: {type(exc).__name__}: {exc}"
                + (f" ({detail})" if detail else ""),
            )
            current = nxt
