"""Per-stage latency profiling of scenario verification runs.

``repro profile <scenario>`` answers "where does the wall clock go?"
for one verification: per-pipeline-stage seconds (seed-sim / lp-fit /
smt-check / level-set) and the LP-vs-SMT solver split.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

__all__ = ["ProfileReport", "format_profile", "profile_scenario"]

#: pipeline stage order for display (mirrors PIPELINE_STAGES)
_STAGE_ORDER = ("seed-sim", "lp-fit", "smt-check", "level-set")


@dataclass
class ProfileReport:
    """One profiled verification run (best wall clock over ``repeats``)."""

    scenario: str
    engine: str
    repeats: int
    status: str
    verified: bool
    total_seconds: float
    lp_seconds: float
    query_seconds: float
    other_seconds: float
    stage_seconds: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready view."""
        return {
            "scenario": self.scenario,
            "engine": self.engine,
            "repeats": self.repeats,
            "status": self.status,
            "verified": self.verified,
            "total_seconds": self.total_seconds,
            "lp_seconds": self.lp_seconds,
            "query_seconds": self.query_seconds,
            "other_seconds": self.other_seconds,
            "stage_seconds": dict(self.stage_seconds),
        }


def _profile_once(scenario, engine) -> tuple[float, "object"]:
    from ..api import run

    t0 = time.perf_counter()
    artifact = run(scenario, engine=engine, cache=False)
    return time.perf_counter() - t0, artifact


def _best_run(scenario, engine, repeats: int) -> tuple[float, "object"]:
    best_elapsed = float("inf")
    best_artifact = None
    for _ in range(max(1, repeats)):
        elapsed, artifact = _profile_once(scenario, engine)
        if elapsed < best_elapsed:
            best_elapsed, best_artifact = elapsed, artifact
    return best_elapsed, best_artifact


def profile_scenario(
    scenario: "str | object",
    engine: "str | None" = None,
    repeats: int = 3,
) -> ProfileReport:
    """Profile one scenario verify.

    Parameters
    ----------
    scenario:
        Registry name (or :class:`~repro.api.Scenario` object).
    engine:
        Solver stack for the run (default: the scenario's own choice).
    repeats:
        Runs of the scenario; the fastest is reported (cold-cache
        effects like tape compilation wash out after the first).
    """
    elapsed, artifact = _best_run(scenario, engine, repeats)
    return ProfileReport(
        scenario=artifact.scenario,
        engine=artifact.engine,
        repeats=repeats,
        status=artifact.status,
        verified=artifact.verified,
        total_seconds=elapsed,
        lp_seconds=artifact.lp_seconds,
        query_seconds=artifact.query_seconds,
        other_seconds=artifact.other_seconds,
        stage_seconds=dict(artifact.stage_seconds),
    )


def format_profile(report: ProfileReport) -> str:
    """Human-readable latency table (the CLI's output)."""
    lines = [
        f"profile {report.scenario!r} — engine {report.engine!r} "
        f"(best of {report.repeats}): {report.status}",
        f"{'stage':<12} {'seconds':>9} {'share':>7}",
    ]
    total = max(report.total_seconds, 1e-12)

    stages = [s for s in _STAGE_ORDER if s in report.stage_seconds]
    stages += sorted(set(report.stage_seconds) - set(_STAGE_ORDER))
    for stage in stages:
        seconds = report.stage_seconds[stage]
        lines.append(f"{stage:<12} {seconds:>9.4f} {seconds / total:>6.0%}")

    lines.append(f"{'total':<12} {report.total_seconds:>9.4f} {'100%':>7}")
    lines.append(
        f"solver split: LP {report.lp_seconds:.4f}s, "
        f"SMT {report.query_seconds:.4f}s, "
        f"other {report.other_seconds:.4f}s"
    )
    return "\n".join(lines)
