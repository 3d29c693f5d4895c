"""Per-stage latency profiling of scenario verification runs.

``repro profile <scenario>`` answers "where does the wall clock go?"
for one verification: per-pipeline-stage seconds (seed-sim / lp-fit /
smt-check / level-set), the LP-vs-SMT solver split, and — with
``compare=True`` — the same run with the kernel layer disabled, i.e.
the interpreted tape evaluators (bit-identical results, so the
comparison is pure speed).  Note the switch gates expression
evaluation only: the HC4 contractor's plan compilation is
unconditional, so "kernels off" on an HC4-heavy engine is *not* the
full pre-plan code path.

This is the measurement companion of :mod:`repro.perf.kernels`; the
machine-readable form feeds ``benchmarks/test_synthesis_micro.py``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .kernels import use_kernels

__all__ = ["ProfileReport", "format_profile", "profile_scenario"]

#: pipeline stage order for display (mirrors PIPELINE_STAGES)
_STAGE_ORDER = ("seed-sim", "lp-fit", "smt-check", "level-set")


@dataclass
class ProfileReport:
    """One profiled verification run (best wall clock over ``repeats``).

    ``baseline`` holds the kernels-disabled twin when the profile was
    taken with ``compare=True``.
    """

    scenario: str
    engine: str
    repeats: int
    kernels: bool
    status: str
    verified: bool
    total_seconds: float
    lp_seconds: float
    query_seconds: float
    other_seconds: float
    stage_seconds: dict[str, float] = field(default_factory=dict)
    baseline: "ProfileReport | None" = None

    def to_dict(self) -> dict:
        """JSON-ready view (baseline flattened recursively)."""
        data = {
            "scenario": self.scenario,
            "engine": self.engine,
            "repeats": self.repeats,
            "kernels": self.kernels,
            "status": self.status,
            "verified": self.verified,
            "total_seconds": self.total_seconds,
            "lp_seconds": self.lp_seconds,
            "query_seconds": self.query_seconds,
            "other_seconds": self.other_seconds,
            "stage_seconds": dict(self.stage_seconds),
        }
        if self.baseline is not None:
            data["baseline"] = self.baseline.to_dict()
        return data


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
    compare: bool = False,
    kernels: bool = True,
) -> ProfileReport:
    """Profile one scenario verify; optionally against the no-kernel path.

    Parameters
    ----------
    scenario:
        Registry name (or :class:`~repro.api.Scenario` object).
    engine:
        Solver stack for the run (default: the scenario's own choice).
    repeats:
        Runs per configuration; the fastest is reported (cold-cache
        effects like tape/kernel compilation wash out after the first).
    compare:
        Also run with the kernel layer disabled and attach it as
        ``baseline`` — the interpreted pre-kernel code path, bit-identical
        in results.
    kernels:
        Kernel switch for the primary run (default on).
    """

    def build(flag: bool) -> ProfileReport:
        with use_kernels(flag):
            elapsed, artifact = _best_run(scenario, engine, repeats)
        return ProfileReport(
            scenario=artifact.scenario,
            engine=artifact.engine,
            repeats=repeats,
            kernels=flag,
            status=artifact.status,
            verified=artifact.verified,
            total_seconds=elapsed,
            lp_seconds=artifact.lp_seconds,
            query_seconds=artifact.query_seconds,
            other_seconds=artifact.other_seconds,
            stage_seconds=dict(artifact.stage_seconds),
        )

    report = build(kernels)
    if compare:
        report.baseline = build(not kernels)
    return report


def format_profile(report: ProfileReport) -> str:
    """Human-readable latency table (the CLI's output)."""
    base = report.baseline
    lines = [
        f"profile {report.scenario!r} — engine {report.engine!r}, "
        f"kernels {'on' if report.kernels else 'off'} "
        f"(best of {report.repeats}): {report.status}"
    ]
    header = f"{'stage':<12} {'seconds':>9} {'share':>7}"
    if base is not None:
        # Label the comparison column by what the baseline actually ran
        # with (profiling with --no-kernels flips it to the kernel path).
        base_label = "kernels-on" if base.kernels else "no-kernel"
        header += f" {base_label:>10} {'speedup':>8}"
    lines.append(header)
    total = max(report.total_seconds, 1e-12)

    stages = [s for s in _STAGE_ORDER if s in report.stage_seconds]
    stages += sorted(set(report.stage_seconds) - set(_STAGE_ORDER))
    for stage in stages:
        seconds = report.stage_seconds[stage]
        row = f"{stage:<12} {seconds:>9.4f} {seconds / total:>6.0%}"
        if base is not None:
            other = base.stage_seconds.get(stage, 0.0)
            ratio = other / seconds if seconds > 0 else float("inf")
            row += f" {other:>10.4f} {ratio:>7.2f}x"
        lines.append(row)

    row = f"{'total':<12} {report.total_seconds:>9.4f} {'100%':>7}"
    if base is not None:
        ratio = (
            base.total_seconds / report.total_seconds
            if report.total_seconds > 0
            else float("inf")
        )
        row += f" {base.total_seconds:>10.4f} {ratio:>7.2f}x"
    lines.append(row)
    lines.append(
        f"solver split: LP {report.lp_seconds:.4f}s, "
        f"SMT {report.query_seconds:.4f}s, "
        f"other {report.other_seconds:.4f}s"
    )
    return "\n".join(lines)
