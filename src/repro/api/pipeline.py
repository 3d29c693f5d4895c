"""The Figure-1 procedure as a named-stage pipeline.

:class:`VerificationPipeline` is a thin orchestrator over
:func:`repro.barrier.verify_system`: the numerical procedure is exactly
the paper's, but every named stage (``seed-sim``, ``lp-fit``,
``smt-check``, ``level-set``) is observable — per-stage wall timings are
collected into the result, and a progress callback fires at each stage
boundary, so long verifications can report liveness and batch drivers
can attribute cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..barrier import (
    PIPELINE_STAGES,
    StageEvent,
    SynthesisConfig,
    SynthesisReport,
    VerificationProblem,
    verify_system,
)
from ..barrier.templates import GeneratorTemplate

__all__ = ["PIPELINE_STAGES", "PipelineRun", "StageEvent", "VerificationPipeline"]

#: progress callback: invoked with every stage-boundary event
ProgressCallback = Callable[[StageEvent], None]


@dataclass
class PipelineRun:
    """Result of one pipeline execution: report + stage accounting."""

    report: SynthesisReport
    #: every stage event observed, in order
    events: list[StageEvent] = field(default_factory=list)

    @property
    def stage_seconds(self) -> dict[str, float]:
        """Cumulative wall seconds per stage name (from the report)."""
        return dict(self.report.stage_seconds)

    @property
    def verified(self) -> bool:
        """True when the run proved a certificate."""
        return self.report.verified

    @property
    def total_seconds(self) -> float:
        """Wall clock of the whole procedure."""
        return self.report.total_seconds

    @property
    def untracked_seconds(self) -> float:
        """Wall time outside any named stage (bookkeeping overhead)."""
        return max(0.0, self.total_seconds - sum(self.stage_seconds.values()))


class VerificationPipeline:
    """Hookable front end to the paper's synthesis procedure.

    Parameters
    ----------
    template:
        Generator template (default: quadratic in the system dimension).
    config:
        Synthesis knobs; defaults to the paper's.
    progress:
        Optional callback receiving a :class:`StageEvent` at the start
        and end of every stage.
    engine:
        Solver stack: a registered engine name or
        :class:`~repro.engine.Engine`; None runs ``"native"``.
    """

    #: stage names in execution order
    stages = PIPELINE_STAGES

    def __init__(
        self,
        template: GeneratorTemplate | None = None,
        config: SynthesisConfig | None = None,
        progress: ProgressCallback | None = None,
        engine: "str | object | None" = None,
    ):
        self.template = template
        self.config = config
        self.progress = progress
        self.engine = engine

    def run(self, problem: VerificationProblem) -> PipelineRun:
        """Execute all stages on a problem and return the traced run."""
        events: list[StageEvent] = []

        def observe(event: StageEvent) -> None:
            events.append(event)
            if self.progress is not None:
                self.progress(event)

        report = verify_system(
            problem,
            template=self.template,
            config=self.config,
            observer=observe,
            engine=self.engine,
        )
        return PipelineRun(report=report, events=events)
