"""The paper's verification procedure (Figure 1), end to end.

``verify_system`` runs:

1. **Seed simulations** ``Φs`` from random initial states in the domain.
2. **Solve LP** for a candidate generator function ``W``.
3. **Check (5)** — the Lie-derivative condition over ``D \\ X0``,
   falsify before prove: ``SCREEN_SAMPLES`` sampled points are tried
   first, and the best one is a δ-SAT witness when it satisfies the
   δ-weakened constraint; only otherwise does the SMT solver search.
   A δ-SAT witness becomes a counterexample: simulate ``Φf`` from it,
   add the trace to the constraint pool, re-solve the LP, repeat.
   The screen only ever answers δ-SAT, so every UNSAT — and so every
   proven certificate — still comes from the solver.
4. **Level set** — closed-form bounds, then SMT checks (6) & (7) with a
   binary search over the level on failure.
5. On success, halt with a proven :class:`BarrierCertificate`.

Every stage is timed into :class:`SynthesisReport` with exactly the
breakdown Table 1 reports (candidate iterations, LP seconds, SMT-query
seconds, other, total).

Every solver invocation — trace generation, LP fitting, δ-SAT checking —
goes through the backend protocols of :mod:`repro.engine`; which stack
runs is selected by the ``engine`` argument of :func:`verify_system`,
``"native"`` by default.
"""

from __future__ import annotations

import contextlib
import enum
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterator

import numpy as np

from ..errors import InfeasibleLPError, LevelSetError, SynthesisError
from ..sim import Trace, sample_uniform
from ..smt import IcpConfig, SmtResult, Subproblem, Verdict
from .certificate import (
    BarrierCertificate,
    VerificationProblem,
    condition5_subproblems,
    condition6_subproblems,
    condition7_subproblems,
)
from .levelset import level_bounds, quadratic_forms
from .lp import GeneratorCandidate, LpConfig, _unique_rows, points_from_traces
from .sets import Rectangle
from .templates import GeneratorTemplate, QuadraticTemplate

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from ..engine import Engine

__all__ = [
    "PIPELINE_STAGES",
    "SCREEN_SAMPLES",
    "StageEvent",
    "StageObserver",
    "SynthesisStatus",
    "SynthesisConfig",
    "SynthesisReport",
    "verify_system",
]

#: the named stages of the Figure-1 procedure, in execution order:
#: ``seed-sim`` (trace generation, incl. counterexample traces),
#: ``lp-fit`` (candidate generation), ``smt-check`` (check (5)),
#: ``level-set`` (level selection incl. checks (6)/(7)).
PIPELINE_STAGES = ("seed-sim", "lp-fit", "smt-check", "level-set")

#: sampled points tried on check (5) before the SMT solver (0 disables
#: the screen); a module constant, not a config field, so run keys and
#: configs do not depend on it
SCREEN_SAMPLES = 4096
#: rows x tape slots per generated-evaluator call: bounds the screen's
#: live intermediates at 8 MB even for thousand-neuron controllers
_SCREEN_CELLS = 1 << 20


@dataclass(frozen=True)
class StageEvent:
    """One boundary of a named pipeline stage.

    ``kind`` is ``"start"`` or ``"end"``; ``iteration`` is the candidate
    iteration the stage belongs to (0 for pre-loop work); ``seconds`` is
    the stage's elapsed wall time (end events only).
    """

    stage: str
    kind: str
    iteration: int = 0
    seconds: float = 0.0


#: callback receiving a :class:`StageEvent` at each stage boundary
StageObserver = Callable[[StageEvent], None]


class SynthesisStatus(enum.Enum):
    """Terminal state of the synthesis procedure."""

    VERIFIED = "verified"
    NO_CANDIDATE = "no-candidate"  # LP infeasible or CEX loop exhausted
    NO_LEVEL_SET = "no-level-set"  # no level passed checks (6)/(7)
    INCONCLUSIVE = "inconclusive"  # solver budget exhausted (UNKNOWN)


@dataclass
class SynthesisConfig:
    """All knobs of the Figure-1 procedure, with paper defaults.

    ``gamma`` is the Lie-derivative slack of Eq. (5); the paper uses
    ``1e-6``.  ``delta`` is the δ-SAT precision handed to the solver.
    """

    seed: int = 0
    num_seed_traces: int = 20
    trace_duration: float = 12.0
    trace_dt: float = 0.05
    integrator: str = "rk4"
    gamma: float = 1.0e-6
    max_candidate_iterations: int = 20
    max_levelset_iterations: int = 30
    #: fraction of the feasible level interval at which the search starts;
    #: 0.5 (the center) maximizes slack against δ-weakened failures of
    #: checks (6) and (7) simultaneously
    level_margin: float = 0.5
    lp: LpConfig = field(default_factory=LpConfig)
    icp: IcpConfig = field(default_factory=lambda: IcpConfig(delta=1e-3))
    #: also seed simulations from the initial set corners/center
    seed_from_initial_set: bool = True
    #: try an analytic Lyapunov candidate (linearization) before the
    #: simulation-guided LP; falls back silently if it fails check (5)
    try_lyapunov_first: bool = False

    def __post_init__(self) -> None:
        if self.gamma <= 0:
            raise SynthesisError("gamma must be positive")
        if self.num_seed_traces < 1:
            raise SynthesisError("need at least one seed trace")
        if not 0.0 < self.level_margin < 1.0:
            raise SynthesisError("level_margin must be in (0, 1)")


@dataclass
class SynthesisReport:
    """Outcome + the Table-1 timing columns."""

    status: SynthesisStatus
    certificate: BarrierCertificate | None
    candidate: GeneratorCandidate | None
    level: float | None
    #: iterations of the candidate loop (LP + check (5)); Table 1 col. 2
    candidate_iterations: int = 0
    levelset_iterations: int = 0
    #: cumulative seconds in LP solves; Table 1 "LP"
    lp_seconds: float = 0.0
    #: cumulative seconds in SMT check (5); Table 1 "Query"
    query_seconds: float = 0.0
    #: seconds spent finding the generator (LP + query loop); Table 1 col. 2
    generator_seconds: float = 0.0
    #: seconds in everything else (simulation, level set, checks 6-7)
    other_seconds: float = 0.0
    total_seconds: float = 0.0
    #: cumulative wall seconds per named pipeline stage (PIPELINE_STAGES)
    stage_seconds: dict[str, float] = field(default_factory=dict)
    traces_used: int = 0
    counterexamples: list[np.ndarray] = field(default_factory=list)
    #: how each counterexample was found: ``"sample"`` (the check-(5)
    #: screen) or ``"icp"`` (the SMT solver), parallel to counterexamples
    counterexample_via: list[str] = field(default_factory=list)
    #: final verdicts of the three conditions (None if never reached)
    final_check5: SmtResult | None = None
    final_check6: SmtResult | None = None
    final_check7: SmtResult | None = None

    @property
    def verified(self) -> bool:
        """True when a certificate was proven."""
        return self.status is SynthesisStatus.VERIFIED

    def table1_row(self) -> dict[str, float]:
        """The row format of the paper's Table 1."""
        return {
            "avg_iterations": float(self.candidate_iterations),
            "lp_seconds": self.lp_seconds,
            "query_seconds": self.query_seconds,
            "generator_seconds": self.generator_seconds,
            "other_seconds": self.other_seconds,
            "total_seconds": self.total_seconds,
        }


class _StageClock:
    """Times named stage regions, accumulating into the report and
    notifying the observer at each boundary."""

    def __init__(self, report: SynthesisReport, observer: StageObserver | None):
        self._report = report
        self._observer = observer

    @contextlib.contextmanager
    def __call__(self, stage: str, iteration: int = 0) -> Iterator[None]:
        if self._observer is not None:
            self._observer(StageEvent(stage, "start", iteration))
        t0 = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - t0
            seconds = self._report.stage_seconds
            seconds[stage] = seconds.get(stage, 0.0) + elapsed
            if self._observer is not None:
                self._observer(StageEvent(stage, "end", iteration, elapsed))


def verify_system(
    problem: VerificationProblem,
    template: GeneratorTemplate | None = None,
    config: SynthesisConfig | None = None,
    observer: StageObserver | None = None,
    engine: "str | Engine | None" = None,
) -> SynthesisReport:
    """Run the full Figure-1 procedure on a verification problem.

    ``observer`` (optional) receives a :class:`StageEvent` at the start
    and end of every named stage — the hook behind
    :class:`repro.api.VerificationPipeline`'s progress callbacks.

    ``engine`` (a registered name or :class:`~repro.engine.Engine`)
    selects the solver stack; None runs ``"native"``.
    """
    # Imported here: repro.engine's builtin backends wrap this package's
    # solvers, so a module-level import would be circular.
    from ..engine import resolve_engine

    config = config or SynthesisConfig()
    engine_obj = resolve_engine(engine)
    system = problem.system
    template = template or QuadraticTemplate(system.dimension)
    rng = np.random.default_rng(config.seed)
    t_start = time.perf_counter()

    report = SynthesisReport(
        status=SynthesisStatus.INCONCLUSIVE,
        certificate=None,
        candidate=None,
        level=None,
    )
    stage = _StageClock(report, observer)

    # ------------------------------------------------------------------
    # Stage 1: seed traces Φs.
    # ------------------------------------------------------------------
    with stage("seed-sim"):
        traces = _seed_traces(problem, config, rng, engine_obj)
    report.traces_used = len(traces)

    # ------------------------------------------------------------------
    # Stage 2-3: candidate loop (Solve LP <-> SMT check (5)).
    # ------------------------------------------------------------------
    candidate: GeneratorCandidate | None = None
    names = problem.state_names
    separation = (
        problem.initial_set.vertices(),
        _unsafe_boundary_samples(problem, config.lp.separation_samples),
    )
    generator_t0 = time.perf_counter()

    if config.try_lyapunov_first and isinstance(template, QuadraticTemplate):
        with stage("lp-fit"):
            candidate = _try_lyapunov_candidate(problem, config, report, engine_obj)
        if candidate is not None:
            report.generator_seconds = time.perf_counter() - generator_t0
            with stage("level-set"):
                level = _select_level(
                    candidate, problem, config, report, template, engine_obj
                )
            if level is not None:
                report.level = level
                report.status = SynthesisStatus.VERIFIED
                report.candidate = candidate
                report.certificate = BarrierCertificate(
                    candidate.expression,
                    level,
                    problem,
                    config.gamma,
                    template=template,
                    coefficients=candidate.coefficients,
                )
                _finalize(report, t_start, generator_t0)
                return report
            # Level-set selection failed analytically: fall back to the
            # simulation-guided loop below with a fresh report state.
            report.status = SynthesisStatus.INCONCLUSIVE
        candidate = None

    for iteration in range(1, config.max_candidate_iterations + 1):
        report.candidate_iterations = iteration
        with stage("lp-fit", iteration):
            points = points_from_traces(traces)
            lp_t0 = time.perf_counter()
            try:
                candidate = engine_obj.lp.fit(
                    template, points, system, config.lp, separation=separation
                )
            except InfeasibleLPError:
                report.lp_seconds += time.perf_counter() - lp_t0
                candidate = None
            else:
                report.lp_seconds += time.perf_counter() - lp_t0
        if candidate is None:
            report.status = SynthesisStatus.NO_CANDIDATE
            _finalize(report, t_start, generator_t0)
            return report

        with stage("smt-check", iteration):
            query_t0 = time.perf_counter()
            result5, via = _check_condition5(
                candidate, problem, config, engine_obj, iteration
            )
            report.query_seconds += time.perf_counter() - query_t0
        report.final_check5 = result5

        if result5.verdict is Verdict.UNSAT:
            break
        if result5.verdict is Verdict.UNKNOWN:
            report.status = SynthesisStatus.INCONCLUSIVE
            _finalize(report, t_start, generator_t0)
            return report
        # δ-SAT: counterexample -> new trace Φf -> refined LP.
        witness = result5.witness
        report.counterexamples.append(witness)
        report.counterexample_via.append(via)
        with stage("seed-sim", iteration):
            traces.append(_simulate_from(problem, witness, config, engine_obj))
        report.traces_used = len(traces)
        candidate = None
    else:
        report.status = SynthesisStatus.NO_CANDIDATE
        _finalize(report, t_start, generator_t0)
        return report
    generator_elapsed = time.perf_counter() - generator_t0
    report.generator_seconds = generator_elapsed

    # ------------------------------------------------------------------
    # Stage 4: level-set selection + checks (6) and (7).
    # ------------------------------------------------------------------
    with stage("level-set"):
        level = _select_level(
            candidate, problem, config, report, template, engine_obj
        )
    if level is None:
        _finalize(report, t_start, generator_t0)
        return report

    report.level = level
    report.status = SynthesisStatus.VERIFIED
    report.candidate = candidate
    report.certificate = BarrierCertificate(
        candidate.expression,
        level,
        problem,
        config.gamma,
        template=template if isinstance(template, QuadraticTemplate) else None,
        coefficients=candidate.coefficients,
    )
    _finalize(report, t_start, generator_t0)
    return report


# ----------------------------------------------------------------------
# Internals
# ----------------------------------------------------------------------
def _seed_traces(
    problem: VerificationProblem,
    config: SynthesisConfig,
    rng: np.random.Generator,
    engine: "Engine",
) -> list[Trace]:
    domain = problem.domain
    starts = [sample_uniform(domain.to_box(), config.num_seed_traces, rng)]
    if config.seed_from_initial_set:
        starts.append(problem.initial_set.vertices())
        starts.append(problem.initial_set.center()[None, :])
    initial_states = np.vstack(starts)

    return engine.sim.simulate(
        problem.system,
        initial_states,
        config.trace_duration,
        config.trace_dt,
        method=config.integrator,
        stop_condition=_DomainExit(domain.inflate(1e-9)),
    )


class _DomainExit:
    """Stop condition "the state left the (inflated) domain".

    Callable per-state like any ``stop_condition``; additionally exposes
    :meth:`batch` so batch simulators
    (:class:`~repro.engine.VectorizedSimBackend`) can test a whole
    ``(m, n)`` state block in one array pass instead of
    ``m`` Python calls per step — the dominant seed-sim overhead once
    integration itself is vectorized.
    """

    def __init__(self, rectangle: Rectangle):
        self._rectangle = rectangle
        self._lower = rectangle.lower
        self._upper = rectangle.upper

    def __call__(self, state: np.ndarray) -> bool:
        return not self._rectangle.contains(state)

    def batch(self, states: np.ndarray) -> np.ndarray:
        """Row-wise stop mask, identical to mapping ``__call__``.

        :meth:`Rectangle.contains_batch` without its argument coercion
        and per-call ``bound ± tol`` arrays: the bounds are the
        rectangle's own (``tol = 0``).
        """
        return ~((states >= self._lower) & (states <= self._upper)).all(axis=1)


def _try_lyapunov_candidate(
    problem: VerificationProblem,
    config: SynthesisConfig,
    report: SynthesisReport,
    engine: "Engine",
) -> GeneratorCandidate | None:
    """Analytic candidate from the linearization, gated by check (5).

    The Lyapunov equation's ``Q`` is shaped to the safe rectangle
    (``Q = diag(1 / half_width^2)``): an identity ``Q`` tends to produce
    ellipsoids elongated along the roomy axes, which poke through the
    tight ones before containing ``X0``.
    """
    from .lyapunov import lyapunov_candidate

    safe = problem.unsafe_set.safe_rectangle
    half_widths = 0.5 * (safe.upper - safe.lower)
    try:
        candidate = lyapunov_candidate(
            problem.system, q_matrix=np.diag(1.0 / half_widths**2)
        )
    except SynthesisError:
        return None
    query_t0 = time.perf_counter()
    result, _ = _check_condition5(candidate, problem, config, engine, iteration=0)
    report.query_seconds += time.perf_counter() - query_t0
    report.final_check5 = result
    if result.verdict is Verdict.UNSAT:
        return candidate
    return None


def _check_condition5(
    candidate: GeneratorCandidate,
    problem: VerificationProblem,
    config: SynthesisConfig,
    engine: "Engine",
    iteration: int,
) -> tuple[SmtResult, str]:
    """Check (5) for ``candidate``: the sampled screen, then the solver.

    Returns the verdict and which path produced it (``"sample"`` or
    ``"icp"``).
    """
    subproblems = condition5_subproblems(candidate.expression, problem, config.gamma)
    names = problem.state_names
    screened = _screen_condition5(subproblems, names, config, iteration)
    if screened is not None:
        return screened, "sample"
    return engine.smt.check(subproblems, names, config.icp), "icp"


def _screen_condition5(
    subproblems: list[Subproblem],
    names: list[str],
    config: SynthesisConfig,
    iteration: int,
) -> SmtResult | None:
    """Falsify before prove: a δ-SAT answer to check (5) from samples.

    Draws ``SCREEN_SAMPLES`` points over the subproblems' boxes
    (``D \\ X0``), each box's count in proportion to its volume and
    Latin-hypercube stratified inside the box, from a generator of its
    own seeded by ``(config.seed, iteration)`` — the synthesis generator
    is never touched.  ``∇W·f + γ`` is evaluated through the constraint
    tape's generated point function, and the point where it is largest
    is returned as a validated δ-SAT witness when it satisfies the
    constraint relaxed by δ: the same test ICP applies to its own
    witnesses, and δ-complete semantics allows a δ-SAT answer wherever
    the δ-weakened formula holds.  Otherwise returns None and the solver
    decides; the screen never answers UNSAT or UNKNOWN.
    """
    if SCREEN_SAMPLES <= 0 or not subproblems:
        return None
    # Every subproblem carries the one shared constraint ∇W·f + γ >= 0,
    # so the point with the most slack is the one with the largest value.
    (constraint,) = subproblems[0].constraints
    bounds = np.stack([sub.region.to_array() for sub in subproblems])
    lower, upper = bounds[:, :, 0], bounds[:, :, 1]
    volumes = np.prod(upper - lower, axis=1)
    total = volumes.sum()
    if not np.isfinite(total) or total <= 0.0:
        return None
    # Largest-remainder split: each box's volume share of the budget,
    # rounded so the counts sum to SCREEN_SAMPLES.
    quota = SCREEN_SAMPLES * volumes / total
    counts = np.floor(quota).astype(int)
    short = SCREEN_SAMPLES - int(counts.sum())
    counts[np.argsort(counts - quota, kind="stable")[:short]] += 1
    rng = np.random.default_rng((config.seed, iteration))
    points = np.vstack([
        lo + (hi - lo) * _latin_hypercube(rng, count, len(lo))
        for lo, hi, count in zip(lower, upper, counts)
    ])

    tape = constraint.compiled(names)
    evaluate = tape.point_function()
    rows = max(1, _SCREEN_CELLS // tape.n_slots)
    values = np.concatenate(
        [evaluate(points[i:i + rows]) for i in range(0, SCREEN_SAMPLES, rows)]
    )
    best = points[int(np.argmax(np.where(np.isnan(values), -np.inf, values)))].copy()
    delta = config.icp.delta
    if not constraint.satisfied_at(best, names, slack=delta):
        return None
    return SmtResult(Verdict.DELTA_SAT, delta, witness=best, witness_validated=True)


def _latin_hypercube(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """``count`` points in the unit cube whose every 1-D projection has
    exactly one point per ``1/count`` stratum: for a fixed budget they
    cover each axis more evenly than independent uniform draws."""
    strata = np.argsort(rng.random((count, n)), axis=0)
    return (strata + rng.random((count, n))) / count


def _unsafe_boundary_samples(
    problem: VerificationProblem, per_edge: int
) -> np.ndarray:
    """Grid samples of the unsafe boundary (the safe rectangle's edges).

    These feed the LP's separation constraints: the fitted ``W`` should
    exceed its X0-vertex values everywhere the level set must not reach.
    Adjacent facet grids share their edges and corners; each point is
    returned once, ``per_edge**n - (per_edge - 2)**n`` in all.
    """
    safe = problem.unsafe_set.safe_rectangle
    n = safe.dimension
    samples = []
    for axis in range(n):
        for bound in (safe.lower[axis], safe.upper[axis]):
            axes = []
            for other in range(n):
                if other == axis:
                    axes.append(np.array([bound]))
                else:
                    axes.append(
                        np.linspace(safe.lower[other], safe.upper[other], per_edge)
                    )
            mesh = np.meshgrid(*axes, indexing="ij")
            samples.append(np.stack([m.ravel() for m in mesh], axis=-1))
    return _unique_rows(np.vstack(samples))


def _simulate_from(
    problem: VerificationProblem,
    start: np.ndarray,
    config: SynthesisConfig,
    engine: "Engine",
) -> Trace:
    (trace,) = engine.sim.simulate(
        problem.system,
        np.asarray(start, dtype=float)[None, :],
        config.trace_duration,
        config.trace_dt,
        method=config.integrator,
        stop_condition=_DomainExit(problem.domain.inflate(1e-9)),
    )
    return trace


def _select_level(
    candidate: GeneratorCandidate,
    problem: VerificationProblem,
    config: SynthesisConfig,
    report: SynthesisReport,
    template: GeneratorTemplate,
    engine: "Engine",
) -> float | None:
    """Closed-form bounds, then SMT-confirmed binary search."""
    if not isinstance(template, QuadraticTemplate):
        report.status = SynthesisStatus.NO_LEVEL_SET
        return None
    try:
        l_lo, l_hi = level_bounds(
            template,
            candidate.coefficients,
            problem.initial_set,
            problem.unsafe_set.halfspaces(),
        )
    except LevelSetError:
        report.status = SynthesisStatus.NO_LEVEL_SET
        return None

    names = problem.state_names
    p_matrix, q_vector = quadratic_forms(template, candidate.coefficients)
    eigenvalues = np.linalg.eigvalsh(0.5 * (p_matrix + p_matrix.T))
    if eigenvalues.min() <= 0.0:
        report.status = SynthesisStatus.NO_LEVEL_SET
        return None

    # Start strictly inside the feasible interval; floating-point slack
    # makes the endpoints themselves fragile under δ-weakening.
    low, high = l_lo, l_hi
    margin = config.level_margin * (high - low)
    level = low + margin
    for _ in range(config.max_levelset_iterations):
        report.levelset_iterations += 1
        query_t0 = time.perf_counter()
        result6 = engine.smt.check(
            condition6_subproblems(candidate.expression, problem, level),
            names,
            config.icp,
        )
        result7_subs = condition7_subproblems(
            candidate.expression,
            problem,
            level,
            _bounding_rectangle(template, candidate, level),
        )
        if result7_subs:
            result7 = engine.smt.check(result7_subs, names, config.icp)
        else:
            result7 = SmtResult(Verdict.UNSAT, config.icp.delta)
        report.query_seconds += time.perf_counter() - query_t0
        report.final_check6 = result6
        report.final_check7 = result7

        if result6.is_unsat and result7.is_unsat:
            return level
        if result6.verdict is Verdict.UNKNOWN or result7.verdict is Verdict.UNKNOWN:
            report.status = SynthesisStatus.INCONCLUSIVE
            return None
        if not result6.is_unsat:
            low = level  # level too small: X0 escapes
        if not result7.is_unsat:
            high = level  # level too large: touches U
        if high - low < 1e-12 * max(1.0, abs(high)):
            break
        level = 0.5 * (low + high)
    report.status = SynthesisStatus.NO_LEVEL_SET
    return None


def _bounding_rectangle(
    template: QuadraticTemplate, candidate: GeneratorCandidate, level: float
) -> Rectangle:
    from .levelset import ellipsoid_bounding_rectangle

    p_matrix, q_vector = quadratic_forms(template, candidate.coefficients)
    return ellipsoid_bounding_rectangle(p_matrix, q_vector, level)


def _finalize(report: SynthesisReport, t_start: float, generator_t0: float) -> None:
    report.total_seconds = time.perf_counter() - t_start
    if report.generator_seconds == 0.0:
        report.generator_seconds = max(0.0, time.perf_counter() - generator_t0)
    report.other_seconds = max(
        0.0, report.total_seconds - report.lp_seconds - report.query_seconds
    )
