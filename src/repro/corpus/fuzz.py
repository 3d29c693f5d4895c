"""Differential fuzzing over the scenario-family parameter space.

The harness samples parameter points across every registered family and
asserts, per point, the invariants the rest of the test suite checks
only at family defaults:

``cache-key``    the content-addressed store key is invariant under
                 parameter-dict reordering (canonicalisation holds)
``cross-engine`` ``native`` and ``batched-icp`` — two independent
                 δ-SAT searches — agree on the verdict
``round-trip``   ``RunArtifact`` JSON serialisation round-trips to an
                 identical artifact
``twin``         generated twins (:mod:`repro.corpus.twins`) conform to
                 their expected verdicts when the base point verifies

Every point gets a per-point seed derived from the run seed by name
(:func:`repro.api.derive_scenario_seed`), so a corpus run is
reproducible from ``--seed`` alone and any single point is replayable
in isolation.  On failure the harness *shrinks* the parameter point —
resetting parameters to family defaults and bisecting floats toward
them while the failure reproduces — and emits a machine-readable
reproducer the regression suite (``tests/corpus/test_regressions.py``)
replays forever.

Families tagged ``stress`` (cartpole, quadrotor) deliberately defeat
the quadratic template and carry heavy budgets; they get only the
cheap ``cache-key`` invariant so a corpus run stays minutes, not hours.

Two invariants get a short *deflake ladder* (retry under derived
seeds) because the synthesis procedure is incomplete and CEGIS paths
are seed-dependent at verify/no-candidate phase boundaries: cross-
engine *status* agreement, and preserving-twin conformance.  The
soundness-backed invariants — flipping-twin non-verification, cache
keys, JSON round-trips — are never retried: one miss is a failure.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from dataclasses import dataclass, field

from ..errors import ReproError

__all__ = [
    "CHECK_KINDS",
    "DEFAULT_ENGINES",
    "FUZZ_CLAMPS",
    "FuzzFailure",
    "FuzzReport",
    "CROSS_ENGINE_RETRY_SEEDS",
    "TWIN_RETRY_SEEDS",
    "VOLATILE_FIELDS",
    "check_point",
    "fuzz",
    "load_regressions",
    "replay_failure",
    "sample_corpus_point",
    "shrink_failure",
    "write_regression",
]

#: the invariants a point is checked against, in execution order
CHECK_KINDS = ("cache-key", "cross-engine", "round-trip", "twin")

#: engines every sampled point runs under
DEFAULT_ENGINES = ("native", "batched-icp")

#: artifact fields that cannot match across engines by construction
VOLATILE_FIELDS = frozenset(
    {
        "engine",
        "lp_seconds",
        "query_seconds",
        "generator_seconds",
        "other_seconds",
        "total_seconds",
        "stage_seconds",
    }
)

#: seeds tried before a non-verified *preserving* twin counts as a
#: failure (candidate fitting is seed-dependent; soundness is not)
TWIN_RETRY_SEEDS = 3

#: seeds tried before a cross-engine *status* disagreement counts as a
#: failure.  Native and batched stacks promise identical verdicts only
#: where CEGIS takes the same path; at a verify/no-candidate phase
#: boundary the engines' different witness orders can tip different
#: candidate sequences.  A systematically wrong engine disagrees at
#: every seed and is still caught.
CROSS_ENGINE_RETRY_SEEDS = 3

#: per-family bounds the fuzzer narrows sampling to (a 64-neuron
#: controller is a legitimate grid point but a terrible fuzz budget)
FUZZ_CLAMPS: "dict[str, dict[str, tuple[float, float]]]" = {
    "dubins": {"nn_width": (2, 16)},
    "dubins-nn": {"nn_width": (2, 16)},
}


@dataclass(frozen=True)
class FuzzFailure:
    """One falsified invariant, with everything needed to replay it."""

    #: which invariant broke (one of :data:`CHECK_KINDS`)
    kind: str
    #: family registry name
    family: str
    #: the (possibly shrunk) parameter point
    params: "dict[str, float | int | str]"
    #: the corpus run seed the per-point seed derives from
    seed: int
    #: engines the point ran under
    engines: "tuple[str, ...]"
    #: human-readable account of the mismatch
    detail: str
    #: twin mutation name when ``kind == "twin"``
    mutation: "str | None" = None
    #: True once :func:`shrink_failure` minimised the point
    shrunk: bool = False

    def digest(self) -> str:
        """Stable short id over (kind, family, params, seed)."""
        payload = json.dumps(
            {
                "kind": self.kind,
                "family": self.family,
                "params": dict(sorted(self.params.items())),
                "seed": self.seed,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:12]

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["engines"] = list(self.engines)
        data["digest"] = self.digest()
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzFailure":
        return cls(
            kind=data["kind"],
            family=data["family"],
            params=dict(data["params"]),
            seed=int(data["seed"]),
            engines=tuple(data["engines"]),
            detail=data.get("detail", ""),
            mutation=data.get("mutation"),
            shrunk=bool(data.get("shrunk", False)),
        )


@dataclass
class FuzzReport:
    """Outcome of one corpus run."""

    seed: int
    samples: int
    checked: int = 0
    skipped_stress: int = 0
    failures: "list[FuzzFailure]" = field(default_factory=list)
    #: regression files written (one per failure, when a dir was given)
    written: "list[str]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "checked": self.checked,
            "skipped_stress": self.skipped_stress,
            "ok": self.ok,
            "failures": [f.to_dict() for f in self.failures],
            "written": list(self.written),
        }

    def format(self) -> str:
        lines = [
            f"fuzz: {self.checked}/{self.samples} points checked "
            f"(seed {self.seed}, {self.skipped_stress} stress points "
            "on the cheap tier)"
        ]
        for failure in self.failures:
            params = ", ".join(
                f"{k}={v}" for k, v in sorted(failure.params.items())
            )
            suffix = f" mutation={failure.mutation}" if failure.mutation else ""
            lines.append(
                f"  FAIL [{failure.kind}] {failure.family}[{params}]"
                f"{suffix}: {failure.detail}"
            )
        for path in self.written:
            lines.append(f"  reproducer written: {path}")
        if self.ok:
            lines.append("  all invariants held")
        return "\n".join(lines)


def _point_config(scenario, run_seed: int):
    """The scenario's config with the per-point derived seed folded in."""
    from ..api.runner import derive_scenario_seed

    return dataclasses.replace(
        scenario.config, seed=derive_scenario_seed(run_seed, scenario.name)
    )


def check_point(
    family_name: str,
    params: "dict[str, float | int | str]",
    seed: int,
    engines: "tuple[str, ...]" = DEFAULT_ENGINES,
    twins: bool = True,
    kinds: "tuple[str, ...] | None" = None,
) -> "FuzzFailure | None":
    """Check every fuzz invariant at one parameter point.

    Returns the first falsified invariant as a :class:`FuzzFailure`, or
    ``None`` when the point holds.  ``kinds`` restricts the checks run
    (replay uses it to re-run exactly the failed invariant).  Families
    tagged ``stress`` only ever get the ``cache-key`` check.
    """
    from ..api import get_family, run
    from .twins import conforms, generate_twins

    family = get_family(family_name)
    active = kinds if kinds is not None else CHECK_KINDS
    for kind in active:
        if kind not in CHECK_KINDS:
            known = ", ".join(CHECK_KINDS)
            raise ReproError(f"unknown check kind {kind!r} (kinds: {known})")
    scenario = family.instantiate(**params)
    config = _point_config(scenario, seed)

    def fail(kind: str, detail: str, mutation: "str | None" = None):
        return FuzzFailure(
            kind=kind,
            family=family_name,
            params=dict(params),
            seed=seed,
            engines=tuple(engines),
            detail=detail,
            mutation=mutation,
        )

    if "cache-key" in active:
        from ..store import run_key

        reordered = family.instantiate(
            **dict(reversed(list(params.items())))
        )
        key = run_key(scenario, config, engines[0])
        key2 = run_key(reordered, config, engines[0])
        if key != key2:
            return fail(
                "cache-key",
                "store key depends on parameter-dict ordering: "
                f"{key[:16]}… != {key2[:16]}…",
            )

    if "stress" in family.tags:
        # heavy budgets / template-defeating by design: engine runs and
        # twins would dominate the corpus wall-clock for no signal
        return None

    needs_runs = {"cross-engine", "round-trip", "twin"} & set(active)
    if not needs_runs:
        return None

    from ..api.runner import derive_scenario_seed

    base_engine = "batched-icp" if "batched-icp" in engines else engines[0]
    if needs_runs == {"twin"}:
        # twin replay/shrink only ever consults the base engine
        engines_to_run: "tuple[str, ...]" = (base_engine,)
    else:
        engines_to_run = tuple(engines)

    attempts = (
        CROSS_ENGINE_RETRY_SEEDS
        if "cross-engine" in active and len(engines_to_run) > 1
        else 1
    )
    artifacts: dict = {}
    disagreement = None
    for attempt in range(attempts):
        attempt_config = config
        if attempt:
            attempt_config = dataclasses.replace(
                config,
                seed=derive_scenario_seed(
                    seed, f"{scenario.name}#retry{attempt}"
                ),
            )
        artifacts = {
            name: run(scenario, config=attempt_config, engine=name, cache=False)
            for name in engines_to_run
        }
        if "cross-engine" not in active:
            break
        statuses = {name: a.status for name, a in artifacts.items()}
        if len(set(statuses.values())) == 1:
            disagreement = None
            break
        disagreement = ", ".join(
            f"{name}={status}" for name, status in sorted(statuses.items())
        )
    if disagreement is not None:
        return fail(
            "cross-engine",
            f"verdicts disagree at {attempts} seeds: {disagreement}",
        )

    if "round-trip" in active:
        from ..api.runner import RunArtifact

        for name, artifact in artifacts.items():
            revived = RunArtifact.from_json(artifact.to_json())
            if revived.to_dict() != artifact.to_dict():
                return fail(
                    "round-trip",
                    f"JSON round-trip changed the {name} artifact",
                )

    if "twin" in active and twins:
        base = artifacts.get(base_engine)
        if base is not None and base.status == "verified":
            for twin in generate_twins(scenario):
                # Preserving twins assert a certificate *exists*; the
                # synthesis procedure is incomplete and its candidate
                # quality is seed-dependent, so a non-verified outcome
                # gets a short deflake ladder before counting as a
                # failure.  Flipping twins rest on soundness — a single
                # "verified" is a real bug, never retried away.
                retries = TWIN_RETRY_SEEDS if twin.preserving else 1
                artifact = None
                verdict: "bool | None" = False
                for attempt in range(retries):
                    twin_config = _point_config(twin.scenario, seed)
                    if attempt:
                        twin_config = dataclasses.replace(
                            twin_config,
                            seed=derive_scenario_seed(
                                seed, f"{twin.name}#retry{attempt}"
                            ),
                        )
                    artifact = run(
                        twin.scenario,
                        config=twin_config,
                        engine=base_engine,
                        cache=False,
                    )
                    verdict = conforms(twin, artifact.status)
                    if verdict is not False:
                        break
                if verdict is False and artifact is not None:
                    return fail(
                        "twin",
                        f"{twin.mutation} twin expected {twin.expected}, "
                        f"engine returned {artifact.status}",
                        mutation=twin.mutation,
                    )

    return None


def _same_failure(candidate: "FuzzFailure | None", original: FuzzFailure) -> bool:
    if candidate is None:
        return False
    if candidate.kind != original.kind:
        return False
    return candidate.mutation == original.mutation or original.kind != "twin"


def shrink_failure(
    failure: FuzzFailure,
    max_bisections: int = 6,
) -> FuzzFailure:
    """Minimise a failing point while the same invariant keeps failing.

    Two passes: reset each parameter to its family default outright,
    then bisect the surviving floats toward their defaults.  Every
    candidate point is re-checked with only the failed invariant's
    kind, so shrinking costs a handful of runs, not full corpus sweeps.
    """
    from ..api import get_family

    family = get_family(failure.family)
    defaults = {spec.name: spec.default for spec in family.parameters}
    params = dict(failure.params)
    kinds = (failure.kind,)

    def still_fails(candidate_params: dict) -> bool:
        candidate = check_point(
            failure.family,
            candidate_params,
            failure.seed,
            engines=failure.engines,
            twins=failure.kind == "twin",
            kinds=kinds,
        )
        return _same_failure(candidate, failure)

    for name in list(params):
        if name not in defaults or params[name] == defaults[name]:
            continue
        trial = {**params, name: defaults[name]}
        if still_fails(trial):
            params = trial

    for spec in family.parameters:
        name = spec.name
        if spec.kind != "float" or name not in params:
            continue
        target = defaults.get(name)
        if target is None or params[name] == target:
            continue
        for _ in range(max_bisections):
            midpoint = (float(params[name]) + float(target)) / 2.0
            trial = {**params, name: midpoint}
            if not still_fails(trial):
                break
            params = trial

    return dataclasses.replace(failure, params=params, shrunk=True)


def write_regression(
    failure: FuzzFailure, directory: "str | pathlib.Path"
) -> pathlib.Path:
    """Persist one failure as a replayable JSON reproducer."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{failure.family}-{failure.kind}-{failure.digest()}.json"
    path.write_text(json.dumps(failure.to_dict(), indent=2, sort_keys=True))
    return path


def load_regressions(
    directory: "str | pathlib.Path",
) -> "list[tuple[pathlib.Path, FuzzFailure]]":
    """Read every checked-in reproducer (sorted, empty-dir safe)."""
    directory = pathlib.Path(directory)
    if not directory.is_dir():
        return []
    out = []
    for path in sorted(directory.glob("*.json")):
        out.append((path, FuzzFailure.from_dict(json.loads(path.read_text()))))
    return out


def replay_failure(failure: "FuzzFailure | dict") -> "FuzzFailure | None":
    """Re-run exactly the invariant a reproducer captured.

    Returns ``None`` when the invariant now holds (the bug is fixed or
    the reproducer is stale) and the fresh :class:`FuzzFailure` when it
    still reproduces.
    """
    if isinstance(failure, dict):
        failure = FuzzFailure.from_dict(failure)
    return check_point(
        failure.family,
        failure.params,
        failure.seed,
        engines=failure.engines,
        twins=failure.kind == "twin",
        kinds=(failure.kind,),
    )


def _clamped(family, point: dict) -> dict:
    clamps = FUZZ_CLAMPS.get(family.name, {})
    for name, (low, high) in clamps.items():
        if name in point:
            spec = family.spec(name)
            clipped = min(max(point[name], low), high)
            point[name] = spec.coerce(clipped)
    return point


def sample_corpus_point(
    family_name: str, index: int, seed: int
) -> "dict[str, float | int | str]":
    """One clamped, reproducible corpus parameter point.

    The sampling rule the fuzz campaign uses for point ``index`` of a
    run with ``seed`` — exported so the chaos harness walks the exact
    same corpus the differential fuzzer does.
    """
    from ..api import get_family
    from ..api.runner import derive_scenario_seed

    family = get_family(family_name)
    point_seed = derive_scenario_seed(seed, f"{family.name}#{index}")
    return _clamped(family, family.sample(1, seed=point_seed)[0])


def fuzz(
    samples: int = 50,
    seed: int = 0,
    families: "tuple[str, ...] | None" = None,
    engines: "tuple[str, ...]" = DEFAULT_ENGINES,
    twins: bool = True,
    shrink: bool = True,
    regressions_dir: "str | pathlib.Path | None" = None,
    progress=None,
) -> FuzzReport:
    """Run a differential fuzz campaign over the family registry.

    Points rotate round-robin across ``families`` (default: every
    registered family); each point samples its parameters with a seed
    derived from ``seed`` and the point's position, so campaigns are
    reproducible and individual points replay in isolation.  Failures
    are shrunk (unless ``shrink=False``) and written as reproducers
    under ``regressions_dir`` when one is given.
    """
    from ..api import family_names, get_family

    if samples < 1:
        raise ReproError("need at least one sample")
    names = tuple(families) if families else family_names()
    loaded = [get_family(name) for name in names]
    report = FuzzReport(seed=seed, samples=samples)
    for index in range(samples):
        family = loaded[index % len(loaded)]
        point = sample_corpus_point(family.name, index, seed)
        if progress is not None:
            params = ", ".join(f"{k}={v}" for k, v in sorted(point.items()))
            progress(f"[{index + 1}/{samples}] {family.name}[{params}]")
        failure = check_point(
            family.name, point, seed, engines=engines, twins=twins
        )
        report.checked += 1
        if "stress" in family.tags:
            report.skipped_stress += 1
        if failure is None:
            continue
        if shrink:
            if progress is not None:
                progress(f"  FAIL [{failure.kind}] — shrinking…")
            failure = shrink_failure(failure)
        report.failures.append(failure)
        if regressions_dir is not None:
            path = write_regression(failure, regressions_dir)
            report.written.append(str(path))
    return report
