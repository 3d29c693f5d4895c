"""Public entry point: scenarios, families, pipeline, and runners.

The five-line quickstart::

    from repro import api

    artifact = api.run("dubins")
    print(artifact.status, artifact.level)
    print(artifact.to_json(indent=2))

Modules
-------
``repro.api.scenario``  :class:`Scenario` + the string-keyed registry
                        (pre-populated: ``dubins``, ``linear``,
                        ``double-integrator``, ``pendulum``,
                        ``bicycle``, ``cartpole``, ``vanderpol``)
``repro.api.family``    :class:`ScenarioFamily` — typed parameterized
                        scenario factories with grid/random samplers
``repro.api.pipeline``  :class:`VerificationPipeline` — the Figure-1
                        procedure with named, hookable stages
``repro.api.runner``    :func:`run` / :func:`run_batch` +
                        :class:`RunArtifact` (JSON round-trippable)
``repro.api.sweep``     :func:`sweep` — shard a family's parameter grid
                        across workers, skipping the artifact cache's
                        hits (:mod:`repro.store`)

The solver-stack registry of :mod:`repro.engine` (``native`` /
``batched-icp``) and the artifact store of :mod:`repro.store` are
re-exported here so one import serves
every registry::

    artifact = api.run("dubins", engine="batched-icp", cache=True)
    report = api.sweep("dubins", grid={"speed": "1:2:3"})
"""

from ..engine import (
    Engine,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
    unregister_engine,
)
from ..store import ArtifactStore, run_key
from .family import (
    ParamSpec,
    ScenarioFamily,
    family_names,
    get_family,
    list_families,
    parse_grid_values,
    parse_point_spec,
    register_family,
    unregister_family,
)
from .pipeline import (
    PIPELINE_STAGES,
    PipelineRun,
    StageEvent,
    VerificationPipeline,
)
from .pool import WarmPool, WarmupSpec, get_warm_pool, shutdown_warm_pool
from .runner import RunArtifact, derive_scenario_seed, run, run_batch
from .sweep import SweepReport, sweep
from .scenario import (
    EPSILON,
    GAMMA,
    SPEED,
    Scenario,
    case_study_controller,
    dubins_scenario,
    get_scenario,
    list_scenarios,
    paper_initial_set,
    paper_problem,
    paper_unsafe_set,
    register_scenario,
    scenario_names,
    synthesis_config_from_dict,
    synthesis_config_to_dict,
    unregister_scenario,
)

__all__ = [
    "EPSILON",
    "ArtifactStore",
    "Engine",
    "GAMMA",
    "PIPELINE_STAGES",
    "ParamSpec",
    "PipelineRun",
    "RunArtifact",
    "SPEED",
    "Scenario",
    "ScenarioFamily",
    "StageEvent",
    "SweepReport",
    "VerificationPipeline",
    "WarmPool",
    "WarmupSpec",
    "case_study_controller",
    "derive_scenario_seed",
    "dubins_scenario",
    "engine_names",
    "family_names",
    "get_engine",
    "get_family",
    "get_scenario",
    "get_warm_pool",
    "list_engines",
    "list_families",
    "list_scenarios",
    "paper_initial_set",
    "paper_problem",
    "paper_unsafe_set",
    "parse_grid_values",
    "parse_point_spec",
    "register_engine",
    "register_family",
    "register_scenario",
    "run",
    "run_batch",
    "run_key",
    "scenario_names",
    "shutdown_warm_pool",
    "sweep",
    "synthesis_config_from_dict",
    "synthesis_config_to_dict",
    "unregister_engine",
    "unregister_family",
    "unregister_scenario",
]
