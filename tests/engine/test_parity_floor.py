"""Fast tier-1 cross-engine parity floor over all builtin scenarios.

Every builtin scenario runs under each builtin engine — native,
batched-icp, portfolio (degraded, no binaries) — and

* every engine returns the same **status**, and
* the exact-degrade pair (batched-icp / portfolio) returns the same
  **artifact** field-for-field (minus timing).

Cartpole uses a deterministic trim; each (scenario, engine) pair runs
exactly once via a module-level cache, so the whole floor costs one run
per cell.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.api import get_scenario, scenario_names
from repro.corpus.fuzz import VOLATILE_FIELDS

#: the parity-floor matrix
ENGINES = ("native", "batched-icp", "portfolio")

_cache: dict = {}


def _floor_config(name):
    """The scenario's config, with cartpole trimmed to a fast budget."""
    config = get_scenario(name).config
    if name == "cartpole":
        config = dataclasses.replace(
            config,
            num_seed_traces=2,
            trace_duration=1.0,
            max_candidate_iterations=1,
            max_levelset_iterations=1,
            lp=dataclasses.replace(
                config.lp, max_points=150, separation_samples=8
            ),
            icp=dataclasses.replace(
                config.icp, time_limit=None, max_boxes=5000
            ),
        )
    return config


def _artifact_dict(name, engine):
    key = (name, engine)
    if key not in _cache:
        artifact = api.run(
            name, config=_floor_config(name), engine=engine, cache=False
        )
        data = artifact.to_dict()
        for volatile in VOLATILE_FIELDS:
            data.pop(volatile, None)
        data["config"].pop("engine", None)
        _cache[key] = data
    return _cache[key]


@pytest.mark.parametrize("name", scenario_names())
def test_statuses_agree_across_the_matrix(name):
    statuses = {
        engine: _artifact_dict(name, engine)["status"] for engine in ENGINES
    }
    assert len(set(statuses.values())) == 1, statuses


@pytest.mark.parametrize("name", scenario_names())
def test_exact_degrade_trio_matches_field_for_field(name):
    assert _artifact_dict(name, "portfolio") == _artifact_dict(
        name, "batched-icp"
    ), f"portfolio diverged from batched-icp on {name}"
