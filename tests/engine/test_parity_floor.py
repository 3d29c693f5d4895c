"""Fast tier-1 cross-engine parity floor over all builtin scenarios.

Every builtin scenario runs under both builtin engines — ``native``
(scalar ICP with HC4 contraction) and ``batched-icp`` (structure-of-
arrays ICP without contraction) — and both must return the same
**status**: two independent searches reaching one verdict.

Cartpole uses a deterministic trim so the whole floor stays fast.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.api import get_scenario, scenario_names

#: the parity-floor matrix
ENGINES = ("native", "batched-icp")


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


@pytest.mark.parametrize("name", scenario_names())
def test_statuses_agree_across_the_matrix(name):
    statuses = {
        engine: api.run(
            name, config=_floor_config(name), engine=engine, cache=False
        ).status
        for engine in ENGINES
    }
    assert len(set(statuses.values())) == 1, statuses
