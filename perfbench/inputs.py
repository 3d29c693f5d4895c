"""Deterministic benchmark inputs, generated from the workload seed.

Every input is a (scenario, synthesis config) pair pinned to the
``batched-icp`` engine.  Synthesis seeds come from
:func:`repro.api.derive_scenario_seed` applied to an index into a fixed
*seed pool* per input.  ``expected.json`` (written by ``calibrate.py``)
records the outcome -- terminal status and CEGIS iterations -- of every
pool entry.

The workload seed only selects pool entries whose outcome is their
pool's most common one.  So the correct status of every input is known
beforehand (a different status is a benchmark failure, not a new
baseline), and every seed asks for the same amount of work: which seeds
realise it changes, the number of LP solves and counterexamples does
not.  Without this, one synthesis seed that needs 20 CEGIS iterations
instead of 1 would move a run's latency more than any code change.
The price: no input takes the long counterexample-refinement path (20
LP refits ending ``no-candidate``), so the benchmark does not measure
it.

The program under test only ever sees the resulting scenarios and
configs.
"""

from __future__ import annotations

import dataclasses
import json
import random
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from repro import api
from repro.api import Scenario
from repro.barrier import SynthesisConfig

ENGINE = "batched-icp"
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: the six builtin 2-D scenarios that verify at their bundled config
VERIFY_2D_SCENARIOS = (
    "dubins", "linear", "double-integrator", "pendulum", "bicycle", "vanderpol",
)
#: pool indices drawn per 2-D scenario per workload seed; more inputs per
#: run keep the per-run latency quantiles steady across seeds
VERIFY_2D_SEEDS_PER_SCENARIO = 4

#: cartpole family points (pole_length, max_accel)
STRESS_4D_POINTS = ((0.5, 10.0), (0.35, 10.0), (0.75, 15.0))
#: processed-box budget per ICP solve; never the binding limit on these
#: points, but fixed so a verdict can never depend on an unbounded search
STRESS_4D_MAX_BOXES = 10_000
#: boundary samples per unsafe-facet edge.  The family default of 32
#: builds one LP row per (X0 vertex, boundary sample) pair -- 16 x 8 x 32^3
#: ~ 4.2M dense rows in 4-D -- which the kernel OOM-kills on an 8 GB host;
#: 12 samples already peak at ~700 MB, 8 at ~285 MB.
STRESS_4D_SEPARATION_SAMPLES = 8

#: the dubins sweep grid (nn_width x speed = 48 points)
SWEEP_GRID = {
    "nn_width": [4, 6, 8, 10, 12, 16],
    "speed": [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0],
}
SWEEP_WORKERS = 2


@dataclass(frozen=True)
class Input:
    """One benchmark input and the status it must end in."""

    label: str
    scenario: Scenario
    config: SynthesisConfig
    expected: str
    #: ICP boxes processed when ``expected.json`` was recorded (stress-4d)
    boxes: int | None = None


def load_expected() -> dict:
    """The recorded status table (see ``calibrate.py``)."""
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def verify_2d_candidate(name: str, index: int) -> tuple[Scenario, SynthesisConfig]:
    """Pool entry ``index`` of a 2-D builtin scenario."""
    scenario = api.get_scenario(name)
    seed = api.derive_scenario_seed(index, name)
    return scenario, dataclasses.replace(scenario.config, seed=seed)


def stress_4d_candidate(
    point: tuple[float, float], index: int
) -> tuple[Scenario, SynthesisConfig]:
    """Pool entry ``index`` of one cartpole family point.

    No wall-clock limit (``time_limit=None``): the family's 5 s budget
    would make verdicts depend on machine load.
    """
    pole_length, max_accel = point
    scenario = api.get_family("cartpole").instantiate(
        pole_length=pole_length, max_accel=max_accel
    )
    base = scenario.config
    config = dataclasses.replace(
        base,
        seed=api.derive_scenario_seed(index, scenario.name),
        icp=dataclasses.replace(
            base.icp, time_limit=None, max_boxes=STRESS_4D_MAX_BOXES
        ),
        lp=dataclasses.replace(
            base.lp, separation_samples=STRESS_4D_SEPARATION_SAMPLES
        ),
    )
    return scenario, config


def _modal(outcomes: list) -> tuple[list[int], str]:
    """Indices of the pool entries with the pool's most common
    ``(status, iterations)``, and that status."""
    mode = Counter(tuple(o[:2]) for o in outcomes).most_common(1)[0][0]
    return [i for i, o in enumerate(outcomes) if tuple(o[:2]) == mode], mode[0]


def verify_2d_inputs(seed: int, expected: dict) -> list[Input]:
    """Round-robin order over the scenarios."""
    rng = random.Random(seed)
    per_scenario = []
    for name in VERIFY_2D_SCENARIOS:
        eligible, status = _modal(expected["verify-2d"][name])
        chosen = sorted(rng.sample(eligible, VERIFY_2D_SEEDS_PER_SCENARIO))
        per_scenario.append((name, chosen, status))
    inputs = []
    for slot in range(VERIFY_2D_SEEDS_PER_SCENARIO):
        for name, chosen, status in per_scenario:
            scenario, config = verify_2d_candidate(name, chosen[slot])
            inputs.append(Input(f"{name}#{chosen[slot]}", scenario, config, status))
    return inputs


def stress_4d_inputs(seed: int, expected: dict) -> list[Input]:
    """One pool entry per cartpole point.

    Every stress entry ends the same way (two CEGIS iterations, then
    ``no-candidate``), but the ICP search behind it varies by a third
    between synthesis seeds; only entries in the middle half of their
    point's recorded box counts are eligible.
    """
    rng = random.Random(seed)
    inputs = []
    for point in STRESS_4D_POINTS:
        outcomes = expected["stress-4d"][point_key(point)]
        eligible, status = _modal(outcomes)
        eligible.sort(key=lambda i: outcomes[i][2])
        quarter = len(eligible) // 4
        index = rng.choice(eligible[quarter:len(eligible) - quarter])
        scenario, config = stress_4d_candidate(point, index)
        inputs.append(Input(f"{scenario.name}#{index}", scenario, config, status,
                            boxes=outcomes[index][2]))
    return inputs


def sweep_dubins_plan(seed: int, expected: dict) -> tuple[int, list[str]]:
    """The sweep seed (a pool index) and the expected status per grid point.

    Eligible sweep seeds give every grid point the most common per-point
    outcome.
    """
    table = expected["sweep-dubins"]
    mode = Counter(tuple(o) for row in table for o in row).most_common(1)[0][0]
    eligible = [i for i, row in enumerate(table) if all(tuple(o) == mode for o in row)]
    index = random.Random(seed).choice(eligible)
    return index, [mode[0]] * len(table[index])


def point_key(point: tuple[float, float]) -> str:
    """Table key of a cartpole point."""
    return f"{point[0]:g},{point[1]:g}"
