"""The corpus scenario families: registration, physics, verdicts."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro import api
from repro.api import family_names, get_family
from repro.corpus import CORPUS_FAMILY_NAMES
from repro.dynamics import (
    ackermann_plant,
    planar_quadrotor_plant,
    unicycle_plant,
)
from repro.errors import ReproError


def test_registry_grows_to_eleven_families():
    names = family_names()
    for name in CORPUS_FAMILY_NAMES:
        assert name in names
    assert len(names) >= 11


def test_families_lazy_load_without_importing_corpus():
    """`repro families` must see the corpus without an explicit import."""
    code = (
        "import sys\n"
        "from repro.api import family_names\n"
        "assert 'repro.corpus' not in sys.modules\n"
        "names = family_names()\n"
        "assert 'ackermann' in names and 'quadrotor' in names, names\n"
    )
    subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True
    )


def test_corpus_families_are_tagged():
    for name in CORPUS_FAMILY_NAMES:
        assert "corpus" in get_family(name).tags


def test_stress_families_are_marked():
    assert "stress" in get_family("quadrotor").tags


@pytest.mark.parametrize(
    "name, level",
    [
        ("ackermann", 0.18059453719704577),
        ("unicycle", 0.3713608146735929),
        ("dubins-nn", 1.392972723648998),
        ("vanderpol", 0.31978277489787965),
        ("double-integrator", 0.9701283987097021),
    ],
)
def test_default_points_verify(name, level):
    artifact = api.run(
        get_family(name).instantiate(), engine="batched-icp", cache=False
    )
    assert artifact.status == "verified"
    assert artifact.level == pytest.approx(level, rel=1e-9)


def test_quadrotor_default_is_a_fast_honest_failure():
    """The saturated gravity cascade defeats the quadratic template —
    shipped as a stress family with a capped budget, so the corpus keeps
    a deterministic non-verifying point without burning minutes."""
    artifact = api.run(
        get_family("quadrotor").instantiate(), engine="batched-icp", cache=False
    )
    assert artifact.status == "no-candidate"


def test_dubins_nn_logsig_matches_tansig_exactly():
    """2*sigma(2x) - 1 == tanh(x): both activations encode the *same*
    controller, so the synthesized level must agree.

    Exactly in the mathematical sense, not bit for bit: the two
    activations round differently in floating point, and the LP may
    carry that round-off into the last bits of the level, so the levels
    are compared within a few ulps."""
    levels = {}
    for activation in ("tansig", "logsig"):
        scenario = get_family("dubins-nn").instantiate(activation=activation)
        artifact = api.run(scenario, engine="batched-icp", cache=False)
        assert artifact.status == "verified"
        levels[activation] = artifact.level
    np.testing.assert_array_max_ulp(levels["tansig"], levels["logsig"], maxulp=4)


def test_dubins_nn_width_sweep_verifies():
    for width in (2, 6):
        artifact = api.run(
            get_family("dubins-nn").instantiate(nn_width=width),
            engine="batched-icp",
            cache=False,
        )
        assert artifact.status == "verified", (width, artifact.status)


def test_corpus_systems_have_vectorized_forms():
    """Every family's closed loop must offer a batch path (all engines)."""
    for name in CORPUS_FAMILY_NAMES:
        system = get_family(name).instantiate().system_factory()
        points = np.zeros((4, system.dimension)) + 0.05
        batch = system.f_vectorized(points)
        assert batch.shape == points.shape
        np.testing.assert_allclose(batch[0], system.f(points[0]))


@pytest.mark.parametrize(
    "factory, kwargs, match",
    [
        (ackermann_plant, {"speed": 0.0}, "speed and wheelbase"),
        (ackermann_plant, {"wheelbase": -1.0}, "speed and wheelbase"),
        (ackermann_plant, {"track": 3.0, "wheelbase": 1.0}, "track"),
        (unicycle_plant, {"speed": -0.5}, "speed and corridor"),
        (unicycle_plant, {"field_gain": -0.1}, "field_gain"),
        (unicycle_plant, {"field_sharpness": 0.0}, "field_gain"),
        (planar_quadrotor_plant, {"inertia": 0.0}, "inertia"),
    ],
)
def test_plant_parameter_validation(factory, kwargs, match):
    with pytest.raises(ReproError, match=match):
        factory(**kwargs)


def test_ackermann_rational_steering_correction():
    """The track-width term divides by 1 + (track/2L)·tan(delta); the
    plant field must match the hand formula at a few states."""
    from repro.expr import evaluate

    speed, wheelbase, track = 1.2, 1.5, 0.9
    plant = ackermann_plant(speed=speed, wheelbase=wheelbase, track=track)
    for epsi, delta in [(0.1, 0.2), (-0.3, -0.1), (0.0, 0.35)]:
        env = {"ey": 0.4, "epsi": epsi, "delta": delta}
        expected = (
            (speed / wheelbase)
            * np.tan(delta)
            / (1.0 + track / (2.0 * wheelbase) * np.tan(delta))
        )
        assert evaluate(plant.field_exprs[0], env) == pytest.approx(
            speed * np.sin(epsi)
        )
        assert evaluate(plant.field_exprs[1], env) == pytest.approx(expected)
