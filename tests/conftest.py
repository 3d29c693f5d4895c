"""Shared fixtures and hypothesis settings for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# Keep hypothesis deterministic and CI-friendly.
settings.register_profile(
    "ci",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("ci")


@pytest.fixture
def rng() -> np.random.Generator:
    """A fixed-seed generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def paper_sets():
    """(X0, U, safe_rect) of the paper's Section 4.3."""
    from repro.barrier import Rectangle, RectangleComplement

    eps = 0.1
    x0 = Rectangle([-1.0, -math.pi / 16], [1.0, math.pi / 16])
    safe = Rectangle([-5.0, -(math.pi / 2 - eps)], [5.0, math.pi / 2 - eps])
    return x0, RectangleComplement(safe), safe


@pytest.fixture(scope="session")
def small_controller():
    """Deterministic 4-neuron stabilizing controller (session-cached)."""
    from repro.learning import proportional_controller_network

    return proportional_controller_network(4)


@pytest.fixture(scope="session")
def small_system(small_controller):
    """Closed-loop error dynamics for the small controller."""
    from repro.dynamics import error_dynamics_system

    return error_dynamics_system(small_controller)


@pytest.fixture(scope="session")
def node_identity_tape():
    """The tape flattening before value numbering, as a reference class.

    One slot per expression node object, so a subterm built twice is
    evaluated twice, and no constant operand is singled out: every
    ``mul`` takes the four-product rule.  Value-numbered tapes must
    match it bit for bit.
    """
    from repro.expr import CompiledExpression
    from repro.expr.node import postorder

    class NodeIdentityTape(CompiledExpression):
        def _build(self, root) -> None:
            slots: dict[int, int] = {}
            order = postorder(root)
            for node in order:
                slot = len(slots)
                slots[id(node)] = slot
                instr = self._instruction(node, slots)
                self._tape.append((instr[0], slot, *instr[1:]))
            self._n_slots = self._n_nodes = len(order)
            self._result_slot = slots[id(root)]

    return NodeIdentityTape
