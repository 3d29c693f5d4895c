"""Activation registry and semantics-coherence tests."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReproError
from repro.expr import evaluate, var
from repro.nn import (
    LINEAR,
    LOGSIG,
    RELU,
    TANSIG,
    available_activations,
    get_activation,
)


class TestRegistry:
    def test_matlab_aliases(self):
        assert get_activation("tansig") is TANSIG
        assert get_activation("tanh") is TANSIG
        assert get_activation("logsig") is LOGSIG
        assert get_activation("sigmoid") is LOGSIG
        assert get_activation("poslin") is RELU
        assert get_activation("purelin") is LINEAR

    def test_case_insensitive(self):
        assert get_activation("TanSig") is TANSIG

    def test_passthrough(self):
        assert get_activation(TANSIG) is TANSIG

    def test_unknown_raises(self):
        with pytest.raises(ReproError):
            get_activation("swish")

    def test_available(self):
        names = available_activations()
        assert "tansig" in names
        assert "linear" in names

    def test_smoothness_flags(self):
        assert TANSIG.smooth
        assert LOGSIG.smooth
        assert LINEAR.smooth
        assert not RELU.smooth


class TestSemanticCoherence:
    """numeric == symbolic, for each activation."""

    @pytest.mark.parametrize("act", [TANSIG, LOGSIG, RELU, LINEAR], ids=lambda a: a.name)
    def test_numeric_vs_symbolic(self, act, rng):
        xs = rng.uniform(-3.0, 3.0, size=25)
        x_var = var("x")
        sym = act.symbolic(x_var)
        for x in xs:
            numeric = float(act.numeric(np.array([x]))[0])
            symbolic = evaluate(sym, {"x": float(x)})
            assert numeric == pytest.approx(symbolic, rel=1e-12, abs=1e-12)

    def test_tansig_is_matlab_tansig(self):
        """tansig(v) = 2/(1+exp(-2v)) - 1 must equal tanh(v)."""
        v = np.linspace(-4, 4, 33)
        matlab = 2.0 / (1.0 + np.exp(-2.0 * v)) - 1.0
        assert np.allclose(TANSIG.numeric(v), matlab, atol=1e-14)

    def test_sigmoid_stable_at_extremes(self):
        out = LOGSIG.numeric(np.array([-800.0, 800.0]))
        assert out[0] == pytest.approx(0.0, abs=1e-300)
        assert out[1] == pytest.approx(1.0)
        assert np.all(np.isfinite(out))
