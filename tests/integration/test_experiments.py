"""Experiment-driver tests (small parameterizations of the bench code)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    PAPER_NEURON_COUNTS,
    ellipse_boundary_points,
    format_ablation,
    format_figure4,
    format_figure5,
    format_table1,
    render_ascii,
    run_delta_sweep,
    run_figure4,
    run_figure5,
    run_table1,
    run_trace_count_sweep,
)
from repro.experiments.table1 import _width_sweep_controller
from repro.expr import compile_expression, var
from repro.learning import proportional_controller_network


class TestTable1Driver:
    def test_paper_neuron_counts(self):
        assert PAPER_NEURON_COUNTS == (10, 20, 40, 50, 70, 80, 90, 100, 300, 500, 700, 1000)

    def test_small_run(self):
        rows = run_table1(neuron_counts=(4, 8), seeds=(0,))
        assert len(rows) == 2
        for row in rows:
            assert row.verified_fraction == 1.0
            assert row.avg_iterations >= 1.0
            assert row.total_seconds > 0.0
            assert row.query_seconds > 0.0

    @pytest.mark.parametrize("neurons", [2, 5, 10, 1000])
    def test_width_sweep_controller_keeps_the_gain_at_zero(self, neurons):
        hidden, output = _width_sweep_controller(neurons).layers
        ref_hidden, ref_output = proportional_controller_network(neurons).layers
        # tansig has slope 1 at 0, so the input gains are w2 @ w1
        assert np.allclose(
            output.weights @ hidden.weights,
            ref_output.weights @ ref_hidden.weights,
            rtol=1e-12,
            atol=0.0,
        )
        assert np.array_equal(hidden.biases, ref_hidden.biases)
        assert np.array_equal(output.biases, ref_output.biases)

    @pytest.mark.parametrize("neurons", [2, 5, 10, 1000])
    def test_width_sweep_controller_neurons_are_distinct(self, neurons):
        hidden, _ = _width_sweep_controller(neurons).layers
        rows = np.column_stack([hidden.weights, hidden.biases])
        assert len(np.unique(rows, axis=0)) == neurons
        # so a value-numbered tape keeps one tanh per neuron
        (output,) = _width_sweep_controller(neurons).symbolic_outputs(
            [var("d"), var("theta")]
        )
        tape = compile_expression(output, ["d", "theta"])
        assert sum(instr[0] == "tanh" for instr in tape.instructions) == neurons

    def test_format(self):
        rows = run_table1(neuron_counts=(4,), seeds=(0,))
        text = format_table1(rows)
        assert "Neurons" in text
        assert "4" in text


class TestFigure4Driver:
    def test_small_run_improves(self):
        data = run_figure4(
            hidden_neurons=4,
            seed=0,
            population_size=10,
            max_iterations=8,
            snapshot_iterations=(3,),
            steps=200,
            dt=0.6,
        )
        assert len(data.panels) >= 3  # initial, snapshot(s), final
        first, last = data.panels[0], data.panels[-1]
        # Headline claim of Figure 4: training improves tracking.
        assert last.cost < first.cost
        assert last.mean_abs_distance_error < first.mean_abs_distance_error
        # Cost history is monotone non-increasing (best-so-far).
        hist = data.cost_history
        assert all(a >= b for a, b in zip(hist, hist[1:]))

    def test_format(self):
        data = run_figure4(
            hidden_neurons=4, seed=0, population_size=8, max_iterations=4,
            snapshot_iterations=(2,), steps=150, dt=0.6,
        )
        text = format_figure4(data)
        assert "random initial weights" in text
        assert "end of training" in text


class TestFigure5Driver:
    @pytest.fixture(scope="class")
    def data(self):
        return run_figure5(hidden_neurons=4, seed=0, num_trajectories=5)

    def test_claims(self, data):
        assert data.x0_corners_inside
        assert data.level_set_clear_of_unsafe

    def test_ellipse_on_level(self, data):
        cert = data.certificate
        w = cert.w_values(data.ellipse_boundary)
        assert np.allclose(w, cert.level, rtol=1e-6)

    def test_ellipse_boundary_count(self, data):
        assert ellipse_boundary_points(data.certificate, count=64).shape == (64, 2)

    def test_format_and_render(self, data):
        text = format_figure5(data)
        assert "barrier level" in text
        art = render_ascii(data)
        assert "@" in art
        assert "|" in art


class TestAblationDrivers:
    def test_delta_sweep(self):
        rows = run_delta_sweep(deltas=(1e-1, 1e-2), hidden_neurons=4)
        assert len(rows) == 2
        # The sweep's finding: δ too coarse cannot refute near-boundary
        # boxes (spurious δ-sat witnesses), so verification may fail;
        # fine δ verifies.  Every run must end in a defined state.
        assert rows[1].status == "verified"
        assert all(
            row.status in ("verified", "no-candidate", "inconclusive")
            for row in rows
        )
        text = format_ablation(rows, "delta sweep")
        assert "delta=0.1" in text

    def test_trace_count_sweep(self):
        rows = run_trace_count_sweep(trace_counts=(3, 10), hidden_neurons=4)
        assert len(rows) == 2
        # The sweep's finding: sparse simulation evidence can produce a
        # candidate whose level set fails; enough traces verify.
        assert rows[1].status == "verified"
        assert all(
            row.status in ("verified", "no-candidate", "no-level-set")
            for row in rows
        )
