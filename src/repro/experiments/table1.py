"""Table 1 — timing analysis of verification vs. network size.

For each hidden-layer width the paper reports, run the full Figure-1
procedure over several seeds (the paper averages 30; the default here is
smaller for practicality and configurable) and report the same columns:

====================  =====================================================
Column                Meaning
====================  =====================================================
``neurons``           hidden-layer width ``Nh``
``avg_iterations``    candidate-loop iterations (Solve LP + Check (5))
``lp_seconds``        average cumulative LP time per run
``query_seconds``     average cumulative SMT time in check (5)
``generator_seconds`` average time of the whole candidate loop
``other_seconds``     everything else (simulation, level set, checks 6-7)
``total_seconds``     average wall-clock of the whole procedure
====================  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

import dataclasses

from ..api import (
    case_study_controller,
    dubins_scenario,
    get_family,
    get_scenario,
    parse_point_spec,
    run_batch,
)
from ..barrier import SynthesisConfig
from ..learning import proportional_controller_network
from ..nn import FeedforwardNetwork, Layer
from ..smt import IcpConfig

__all__ = ["PAPER_NEURON_COUNTS", "Table1Row", "run_table1", "format_table1"]

#: hidden-layer widths of the paper's Table 1
PAPER_NEURON_COUNTS = (10, 20, 40, 50, 70, 80, 90, 100, 300, 500, 700, 1000)


@dataclass
class Table1Row:
    """Aggregated results for one network width (or named scenario).

    ``label`` is empty for the paper's width-sweep rows (the ``neurons``
    column identifies them); registered-scenario rows carry the scenario
    name instead and leave ``neurons`` at 0.
    """

    neurons: int
    avg_iterations: float
    lp_seconds: float
    query_seconds: float
    generator_seconds: float
    other_seconds: float
    total_seconds: float
    verified_fraction: float
    runs: int
    label: str = ""


def run_table1(
    neuron_counts: Sequence[int] = PAPER_NEURON_COUNTS,
    seeds: Sequence[int] = (0, 1, 2),
    trained: bool = False,
    delta: float = 1e-3,
    workers: int = 1,
    engine: str | None = None,
    scenarios: Sequence[str] = (),
    families: Sequence[str] = (),
) -> list[Table1Row]:
    """Regenerate Table 1 through :mod:`repro.api`.

    Each (width, seed) pair runs the complete synthesis procedure; the
    seed drives the random seed-trace sampling, mirroring the paper's
    "each experiment uses a unique seed to generate the initial
    simulations".  ``workers > 1`` fans the runs out over worker
    processes via :func:`repro.api.run_batch` — timing columns then
    reflect per-run wall clock under whatever core contention the fan-out
    creates, so keep ``workers=1`` for paper-comparable numbers.
    ``engine`` selects the solver stack (default ``native``, the
    reference oracle).  Untrained widths use a variant of the hand-built
    controller whose neurons are pairwise distinct, so each row's cost is
    that of a width-``Nh`` network.

    ``scenarios`` appends one row per registered scenario name (e.g.
    ``("bicycle", "cartpole")``), run over the same seeds and reported
    in the same columns — the table-1 treatment for workloads beyond
    the paper's width sweep.  Scenario rows keep their registered
    synthesis config (seed overridden per run).

    ``families`` appends one row per family *instantiation* spec, e.g.
    ``("bicycle:wheelbase=1.5", "dubins:speed=2,nn_width=20")`` — each
    parsed by :func:`repro.api.parse_point_spec`, instantiated through
    the family registry, and run over the same seeds.  Family rows are
    labeled with the instantiated scenario name
    (``bicycle[lane_width=3,speed=1,wheelbase=1.5]``).
    """
    # The per-run seed drives only the synthesis (seed-trace sampling):
    # each width uses one controller across all seeds.  Trained
    # controllers are built here, in the parent, so worker processes
    # never repeat the expensive CMA-ES search.
    networks = {
        neurons: (
            case_study_controller(neurons, trained=True)
            if trained
            else _width_sweep_controller(neurons)
        )
        for neurons in neuron_counts
    }
    workloads = [
        dubins_scenario(
            network=networks[neurons],
            config=SynthesisConfig(seed=seed, icp=IcpConfig(delta=delta)),
            name=f"dubins-nh{neurons}-seed{seed}",
        )
        for neurons in neuron_counts
        for seed in seeds
    ]
    scenario_runs = [
        dataclasses.replace(
            get_scenario(name),
            name=f"{name}-seed{seed}",
            config=dataclasses.replace(get_scenario(name).config, seed=seed),
        )
        for name in scenarios
        for seed in seeds
    ]
    family_points = [
        get_family(fname).instantiate(**params)
        for fname, params in (parse_point_spec(spec) for spec in families)
    ]
    family_runs = [
        dataclasses.replace(
            point,
            name=f"{point.name}-seed{seed}",
            config=dataclasses.replace(point.config, seed=seed),
        )
        for point in family_points
        for seed in seeds
    ]
    artifacts = run_batch(
        list(workloads) + scenario_runs + family_runs,
        workers=max(1, workers),
        engine=engine,
    )
    failed = [a for a in artifacts if a.error]
    if failed:
        details = "; ".join(f"{a.scenario}: {a.error}" for a in failed)
        raise RuntimeError(f"table1 runs failed — {details}")
    per_width = len(seeds)
    labels = (
        [(n, "") for n in neuron_counts]
        + [(0, name) for name in scenarios]
        + [(0, point.name) for point in family_points]
    )
    rows = []
    for i, (neurons, label) in enumerate(labels):
        group = artifacts[i * per_width : (i + 1) * per_width]
        rows.append(
            Table1Row(
                neurons=neurons,
                avg_iterations=float(
                    np.mean([a.candidate_iterations for a in group])
                ),
                lp_seconds=float(np.mean([a.lp_seconds for a in group])),
                query_seconds=float(np.mean([a.query_seconds for a in group])),
                generator_seconds=float(
                    np.mean([a.generator_seconds for a in group])
                ),
                other_seconds=float(np.mean([a.other_seconds for a in group])),
                total_seconds=float(np.mean([a.total_seconds for a in group])),
                verified_fraction=sum(a.verified for a in group) / len(group),
                runs=len(group),
                label=label,
            )
        )
    return rows


def _width_sweep_controller(hidden_neurons: int) -> FeedforwardNetwork:
    """The hand-built proportional controller with no two neurons alike.

    :func:`~repro.learning.proportional_controller_network` repeats one
    neuron per input ``Nh / 2`` times.  Value-numbered expression tapes
    evaluate a repeated neuron once, so with it every width would verify
    at the cost of width 2 and the table's width axis would measure
    nothing.  Here neuron ``j`` of an input's group of ``k`` has its
    input weight scaled by ``1 + j/k`` and its output weight divided by
    the same factor: the group's slope at zero, and with it the
    linearized (stable) closed loop, is unchanged.
    """
    network = proportional_controller_network(hidden_neurons)
    hidden, output = network.layers
    w1, w2 = hidden.weights.copy(), output.weights.copy()
    for column in range(w1.shape[1]):
        group = np.flatnonzero(w1[:, column])
        scale = 1.0 + np.arange(len(group)) / len(group)
        w1[group, column] *= scale
        w2[0, group] /= scale
    return FeedforwardNetwork(
        [
            Layer(w1, hidden.biases, hidden.activation),
            Layer(w2, output.biases, output.activation),
        ]
    )


def format_table1(rows: Sequence[Table1Row]) -> str:
    """Render rows in the paper's column layout."""
    header = (
        f"{'Neurons':>10} {'AvgIter':>8} {'LP(s)':>8} {'Query(s)':>9} "
        f"{'Gen(s)':>8} {'Other(s)':>9} {'Total(s)':>9} {'Verified':>9}"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        name = row.label or str(row.neurons)
        lines.append(
            f"{name:>10} {row.avg_iterations:>8.1f} {row.lp_seconds:>8.2f} "
            f"{row.query_seconds:>9.2f} {row.generator_seconds:>8.2f} "
            f"{row.other_seconds:>9.2f} {row.total_seconds:>9.2f} "
            f"{row.verified_fraction:>8.0%}"
        )
    return "\n".join(lines)
