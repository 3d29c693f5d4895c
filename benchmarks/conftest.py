"""Shared helpers for the benchmark harness.

Every benchmark regenerates one artifact of the paper (a table, a figure,
or an ablation) and both prints it and writes it to ``<name>.txt`` in
the results directory so the output survives pytest's capture.  Run
with ``pytest benchmarks/ --benchmark-only -s`` to watch live.

The results directory is the git-ignored ``benchmarks/out/``, so a
test run leaves the tree clean.  Pass ``--update-results`` (with
``benchmarks/`` on the command line, where pytest registers this file's
option) to refresh the tracked record in ``benchmarks/results/``
instead.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from collect_results import LATEST_DIR, RESULTS_DIR


def pytest_addoption(parser):
    parser.addoption(
        "--update-results",
        action="store_true",
        help="write benchmark results to the tracked benchmarks/results/",
    )


@pytest.fixture(scope="session")
def results_dir(request) -> Path:
    update = request.config.getoption("--update-results", default=False)
    target = RESULTS_DIR if update else LATEST_DIR
    target.mkdir(exist_ok=True)
    return target


@pytest.fixture
def emit(results_dir):
    """emit(name, text): print an artifact and persist it."""

    def _emit(name: str, text: str) -> None:
        print(f"\n===== {name} =====")
        print(text)
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _emit
