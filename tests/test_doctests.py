"""Doctest + docstring-coverage gates for the public API surface.

Two contracts:

1. every doctest example in the public modules passes (wired into
   pytest here so ``python -m pytest`` exercises them), and
2. every name a public module exports via ``__all__`` — and every
   public method/property those classes define — carries a docstring,
   so the MkDocs site and ``help()`` never show a bare signature.
"""

from __future__ import annotations

import doctest
import importlib
import inspect

import pytest

#: modules whose doctest examples run under pytest
DOCTEST_MODULES = (
    "repro.api.family",
    "repro.api.runner",
    "repro.api.scenario",
    "repro.api.sweep",
    "repro.intervals.array",
    "repro.intervals.interval",
    "repro.store.cache",
)

#: modules whose whole ``__all__`` must be documented
COVERAGE_MODULES = (
    "repro.api",
    "repro.api.family",
    "repro.api.sweep",
    "repro.engine",
    "repro.intervals.array",
    "repro.perf",
    "repro.store",
)


@pytest.mark.parametrize("module_name", DOCTEST_MODULES)
def test_doctests_pass(module_name):
    module = importlib.import_module(module_name)
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failure(s) in {module_name}"


def test_doctests_exist_somewhere():
    """The doctest gate must not be vacuous: at least a handful of
    examples exist across the listed modules."""
    attempted = 0
    for module_name in DOCTEST_MODULES:
        module = importlib.import_module(module_name)
        attempted += doctest.testmod(module, verbose=False).attempted
    assert attempted >= 5


def _public_members(obj):
    for name, member in vars(obj).items():
        if name.startswith("_"):
            continue
        if callable(member) or isinstance(member, (property, staticmethod, classmethod)):
            yield name, member


@pytest.mark.parametrize("module_name", COVERAGE_MODULES)
def test_exported_names_are_documented(module_name):
    module = importlib.import_module(module_name)
    missing = []
    for attr in getattr(module, "__all__", ()):
        obj = getattr(module, attr)
        if not (inspect.isclass(obj) or callable(obj)):
            continue  # re-exported constants document themselves in situ
        if not inspect.getdoc(obj):
            missing.append(f"{module_name}.{attr}")
        if inspect.isclass(obj):
            for name, member in _public_members(obj):
                if not inspect.getdoc(
                    member.fget if isinstance(member, property) else member
                ):
                    missing.append(f"{module_name}.{attr}.{name}")
    assert not missing, "undocumented exports: " + ", ".join(missing)
