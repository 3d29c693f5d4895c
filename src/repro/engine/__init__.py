"""Pluggable solver engines for the Figure-1 procedure.

An :class:`Engine` bundles one backend per solver role — simulation
(:class:`SimBackend`), LP fitting (:class:`LpBackend`), δ-SAT checking
(:class:`SmtBackend`) — behind a string-keyed registry, mirroring the
scenario registry of :mod:`repro.api.scenario`.  Three engines ship
built in:

``native``        the historical scalar simulation and SMT code
                  paths (default, and the reference oracle of the
                  fuzz/parity harnesses)
``batched-icp``   NumPy batch simulation and the whole δ-SAT frontier in
                  one :class:`~repro.intervals.BoxArray`, pruned by
                  forward interval passes and bisected (the fast
                  in-house SMT path)
``portfolio``     external SMT solvers (z3/dreal, via
                  :mod:`repro.solvers`) raced against the ``batched-icp``
                  lane; degrades to it exactly when no binaries are
                  installed

Selecting one::

    from repro import api

    artifact = api.run("dubins", engine="batched-icp")

Registering a custom stack reuses any builtin backend for the roles you
do not replace::

    from repro import engine as eng

    native = eng.get_engine("native")
    eng.register_engine(eng.Engine(
        name="my-gpu",
        description="GPU batch simulation, native LP/SMT",
        sim=MyGpuSimBackend(),
        lp=native.lp,
        smt=native.smt,
    ))
"""

from .base import (
    Engine,
    LpBackend,
    SimBackend,
    SmtBackend,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
    resolve_engine,
    unregister_engine,
)
from .batched import BatchedSmtBackend
from .native import NativeLpBackend, NativeSimBackend, SerialSmtBackend
from .vectorized import VectorizedSimBackend

__all__ = [
    "BatchedSmtBackend",
    "Engine",
    "LpBackend",
    "NativeLpBackend",
    "NativeSimBackend",
    "SerialSmtBackend",
    "SimBackend",
    "SmtBackend",
    "VectorizedSimBackend",
    "engine_names",
    "get_engine",
    "list_engines",
    "register_engine",
    "resolve_engine",
    "unregister_engine",
]


def _register_builtins() -> None:
    lp = NativeLpBackend()
    register_engine(
        Engine(
            name="native",
            description="Historical scalar code paths: per-trace "
            "simulation, HiGHS LP, serial SMT dispatch (default)",
            sim=NativeSimBackend(),
            lp=lp,
            smt=SerialSmtBackend(),
            tags=("builtin", "default"),
        )
    )
    register_engine(
        Engine(
            name="batched-icp",
            description="Structure-of-arrays branch-and-prune: union-"
            "seeded BoxArray frontier pruned by forward interval passes "
            "and bisection; vectorized simulation, native LP",
            sim=VectorizedSimBackend(),
            lp=lp,
            smt=BatchedSmtBackend(),
            tags=("builtin",),
        )
    )
    # Imported here (not at module top) because repro.solvers is pure
    # downstream code that must stay importable without repro.engine.
    from ..solvers.portfolio import PortfolioSmtBackend

    register_engine(
        Engine(
            name="portfolio",
            description="External SMT solvers (z3/dreal subprocesses over "
            "SMT-LIB emission) raced against the batched ICP lane; "
            "first verdict wins, exact batched-icp degrade when no "
            "binaries are installed",
            sim=VectorizedSimBackend(),
            lp=lp,
            smt=PortfolioSmtBackend(),
            tags=("builtin", "external"),
        )
    )


_register_builtins()
