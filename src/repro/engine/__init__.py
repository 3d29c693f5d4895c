"""Pluggable solver engines for the Figure-1 procedure.

An :class:`Engine` bundles one backend per solver role — simulation
(:class:`SimBackend`), LP fitting (:class:`LpBackend`), δ-SAT checking
(:class:`SmtBackend`) — behind a string-keyed registry, mirroring the
scenario registry of :mod:`repro.api.scenario`.  Six engines ship
built in:

``native``        the historical scalar simulation and SMT code
                  paths (default)
``vectorized``    NumPy batch integrator stepping every seed trace
                  through one array pass per RK stage
``parallel-smt``  independent condition-(5)/(6)/(7) subproblem boxes
                  dispatched across a thread pool, each solved by the
                  batched structure-of-arrays ICP solver
``batched-icp``   the whole δ-SAT frontier in one
                  :class:`~repro.intervals.BoxArray` with frontier-wide
                  vectorized HC4 contraction (fastest single-core SMT)
``sharded-icp``   the batched frontier's per-round row work fanned out
                  across forked worker processes over shared memory
                  (``--shards``/``REPRO_SHARDS``); bit-identical
                  verdicts/witnesses/artifacts at every shard count
``portfolio``     external SMT solvers (z3/dreal, via
                  :mod:`repro.solvers`) raced against the sharded ICP
                  lane; degrades to it exactly when no binaries are
                  installed

Selecting one::

    from repro import api

    artifact = api.run("dubins", engine="vectorized")

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
from .parallel import ParallelSmtBackend
from .sharded import ShardedSmtBackend
from .vectorized import VectorizedSimBackend

__all__ = [
    "BatchedSmtBackend",
    "Engine",
    "LpBackend",
    "NativeLpBackend",
    "NativeSimBackend",
    "ParallelSmtBackend",
    "SerialSmtBackend",
    "ShardedSmtBackend",
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
    sim = NativeSimBackend()
    lp = NativeLpBackend()
    smt = SerialSmtBackend()
    register_engine(
        Engine(
            name="native",
            description="Historical scalar code paths: per-trace "
            "simulation, HiGHS LP, serial SMT dispatch (default)",
            sim=sim,
            lp=lp,
            smt=smt,
            tags=("builtin", "default"),
        )
    )
    register_engine(
        Engine(
            name="vectorized",
            description="NumPy batch integrator stepping all seed traces "
            "in one array pass; native LP and SMT",
            sim=VectorizedSimBackend(),
            lp=lp,
            smt=smt,
            tags=("builtin",),
        )
    )
    register_engine(
        Engine(
            name="parallel-smt",
            description="Condition-(5)/(6)/(7) subproblem boxes dispatched "
            "across a thread pool, each on the batched ICP solver; "
            "native simulation and LP",
            sim=sim,
            lp=lp,
            smt=ParallelSmtBackend(),
            tags=("builtin",),
        )
    )
    register_engine(
        Engine(
            name="batched-icp",
            description="Structure-of-arrays branch-and-prune: union-"
            "seeded BoxArray frontier with frontier-wide vectorized HC4 "
            "contraction; vectorized simulation, native LP",
            sim=VectorizedSimBackend(),
            lp=lp,
            smt=BatchedSmtBackend(),
            tags=("builtin",),
        )
    )
    register_engine(
        Engine(
            name="sharded-icp",
            description="Frontier-sharded branch-and-prune: the batched "
            "ICP round work fanned across forked workers over shared "
            "memory (--shards/REPRO_SHARDS), bit-identical to "
            "batched-icp; vectorized simulation, native LP",
            sim=VectorizedSimBackend(),
            lp=lp,
            smt=ShardedSmtBackend(),
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
            "SMT-LIB emission) raced against the sharded ICP lane; "
            "first verdict wins, exact batched-icp degrade when no "
            "binaries are installed",
            sim=VectorizedSimBackend(),
            lp=lp,
            smt=PortfolioSmtBackend(),
            tags=("builtin", "external"),
        )
    )


_register_builtins()
