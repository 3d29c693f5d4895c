"""Backend protocols and the string-keyed engine registry.

The Figure-1 procedure is a loop over three swappable solvers: trace
generation (simulation), LP candidate fitting, and δ-SAT checking.  This
module makes each a first-class, runtime-checkable protocol —
:class:`SimBackend`, :class:`LpBackend`, :class:`SmtBackend` — and
bundles one of each into an :class:`Engine`.  Engines live in a global
string-keyed registry mirroring the scenario registry of
:mod:`repro.api.scenario`, so workloads select their solver stack the
same way they select their dynamics: by name, from the CLI
(``repro verify --engine``), from :func:`repro.api.run`, or from a
:class:`~repro.barrier.SynthesisConfig`.

Future backends (a dReal subprocess, a GPU batch simulator, a
reachability-based cross-check) plug in by implementing one protocol and
calling :func:`register_engine` — nothing in the synthesis loop changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Protocol, Sequence, runtime_checkable

from ..errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - import-time types only
    import numpy as np

    from ..barrier.lp import GeneratorCandidate, LpConfig
    from ..sim import Trace
    from ..smt import IcpConfig, SmtResult, Subproblem

__all__ = [
    "Engine",
    "LpBackend",
    "SimBackend",
    "SmtBackend",
    "engine_names",
    "get_engine",
    "list_engines",
    "register_engine",
    "resolve_engine",
    "unregister_engine",
]


@runtime_checkable
class SimBackend(Protocol):
    """Batch trace generation: integrate many initial states into traces."""

    name: str

    def simulate(
        self,
        system,
        initial_states: "np.ndarray",
        duration: float,
        dt: float,
        method: str = "rk4",
        stop_condition: "Callable[[np.ndarray], bool] | None" = None,
    ) -> "list[Trace]":
        """One :class:`~repro.sim.Trace` per row of ``initial_states``."""
        ...


@runtime_checkable
class LpBackend(Protocol):
    """Candidate generator fitting from sampled trace states."""

    name: str

    def fit(
        self,
        template,
        points: "np.ndarray",
        system,
        config: "LpConfig | None" = None,
        separation: "tuple[np.ndarray, np.ndarray] | None" = None,
    ) -> "GeneratorCandidate":
        """Fit template coefficients to the point cloud (may raise
        :class:`~repro.errors.InfeasibleLPError`)."""
        ...


@runtime_checkable
class SmtBackend(Protocol):
    """δ-SAT decision over a union of box subproblems."""

    name: str

    def check(
        self,
        subproblems: "Sequence[Subproblem]",
        names: "Sequence[str]",
        config: "IcpConfig | None" = None,
    ) -> "SmtResult":
        """Decide ``∃x`` over the subproblem union (empty union: UNSAT)."""
        ...


@dataclass(frozen=True)
class Engine:
    """A named solver stack: one backend per Figure-1 solver role.

    Instances are frozen so registered engines are safe to share across
    runs; backends themselves should be stateless (or internally
    synchronized) for the same reason.
    """

    name: str
    description: str
    sim: SimBackend
    lp: LpBackend
    smt: SmtBackend
    #: free-form grouping labels ("builtin", "experimental", ...)
    tags: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ReproError("engines need a non-empty name")
        for role, backend, protocol in (
            ("sim", self.sim, SimBackend),
            ("lp", self.lp, LpBackend),
            ("smt", self.smt, SmtBackend),
        ):
            if not isinstance(backend, protocol):
                raise ReproError(
                    f"engine {self.name!r}: {role} backend "
                    f"{type(backend).__name__} does not implement "
                    f"{protocol.__name__}"
                )

    def availability(self) -> tuple[bool, str]:
        """Whether the engine is usable here, and why not (or at what level).

        Backends may expose their own ``availability() -> (bool, str)``
        (the portfolio does, reporting which external solver binaries
        were found); engines whose backends are pure in-process code are
        unconditionally available with an empty reason.
        """
        probe = getattr(self.smt, "availability", None)
        if probe is None:
            return True, ""
        available, reason = probe()
        return bool(available), str(reason)

    def describe(self) -> dict:
        """Plain-data view for tooling (``repro engines --json``).

        SMT backends may expose ``describe_extra() -> dict`` to add
        backend-specific keys (the sharded backend reports its resolved
        ``shards`` count); extras never override the standard keys.
        """
        available, reason = self.availability()
        info = {
            "name": self.name,
            "description": self.description,
            "sim": type(self.sim).__name__,
            "lp": type(self.lp).__name__,
            "smt": type(self.smt).__name__,
            "tags": list(self.tags),
            "available": available,
            "reason": reason,
        }
        extra = getattr(self.smt, "describe_extra", None)
        if extra is not None:
            for key, value in dict(extra()).items():
                info.setdefault(key, value)
        return info


_REGISTRY: dict[str, Engine] = {}


def register_engine(engine: Engine, replace: bool = False) -> Engine:
    """Add an engine to the global registry and return it.

    Re-registering an existing name raises unless ``replace=True``.
    """
    if not replace and engine.name in _REGISTRY:
        raise ReproError(
            f"engine {engine.name!r} is already registered "
            "(pass replace=True to overwrite)"
        )
    _REGISTRY[engine.name] = engine
    return engine


def unregister_engine(name: str) -> None:
    """Remove an engine from the registry (missing names are ignored)."""
    _REGISTRY.pop(name, None)


def get_engine(name: str) -> Engine:
    """Look up a registered engine by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY)) or "<none>"
        raise ReproError(
            f"unknown engine {name!r}; registered engines: {known}"
        ) from None


def engine_names() -> tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def list_engines() -> tuple[Engine, ...]:
    """All registered engines, sorted by name."""
    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def resolve_engine(engine: "str | Engine | None") -> Engine:
    """Coerce an engine spec (name, object, or None) to an :class:`Engine`.

    ``None`` resolves to the default ``"native"`` engine.
    """
    if engine is None:
        return get_engine("native")
    if isinstance(engine, Engine):
        return engine
    if isinstance(engine, str):
        return get_engine(engine)
    raise ReproError(
        f"expected engine name or Engine, got {type(engine).__name__}"
    )
