"""Parameter-space sweeps over scenario families, with artifact caching.

:func:`sweep` turns a :class:`~repro.api.family.ScenarioFamily` plus a
parameter grid (or a random sample of parameter space) into a sharded,
resumable workload:

1. enumerate parameter points (cartesian grid or uniform sample),
2. instantiate one scenario per point, with a deterministic per-point
   synthesis seed derived from the sweep seed and the point's canonical
   name (reordering or resharding never changes any point's seed),
3. probe the content-addressed :mod:`repro.store` cache — hits are
   reused without spawning any work,
4. fan the misses out across worker processes via
   :func:`repro.api.run_batch` (each worker writes its artifact back
   into the store),
5. aggregate everything into a :class:`SweepReport`: verified fraction,
   per-status counts, level/timing quantiles, and a per-parameter
   breakdown of how verification behaves across regions of parameter
   space.

The aggregate half of the report is a pure function of the artifacts, so
re-invoking the same sweep against a warm cache reproduces it *exactly*
(only ``cache_hits`` / ``wall_seconds`` differ).  The CLI form is
``repro sweep dubins --grid speed=2:6:3 nn_width=8,10 --workers 4``.

:mod:`repro.service` builds its job expansion on the same two pieces —
:func:`instantiate_points` and the per-point seed derivation of step 2
— so artifacts produced through the service are byte-identical to a
direct sweep of the same points and share its cache keys.  Changing
either contract changes every stored ``run_key``.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from ..barrier import SynthesisConfig
from ..engine import Engine, resolve_engine
from ..errors import ReproError
from ..store import resolve_store, run_key
from .family import ScenarioFamily, format_param_value, get_family
from .pool import WarmPool, WarmupSpec, get_warm_pool
from .runner import (
    RunArtifact,
    derive_scenario_seed,
    run_batch,
)
from .scenario import Scenario

__all__ = ["SweepReport", "instantiate_points", "sweep"]

#: quantiles reported for level/timing distributions
_QUANTILES = (("min", 0.0), ("q25", 0.25), ("median", 0.5), ("q75", 0.75), ("max", 1.0))


def _quantiles(values: Sequence[float]) -> dict[str, float]:
    """Named quantiles of a sample (empty dict for an empty sample)."""
    if not values:
        return {}
    arr = np.asarray(values, dtype=float)
    return {name: float(np.quantile(arr, q)) for name, q in _QUANTILES}


@dataclass
class SweepReport:
    """Everything one sweep produced, aggregate first.

    ``points``/``artifacts`` are index-aligned (one artifact per
    parameter point, in grid/sample order).  :meth:`aggregate` is
    deterministic given the artifacts — identical across cold and warm
    invocations of the same sweep — while ``cache_hits`` and
    ``wall_seconds`` describe the invocation itself.
    """

    family: str
    engine: str
    seed: int
    points: list[dict] = field(default_factory=list)
    artifacts: list[RunArtifact] = field(default_factory=list)
    cache_hits: int = 0
    wall_seconds: float = 0.0

    @property
    def total(self) -> int:
        """Number of parameter points in the sweep."""
        return len(self.artifacts)

    @property
    def verified_fraction(self) -> float:
        """Fraction of points whose run produced a proof."""
        if not self.artifacts:
            return 0.0
        return sum(a.verified for a in self.artifacts) / len(self.artifacts)

    def aggregate(self) -> dict:
        """The deterministic aggregate: statuses, quantiles, regions.

        Pure function of the (cached or fresh) artifacts — byte-stable
        across re-invocations of the same sweep.
        """
        statuses = Counter(a.status for a in self.artifacts)
        levels = [a.level for a in self.artifacts if a.verified and a.level is not None]
        times = [a.total_seconds for a in self.artifacts]
        by_param: dict[str, dict[str, dict]] = {}
        for name in sorted({k for p in self.points for k in p}):
            groups: dict[str, list[RunArtifact]] = {}
            for point, artifact in zip(self.points, self.artifacts):
                if name in point:
                    key = format_param_value(point[name])
                    groups.setdefault(key, []).append(artifact)
            by_param[name] = {
                value: {
                    "runs": len(group),
                    "verified": sum(a.verified for a in group),
                    "verified_fraction": sum(a.verified for a in group) / len(group),
                    "median_seconds": float(
                        np.median([a.total_seconds for a in group])
                    ),
                }
                for value, group in sorted(groups.items())
            }
        return {
            "total": self.total,
            "statuses": dict(sorted(statuses.items())),
            "verified": int(sum(a.verified for a in self.artifacts)),
            "verified_fraction": self.verified_fraction,
            "level_quantiles": _quantiles(levels),
            "seconds_quantiles": _quantiles(times),
            "by_param": by_param,
        }

    def to_dict(self) -> dict:
        """JSON-ready view: aggregate + per-point runs + invocation info."""
        return {
            "family": self.family,
            "engine": self.engine,
            "seed": self.seed,
            "cache_hits": self.cache_hits,
            "wall_seconds": self.wall_seconds,
            "aggregate": self.aggregate(),
            "runs": [
                {"params": dict(point), **artifact.to_dict()}
                for point, artifact in zip(self.points, self.artifacts)
            ],
        }

    def format(self) -> str:
        """Human-readable sweep summary (the CLI's output)."""
        agg = self.aggregate()
        lines = [
            f"sweep {self.family!r} on engine {self.engine!r}: "
            f"{self.total} points, {agg['verified']} verified "
            f"({agg['verified_fraction']:.0%})"
        ]
        status_bits = ", ".join(
            f"{status} {count}" for status, count in agg["statuses"].items()
        )
        lines.append(f"statuses: {status_bits}")
        if agg["level_quantiles"]:
            lq = agg["level_quantiles"]
            lines.append(
                f"level:   min {lq['min']:.4g}  median {lq['median']:.4g}  "
                f"max {lq['max']:.4g}"
            )
        sq = agg["seconds_quantiles"]
        if sq:
            lines.append(
                f"seconds: min {sq['min']:.2f}  median {sq['median']:.2f}  "
                f"max {sq['max']:.2f}"
            )
        for name, regions in agg["by_param"].items():
            cells = "  ".join(
                f"{value}:{info['verified']}/{info['runs']}"
                for value, info in regions.items()
            )
            lines.append(f"verified by {name}: {cells}")
        lines.append(
            f"cache hits: {self.cache_hits}/{self.total}  "
            f"(wall {self.wall_seconds:.2f}s)"
        )
        return "\n".join(lines)


def instantiate_points(
    family: ScenarioFamily,
    grid: "Mapping[str, Sequence[object] | str] | None",
    samples: int | None,
    seed: int,
    overrides: "Mapping[str, object] | None",
) -> list[dict]:
    """Resolve the sweep's parameter points from grid or sampler.

    With a grid, ``overrides`` pins *unswept* parameters to fixed
    values on every point (overriding a swept axis is an error); with
    ``samples`` it pins parameters instead of sampling them.
    """
    if grid is not None and samples is not None:
        raise ReproError("pass either grid or samples, not both")
    if grid is not None:
        if not grid:
            raise ReproError("grid must name at least one parameter axis")
        points = family.grid(grid)
        if overrides:
            clash = set(overrides) & set(grid)
            if clash:
                raise ReproError(
                    "overrides conflict with swept grid axes: "
                    + ", ".join(sorted(clash))
                )
            pinned = {
                name: family.spec(name).coerce(value)
                for name, value in overrides.items()
            }
            points = [{**pinned, **point} for point in points]
        return points
    if samples is not None:
        return family.sample(samples, seed=seed, overrides=overrides)
    raise ReproError("sweep needs a grid or a sample count")


def sweep(
    family: "str | ScenarioFamily",
    grid: "Mapping[str, Sequence[object] | str] | None" = None,
    samples: int | None = None,
    overrides: "Mapping[str, object] | None" = None,
    seed: int = 0,
    workers: int | None = None,
    config: SynthesisConfig | None = None,
    engine: "str | Engine | None" = None,
    cache: "object | None" = True,
    pool: "WarmPool | bool | None" = None,
) -> SweepReport:
    """Sweep a family's parameter space, skipping cached work.

    Parameters
    ----------
    family:
        Registered family name or :class:`ScenarioFamily` object.
    grid:
        Mapping of parameter name to values — a sequence, or a spec
        string (``"2:6:3"`` linspace / ``"8,10"`` list) parsed by
        :func:`~repro.api.family.parse_grid_values`.  Cartesian product
        over the axes; unswept parameters keep their defaults.
    samples:
        Alternative to ``grid``: draw this many uniform random points
        within each parameter's declared bounds.  Deterministic in
        ``seed``.
    overrides:
        Pin named parameters to fixed values: with ``samples`` they are
        held instead of sampled; with ``grid`` they apply to every
        point (pinning a swept axis is an error).
    seed:
        Sweep-level seed.  Each point derives its own synthesis seed
        from it via :func:`~repro.api.runner.derive_scenario_seed` on
        the point's canonical scenario name, so artifacts (and cache
        keys) are stable under resharding and reordering.
    workers:
        Worker processes for the cache misses (``None`` = auto).
    config:
        Base :class:`SynthesisConfig` override for every point (the
        per-point seed is applied on top).
    engine:
        Solver stack for every run (name or Engine).
    cache:
        The artifact store — ``True`` (default) uses the default root
        (honoring ``REPRO_STORE``); a path or
        :class:`~repro.store.ArtifactStore` selects one; ``False``
        disables caching (everything re-runs).
    pool:
        Worker-pool policy for the miss fan-out.  ``None``/``True``
        (default) dispatches on the process-global
        :class:`~repro.api.pool.WarmPool`, whose workers persist across
        sweeps and pre-compile this family's scenario tapes in their
        initializer; a :class:`WarmPool` uses that pool; ``False``
        restores the historical one-shot executor per call.

    Returns the :class:`SweepReport` with artifacts in point order.
    """
    if isinstance(family, str):
        family = get_family(family)
    started = time.perf_counter()
    points = instantiate_points(family, grid, samples, seed, overrides)

    engine_obj = resolve_engine(engine)
    scenarios: list[Scenario] = []
    for point in points:
        scenario = family.instantiate(**point)
        base = config or scenario.config
        cfg = dataclasses.replace(
            base, seed=derive_scenario_seed(seed, scenario.name)
        )
        scenario = scenario.with_config(cfg)
        scenarios.append(scenario)

    store = resolve_store(cache)
    results: list[RunArtifact | None] = [None] * len(scenarios)
    misses: list[int] = []
    if store is not None:
        for i, scenario in enumerate(scenarios):
            hit = store.get(run_key(scenario, scenario.config, engine_obj.name))
            if hit is not None:
                hit.cached = True
                results[i] = hit
            else:
                misses.append(i)
    else:
        misses = list(range(len(scenarios)))

    if misses:
        # Pool size follows the explicit worker request or the machine,
        # NOT the miss count: sizing by misses would tear the global
        # warm pool down whenever consecutive sweeps have different
        # cache-hit rates — exactly the churn the pool exists to avoid.
        effective_workers = (
            workers if workers is not None else (os.cpu_count() or 1)
        )
        warm_pool: WarmPool | None
        if pool is False:
            warm_pool = None
        elif isinstance(pool, WarmPool):
            warm_pool = pool
            warm_pool.ensure_warm(WarmupSpec(families=(family.name,)))
        elif effective_workers > 1 and len(misses) > 1:
            warm_pool = get_warm_pool(
                effective_workers, WarmupSpec(families=(family.name,))
            )
        else:
            warm_pool = None
        fresh = run_batch(
            [scenarios[i] for i in misses],
            workers=effective_workers,
            engine=engine_obj,
            cache=store if store is not None else False,
            pool=warm_pool,
        )
        for i, artifact in zip(misses, fresh):
            results[i] = artifact

    artifacts = [a for a in results if a is not None]
    return SweepReport(
        family=family.name,
        engine=engine_obj.name,
        seed=seed,
        points=points,
        artifacts=artifacts,
        cache_hits=sum(a.cached for a in artifacts),
        wall_seconds=time.perf_counter() - started,
    )
