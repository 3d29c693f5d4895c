"""Content-addressed on-disk cache for :class:`RunArtifact` records.

Every verification run has a deterministic *fingerprint*: what was
verified (the scenario's ``(family, params)`` identity, or its name +
sets + factory for hand-built scenarios), on which engine, under which
flattened :class:`~repro.barrier.SynthesisConfig` (the synthesis seed
lives inside the config).  :func:`run_key` hashes the canonical JSON of
that fingerprint with sha256; the :class:`ArtifactStore` keeps one
artifact JSON file per key, sharded by the first two hex digits::

    <root>/ab/ab3f...e2.json

Keys are content addresses, so a hit is exactly "this run already
happened": :func:`repro.api.run` consults the store before solving and
writes the artifact after, and :func:`repro.api.sweep` skips whole
shards of a parameter grid on re-invocation.  Stored files are the
artifact's canonical ``to_json()`` bytes — a cache hit round-trips to
byte-identical JSON versus a fresh solve.  Only *definite* outcomes are
stored: ``inconclusive`` runs exhausted a (possibly wall-clock) solver
budget, which is machine- and load-dependent, so they re-run every
time instead of freezing a transient "unknown".

Configuration
-------------
``REPRO_STORE``
    Overrides the default store root (``~/.cache/repro/store``, honoring
    ``XDG_CACHE_HOME``).
``REPRO_CACHE``
    Opt-in for :func:`repro.api.run`/``run_batch`` when no ``cache``
    argument is given: unset/``0``/empty disables, ``1`` enables at the
    default root, any other value is used as the root path.
    ``repro sweep`` caches by default regardless.

Writes are atomic (temp file + :func:`os.replace`), so concurrent sweep
workers may race on the same key and the loser simply overwrites the
winner with identical bytes.  A corrupt entry (readable bytes that no
longer parse as an artifact) is *quarantined*: renamed to
``<key>.corrupt`` beside its shard so the miss re-runs cleanly while a
service operator can still see — and inspect — cache rot via
:meth:`ArtifactStore.stats`.  Unreadable entries (I/O errors) are plain
misses.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from ..api.runner import RunArtifact
    from ..api.scenario import Scenario
    from ..barrier import SynthesisConfig

__all__ = [
    "ArtifactStore",
    "CACHE_ENV",
    "STORE_ENV",
    "StoreStats",
    "default_store_root",
    "resolve_store",
    "run_fingerprint",
    "run_key",
]

#: env var overriding the default store root
STORE_ENV = "REPRO_STORE"
#: env var opting runs into the cache when no ``cache=`` argument is given
CACHE_ENV = "REPRO_CACHE"

#: fingerprint schema version: bump on incompatible key changes, and
#: whenever a fresh solve may produce different artifact bytes (2: the
#: LP's auxiliary-variable separation rows can move coefficients and
#: levels in their last bits; 3: so can solving the LP by row
#: generation, within HiGHS's 1e-7 feasibility tolerance: ~1e-14 on the
#: coefficients of most fits, 6e-8 where the full solve's optimum sat
#: slightly outside a row; 4: check (5) answers from sampled points
#: before ICP, so CEGIS counterexamples and the artifacts' new
#: ``screened_counterexamples`` field differ; 5: ``batched-icp`` no
#: longer contracts, so its searches and witnesses differ, and the
#: config dict lost the three contractor knobs)
FINGERPRINT_VERSION = 5

#: ``.tmp`` leftovers older than this are treated as crashed writers'
#: debris and swept by :meth:`ArtifactStore.collect_garbage` (and by
#: ``put`` on the shard it touches); young tmp files may belong to a
#: live concurrent writer and are left alone.
TMP_GC_SECONDS = 3600.0


def default_store_root() -> Path:
    """The store directory used when none is given explicitly.

    ``$REPRO_STORE`` if set, else ``$XDG_CACHE_HOME/repro/store``
    (``~/.cache/repro/store`` when XDG is unset).
    """
    env = os.environ.get(STORE_ENV)
    if env:
        return Path(env).expanduser()
    cache_home = os.environ.get("XDG_CACHE_HOME") or "~/.cache"
    return Path(cache_home).expanduser() / "repro" / "store"


def _json_safe(value: object, depth: int = 8) -> object:
    """Best-effort deterministic JSON view of a fingerprint component.

    Rich objects (e.g. a FeedforwardNetwork handed to a factory partial)
    must contribute their *content*, not just their type — two different
    controllers with the same scenario name must not collide on one key.
    Picklable objects contribute a digest of their pickle bytes (content-
    deterministic within an environment; a cross-version difference only
    costs a cache miss, never a collision); unpicklable ones (activation
    lambdas make networks unpicklable) are traversed structurally through
    their ``__dict__``/``__slots__`` state, bottoming out at the type
    name once ``depth`` is exhausted.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    type_name = f"{type(value).__module__}.{type(value).__qualname__}"
    if depth <= 0:
        return f"<{type_name}>"
    if isinstance(value, (list, tuple)):
        return [_json_safe(v, depth - 1) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v, depth - 1) for k, v in value.items()}
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return _json_safe(tolist(), depth - 1)
    with contextlib.suppress(Exception):
        return {
            "type": type_name,
            "pickle_sha256": hashlib.sha256(pickle.dumps(value)).hexdigest(),
        }
    state: dict = {}
    if getattr(value, "__dict__", None):
        state = dict(vars(value))
    else:
        for slot in getattr(type(value), "__slots__", ()):
            if hasattr(value, slot):
                state[slot] = getattr(value, slot)
    if state:
        return {
            "type": type_name,
            "state": {
                k: _json_safe(v, depth - 1) for k, v in sorted(state.items())
            },
        }
    return f"<{type_name}>"


def _callable_fingerprint(fn: object) -> object:
    """Deterministic identity of a system factory.

    Module-level functions hash to ``module.qualname``;
    :func:`functools.partial` recurses into its func/args/kwargs, so the
    builtin family factories (partials over module functions) fingerprint
    their parameter values too.
    """
    if isinstance(fn, functools.partial):
        return {
            "partial": _callable_fingerprint(fn.func),
            "args": [_json_safe(a) for a in fn.args],
            "kwargs": {k: _json_safe(v) for k, v in sorted(fn.keywords.items())},
        }
    module = getattr(fn, "__module__", type(fn).__module__)
    qualname = getattr(fn, "__qualname__", type(fn).__qualname__)
    return f"{module}.{qualname}"


def _set_fingerprint(region: object) -> object:
    """Bounds-based identity of an initial/unsafe/domain set."""
    if region is None:
        return None
    rectangle = getattr(region, "safe_rectangle", region)
    lower = getattr(rectangle, "lower", None)
    upper = getattr(rectangle, "upper", None)
    if lower is None or upper is None:
        return _json_safe(region)
    return {
        "kind": type(region).__name__,
        "lower": [float(v) for v in lower],
        "upper": [float(v) for v in upper],
    }


def run_fingerprint(
    scenario: "Scenario",
    config: "SynthesisConfig",
    engine_name: str,
    solvers: "str | None" = None,
) -> dict:
    """The canonical plain-data identity of one verification run.

    Family-instantiated scenarios are identified by ``(family, params)``
    — the strongest key, independent of how the scenario object was
    built.  Hand-built scenarios fall back to name + set bounds +
    factory fingerprint.  The flattened config carries the synthesis
    seed, so changing *any* knob (seed, delta, gamma, budgets, engine,
    parameters) changes the key.

    ``solvers`` is the external-solver fingerprint
    (:func:`repro.solvers.solver_fingerprint`) and only participates
    when non-empty: a ``portfolio`` run whose verdicts came from an
    external binary is keyed by that binary's identity + version, while
    a run the native racer decided alone keys identically to having no
    externals installed at all.
    """
    from ..api.scenario import synthesis_config_to_dict

    if scenario.family:
        identity: dict = {
            "family": scenario.family,
            "params": {k: _json_safe(v) for k, v in scenario.family_params},
        }
    else:
        identity = {
            "scenario": scenario.name,
            "factory": _callable_fingerprint(scenario.system_factory),
            "initial_set": _set_fingerprint(scenario.initial_set),
            "unsafe_set": _set_fingerprint(scenario.unsafe_set),
            "domain": _set_fingerprint(scenario.domain),
        }
    fingerprint = {
        "version": FINGERPRINT_VERSION,
        "identity": identity,
        "engine": engine_name,
        "config": _json_safe(synthesis_config_to_dict(config)),
    }
    if solvers:
        fingerprint["solvers"] = solvers
    return fingerprint


def run_key(
    scenario: "Scenario",
    config: "SynthesisConfig",
    engine_name: str,
    solvers: "str | None" = None,
) -> str:
    """sha256 hex digest of the canonical run fingerprint."""
    payload = json.dumps(
        run_fingerprint(scenario, config, engine_name, solvers=solvers),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class StoreStats:
    """Aggregate store telemetry.

    ``artifacts``/``bytes`` count live entries; ``corrupt`` counts
    quarantined ``<key>.corrupt`` files — nonzero means cache rot
    (torn writes, disk errors, incompatible artifact schemas) that an
    operator should look at.
    """

    artifacts: int
    bytes: int
    corrupt: int = 0


class ArtifactStore:
    """A content-addressed directory of verification artifacts.

    Parameters
    ----------
    root:
        Store directory; created lazily on first write.  ``None`` uses
        :func:`default_store_root`.

    Instances hold only the root path, so they pickle cheaply into sweep
    worker processes; all state lives on disk.
    """

    def __init__(self, root: "str | Path | None" = None):
        self.root = Path(root).expanduser() if root is not None else default_store_root()

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ArtifactStore) and self.root == other.root

    def path_for(self, key: str) -> Path:
        """On-disk path of a key (two-hex-digit shard directories)."""
        if len(key) < 3:
            raise ValueError(f"malformed store key {key!r}")
        return self.root / key[:2] / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).is_file()

    def get(self, key: str) -> "RunArtifact | None":
        """The cached artifact for ``key``, or None on a miss.

        An entry that reads but no longer parses is quarantined —
        renamed to ``<key>.corrupt`` and counted by :meth:`stats` — so
        rot is visible to operators instead of silently re-running
        forever; unreadable entries (I/O errors) are plain misses.
        """
        from ..api.runner import RunArtifact
        from ..resilience import faults

        path = self.path_for(key)
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            return None
        action = faults.fire("store.read", key[:8])
        if action is not None:
            if action.kind == "error":
                raise faults.InjectedFault(f"injected store read failure ({key[:8]})")
            text = action.payload or text[: len(text) // 2]
        try:
            return RunArtifact.from_json(text)
        except (ValueError, TypeError, KeyError):
            self._quarantine(path)
            return None

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt entry aside as ``<key>.corrupt`` (best effort).

        ``os.replace`` keeps this atomic; a concurrent reader either
        still sees the corrupt file (and loses the rename race
        harmlessly) or a clean miss.
        """
        with contextlib.suppress(OSError):
            os.replace(path, path.with_suffix(".corrupt"))

    def put(self, key: str, artifact: "RunArtifact") -> Path:
        """Write an artifact under ``key`` (atomic; returns the path).

        A writer that dies between the tmp write and the rename leaves a
        ``.tmp`` file and *no* entry — readers can never observe a
        partial artifact.  The leftover is swept by
        :meth:`collect_garbage`, which ``put`` runs (stale files only)
        on the shard it is about to write.
        """
        from ..resilience import faults

        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        self._sweep_tmp(path.parent, time.time() - TMP_GC_SECONDS)
        payload = artifact.to_json(indent=2)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        action = faults.fire("store.write", key[:8])
        torn = action is not None and action.kind == "torn"
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(payload[: len(payload) // 2] if torn else payload)
            if action is not None:
                # Simulated crash between tmp-write and rename: the torn
                # kind leaves its half-written tmp behind exactly as a
                # SIGKILLed writer would (skipping the unlink below).
                raise faults.InjectedFault(
                    f"injected store write crash ({key[:8]})"
                )
            os.replace(tmp, path)
        except BaseException:
            if not torn:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
            raise
        return path

    def _sweep_tmp(self, shard: Path, cutoff: float) -> int:
        """Unlink ``.tmp`` leftovers in ``shard`` older than ``cutoff``."""
        removed = 0
        with contextlib.suppress(OSError):
            for stray in shard.glob(".*.tmp"):
                try:
                    if stray.stat().st_mtime <= cutoff:
                        stray.unlink()
                        removed += 1
                except OSError:
                    continue
        return removed

    def collect_garbage(self, max_age_seconds: "float | None" = None) -> int:
        """Sweep ``.tmp`` files left by crashed mid-write processes.

        Only files older than ``max_age_seconds`` (default
        :data:`TMP_GC_SECONDS`) go — an in-flight concurrent writer's
        fresh tmp file is never touched.  Returns the number removed.
        """
        ttl = TMP_GC_SECONDS if max_age_seconds is None else max_age_seconds
        cutoff = time.time() - ttl
        removed = 0
        if not self.root.is_dir():
            return 0
        for shard in self.root.iterdir():
            if shard.is_dir():
                removed += self._sweep_tmp(shard, cutoff)
        return removed

    def keys(self) -> Iterator[str]:
        """Iterate over every stored key."""
        if not self.root.is_dir():
            return
        for shard in sorted(self.root.iterdir()):
            if not shard.is_dir():
                continue
            for entry in sorted(shard.glob("*.json")):
                yield entry.stem

    def stats(self) -> StoreStats:
        """Entry count, total bytes, and quarantined-entry count."""
        artifacts = 0
        total = 0
        for key in self.keys():
            try:
                total += self.path_for(key).stat().st_size
            except OSError:
                continue
            artifacts += 1
        corrupt = 0
        if self.root.is_dir():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    corrupt += sum(1 for _ in shard.glob("*.corrupt"))
        return StoreStats(artifacts=artifacts, bytes=total, corrupt=corrupt)

    def clear(self) -> int:
        """Delete every entry (including quarantined ones); returns how
        many live artifacts were removed."""
        removed = 0
        for key in list(self.keys()):
            try:
                self.path_for(key).unlink()
                removed += 1
            except OSError:
                continue
        if self.root.is_dir():
            for shard in self.root.iterdir():
                if shard.is_dir():
                    for stray in shard.glob("*.corrupt"):
                        with contextlib.suppress(OSError):
                            stray.unlink()
        return removed


def resolve_store(
    cache: "ArtifactStore | str | Path | bool | None",
) -> "ArtifactStore | None":
    """Normalize a ``cache`` argument to a store (or None = disabled).

    ``None`` defers to the ``REPRO_CACHE`` env var (see module
    docstring); ``True``/``False`` force the default store on/off; a
    path-like selects a store rooted there; a store passes through.
    """
    if cache is None:
        env = os.environ.get(CACHE_ENV, "").strip()
        if not env or env == "0":
            return None
        if env == "1":
            return ArtifactStore()
        return ArtifactStore(env)
    if cache is False:
        return None
    if cache is True:
        return ArtifactStore()
    if isinstance(cache, ArtifactStore):
        return cache
    return ArtifactStore(cache)
