"""Outside-in tracing for the benchmark's traced run.

Nothing under ``src/`` is instrumented.  Instead the traced run swaps in
wrappers at the layer boundaries the program already exposes:

* :class:`SimProxy` / :class:`LpProxy` / :class:`SmtProxy` wrap the
  ``batched-icp`` engine's backends (``engine.sim.simulate``,
  ``engine.lp.fit``, ``engine.smt.check``) and keep each backend's
  ``name``, so artifacts and store keys are those of the untraced run;
* :func:`install_linprog_hook` replaces ``linprog`` as
  :mod:`repro.barrier.lp` sees it, timing HiGHS and counting ``A_ub``
  rows while an :class:`LpProxy` call is active;
* :class:`TimedStore` is an :class:`~repro.store.ArtifactStore` whose
  ``get``/``put`` are timed and counted.

Every wrapper adds into a :class:`Tally`.  Wrappers pickle (rebuilt
through their constructor), so a traced sweep still dispatches to pool
workers; a tally used outside the process that created it appends one
JSON line per call to ``<trace_dir>/<pid>.jsonl``, which
:meth:`Tally.collect` folds back in.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import json
import os
import time
from collections import Counter
from pathlib import Path

import repro.barrier.lp as lp_module
from repro.store import ArtifactStore

#: the tally of the LpProxy.fit call in progress, for the linprog hook
_ACTIVE_FIT: contextvars.ContextVar["Tally | None"] = contextvars.ContextVar(
    "perfbench_active_fit", default=None
)

#: pipeline stage -> SMT seconds key (Table 1's query split)
_CHECK_KEYS = {"smt-check": "smt.check5_s", "level-set": "smt.check67_s"}


class Tally:
    """Per-layer seconds and counts, summed across processes."""

    def __init__(self, trace_dir: "str | Path", owner: int | None = None):
        self.trace_dir = Path(trace_dir)
        self.owner = os.getpid() if owner is None else owner
        self.values: Counter = Counter()
        #: the pipeline stage in progress (owner process only; set from
        #: the ``progress`` stage events of ``api.run``)
        self.stage: str | None = None

    def __reduce__(self):
        return (Tally, (str(self.trace_dir), self.owner))

    def add(self, values: dict) -> None:
        """Add one call's values."""
        if os.getpid() == self.owner:
            self.values.update(values)
            return
        line = json.dumps({"pid": os.getpid(), **values})
        with open(self.trace_dir / f"{os.getpid()}.jsonl", "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def on_stage(self, event) -> None:
        """``progress`` callback: track which stage an SMT call belongs to."""
        self.stage = event.stage if event.kind == "start" else None

    def collect(self) -> set[int]:
        """Fold worker-side records in; returns the pids that wrote any."""
        pids = set()
        for path in sorted(self.trace_dir.glob("*.jsonl")):
            for line in path.read_text(encoding="utf-8").splitlines():
                record = json.loads(line)
                pids.add(record.pop("pid"))
                self.values.update(record)
            path.unlink()
        return pids

    def reset(self) -> Counter:
        """Return the values so far and start from zero."""
        values, self.values = self.values, Counter()
        return values


class _Proxy:
    """Forwards everything to the wrapped backend; keeps its ``name``."""

    def __init__(self, inner, tally: Tally):
        self._inner = inner
        self._tally = tally
        self.name = inner.name

    def __reduce__(self):
        return (type(self), (self._inner, self._tally))

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class SimProxy(_Proxy):
    def simulate(self, *args, **kwargs):
        t0 = time.perf_counter()
        traces = self._inner.simulate(*args, **kwargs)
        self._tally.add({"sim.simulate_s": time.perf_counter() - t0, "sim.calls": 1})
        return traces


class LpProxy(_Proxy):
    def __init__(self, inner, tally: Tally):
        super().__init__(inner, tally)

        # functools.wraps keeps fit's signature visible to inspect: the
        # synthesis loop only hands its LpAssembler to a fit that declares
        # ``assembler``, and without it the traced run would rebuild every
        # row on each CEGIS iteration -- a different program.
        @functools.wraps(inner.fit)
        def fit(*args, **kwargs):
            token = _ACTIVE_FIT.set(tally)
            t0 = time.perf_counter()
            try:
                return inner.fit(*args, **kwargs)
            finally:
                tally.add({"lp.fit_s": time.perf_counter() - t0, "lp.calls": 1})
                _ACTIVE_FIT.reset(token)

        self.fit = fit


class SmtProxy(_Proxy):
    def check(self, subproblems, names, config=None, **kwargs):
        t0 = time.perf_counter()
        result = self._inner.check(subproblems, names, config, **kwargs)
        seconds = time.perf_counter() - t0
        values = {
            "smt.check_s": seconds,
            "smt.calls": 1,
            "smt.boxes_processed": result.stats.boxes_processed,
            "smt.boxes_pruned": result.stats.boxes_pruned,
        }
        key = _CHECK_KEYS.get(self._tally.stage)
        if key is not None:
            values[key] = seconds
        self._tally.add(values)
        return result


def traced_engine(engine, tally: Tally):
    """A copy of ``engine`` (same name) whose backends report to ``tally``."""
    from repro.engine import Engine

    return Engine(
        name=engine.name,
        description=engine.description,
        sim=SimProxy(engine.sim, tally),
        lp=LpProxy(engine.lp, tally),
        smt=SmtProxy(engine.smt, tally),
        tags=engine.tags,
    )


class TimedStore(ArtifactStore):
    """An artifact store that times and counts its reads and writes."""

    def __init__(self, root, tally: Tally):
        super().__init__(root)
        self.tally = tally

    def __reduce__(self):
        return (TimedStore, (str(self.root), self.tally))

    def get(self, key):
        t0 = time.perf_counter()
        artifact = super().get(key)
        self.tally.add({"store.get_s": time.perf_counter() - t0, "store.gets": 1,
                        "store.hits": int(artifact is not None)})
        return artifact

    def put(self, key, artifact):
        t0 = time.perf_counter()
        path = super().put(key, artifact)
        self.tally.add({"store.put_s": time.perf_counter() - t0, "store.puts": 1})
        return path


def install_linprog_hook() -> None:
    """Time ``linprog`` as :mod:`repro.barrier.lp` calls it.

    Installed once, before any worker process forks, so workers inherit
    it.  Outside a traced ``fit`` it only forwards.
    """
    inner = lp_module.linprog

    @functools.wraps(inner)
    def linprog(*args, **kwargs):
        tally = _ACTIVE_FIT.get()
        if tally is None:
            return inner(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            a_ub = kwargs.get("A_ub")
            rows = 0 if a_ub is None else a_ub.shape[0]
            tally.add({"lp.solve_s": time.perf_counter() - t0, "lp.rows": rows})

    lp_module.linprog = linprog


@contextlib.contextmanager
def timed_attribute(module, attr: str, tally: Tally, key: str):
    """Time every call of ``module.attr`` into ``tally[key]`` while active."""
    inner = getattr(module, attr)

    @functools.wraps(inner)
    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            tally.add({key: time.perf_counter() - t0})

    setattr(module, attr, wrapper)
    try:
        yield
    finally:
        setattr(module, attr, inner)
