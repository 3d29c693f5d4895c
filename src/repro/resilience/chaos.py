"""The chaos gate: the fuzz corpus re-run under injected faults.

``repro chaos --samples N --seed S`` walks the exact corpus points the
differential fuzzer samples (:func:`repro.corpus.sample_corpus_point`)
and runs each one twice — once fault-free as the baseline, once with a
deterministic :class:`~repro.resilience.faults.FaultPlan` installed —
rotating through a fixed catalog of fault scenarios (pool worker
kills, torn journal lines, torn store writes), all on the
``batched-icp`` engine.  Per sample the gate asserts the self-healing
contract of the resilience layer:

* **no hang** — the faulted run finishes inside a hard wall-clock
  budget (every supervisor deadline in the stack is far shorter);
* **no verdict flip** — the faulted artifact equals the baseline minus
  the :data:`~repro.corpus.VOLATILE_FIELDS` timing fields, i.e. every
  injected fault was recovered (retry, respawn, GC);
* **clean accounting** — recovery shows up in the incident log, never
  in the artifact;
* **no leaks** — no child process outlives its run.

Failures are written as JSON reproducers carrying the seed, the point,
and the exact fault plan, so any chaos failure replays in isolation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import pathlib
import tempfile
import threading
import time
from dataclasses import dataclass, field

from ..errors import ReproError
from . import faults
from .faults import FaultAction, FaultPlan
from .supervisor import clear_incidents, incidents

__all__ = [
    "CHAOS_SCENARIOS",
    "ChaosOutcome",
    "ChaosReport",
    "chaos",
    "write_chaos_reproducer",
]

#: the fault scenarios a chaos run rotates through, in order
CHAOS_SCENARIOS = (
    "pool-kill",
    "journal-torn",
    "store-torn",
)

#: hard per-sample wall-clock budget for the faulted run (seconds);
#: generous against every supervisor deadline, tiny against a real hang
DEFAULT_HARD_TIMEOUT = 120.0


@dataclass
class ChaosOutcome:
    """One corpus point under one fault scenario."""

    index: int
    scenario: str
    family: str
    params: "dict[str, float | int | str]"
    engine: str
    seed: int
    plan: dict
    ok: bool
    detail: str = ""
    #: faults that actually fired (a plan can schedule past the run)
    fired: "list[dict]" = field(default_factory=list)
    #: incident-log counts observed during the faulted run, by kind
    incidents: "dict[str, int]" = field(default_factory=dict)
    #: True when at least one fault fired and the verdict still held
    recovered: bool = False
    leaked_pids: "list[int]" = field(default_factory=list)
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class ChaosReport:
    """Outcome of one chaos campaign."""

    seed: int
    samples: int
    outcomes: "list[ChaosOutcome]" = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def failures(self) -> "list[ChaosOutcome]":
        return [o for o in self.outcomes if not o.ok]

    def to_dict(self) -> dict:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "ok": self.ok,
            "recovered": sum(o.recovered for o in self.outcomes),
            "faults_fired": sum(len(o.fired) for o in self.outcomes),
            "outcomes": [o.to_dict() for o in self.outcomes],
        }

    def format(self) -> str:
        fired = sum(len(o.fired) for o in self.outcomes)
        lines = [
            f"chaos: {len(self.outcomes)}/{self.samples} samples "
            f"(seed {self.seed}), {fired} faults fired, "
            f"{sum(o.recovered for o in self.outcomes)} recovered"
        ]
        for o in self.outcomes:
            if o.ok:
                continue
            params = ", ".join(f"{k}={v}" for k, v in sorted(o.params.items()))
            lines.append(
                f"  FAIL [{o.scenario}] {o.family}[{params}] "
                f"engine={o.engine}: {o.detail}"
            )
        if self.ok:
            lines.append("  every fault recovered")
        return "\n".join(lines)


def write_chaos_reproducer(
    outcome: ChaosOutcome, directory: "str | pathlib.Path"
) -> pathlib.Path:
    """Persist one failed outcome as a replayable JSON reproducer."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / (
        f"chaos-{outcome.scenario}-{outcome.family}-"
        f"s{outcome.seed}-i{outcome.index}.json"
    )
    path.write_text(json.dumps(outcome.to_dict(), indent=2, sort_keys=True))
    return path


# ----------------------------------------------------------------------
# Harness plumbing
# ----------------------------------------------------------------------
@contextlib.contextmanager
def _env(overrides: "dict[str, str]"):
    saved = {name: os.environ.get(name) for name in overrides}
    os.environ.update(overrides)
    try:
        yield
    finally:
        for name, old in saved.items():
            if old is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = old


class ChaosHang(ReproError):
    """The faulted run blew through the hard wall-clock budget."""


def _guarded(fn, limit: float):
    """Run ``fn`` on a watchdog thread; :class:`ChaosHang` past ``limit``."""
    box: dict = {}

    def target() -> None:
        try:
            box["value"] = fn()
        except BaseException as exc:  # noqa: BLE001 - surfaced to the caller
            box["error"] = exc

    thread = threading.Thread(target=target, name="repro-chaos-run", daemon=True)
    thread.start()
    thread.join(limit)
    if thread.is_alive():
        raise ChaosHang(f"faulted run still alive after {limit}s")
    if "error" in box:
        raise box["error"]
    return box.get("value")


def _leaked_children(before: "frozenset[int]", grace: float = 5.0) -> "list[int]":
    """Child processes born during the sample and still alive."""
    import multiprocessing as mp

    deadline = time.monotonic() + grace
    while True:
        fresh = [
            p for p in mp.active_children() if p.pid is not None and p.pid not in before
        ]
        if not fresh or time.monotonic() >= deadline:
            return sorted(p.pid for p in fresh)
        time.sleep(0.05)


def _strip(artifact) -> dict:
    """Artifact dict minus per-run timing noise (chaos parity view)."""
    from ..corpus.fuzz import VOLATILE_FIELDS

    data = artifact.to_dict()
    for volatile in VOLATILE_FIELDS:
        data.pop(volatile, None)
    return data


def _point_setup(family_name: str, params: dict, seed: int):
    from ..api import get_family
    from ..api.runner import derive_scenario_seed

    family = get_family(family_name)
    scenario = family.instantiate(**params)
    config = dataclasses.replace(
        scenario.config, seed=derive_scenario_seed(seed, scenario.name)
    )
    return scenario, config


# ----------------------------------------------------------------------
# Scenario table: (env overrides, plan builder)
# ----------------------------------------------------------------------
def _plan_for(scenario: str, at: int) -> FaultPlan:
    """The deterministic fault schedule of one chaos scenario."""
    if scenario == "pool-kill":
        actions = (FaultAction("pool.worker", "kill", at=0),)
    elif scenario == "journal-torn":
        actions = (FaultAction("journal.append", "torn", at=at),)
    elif scenario == "store-torn":
        actions = (FaultAction("store.write", "torn", at=0),)
    else:  # pragma: no cover - table and rotation are both module-owned
        raise ReproError(f"unknown chaos scenario {scenario!r}")
    return FaultPlan(actions=actions, label=scenario)


#: every chaos scenario runs on the fast in-house engine
_ENGINE = "batched-icp"

_SCENARIO_ENV = {
    # The SIGKILLed worker surfaces as BrokenProcessPool; the chunk
    # deadline is a backstop that turns a chunk which never answers into
    # a rebuild well inside the hard per-sample budget.
    "pool-kill": {"REPRO_CHUNK_TIMEOUT": "60"},
}


# ----------------------------------------------------------------------
# Per-scenario executions
# ----------------------------------------------------------------------
def _exec_batch(family_name, params, seed, engine, plan, hard_timeout, index):
    """Baseline-vs-faulted comparison through :func:`repro.api.run_batch`."""
    from ..api.runner import run_batch
    from ..corpus.fuzz import sample_corpus_point

    other = sample_corpus_point(family_name, index + 1_000_003, seed)
    scenario_a, _ = _point_setup(family_name, params, seed)
    scenario_b, _ = _point_setup(family_name, other, seed)
    pair = [scenario_a, scenario_b]
    baseline = run_batch(pair, workers=2, seed=seed, engine=engine, cache=False)
    clear_incidents()
    with faults.injected(plan):
        faulted = _guarded(
            lambda: run_batch(pair, workers=2, seed=seed, engine=engine, cache=False),
            hard_timeout,
        )
        fired = faults.fired_faults()
    for i, (base, fault) in enumerate(zip(baseline, faulted)):
        if _strip(fault) != _strip(base):
            return False, f"batch point {i} flipped under {plan.label}", fired
    return True, "", fired


def _exec_journal(family_name, params, seed, engine, plan, hard_timeout):
    """End-to-end service job under a torn-journal schedule."""
    from ..api import run
    from ..service.jobs import JobJournal, JobSpec
    from ..service.scheduler import Scheduler

    scenario, config = _point_setup(family_name, params, seed)
    baseline = run(scenario, config=config, engine=engine, cache=False)
    clear_incidents()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        journal = JobJournal(pathlib.Path(tmp) / "journal.jsonl")
        with faults.injected(plan):

            def service_round():
                scheduler = Scheduler(
                    store=None, pool=False, workers=1, journal=journal
                )
                try:
                    job = scheduler.submit(
                        JobSpec(
                            target=family_name,
                            overrides=params,
                            seed=seed,
                            engine=engine,
                        )
                    )
                    deadline = time.monotonic() + hard_timeout
                    while not job.state.terminal:
                        if time.monotonic() > deadline:
                            raise ChaosHang(
                                f"service job still {job.state.value} "
                                f"after {hard_timeout}s"
                            )
                        time.sleep(0.02)
                    return job
                finally:
                    scheduler.shutdown(wait=True)

            job = _guarded(service_round, hard_timeout + 5.0)
            fired = faults.fired_faults()
        # Post-mortem, faults disabled: the torn line must be skipped by
        # readers and must not poison later records or the replay.
        try:
            parsed = list(journal.records())
            journal.replay()
        except Exception as exc:  # noqa: BLE001 - any parse crash is a finding
            return False, f"journal replay crashed after torn append: {exc}", fired
        if fired and not parsed:
            return False, "torn append left an unreadable journal", fired
        artifact = job.artifacts[0] if job.artifacts else None
        if artifact is None or job.state.value not in ("DONE", "FAILED"):
            return False, f"service job ended {job.state.value} without artifact", fired
        if _strip(artifact) != _strip(baseline):
            return False, "service artifact flipped under torn journal", fired
    return True, "", fired


def _exec_store(family_name, params, seed, engine, plan, hard_timeout):
    """Mid-write store crash: no partial entry, tmp GC'd, re-put works."""
    from ..api import run
    from ..store import ArtifactStore, run_key

    scenario, config = _point_setup(family_name, params, seed)
    baseline = run(scenario, config=config, engine=engine, cache=False)
    clear_incidents()
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        store = ArtifactStore(tmp)
        key = run_key(scenario, config, engine)
        with faults.injected(plan):
            crashed = False
            try:
                _guarded(lambda: store.put(key, baseline), hard_timeout)
            except faults.InjectedFault:
                crashed = True
            fired = faults.fired_faults()
        if not crashed:
            return False, "torn store write did not surface as a crash", fired
        if store.get(key) is not None:
            return False, "partial store entry visible after torn write", fired
        leftovers = list(pathlib.Path(tmp).rglob(".*.tmp"))
        if not leftovers:
            return False, "torn write left no tmp file to GC", fired
        removed = store.collect_garbage(max_age_seconds=0.0)
        if removed < 1 or list(pathlib.Path(tmp).rglob(".*.tmp")):
            return False, "tmp GC did not clean the torn write", fired
        store.put(key, baseline)
        revived = store.get(key)
        if revived is None or _strip(revived) != _strip(baseline):
            return False, "re-put after torn write did not round-trip", fired
    return True, "", fired


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def chaos(
    samples: int = 25,
    seed: int = 0,
    families: "tuple[str, ...] | None" = None,
    scenarios: "tuple[str, ...] | None" = None,
    hard_timeout: float = DEFAULT_HARD_TIMEOUT,
    reproducers_dir: "str | pathlib.Path | None" = None,
    progress=None,
) -> ChaosReport:
    """Run a chaos campaign: corpus points under rotating fault plans.

    Deterministic from ``seed``: sample ``i`` uses the fuzzer's corpus
    point ``i``, the fault scenario ``CHAOS_SCENARIOS[i % len]``, and a
    seed-derived hit index — so a failing sample replays exactly from
    ``(seed, index)``.  Stress-tagged families are skipped (their heavy
    budgets drown the signal).  Failed outcomes are written as JSON
    reproducers under ``reproducers_dir`` when one is given.
    """
    import multiprocessing as mp
    import random as random_module

    from ..api import family_names, get_family
    from ..api.runner import derive_scenario_seed
    from ..corpus.fuzz import sample_corpus_point

    if samples < 1:
        raise ReproError("need at least one chaos sample")
    rotation = tuple(scenarios) if scenarios else CHAOS_SCENARIOS
    for name in rotation:
        if name not in CHAOS_SCENARIOS:
            known = ", ".join(CHAOS_SCENARIOS)
            raise ReproError(f"unknown chaos scenario {name!r} (scenarios: {known})")
    names = tuple(families) if families else tuple(
        name for name in family_names() if "stress" not in get_family(name).tags
    )
    if not names:
        raise ReproError("no non-stress families to sample")

    report = ChaosReport(seed=seed, samples=samples)
    for index in range(samples):
        chaos_name = rotation[index % len(rotation)]
        family_name = names[index % len(names)]
        params = sample_corpus_point(family_name, index, seed)
        rng = random_module.Random(derive_scenario_seed(seed, f"chaos#{index}"))
        plan = _plan_for(chaos_name, at=rng.randint(0, 2))
        engine = _ENGINE
        if progress is not None:
            shown = ", ".join(f"{k}={v}" for k, v in sorted(params.items()))
            progress(
                f"[{index + 1}/{samples}] {chaos_name} on "
                f"{family_name}[{shown}] ({engine})"
            )

        before_children = frozenset(
            p.pid for p in mp.active_children() if p.pid is not None
        )
        started = time.monotonic()
        try:
            with _env(_SCENARIO_ENV.get(chaos_name, {})):
                if chaos_name == "pool-kill":
                    ok, detail, fired = _exec_batch(
                        family_name, params, seed, engine, plan, hard_timeout, index
                    )
                elif chaos_name == "journal-torn":
                    ok, detail, fired = _exec_journal(
                        family_name, params, seed, engine, plan, hard_timeout
                    )
                else:
                    ok, detail, fired = _exec_store(
                        family_name, params, seed, engine, plan, hard_timeout
                    )
        except ChaosHang as exc:
            ok, detail, fired = False, str(exc), faults.fired_faults()
        except Exception as exc:  # noqa: BLE001 - an unhealed fault is a finding
            ok = False
            detail = f"faulted run raised {type(exc).__name__}: {exc}"
            fired = faults.fired_faults()
        finally:
            faults.clear_plan()
        elapsed = time.monotonic() - started

        incident_counts: dict[str, int] = {}
        for entry in incidents():
            incident_counts[entry["kind"]] = incident_counts.get(entry["kind"], 0) + 1
        leaked_pids = _leaked_children(before_children)
        if ok and leaked_pids:
            ok = False
            detail = f"leaked child processes: {leaked_pids}"

        outcome = ChaosOutcome(
            index=index,
            scenario=chaos_name,
            family=family_name,
            params=dict(params),
            engine=engine,
            seed=seed,
            plan=plan.to_dict(),
            ok=ok,
            detail=detail,
            fired=list(fired),
            incidents=incident_counts,
            recovered=bool(ok and fired),
            leaked_pids=leaked_pids,
            seconds=elapsed,
        )
        report.outcomes.append(outcome)
        if not ok:
            if progress is not None:
                progress(f"  FAIL [{chaos_name}]: {detail}")
            if reproducers_dir is not None:
                write_chaos_reproducer(outcome, reproducers_dir)
    return report
