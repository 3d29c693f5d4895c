"""Command-line interface: ``python -m repro <command>``.

Commands
--------
scenarios list the registered verification scenarios (``--json`` for tooling)
families  list the registered scenario families + their parameters
engines   list the registered solver engines (``--json`` for tooling)
verify    run the Figure-1 verification on a registered scenario
          (``--scenario``) or on the paper's Dubins case study with a
          hand-built, trained, or JSON-loaded controller
profile   per-stage latency breakdown of a scenario verify
batch     verify several scenarios in parallel worker processes
sweep     shard a family's parameter grid across workers, skipping the
          content-addressed artifact cache's hits
serve     run the verification service (async job API over the store)
submit    submit a scenario/family job to a running service
jobs      list a running service's jobs
watch     stream one job's stage/point progress events
cancel    cancel a service job
train     CMA-ES policy search; optionally save the controller
falsify   simulation-based falsification baseline on the same problem
table1    regenerate Table 1 (``--families`` appends family rows)
figure4   regenerate Figure 4's training-evolution metrics
figure5   regenerate Figure 5 (phase portrait, ASCII)
fuzz      differential fuzz of the scenario-family corpus: sampled
          parameter points checked for cross-engine verdict agreement,
          cache-key stability, artifact JSON round-trips, and twin
          expected-verdict conformance; failures shrink to minimal
          reproducers under ``tests/corpus/regressions/``
chaos     re-run corpus points under seeded fault injection (worker
          kills, torn journal/store writes) and assert every
          fault is recovered: no hangs, no verdict flips, no leaked
          processes

``verify``, ``batch``, ``sweep``, and ``table1`` accept ``--engine`` to
pick the solver stack (``repro engines`` lists them; default
``native``).  ``sweep`` caches artifacts under ``$REPRO_STORE`` (default
``~/.cache/repro/store``); ``REPRO_CACHE=1`` opts ``verify``/``batch``
into the same cache.  ``repro serve`` exposes the same cached runs as a
long-lived HTTP job service (see ``docs/service.md``); ``submit`` /
``jobs`` / ``watch`` / ``cancel`` talk to it via ``--url``.

``sweep`` and ``batch`` exit nonzero when any point errors, so CI
wrappers can gate on partial failures.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    from . import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Barrier-certificate verification of NN-controlled CPS "
        "(reproduction of Tuncali et al., DAC 2018)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_scenarios = sub.add_parser("scenarios", help="list registered scenarios")
    p_scenarios.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (for tooling)",
    )

    p_families = sub.add_parser(
        "families", help="list registered scenario families"
    )
    p_families.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (for tooling)",
    )

    p_engines = sub.add_parser("engines", help="list registered solver engines")
    p_engines.add_argument(
        "--json", action="store_true",
        help="emit the registry as JSON (for tooling)",
    )

    p_verify = sub.add_parser("verify", help="verify a controller or scenario")
    p_verify.add_argument(
        "--scenario", type=str, default="",
        help="registered scenario name (see `repro scenarios`); overrides "
        "the controller flags below",
    )
    # None = "not given": lets --scenario runs keep their bundled config
    # while an explicit flag (even at its default value) always wins.
    p_verify.add_argument("--neurons", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=None,
                          help="synthesis seed (default 0)")
    p_verify.add_argument("--delta", type=float, default=None,
                          help="solver precision (default 1e-3)")
    p_verify.add_argument("--gamma", type=float, default=None,
                          help="Lie-derivative slack (default 1e-6)")
    p_verify.add_argument(
        "--controller", type=str, default="",
        help="JSON file of a saved controller (default: hand-built)",
    )
    p_verify.add_argument(
        "--trained", action="store_true",
        help="train with CMA-ES before verifying",
    )
    p_verify.add_argument(
        "--json", type=str, default="", metavar="FILE",
        help="also write the RunArtifact as JSON",
    )
    p_verify.add_argument(
        "--engine", type=str, default=None,
        help="solver engine (see `repro engines`; default: native)",
    )

    p_profile = sub.add_parser(
        "profile",
        help="per-stage latency breakdown of one scenario verify",
    )
    p_profile.add_argument(
        "scenario", metavar="SCENARIO",
        help="registered scenario name (see `repro scenarios`)",
    )
    p_profile.add_argument(
        "--engine", type=str, default=None,
        help="solver engine (see `repro engines`; default: scenario's own)",
    )
    p_profile.add_argument(
        "--repeats", type=int, default=3,
        help="runs per configuration; the fastest is reported (default 3)",
    )
    p_profile.add_argument(
        "--json", type=str, default="", metavar="FILE",
        help="also write the profile report as JSON",
    )

    p_batch = sub.add_parser(
        "batch", help="verify several scenarios in parallel"
    )
    p_batch.add_argument(
        "names", nargs="*", metavar="SCENARIO",
        help="scenario names (default: every registered scenario)",
    )
    p_batch.add_argument(
        "--workers", type=int, default=None,
        help="worker processes (default: min(#scenarios, cpu count))",
    )
    p_batch.add_argument(
        "--json", type=str, default="", metavar="FILE",
        help="write the list of RunArtifacts as JSON",
    )
    p_batch.add_argument(
        "--engine", type=str, default=None,
        help="solver engine for every run (see `repro engines`)",
    )
    p_batch.add_argument(
        "--seed", type=int, default=None,
        help="batch seed: each scenario derives its own deterministic "
        "synthesis seed, making artifacts reproducible for any --workers",
    )

    p_sweep = sub.add_parser(
        "sweep",
        help="sweep a scenario family's parameter space (cached, sharded)",
    )
    p_sweep.add_argument(
        "family", metavar="FAMILY",
        help="registered family name (see `repro families`)",
    )
    p_sweep.add_argument(
        "--grid", nargs="+", metavar="PARAM=SPEC", default=[],
        help="parameter axes: lo:hi:count linspace (speed=2:6:3), "
        "comma list (nn_width=8,10), or a single value",
    )
    p_sweep.add_argument(
        "--samples", type=int, default=None,
        help="instead of --grid: draw N uniform random points within "
        "each parameter's declared bounds",
    )
    p_sweep.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for cache misses (default: auto)",
    )
    p_sweep.add_argument(
        "--seed", type=int, default=0,
        help="sweep seed: sampling + per-point synthesis seeds derive "
        "from it (default 0)",
    )
    p_sweep.add_argument(
        "--engine", type=str, default=None,
        help="solver engine for every run (see `repro engines`)",
    )
    p_sweep.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="artifact cache directory (default: $REPRO_STORE or "
        "~/.cache/repro/store)",
    )
    p_sweep.add_argument(
        "--no-cache", action="store_true",
        help="disable the artifact cache (re-run every point)",
    )
    p_sweep.add_argument(
        "--json", type=str, default="", metavar="FILE",
        help="write the full sweep report (aggregate + runs) as JSON",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the verification service (async job API over the store)",
    )
    p_serve.add_argument(
        "--host", type=str, default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    p_serve.add_argument(
        "--port", type=int, default=None,
        help="TCP port (default 7463; 0 picks a free port)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=2,
        help="worker parallelism / in-flight cap (default 2)",
    )
    p_serve.add_argument(
        "--store", type=str, default=None, metavar="DIR",
        help="artifact store root (default: $REPRO_STORE or "
        "~/.cache/repro/store)",
    )
    p_serve.add_argument(
        "--threads", action="store_true",
        help="execute in-process on threads instead of the warm "
        "process pool (tests/smoke runs)",
    )
    p_serve.add_argument(
        "--no-journal", action="store_true",
        help="skip the JSON job journal (no restart recovery)",
    )

    _URL_HELP = "service base URL (default http://127.0.0.1:7463)"

    p_submit = sub.add_parser(
        "submit", help="submit a scenario/family job to a running service"
    )
    p_submit.add_argument(
        "target", metavar="TARGET",
        help="registered family (with --grid/--samples) or scenario name",
    )
    p_submit.add_argument(
        "--grid", nargs="+", metavar="PARAM=SPEC", default=[],
        help="family grid axes (same mini-language as `repro sweep`)",
    )
    p_submit.add_argument(
        "--samples", type=int, default=None,
        help="instead of --grid: N uniform random parameter points",
    )
    p_submit.add_argument("--seed", type=int, default=0, help="job seed")
    p_submit.add_argument(
        "--engine", type=str, default=None,
        help="solver engine for every point",
    )
    p_submit.add_argument(
        "--priority", type=int, default=0,
        help="queue priority (higher dispatches first; default 0)",
    )
    p_submit.add_argument(
        "--max-retries", type=int, default=0,
        help="re-run errored points this many times before the job "
        "dead-letters (default 0: fail fast)",
    )
    p_submit.add_argument("--url", type=str, default=None, help=_URL_HELP)
    p_submit.add_argument(
        "--wait", action="store_true",
        help="block until the job reaches a terminal state",
    )
    p_submit.add_argument(
        "--timeout", type=float, default=None,
        help="give up on --wait after this many seconds",
    )
    p_submit.add_argument(
        "--json", type=str, default="", metavar="FILE",
        help="write the (final, with --wait) job status as JSON",
    )

    p_jobs = sub.add_parser("jobs", help="list a running service's jobs")
    p_jobs.add_argument("--url", type=str, default=None, help=_URL_HELP)
    p_jobs.add_argument(
        "--json", action="store_true", help="emit the job list as JSON"
    )

    p_watch = sub.add_parser(
        "watch", help="stream one job's stage/point progress events"
    )
    p_watch.add_argument("job_id", metavar="JOB")
    p_watch.add_argument("--url", type=str, default=None, help=_URL_HELP)
    p_watch.add_argument(
        "--json", action="store_true",
        help="print raw NDJSON events instead of human-readable lines",
    )

    p_cancel = sub.add_parser("cancel", help="cancel a service job")
    p_cancel.add_argument("job_id", metavar="JOB")
    p_cancel.add_argument("--url", type=str, default=None, help=_URL_HELP)

    p_train = sub.add_parser("train", help="CMA-ES policy search")
    p_train.add_argument("--neurons", type=int, default=10)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--population", type=int, default=24)
    p_train.add_argument("--iterations", type=int, default=30)
    p_train.add_argument("--safe", action="store_true",
                         help="add the simulated safety penalty (future-work mode)")
    p_train.add_argument("--save", type=str, default="")

    p_falsify = sub.add_parser("falsify", help="falsification baseline")
    p_falsify.add_argument("--neurons", type=int, default=10)
    p_falsify.add_argument("--seed", type=int, default=0)
    p_falsify.add_argument("--budget", type=int, default=200)
    p_falsify.add_argument(
        "--method", choices=("random", "cmaes"), default="cmaes"
    )
    p_falsify.add_argument(
        "--unsafe-controller", action="store_true",
        help="flip the controller gains to demo a successful falsification",
    )

    p_table1 = sub.add_parser("table1", help="regenerate Table 1")
    p_table1.add_argument(
        "--widths", type=int, nargs="+", default=None,
        help="hidden-layer widths (default: the paper's 12)",
    )
    p_table1.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    p_table1.add_argument(
        "--workers", type=int, default=1,
        help="parallelize the (width, seed) runs over worker processes",
    )
    p_table1.add_argument(
        "--engine", type=str, default=None,
        help="solver engine for every run (see `repro engines`)",
    )
    p_table1.add_argument(
        "--scenarios", type=str, nargs="+", default=[],
        help="registered scenario names appended as extra table rows "
        "(e.g. bicycle cartpole)",
    )
    p_table1.add_argument(
        "--families", type=str, nargs="+", default=[],
        metavar="FAMILY[:K=V,...]",
        help="family instantiations appended as extra rows "
        "(e.g. bicycle:wheelbase=1.5 dubins:speed=2)",
    )

    p_fig4 = sub.add_parser("figure4", help="regenerate Figure 4 metrics")
    p_fig4.add_argument("--neurons", type=int, default=10)
    p_fig4.add_argument("--seed", type=int, default=0)
    p_fig4.add_argument("--population", type=int, default=28)
    p_fig4.add_argument("--iterations", type=int, default=32)

    p_fig5 = sub.add_parser("figure5", help="regenerate Figure 5 (ASCII)")
    p_fig5.add_argument("--neurons", type=int, default=10)
    p_fig5.add_argument("--seed", type=int, default=0)

    p_fuzz = sub.add_parser(
        "fuzz", help="differential fuzz of the scenario-family corpus"
    )
    p_fuzz.add_argument(
        "--samples", type=int, default=50, help="parameter points to check"
    )
    p_fuzz.add_argument(
        "--seed", type=int, default=0, help="campaign seed (reproducible)"
    )
    p_fuzz.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="FAMILY",
        help="restrict the rotation (default: every registered family)",
    )
    p_fuzz.add_argument(
        "--engines",
        nargs="+",
        default=None,
        metavar="ENGINE",
        help="engines to cross-check (default: native batched-icp)",
    )
    p_fuzz.add_argument(
        "--no-twins",
        action="store_true",
        help="skip the twin expected-verdict invariant",
    )
    p_fuzz.add_argument(
        "--no-shrink",
        action="store_true",
        help="report failures at the sampled point without minimising",
    )
    p_fuzz.add_argument(
        "--regressions",
        default="tests/corpus/regressions",
        help="directory reproducers are written to on failure "
        "(default: %(default)s)",
    )
    p_fuzz.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p_fuzz.add_argument(
        "--quiet", action="store_true", help="suppress per-point progress"
    )

    p_chaos = sub.add_parser(
        "chaos", help="re-run the corpus under injected faults"
    )
    p_chaos.add_argument(
        "--samples", type=int, default=25, help="fault scenarios to run"
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, help="campaign seed (reproducible)"
    )
    p_chaos.add_argument(
        "--families",
        nargs="+",
        default=None,
        metavar="FAMILY",
        help="restrict the rotation (default: every non-stress family)",
    )
    p_chaos.add_argument(
        "--scenarios",
        nargs="+",
        default=None,
        metavar="SCENARIO",
        help="restrict the fault rotation (default: all of them)",
    )
    p_chaos.add_argument(
        "--hard-timeout",
        type=float,
        default=None,
        help="per-sample wall-clock budget in seconds (default: 120)",
    )
    p_chaos.add_argument(
        "--reproducers",
        default="tests/resilience/reproducers",
        help="directory failing samples are written to "
        "(default: %(default)s)",
    )
    p_chaos.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )
    p_chaos.add_argument(
        "--quiet", action="store_true", help="suppress per-sample progress"
    )
    return parser


def _print_artifact(artifact) -> None:
    print(f"status: {artifact.status}")
    print(f"candidate iterations: {artifact.candidate_iterations}")
    print(
        f"time: LP {artifact.lp_seconds:.2f}s, SMT {artifact.query_seconds:.2f}s, "
        f"other {artifact.other_seconds:.2f}s, total {artifact.total_seconds:.2f}s"
    )
    if artifact.stage_seconds:
        stages = ", ".join(
            f"{name} {seconds:.2f}s"
            for name, seconds in artifact.stage_seconds.items()
        )
        print(f"stages: {stages}")
    if artifact.verified:
        print(f"barrier level: {artifact.level:.6g}")


def _cmd_scenarios(args: argparse.Namespace) -> int:
    import json

    from .api import list_scenarios

    scenarios = list_scenarios()
    if args.json:
        payload = [
            {
                "name": s.name,
                "description": s.description,
                "dimension": s.dimension,
                "tags": list(s.tags),
            }
            for s in scenarios
        ]
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(s.name) for s in scenarios)
    for scenario in scenarios:
        tags = f" [{','.join(scenario.tags)}]" if scenario.tags else ""
        print(
            f"{scenario.name:<{width}}  {scenario.dimension}D{tags}  "
            f"{scenario.description}"
        )
    print(f"\n{len(scenarios)} scenarios registered")
    return 0


def _cmd_families(args: argparse.Namespace) -> int:
    import json

    from .api import list_families

    families = list_families()
    if args.json:
        payload = [
            {
                "name": f.name,
                "description": f.description,
                "tags": list(f.tags),
                "parameters": [
                    {
                        "name": p.name,
                        "kind": p.kind,
                        "default": p.default,
                        "low": p.low,
                        "high": p.high,
                        "choices": list(p.choices),
                        "description": p.description,
                    }
                    for p in f.parameters
                ],
            }
            for f in families
        ]
        print(json.dumps(payload, indent=2))
        return 0
    width = max(len(f.name) for f in families)
    for family in families:
        params = ", ".join(
            f"{p.name}={p.default}" for p in family.parameters
        )
        print(f"{family.name:<{width}}  ({params})  {family.description}")
    print(f"\n{len(families)} families registered")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    import json

    from .api import sweep

    grid = _parse_grid_tokens(args.grid)
    cache: object
    if args.no_cache:
        cache = False
    elif args.store:
        cache = args.store
    else:
        cache = True
    report = sweep(
        args.family,
        grid=grid,
        samples=args.samples,
        seed=args.seed,
        workers=args.workers,
        engine=args.engine,
        cache=cache,
    )
    width = max((len(a.scenario) for a in report.artifacts), default=8)
    for artifact in report.artifacts:
        level = f"level {artifact.level:.6g}" if artifact.verified else ""
        hit = " [cached]" if artifact.cached else ""
        error = f" ({artifact.error})" if artifact.error else ""
        print(
            f"{artifact.scenario:<{width}}  {artifact.status:<14} "
            f"{artifact.total_seconds:7.2f}s  {level}{hit}{error}"
        )
    print()
    print(report.format())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"report written to {args.json}")
    # Any errored point fails the invocation — a partially failed sweep
    # must not look green to CI wrappers.
    failed = any(a.status == "error" or a.error for a in report.artifacts)
    return 1 if failed else 0


def _parse_grid_tokens(tokens: "Sequence[str]") -> "dict[str, str] | None":
    """``PARAM=SPEC`` tokens -> grid mapping (None when no tokens)."""
    from .errors import ReproError

    if not tokens:
        return None
    grid: dict[str, str] = {}
    for token in tokens:
        key, eq, value = token.partition("=")
        if not eq or not key.strip() or not value.strip():
            raise ReproError(f"bad --grid token {token!r} (expected PARAM=SPEC)")
        grid[key.strip()] = value.strip()
    return grid


def _service_client(url: "str | None"):
    from .service import DEFAULT_PORT, ServiceClient

    return ServiceClient(url or f"http://127.0.0.1:{DEFAULT_PORT}")


def _print_job_status(status: dict) -> None:
    bits = [
        f"{status['id']}  {status['state']:<9}",
        f"{status['done_points']}/{status['total_points']} points",
        f"{status['cached_points']} cached",
        f"{status['dispatched']} dispatched",
    ]
    if status.get("coalesced"):
        bits.append(f"{status['coalesced']} coalesced")
    if status.get("retries") or status.get("max_retries"):
        bits.append(
            f"{status.get('retries', 0)}/{status.get('max_retries', 0)} retries"
        )
    if status.get("error"):
        bits.append(f"error: {status['error']}")
    print("  ".join(bits))


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .service import DEFAULT_PORT, EventBus, Scheduler, ServiceServer
    from .store import ArtifactStore

    store = ArtifactStore(args.store) if args.store else ArtifactStore()
    scheduler = Scheduler(
        store,
        pool=False if args.threads else True,
        workers=args.workers,
        events=EventBus(),
        journal=None if args.no_journal else True,
    )
    recovered = scheduler.recover()
    if recovered:
        print(f"recovered {len(recovered)} unfinished job(s) from the journal")
    server = ServiceServer(
        scheduler,
        host=args.host,
        port=DEFAULT_PORT if args.port is None else args.port,
    )

    async def main() -> None:
        await server.start()
        print(
            f"repro service listening on http://{server.host}:{server.port} "
            f"(store {store.root}, {scheduler.workers} workers)",
            flush=True,
        )
        await server.serve_forever()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("shutting down")
    finally:
        scheduler.shutdown()
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    import json

    client = _service_client(args.url)
    status = client.submit(
        args.target,
        grid=_parse_grid_tokens(args.grid),
        samples=args.samples,
        seed=args.seed,
        engine=args.engine,
        priority=args.priority,
        max_retries=args.max_retries,
    )
    _print_job_status(status)
    if args.wait:
        status = client.wait(status["id"], timeout=args.timeout)
        _print_job_status(status)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(status, handle, indent=2, sort_keys=True)
        print(f"status written to {args.json}")
    if args.wait:
        return 0 if status["state"] == "DONE" else 1
    return 0


def _cmd_jobs(args: argparse.Namespace) -> int:
    import json

    jobs = _service_client(args.url).jobs()
    if args.json:
        print(json.dumps(jobs, indent=2, sort_keys=True))
        return 0
    if not jobs:
        print("no jobs")
        return 0
    for status in jobs:
        _print_job_status(status)
    return 0


def _cmd_watch(args: argparse.Namespace) -> int:
    import json

    client = _service_client(args.url)
    final_state = None
    for event in client.stream(args.job_id):
        if args.json:
            print(json.dumps(event, sort_keys=True), flush=True)
        elif event.get("type") == "stage":
            if event.get("kind") == "end":
                print(
                    f"  {event.get('point')}: {event.get('stage')} "
                    f"({event.get('seconds', 0.0):.2f}s)",
                    flush=True,
                )
        elif event.get("type") == "point":
            origin = "cache" if event.get("cached") else "worker"
            print(
                f"point {event.get('index')} {event.get('point')}: "
                f"{event.get('status')} [{origin}]",
                flush=True,
            )
        elif event.get("type") == "job":
            final_state = event.get("state")
            print(f"job {event.get('job')}: {final_state}", flush=True)
    return 0 if final_state == "DONE" else 1


def _cmd_cancel(args: argparse.Namespace) -> int:
    status = _service_client(args.url).cancel(args.job_id)
    _print_job_status(status)
    return 0


def _cmd_engines(args: argparse.Namespace) -> int:
    import json

    from .engine import list_engines

    engines = list_engines()
    if args.json:
        print(json.dumps([e.describe() for e in engines], indent=2))
        return 0
    width = max(len(e.name) for e in engines)
    for engine in engines:
        tags = f" [{','.join(engine.tags)}]" if engine.tags else ""
        print(f"{engine.name:<{width}}{tags}  {engine.description}")
    print(f"\n{len(engines)} engines registered")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    import dataclasses

    from .api import dubins_scenario, get_scenario, run
    from .barrier import SynthesisConfig
    from .nn import load_network
    from .smt import IcpConfig

    if args.scenario:
        # Start from the scenario's bundled config (it may be load-bearing)
        # and apply only the flags the user actually passed.
        scenario = get_scenario(args.scenario)
        config = scenario.config
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.gamma is not None:
            overrides["gamma"] = args.gamma
        if args.delta is not None:
            overrides["icp"] = dataclasses.replace(config.icp, delta=args.delta)
        if overrides:
            config = dataclasses.replace(config, **overrides)
    else:
        seed = 0 if args.seed is None else args.seed
        if args.controller:
            scenario = dubins_scenario(network=load_network(args.controller))
        else:
            scenario = dubins_scenario(
                hidden_neurons=args.neurons, trained=args.trained, seed=seed
            )
        config = SynthesisConfig(
            seed=seed,
            gamma=1e-6 if args.gamma is None else args.gamma,
            icp=IcpConfig(delta=1e-3 if args.delta is None else args.delta),
        )
    artifact = run(scenario, config=config, engine=args.engine)
    _print_artifact(artifact)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(artifact.to_json(indent=2))
        print(f"artifact written to {args.json}")
    return 0 if artifact.verified else 1


def _cmd_profile(args: argparse.Namespace) -> int:
    import json

    from .perf import format_profile, profile_scenario

    report = profile_scenario(
        args.scenario,
        engine=args.engine,
        repeats=args.repeats,
    )
    print(format_profile(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        print(f"profile written to {args.json}")
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    import json

    from .api import run_batch, scenario_names

    names = list(args.names) if args.names else list(scenario_names())
    artifacts = run_batch(
        names, workers=args.workers, seed=args.seed, engine=args.engine
    )
    width = max(len(a.scenario) for a in artifacts)
    for artifact in artifacts:
        level = f"level {artifact.level:.6g}" if artifact.verified else ""
        error = f" ({artifact.error})" if artifact.error else ""
        print(
            f"{artifact.scenario:<{width}}  {artifact.status:<14} "
            f"{artifact.total_seconds:7.2f}s  {level}{error}"
        )
    if args.json:
        payload = json.dumps([a.to_dict() for a in artifacts], indent=2)
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(payload)
        print(f"artifacts written to {args.json}")
    # Errors always fail the invocation; unverified-but-clean runs also
    # exit 1 (historical contract: batch means "verify everything").
    if any(a.status == "error" or a.error for a in artifacts):
        return 1
    return 0 if all(a.verified for a in artifacts) else 1


def _cmd_train(args: argparse.Namespace) -> int:
    from .learning import train_paper_controller
    from .learning.safe_train import train_safe_controller
    from .nn import save_network

    if args.safe:
        result = train_safe_controller(
            hidden_neurons=args.neurons,
            seed=args.seed,
            population_size=args.population,
            max_iterations=args.iterations,
        )
        network = result.network
        print(
            f"tracking cost {result.tracking_cost:.1f}, "
            f"safety penalty {result.safety_penalty:.1f}, "
            f"verified: {result.verified}"
        )
    else:
        outcome = train_paper_controller(
            hidden_neurons=args.neurons,
            seed=args.seed,
            population_size=args.population,
            max_iterations=args.iterations,
        )
        network = outcome.network
        history = outcome.cmaes.history
        print(f"cost J: {history[0]:.1f} -> {history[-1]:.1f}")
    if args.save:
        save_network(network, args.save)
        print(f"saved to {args.save}")
    return 0


def _cmd_falsify(args: argparse.Namespace) -> int:
    from .api import paper_problem
    from .barrier.falsify import falsify_cmaes, falsify_random
    from .learning import proportional_controller_network

    gain = -1.0 if args.unsafe_controller else 1.0
    network = proportional_controller_network(
        args.neurons, d_gain=0.6 * gain, theta_gain=2.0 * gain
    )
    problem = paper_problem(network)
    falsifier = falsify_cmaes if args.method == "cmaes" else falsify_random
    result = falsifier(
        problem.system,
        problem.initial_set,
        problem.unsafe_set,
        budget=args.budget,
        seed=args.seed,
    )
    print(result)
    if result.falsified:
        print(f"counterexample initial state: {result.best_initial_state}")
        return 0
    print("no counterexample found — run `repro verify` for an actual proof")
    return 1


def _cmd_table1(args: argparse.Namespace) -> int:
    from .experiments import PAPER_NEURON_COUNTS, format_table1, run_table1

    widths = tuple(args.widths) if args.widths else PAPER_NEURON_COUNTS
    rows = run_table1(
        neuron_counts=widths,
        seeds=tuple(args.seeds),
        workers=args.workers,
        engine=args.engine,
        scenarios=tuple(args.scenarios),
        families=tuple(args.families),
    )
    print(format_table1(rows))
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    from .experiments import format_figure4, run_figure4

    data = run_figure4(
        hidden_neurons=args.neurons,
        seed=args.seed,
        population_size=args.population,
        max_iterations=args.iterations,
        snapshot_iterations=(5, args.iterations // 2),
    )
    print(format_figure4(data))
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    from .experiments import format_figure5, render_ascii, run_figure5

    data = run_figure5(hidden_neurons=args.neurons, seed=args.seed)
    print(format_figure5(data))
    print()
    print(render_ascii(data))
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    import json as json_module

    from .corpus import DEFAULT_ENGINES, fuzz

    progress = None if (args.quiet or args.json) else print
    report = fuzz(
        samples=args.samples,
        seed=args.seed,
        families=tuple(args.families) if args.families else None,
        engines=tuple(args.engines) if args.engines else DEFAULT_ENGINES,
        twins=not args.no_twins,
        shrink=not args.no_shrink,
        regressions_dir=args.regressions,
        progress=progress,
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return 0 if report.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json as json_module

    from .resilience.chaos import DEFAULT_HARD_TIMEOUT, chaos

    progress = None if (args.quiet or args.json) else print
    report = chaos(
        samples=args.samples,
        seed=args.seed,
        families=tuple(args.families) if args.families else None,
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        hard_timeout=(
            args.hard_timeout
            if args.hard_timeout is not None
            else DEFAULT_HARD_TIMEOUT
        ),
        reproducers_dir=args.reproducers,
        progress=progress,
    )
    if args.json:
        print(json_module.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.format())
    return 0 if report.ok else 1


_COMMANDS = {
    "scenarios": _cmd_scenarios,
    "families": _cmd_families,
    "engines": _cmd_engines,
    "verify": _cmd_verify,
    "profile": _cmd_profile,
    "batch": _cmd_batch,
    "sweep": _cmd_sweep,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "watch": _cmd_watch,
    "cancel": _cmd_cancel,
    "train": _cmd_train,
    "falsify": _cmd_falsify,
    "table1": _cmd_table1,
    "figure4": _cmd_figure4,
    "figure5": _cmd_figure5,
    "fuzz": _cmd_fuzz,
    "chaos": _cmd_chaos,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
