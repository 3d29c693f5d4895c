"""The differential fuzz harness: invariants, shrinking, reproducers.

The centerpiece is the injected-bug demo the acceptance criteria ask
for: a deliberately broken engine (its SMT backend claims *every*
condition-(5) query is delta-sat) is registered, fuzzed against the
healthy stack, caught by the cross-engine invariant, shrunk to the
family's default point, written as a reproducer, and replayed.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.corpus import (
    CHECK_KINDS,
    DEFAULT_ENGINES,
    FuzzFailure,
    check_point,
    fuzz,
    load_regressions,
    replay_failure,
    shrink_failure,
    write_regression,
)
from repro.corpus.fuzz import FUZZ_CLAMPS
from repro.engine import Engine, get_engine, register_engine
from repro.engine.base import unregister_engine
from repro.errors import ReproError
from repro.smt import SmtResult, Verdict


class _AlwaysSatBackend:
    """A broken SMT backend: every query 'finds' a counterexample.

    Condition (5) then never certifies, so the CEGIS loop churns until
    ``no-candidate`` — a verdict bug the differential harness must
    catch against the healthy engines.
    """

    name = "always-sat"

    def check(self, subproblems, names, config=None):
        return SmtResult(
            verdict=Verdict.DELTA_SAT,
            delta=config.delta if config is not None else 1e-3,
            witness=np.zeros(len(names)),
            witness_validated=True,
        )


@pytest.fixture
def broken_engine():
    healthy = get_engine("batched-icp")
    name = "test-broken-smt"
    register_engine(
        Engine(
            name=name,
            description="deliberately broken: every SMT query is delta-sat",
            sim=healthy.sim,
            lp=healthy.lp,
            smt=_AlwaysSatBackend(),
            tags=("test",),
        ),
        replace=True,
    )
    yield name
    unregister_engine(name)


def test_check_point_clean_on_linear_defaults():
    assert check_point("linear", {}, seed=0) is None


def test_check_point_rejects_unknown_kind():
    with pytest.raises(ReproError, match="unknown check kind"):
        check_point("linear", {}, seed=0, kinds=("bogus",))


def test_stress_families_stay_on_the_cheap_tier():
    """cartpole/quadrotor must not launch engine runs from the fuzzer."""
    assert check_point("cartpole", {}, seed=0) is None
    assert check_point("quadrotor", {}, seed=0) is None


def test_clamps_reference_real_parameters():
    from repro.api import get_family

    for family_name, clamps in FUZZ_CLAMPS.items():
        family = get_family(family_name)
        for param, (low, high) in clamps.items():
            spec = family.spec(param)
            assert low >= (spec.low if spec.low is not None else low)
            assert high <= (spec.high if spec.high is not None else high)


def test_failure_roundtrip_and_digest_stability():
    failure = FuzzFailure(
        kind="cross-engine",
        family="linear",
        params={"damping": 0.3, "rotation": 1.2},
        seed=7,
        engines=("native", "batched-icp"),
        detail="verdicts disagree",
    )
    assert FuzzFailure.from_dict(failure.to_dict()) == failure
    assert failure.digest() == failure.digest()
    relabeled = FuzzFailure.from_dict(
        {**failure.to_dict(), "detail": "different prose"}
    )
    assert relabeled.digest() == failure.digest()


def test_fuzz_campaign_is_seed_deterministic():
    kwargs = dict(
        samples=2,
        families=("linear",),
        engines=("batched-icp",),
        twins=False,
        shrink=False,
    )
    first = fuzz(seed=3, **kwargs)
    second = fuzz(seed=3, **kwargs)
    assert first.to_dict() == second.to_dict()
    assert first.ok


def test_injected_verdict_bug_is_caught_and_shrunk(broken_engine, tmp_path):
    """Acceptance demo: a verdict bug is found, minimised, and replayed."""
    engines = ("batched-icp", broken_engine)
    point = {"damping": 0.3700412, "rotation": 1.9134772}
    failure = check_point("linear", point, seed=0, engines=engines, twins=False)
    assert failure is not None
    assert failure.kind == "cross-engine"
    assert "verdicts disagree" in failure.detail
    assert broken_engine in failure.detail

    shrunk = shrink_failure(failure)
    assert shrunk.shrunk
    from repro.api import get_family

    defaults = {
        spec.name: spec.default
        for spec in get_family("linear").parameters
    }
    assert shrunk.params == defaults, "bug reproduces at defaults, so the minimal point IS the defaults"

    path = write_regression(shrunk, tmp_path)
    loaded = load_regressions(tmp_path)
    assert [p.name for p, _ in loaded] == [path.name]
    still_failing = replay_failure(loaded[0][1])
    assert still_failing is not None
    assert still_failing.kind == "cross-engine"


def test_replay_returns_none_once_fixed(broken_engine, tmp_path):
    """A reproducer against a since-fixed stack replays clean."""
    engines = ("batched-icp", broken_engine)
    failure = check_point("linear", {}, seed=0, engines=engines, twins=False)
    assert failure is not None
    unregister_engine(broken_engine)
    register_engine(
        Engine(
            name=broken_engine,
            description="fixed: healthy batched stack under the old name",
            sim=get_engine("batched-icp").sim,
            lp=get_engine("batched-icp").lp,
            smt=get_engine("batched-icp").smt,
            tags=("test",),
        ),
        replace=True,
    )
    assert replay_failure(failure.to_dict()) is None


def test_fuzz_writes_reproducers_on_failure(broken_engine, tmp_path):
    report = fuzz(
        samples=1,
        seed=0,
        families=("linear",),
        engines=("batched-icp", broken_engine),
        twins=False,
        shrink=True,
        regressions_dir=tmp_path,
    )
    assert not report.ok
    assert len(report.failures) == 1
    assert report.failures[0].shrunk
    assert len(report.written) == 1
    data = json.loads((tmp_path / report.written[0].split("/")[-1]).read_text())
    assert data["kind"] == "cross-engine"
    assert "FAIL [cross-engine]" in report.format()


def test_report_format_mentions_the_cheap_tier():
    report = fuzz(
        samples=1,
        seed=0,
        families=("quadrotor",),
        engines=("batched-icp",),
        twins=False,
    )
    assert report.ok
    assert report.skipped_stress == 1
    assert "stress points" in report.format()


def test_default_engine_set_is_the_full_matrix():
    assert DEFAULT_ENGINES == ("native", "batched-icp")
    assert CHECK_KINDS == ("cache-key", "cross-engine", "round-trip", "twin")


def test_cli_fuzz_exits_zero_on_clean_tree(tmp_path, capsys):
    from repro.cli import main

    code = main(
        [
            "fuzz",
            "--samples",
            "1",
            "--families",
            "linear",
            "--engines",
            "batched-icp",
            "--no-twins",
            "--quiet",
            "--regressions",
            str(tmp_path),
        ]
    )
    assert code == 0
    assert "all invariants held" in capsys.readouterr().out


def test_cli_fuzz_exits_nonzero_and_writes_corpus(
    broken_engine, tmp_path, capsys
):
    from repro.cli import main

    code = main(
        [
            "fuzz",
            "--samples",
            "1",
            "--families",
            "linear",
            "--engines",
            "batched-icp",
            broken_engine,
            "--no-twins",
            "--json",
            "--regressions",
            str(tmp_path),
        ]
    )
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    assert payload["failures"][0]["kind"] == "cross-engine"
    assert list(tmp_path.glob("*.json"))
