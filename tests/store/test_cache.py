"""Cache correctness: byte-identical hits, misses on any knob change."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro import api
from repro.barrier import SynthesisConfig
from repro.smt import IcpConfig
from repro.store import (
    ArtifactStore,
    default_store_root,
    resolve_store,
    run_fingerprint,
    run_key,
)


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def linear_point():
    """A cheap family-instantiated scenario (sub-second verification)."""
    return api.get_family("linear").instantiate(damping=0.5, rotation=1.0)


# ----------------------------------------------------------------------
# Keys / fingerprints
# ----------------------------------------------------------------------
class TestRunKey:
    def test_key_is_deterministic(self, linear_point):
        config = linear_point.config
        assert run_key(linear_point, config, "native") == run_key(
            linear_point, config, "native"
        )

    def test_key_misses_on_seed_change(self, linear_point):
        base = linear_point.config
        changed = dataclasses.replace(base, seed=base.seed + 1)
        assert run_key(linear_point, base, "native") != run_key(
            linear_point, changed, "native"
        )

    def test_key_misses_on_config_change(self, linear_point):
        base = linear_point.config
        changed = dataclasses.replace(base, icp=IcpConfig(delta=1e-2))
        assert run_key(linear_point, base, "native") != run_key(
            linear_point, changed, "native"
        )

    def test_key_misses_on_engine_change(self, linear_point):
        config = linear_point.config
        assert run_key(linear_point, config, "native") != run_key(
            linear_point, config, "batched-icp"
        )

    def test_key_misses_on_params_change(self):
        family = api.get_family("linear")
        a = family.instantiate(damping=0.5)
        b = family.instantiate(damping=0.7)
        assert run_key(a, a.config, "native") != run_key(b, b.config, "native")

    def test_key_independent_of_scenario_name_for_family_runs(self):
        """Family identity comes from (family, params), not display name."""
        point = api.get_family("linear").instantiate(damping=0.5)
        renamed = dataclasses.replace(point, name="something-else")
        assert run_key(point, point.config, "native") == run_key(
            renamed, renamed.config, "native"
        )

    def test_key_misses_on_different_controller_same_name(self):
        """Factory args contribute content, not just type: two different
        networks under the same scenario name must not collide."""
        from repro.learning import proportional_controller_network

        a = api.dubins_scenario(
            network=proportional_controller_network(4), name="same-name"
        )
        b = api.dubins_scenario(
            network=proportional_controller_network(8), name="same-name"
        )
        assert run_key(a, a.config, "native") != run_key(b, b.config, "native")

    def test_hand_built_scenarios_keyed_by_sets(self):
        scenario = api.get_scenario("linear")
        grown = dataclasses.replace(
            scenario, initial_set=scenario.initial_set.inflate(0.1)
        )
        assert run_key(scenario, scenario.config, "native") != run_key(
            grown, grown.config, "native"
        )

    def test_fingerprint_is_json_canonical(self, linear_point):
        fp = run_fingerprint(linear_point, linear_point.config, "native")
        # Must survive a JSON round trip unchanged (no exotic objects).
        assert json.loads(json.dumps(fp)) == fp
        assert fp["identity"]["family"] == "linear"

    @pytest.mark.parametrize(
        "build, engine, expected",
        [
            (
                lambda: api.get_scenario("linear"),
                "native",
                "8dd1ae057b285b091c283c81953c55aee4c77280a9a3f6fb6ba4610e5a02e8f1",
            ),
            (
                lambda: api.get_scenario("dubins"),
                "batched-icp",
                "119eda0143bdfc425f2e77acb766b5b115ae4d5460411cbbcd7a59ea5f7e1f4a",
            ),
            (
                lambda: api.get_family("cartpole").instantiate(),
                "batched-icp",
                "31ca9a4d4a6a9ed7bf73b554e6753e392600c7edabe71701d8e8833f9fbf6885",
            ),
            (
                lambda: api.get_family("dubins").instantiate(),
                "portfolio",
                "bb9e9ae6c047f8107819f20884d362743cac6aed8c5f52cc180fd7900b18fabc",
            ),
        ],
        ids=["linear-native", "dubins-batched", "cartpole-family", "dubins-family"],
    )
    def test_pinned_keys_stay_valid(self, build, engine, expected):
        """Existing stores stay warm: these literal keys must not move
        unless ``FINGERPRINT_VERSION`` is bumped on purpose."""
        scenario = build()
        assert run_key(scenario, scenario.config, engine) == expected


# ----------------------------------------------------------------------
# Store mechanics
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_get_on_empty_store_misses(self, store):
        assert store.get("ab" + "0" * 62) is None

    def test_put_get_roundtrip(self, store, linear_point):
        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)
        path = store.put(key, artifact)
        assert path.is_file()
        assert key in store
        restored = store.get(key)
        assert restored.to_dict() == artifact.to_dict()

    def test_corrupt_entry_is_a_miss(self, store, linear_point):
        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)
        path = store.put(key, artifact)
        path.write_text("{not json", encoding="utf-8")
        assert store.get(key) is None

    def test_stats_and_clear(self, store, linear_point):
        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)
        store.put(key, artifact)
        stats = store.stats()
        assert stats.artifacts == 1 and stats.bytes > 0
        assert store.clear() == 1
        assert store.stats().artifacts == 0

    def test_corrupt_entry_is_quarantined(self, store, linear_point):
        """Rot is moved aside as ``<key>.corrupt`` and surfaced in
        stats, not silently re-missed forever."""
        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)
        path = store.put(key, artifact)
        path.write_text('{"version": "not-an-artifact"}', encoding="utf-8")
        assert store.get(key) is None
        assert not path.exists()
        assert path.with_suffix(".corrupt").exists()
        stats = store.stats()
        assert stats.corrupt == 1
        assert stats.artifacts == 0

    def test_get_after_quarantine_is_clean_miss(self, store, linear_point):
        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)
        store.put(key, artifact).write_text("{rot", encoding="utf-8")
        assert store.get(key) is None
        assert store.get(key) is None  # second probe: plain miss
        assert store.stats().corrupt == 1

    def test_put_after_quarantine_restores_entry(self, store, linear_point):
        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)
        store.put(key, artifact).write_text("{rot", encoding="utf-8")
        store.get(key)  # quarantines
        store.put(key, artifact)
        restored = store.get(key)
        assert restored is not None
        assert restored.to_dict() == artifact.to_dict()
        stats = store.stats()
        assert stats.artifacts == 1 and stats.corrupt == 1

    def test_clear_removes_quarantined_entries(self, store, linear_point):
        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)
        store.put(key, artifact).write_text("{rot", encoding="utf-8")
        store.get(key)  # quarantines
        assert store.clear() == 0  # no live artifacts left
        assert store.stats().corrupt == 0

    def test_interrupted_put_leaves_no_partial_entry(
        self, store, linear_point, monkeypatch
    ):
        """Cancellation mid-commit (Ctrl-C between write and rename)
        must leave neither a partial ``<key>.json`` nor a stray temp
        file: the atomic-rename guarantee under cancellation."""
        import os as os_module

        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)

        from repro.store import cache as cache_module

        def interrupted_replace(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(cache_module.os, "replace", interrupted_replace)
        with pytest.raises(KeyboardInterrupt):
            store.put(key, artifact)
        monkeypatch.undo()

        assert store.get(key) is None
        shard = store.path_for(key).parent
        assert not list(shard.glob("*.tmp")), "stray temp file left behind"
        assert not list(shard.glob("*.json")), "partial entry left behind"
        # The interrupted put did not poison later writes.
        store.put(key, artifact)
        assert store.get(key) is not None
        assert os_module.path.exists(store.path_for(key))

    def test_concurrent_puts_last_writer_wins_cleanly(
        self, store, linear_point
    ):
        from concurrent.futures import ThreadPoolExecutor

        artifact = api.run(linear_point)
        key = run_key(linear_point, linear_point.config, artifact.engine)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(lambda _: store.put(key, artifact), range(32)))
        restored = store.get(key)
        assert restored is not None
        assert restored.to_dict() == artifact.to_dict()
        assert store.stats().artifacts == 1
        assert not list(store.path_for(key).parent.glob("*.tmp"))

    def test_store_pickles(self, store):
        import pickle

        clone = pickle.loads(pickle.dumps(store))
        assert clone == store

    def test_resolve_store_forms(self, store, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_CACHE", raising=False)
        assert resolve_store(None) is None
        assert resolve_store(False) is None
        assert resolve_store(store) is store
        assert resolve_store(str(tmp_path / "x")).root == tmp_path / "x"
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "envstore"))
        assert resolve_store(None).root == tmp_path / "envstore"
        monkeypatch.setenv("REPRO_CACHE", "0")
        assert resolve_store(None) is None

    def test_store_env_overrides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "rooted"))
        assert default_store_root() == tmp_path / "rooted"


# ----------------------------------------------------------------------
# run() / run_batch() integration
# ----------------------------------------------------------------------
class TestCachedRuns:
    def test_hit_is_byte_identical_to_fresh_solve(self, store, linear_point):
        fresh = api.run(linear_point, cache=store)
        assert not fresh.cached
        hit = api.run(linear_point, cache=store)
        assert hit.cached
        assert hit.to_json(indent=2) == fresh.to_json(indent=2)
        assert hit.to_json() == fresh.to_json()

    def test_hit_skips_the_solver(self, store, linear_point, monkeypatch):
        api.run(linear_point, cache=store)

        from repro.api import pipeline as pipeline_mod

        def boom(self, problem):  # pragma: no cover - must never run
            raise AssertionError("cache hit must not invoke the pipeline")

        monkeypatch.setattr(pipeline_mod.VerificationPipeline, "run", boom)
        hit = api.run(linear_point, cache=store)
        assert hit.cached and hit.verified

    def test_any_knob_change_misses(self, store, linear_point):
        api.run(linear_point, cache=store)
        reseeded = dataclasses.replace(linear_point.config, seed=99)
        again = api.run(linear_point, config=reseeded, cache=store)
        assert not again.cached
        other_engine = api.run(linear_point, engine="batched-icp", cache=store)
        assert not other_engine.cached
        other_point = api.get_family("linear").instantiate(damping=0.9)
        assert not api.run(other_point, cache=store).cached
        assert store.stats().artifacts == 4

    def test_cached_flag_not_serialized(self, store, linear_point):
        api.run(linear_point, cache=store)
        hit = api.run(linear_point, cache=store)
        assert "cached" not in hit.to_dict()
        assert not api.RunArtifact.from_json(hit.to_json()).cached

    def test_run_batch_uses_cache(self, store):
        family = api.get_family("linear")
        points = [family.instantiate(damping=d) for d in (0.4, 0.8)]
        cold = api.run_batch(points, workers=1, cache=store)
        assert [a.cached for a in cold] == [False, False]
        warm = api.run_batch(points, workers=1, cache=store)
        assert [a.cached for a in warm] == [True, True]
        assert [a.to_json() for a in warm] == [a.to_json() for a in cold]

    def test_env_var_opts_runs_in(self, tmp_path, monkeypatch, linear_point):
        monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "auto"))
        assert not api.run(linear_point).cached
        assert api.run(linear_point).cached

    def test_inconclusive_runs_are_not_cached(self, store, linear_point):
        """Budget-exhausted outcomes are machine-dependent: re-run them."""
        starved = dataclasses.replace(
            linear_point.config,
            icp=IcpConfig(delta=1e-3, max_boxes=1),
            max_candidate_iterations=1,
            max_levelset_iterations=1,
        )
        first = api.run(linear_point, config=starved, cache=store)
        assert first.status == "inconclusive"
        assert store.stats().artifacts == 0
        assert not api.run(linear_point, config=starved, cache=store).cached

    def test_config_argument_beats_bundled_config_in_key(self, store, linear_point):
        tight = dataclasses.replace(
            linear_point.config, max_candidate_iterations=5
        )
        api.run(linear_point, config=tight, cache=store)
        assert api.run(linear_point, config=tight, cache=store).cached
        assert not api.run(linear_point, cache=store).cached
