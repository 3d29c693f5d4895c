"""Engine dataclass + registry semantics."""

from __future__ import annotations

import pytest

from repro.engine import (
    BatchedSmtBackend,
    Engine,
    LpBackend,
    NativeLpBackend,
    NativeSimBackend,
    SerialSmtBackend,
    SimBackend,
    SmtBackend,
    VectorizedSimBackend,
    engine_names,
    get_engine,
    list_engines,
    register_engine,
    resolve_engine,
    unregister_engine,
)
from repro.errors import ReproError


class TestBuiltins:
    def test_two_builtins_registered(self):
        assert engine_names() == ("batched-icp", "native")

    def test_list_is_sorted(self):
        names = [e.name for e in list_engines()]
        assert names == sorted(names)

    def test_native_is_all_native_backends(self):
        native = get_engine("native")
        assert isinstance(native.sim, NativeSimBackend)
        assert isinstance(native.lp, NativeLpBackend)
        assert isinstance(native.smt, SerialSmtBackend)

    def test_batched_icp_swaps_sim_and_smt(self):
        batched = get_engine("batched-icp")
        assert isinstance(batched.sim, VectorizedSimBackend)
        assert isinstance(batched.lp, NativeLpBackend)
        assert isinstance(batched.smt, BatchedSmtBackend)

    def test_backends_satisfy_protocols(self):
        for engine in list_engines():
            assert isinstance(engine.sim, SimBackend)
            assert isinstance(engine.lp, LpBackend)
            assert isinstance(engine.smt, SmtBackend)

    def test_describe_is_plain_data(self):
        info = get_engine("native").describe()
        assert info["name"] == "native"
        assert info["sim"] == "NativeSimBackend"
        assert isinstance(info["tags"], list)


class TestRegistry:
    def _custom(self, name="custom-test-engine"):
        base = get_engine("native")
        return Engine(
            name=name,
            description="test stack",
            sim=base.sim,
            lp=base.lp,
            smt=base.smt,
        )

    def test_register_get_unregister(self):
        engine = self._custom()
        register_engine(engine)
        try:
            assert get_engine(engine.name) is engine
            assert engine.name in engine_names()
        finally:
            unregister_engine(engine.name)
        assert engine.name not in engine_names()

    def test_duplicate_name_raises_without_replace(self):
        engine = self._custom()
        register_engine(engine)
        try:
            with pytest.raises(ReproError, match="already registered"):
                register_engine(self._custom())
            replacement = self._custom()
            assert register_engine(replacement, replace=True) is replacement
        finally:
            unregister_engine(engine.name)

    def test_unknown_name_raises_with_known_names(self):
        with pytest.raises(ReproError, match="unknown engine"):
            get_engine("warp-drive")

    def test_unregister_missing_is_noop(self):
        unregister_engine("never-registered")


class TestResolve:
    def test_none_resolves_to_native(self):
        assert resolve_engine(None).name == "native"

    def test_name_resolves(self):
        assert resolve_engine("batched-icp").name == "batched-icp"

    def test_engine_object_passes_through(self):
        engine = get_engine("batched-icp")
        assert resolve_engine(engine) is engine

    def test_bad_type_rejected(self):
        with pytest.raises(ReproError, match="expected engine name"):
            resolve_engine(42)


class TestValidation:
    def test_empty_name_rejected(self):
        base = get_engine("native")
        with pytest.raises(ReproError, match="non-empty name"):
            Engine(name="", description="", sim=base.sim, lp=base.lp, smt=base.smt)

    def test_wrong_backend_rejected(self):
        base = get_engine("native")
        with pytest.raises(ReproError, match="does not implement"):
            Engine(
                name="bad",
                description="",
                sim=object(),  # no simulate()
                lp=base.lp,
                smt=base.smt,
            )

    def test_custom_backend_satisfies_protocol(self):
        class MySim:
            name = "my-sim"

            def simulate(self, system, initial_states, duration, dt,
                         method="rk4", stop_condition=None):
                return []

        base = get_engine("native")
        engine = Engine(
            name="custom-sim-stack",
            description="",
            sim=MySim(),
            lp=base.lp,
            smt=base.smt,
        )
        assert isinstance(engine.sim, SimBackend)
