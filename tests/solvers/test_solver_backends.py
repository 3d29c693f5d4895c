"""External-solver adapters: parsing, probing, subprocess dispatch.

Everything here runs with **no real solver installed**: verdict parsing
is exercised on canned transcripts, and the subprocess machinery on tiny
shell scripts injected via the ``REPRO_Z3`` env var — so CI always
covers the adapters.
"""

from __future__ import annotations

import stat
import time

import numpy as np
import pytest

from repro.api import get_scenario, scenario_names
from repro.barrier.certificate import condition5_subproblems
from repro.errors import SolverError
from repro.expr import sum_expr, var
from repro.intervals import Box, Interval
from repro.smt import Subproblem, Verdict, ge, le
from repro.solvers import (
    TRANSCENDENTAL_OPS,
    DRealSolver,
    ExternalSolver,
    SolverInfo,
    Z3Solver,
    emit_query,
    get_solver,
    parse_dreal_output,
    parse_z3_output,
    probe_all,
    register_solver,
    result_from_model,
    solver_names,
)
from repro.solvers.backends import _numeric_from_sexpr


def _query(lo=-2.0, hi=2.0):
    x, y = var("x"), var("y")
    sub = Subproblem(
        [ge(x * x + y * y, 1.0), le(x, 0.25)],
        Box([Interval(lo, hi), Interval(-1.0, 1.0)]),
        "demo",
    )
    return emit_query([sub], ("x", "y"), 1e-3)


# ----------------------------------------------------------------------
# Canned transcripts (the CI-without-binaries satellite)
# ----------------------------------------------------------------------

Z3_SAT = """sat
(
  (define-fun x () Real
    (- (/ 1.0 4.0)))
  (define-fun y () Real
    0.5)
)
"""

Z3_ROOT_OBJ = """sat
(
  (define-fun x () Real
    (root-obj (+ (^ x 2) (- 2)) 2))
  (define-fun y () Real 0.5)
)
"""

DREAL_DELTA_SAT = """delta-sat with delta = 0.00100000000000000002
x : [ -0.25, -0.2499 ]
y : ( 0.4, 0.6 )
"""


class TestZ3Parsing:
    def test_sat_with_model(self):
        verdict, model = parse_z3_output(Z3_SAT, ("x", "y"))
        assert verdict is Verdict.DELTA_SAT
        assert model == {"x": -0.25, "y": 0.5}

    def test_unsat(self):
        assert parse_z3_output("unsat\n", ("x",)) == (Verdict.UNSAT, None)

    def test_unknown_and_timeout(self):
        assert parse_z3_output("unknown\n", ("x",)) == (Verdict.UNKNOWN, None)
        assert parse_z3_output("timeout\n", ("x",)) == (Verdict.UNKNOWN, None)

    def test_garbage(self):
        assert parse_z3_output("Segmentation fault\n", ("x",)) == (
            Verdict.UNKNOWN,
            None,
        )
        assert parse_z3_output("", ("x",)) == (Verdict.UNKNOWN, None)

    def test_algebraic_model_value_dropped(self):
        verdict, model = parse_z3_output(Z3_ROOT_OBJ, ("x", "y"))
        assert verdict is Verdict.DELTA_SAT
        assert model == {"y": 0.5}  # x's root-obj is unrepresentable

    def test_quoted_symbols(self):
        text = "sat\n((define-fun |0start| () Real 1.5))\n"
        _, model = parse_z3_output(text, ("0start",))
        assert model == {"0start": 1.5}

    def test_numeric_sexpr_evaluator(self):
        assert _numeric_from_sexpr("0.5") == 0.5
        assert _numeric_from_sexpr("(- 0.5)") == -0.5
        assert _numeric_from_sexpr("(/ 1.0 4.0)") == 0.25
        assert _numeric_from_sexpr("(- (/ 3.0 2.0))") == -1.5
        assert _numeric_from_sexpr("(+ 1.0 2.0 3.0)") == 6.0
        assert _numeric_from_sexpr("(* 2.0 (- 3.0))") == -6.0
        assert _numeric_from_sexpr("(root-obj x 2)") is None
        assert _numeric_from_sexpr("(/ 1.0 0.0)") is None


class TestDRealParsing:
    def test_delta_sat_with_intervals(self):
        verdict, model = parse_dreal_output(DREAL_DELTA_SAT, ("x", "y"))
        assert verdict is Verdict.DELTA_SAT
        assert model["x"] == (-0.25, -0.2499)
        # Open interval — the satellite regression: midpoints later.
        assert model["y"] == (0.4, 0.6)

    def test_bare_sat(self):
        verdict, _ = parse_dreal_output("sat\nx : [ 1.0, 1.0 ]\n", ("x",))
        assert verdict is Verdict.DELTA_SAT

    def test_unsat(self):
        assert parse_dreal_output("unsat\n", ("x",)) == (Verdict.UNSAT, None)

    def test_garbage(self):
        assert parse_dreal_output("core dumped\n", ("x",)) == (
            Verdict.UNKNOWN,
            None,
        )

    def test_unparseable_interval_skipped(self):
        verdict, model = parse_dreal_output(
            "delta-sat with delta = 0.001\nx : [ ENTIRE ]\ny : [ 0.5, 0.5 ]\n",
            ("x", "y"),
        )
        assert verdict is Verdict.DELTA_SAT
        assert model == {"y": (0.5, 0.5)}


class TestResultFromModel:
    def test_unsat_passthrough(self):
        result = result_from_model(Verdict.UNSAT, None, _query())
        assert result.verdict is Verdict.UNSAT
        assert result.witness is None

    def test_delta_sat_builds_midpoint_witness(self):
        model = {"x": (-0.25, -0.2499), "y": (0.9, 1.0)}
        result = result_from_model(Verdict.DELTA_SAT, model, _query())
        assert result.verdict is Verdict.DELTA_SAT
        np.testing.assert_allclose(result.witness, [-0.24995, 0.95])
        assert result.witness_box is not None

    def test_validated_witness_flagged(self):
        # (-1.5, 0) satisfies x²+y² >= 1 and x <= 0.25.
        result = result_from_model(
            Verdict.DELTA_SAT, {"x": -1.5, "y": 0.0}, _query()
        )
        assert result.witness_validated is True

    def test_invalid_witness_not_flagged(self):
        # Origin violates x²+y² >= 1 by far more than δ.
        result = result_from_model(
            Verdict.DELTA_SAT, {"x": 0.0, "y": 0.0}, _query()
        )
        assert result.verdict is Verdict.DELTA_SAT
        assert result.witness_validated is False

    def test_incomplete_model_downgrades_to_unknown(self):
        # A sat claim without a full witness cannot feed the synthesis
        # loop's counterexample refinement — never DELTA_SAT+witness=None.
        for model in (None, {}, {"x": 0.5}):
            result = result_from_model(Verdict.DELTA_SAT, model, _query())
            assert result.verdict is Verdict.UNKNOWN
            assert result.witness is None


# ----------------------------------------------------------------------
# Probing + registry
# ----------------------------------------------------------------------


class TestProbe:
    def test_missing_binary_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_Z3", "definitely-not-a-binary-xyz")
        info = Z3Solver().probe()
        assert not info.available
        assert "not found" in info.reason

    def test_probe_cache_keyed_on_command(self, monkeypatch, tmp_path):
        solver = Z3Solver()
        monkeypatch.setenv("REPRO_Z3", "missing-one")
        assert not solver.probe().available
        fake = tmp_path / "fakez3"
        fake.write_text("#!/bin/sh\necho 'Z3 version 4.99.0 - 64 bit'\n")
        fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("REPRO_Z3", str(fake))
        info = solver.probe()  # env change must invalidate the cache
        assert info.available
        assert info.version == "4.99.0"

    def test_version_parse_dreal_style(self, monkeypatch, tmp_path):
        fake = tmp_path / "fakedreal"
        fake.write_text("#!/bin/sh\necho 'dReal v4.21.06.2'\n")
        fake.chmod(fake.stat().st_mode | stat.S_IXUSR)
        monkeypatch.setenv("REPRO_DREAL", str(fake))
        info = DRealSolver().probe()
        assert info.available
        assert info.version == "4.21.06.2"


class TestRegistry:
    def test_builtins_registered(self):
        assert set(solver_names()) >= {"z3", "dreal"}
        assert isinstance(get_solver("z3"), Z3Solver)
        assert isinstance(get_solver("dreal"), DRealSolver)
        for solver in (get_solver("z3"), get_solver("dreal")):
            assert isinstance(solver, ExternalSolver)

    def test_unknown_name_raises(self):
        with pytest.raises(SolverError, match="unknown external solver"):
            get_solver("cvc5")

    def test_duplicate_registration_raises(self):
        with pytest.raises(SolverError, match="already registered"):
            register_solver(Z3Solver())

    def test_probe_all_shape(self):
        infos = probe_all()
        assert set(infos) == set(solver_names())
        assert all(isinstance(i, SolverInfo) for i in infos.values())


class TestCapabilities:
    def test_z3_declines_transcendentals(self):
        z3 = Z3Solver()
        assert z3.supports(frozenset())
        assert not z3.supports(frozenset({"tanh"}))
        assert not z3.supports(frozenset({"sin", "exp"}))

    def test_dreal_supports_everything(self):
        dreal = DRealSolver()
        assert dreal.supports(frozenset())
        assert dreal.supports(frozenset({"sin", "tanh", "exp", "sqrt"}))


# ----------------------------------------------------------------------
# Real subprocess dispatch via fake solver scripts
# ----------------------------------------------------------------------


def _fake_binary(tmp_path, name, body):
    script = tmp_path / name
    script.write_text("#!/bin/sh\n" + body)
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return script


class TestSubprocessDispatch:
    def test_unavailable_solver_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_Z3", "definitely-not-a-binary-xyz")
        with pytest.raises(SolverError, match="not available"):
            Z3Solver().solve(_query(), timeout=1.0)

    def test_fake_unsat_roundtrip(self, monkeypatch, tmp_path):
        fake = _fake_binary(
            tmp_path, "fakez3",
            'case "$1" in --version) echo "Z3 version 4.99.0";; '
            '*) echo unsat;; esac\n',
        )
        monkeypatch.setenv("REPRO_Z3", str(fake))
        result = Z3Solver().solve(_query(), timeout=5.0)
        assert result.verdict is Verdict.UNSAT

    def test_fake_sat_roundtrip_with_witness(self, monkeypatch, tmp_path):
        fake = _fake_binary(
            tmp_path, "fakez3",
            'case "$1" in --version) echo "Z3 version 4.99.0";; *)\n'
            "echo sat\n"
            'echo "((define-fun x () Real (- 1.5)) (define-fun y () Real 0.0))"\n'
            ";; esac\n",
        )
        monkeypatch.setenv("REPRO_Z3", str(fake))
        result = Z3Solver().solve(_query(), timeout=5.0)
        assert result.verdict is Verdict.DELTA_SAT
        np.testing.assert_allclose(result.witness, [-1.5, 0.0])
        assert result.witness_validated

    def test_timeout_kills_and_returns_unknown(self, monkeypatch, tmp_path):
        fake = _fake_binary(
            tmp_path, "fakez3",
            'case "$1" in --version) echo "Z3 version 4.99.0";; '
            "*) sleep 60;; esac\n",
        )
        monkeypatch.setenv("REPRO_Z3", str(fake))
        start = time.monotonic()
        result = Z3Solver().solve(_query(), timeout=0.5)
        elapsed = time.monotonic() - start
        assert result.verdict is Verdict.UNKNOWN
        assert elapsed < 10.0, f"kill took {elapsed:.1f}s"

    def test_temp_script_cleaned_up(self, monkeypatch, tmp_path):
        fake = _fake_binary(
            tmp_path, "fakez3",
            'case "$1" in --version) echo "Z3 version 4.99.0";; '
            '*) echo unsat;; esac\n',
        )
        monkeypatch.setenv("REPRO_Z3", str(fake))
        monkeypatch.setenv("TMPDIR", str(tmp_path / "tmp"))
        (tmp_path / "tmp").mkdir()
        import tempfile

        tempfile.tempdir = None  # force re-read of TMPDIR
        try:
            Z3Solver().solve(_query(), timeout=5.0)
            leftovers = [
                p for p in (tmp_path / "tmp").iterdir()
                if p.name.startswith("repro-")
            ]
            assert leftovers == []
        finally:
            tempfile.tempdir = None

    def test_garbage_output_is_unknown(self, monkeypatch, tmp_path):
        fake = _fake_binary(
            tmp_path, "fakez3",
            'case "$1" in --version) echo "Z3 version 4.99.0";; '
            '*) echo "FATAL: mystery error"; exit 3;; esac\n',
        )
        monkeypatch.setenv("REPRO_Z3", str(fake))
        result = Z3Solver().solve(_query(), timeout=5.0)
        assert result.verdict is Verdict.UNKNOWN

    def test_script_reaches_solver(self, monkeypatch, tmp_path):
        # The fake cats the script back; assert the emitted query text
        # actually crossed the process boundary intact.
        fake = _fake_binary(
            tmp_path, "fakedreal",
            'case "$1" in --version) echo "dReal v4.99.0";; *)\n'
            'for arg; do last="$arg"; done\n'
            'grep -q "set-logic QF_NRA" "$last" && echo unsat || echo unknown\n'
            ";; esac\n",
        )
        monkeypatch.setenv("REPRO_DREAL", str(fake))
        result = DRealSolver().solve(_query(), timeout=5.0)
        assert result.verdict is Verdict.UNSAT

    def test_invalid_timeout_rejected(self, monkeypatch, tmp_path):
        fake = _fake_binary(
            tmp_path, "fakez3",
            'echo "Z3 version 4.99.0"\n',
        )
        monkeypatch.setenv("REPRO_Z3", str(fake))
        with pytest.raises(SolverError, match="timeout"):
            Z3Solver().solve(_query(), timeout=0.0)


def test_env_vars_documented_in_help(capsys):
    from repro.cli import main

    assert main(["solvers"]) == 0
    out = capsys.readouterr().out
    assert "REPRO_Z3" in out


def _check5_query(name):
    problem = get_scenario(name).problem()
    w = sum_expr([var(n) * var(n) for n in problem.state_names])
    subs = condition5_subproblems(w, problem, gamma=1e-6)
    return emit_query(subs, problem.state_names, 1e-3)


def test_z3_eligibility_split():
    """The pure-NRA scenarios must remain z3-eligible (see test_golden)."""
    z3 = Z3Solver()
    pure, transcendental = [], []
    for name in sorted(scenario_names()):
        query = _check5_query(name)
        (pure if z3.supports(query.ops) else transcendental).append(name)
    assert pure == ["double-integrator", "linear", "vanderpol"]
    assert set(transcendental) == {"bicycle", "cartpole", "dubins", "pendulum"}
    assert all(TRANSCENDENTAL_OPS >= _check5_query(n).ops for n in transcendental)
