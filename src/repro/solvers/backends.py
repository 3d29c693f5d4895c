"""External SMT solver adapters: subprocess dispatch + verdict parsing.

Follows the rospoly exemplar's shape — write the SMT-LIB script to a
temp file, shell out with a hard wall-clock deadline, parse the verdict
line and model back — but lands the result in our own
:class:`~repro.smt.SmtResult`/witness types so the rest of the pipeline
cannot tell an external verdict from an ICP one.

Two adapters ship: :class:`Z3Solver` (exact ``sat``/``unsat`` on
``QF_NRA``; declines transcendentals, which Z3's nlsat cannot decide)
and :class:`DRealSolver` (δ-complete, handles the full operator set,
reports interval models).  Binaries are discovered on ``PATH`` or via
the ``REPRO_Z3``/``REPRO_DREAL`` environment variables; availability
and version are probed lazily and cached per resolved command.

The parsing functions (:func:`parse_z3_output`,
:func:`parse_dreal_output`) are deliberately free-standing and pure so
the test suite can exercise every verdict path on canned transcripts
without any solver installed.
"""

from __future__ import annotations

import math
import os
import re
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Protocol, Sequence, runtime_checkable

from ..errors import ReproError, SolverError
from ..intervals import Box, Interval
from ..smt.result import SmtResult, SolverStats, Verdict
from .smtlib import SmtLibQuery, TRANSCENDENTAL_OPS

__all__ = [
    "DEFAULT_TIMEOUT",
    "SolverInfo",
    "ExternalSolver",
    "Z3Solver",
    "DRealSolver",
    "parse_z3_output",
    "parse_dreal_output",
    "result_from_model",
    "register_solver",
    "unregister_solver",
    "get_solver",
    "solver_names",
    "external_solvers",
    "probe_all",
]

#: Default wall-clock budget (seconds) per external solve.
DEFAULT_TIMEOUT = 30.0

#: A model maps variable names to exact values or (lo, hi) intervals.
ModelValue = "float | tuple[float, float]"


@dataclass(frozen=True)
class SolverInfo:
    """Probe outcome for one external solver binary.

    ``command`` is the resolved path when available, else the command
    that was searched for; ``reason`` explains unavailability.
    """

    name: str
    command: str
    available: bool
    version: str = ""
    reason: str = ""


@runtime_checkable
class ExternalSolver(Protocol):
    """Adapter contract for an external δ-SAT solver.

    Implementations must be safe to call from worker threads: ``solve``
    may run concurrently with ``probe`` and with other solves.
    """

    name: str

    def probe(self, refresh: bool = False) -> SolverInfo:
        """Binary availability + version (cached per resolved command)."""
        ...

    def supports(self, ops: frozenset[str]) -> bool:
        """Whether queries using ``ops`` (transcendentals) are decidable."""
        ...

    def solve(
        self,
        query: SmtLibQuery,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> SmtResult:
        """Dispatch ``query`` with a hard deadline; UNKNOWN on timeout."""
        ...


# ----------------------------------------------------------------------
# Verdict + model parsing (pure functions, testable on canned text)
# ----------------------------------------------------------------------

_DEFINE_FUN = re.compile(
    r"\(define-fun\s+(\|[^|]*\||[^\s()]+)\s+\(\)\s+Real\s*", re.MULTILINE
)

_DREAL_INTERVAL = re.compile(
    r"^\s*(\|[^|]*\||[^\s:]+)\s*:\s*([\[(])\s*([^,\[\]()\s]+)\s*,\s*([^,\[\]()\s]+)\s*([\])])",
    re.MULTILINE,
)


def _unquote(symbol_text: str) -> str:
    if symbol_text.startswith("|") and symbol_text.endswith("|"):
        return symbol_text[1:-1]
    return symbol_text


def _numeric_from_sexpr(text: str) -> "float | None":
    """Evaluate a ground numeric SMT-LIB term (``(- (/ 1.0 3.0))`` …).

    Returns None for anything beyond rational arithmetic — e.g. Z3's
    ``root-obj`` algebraic numbers — so callers downgrade to UNKNOWN
    instead of guessing.
    """
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def parse(position: int) -> "tuple[float | None, int]":
        if position >= len(tokens):
            return None, position
        token = tokens[position]
        if token == "(":
            if position + 1 >= len(tokens):
                return None, position + 1
            head = tokens[position + 1]
            operands: list[float] = []
            cursor = position + 2
            while cursor < len(tokens) and tokens[cursor] != ")":
                value, cursor = parse(cursor)
                if value is None:
                    return None, cursor
                operands.append(value)
            cursor += 1  # consume ')'
            if head == "-" and len(operands) == 1:
                return -operands[0], cursor
            if head == "-" and len(operands) == 2:
                return operands[0] - operands[1], cursor
            if head == "+" and operands:
                return math.fsum(operands), cursor
            if head == "*" and operands:
                product = 1.0
                for operand in operands:
                    product *= operand
                return product, cursor
            if head == "/" and len(operands) == 2 and operands[1] != 0.0:
                return operands[0] / operands[1], cursor
            return None, cursor
        if token == ")":
            return None, position + 1
        try:
            return float(token), position + 1
        except ValueError:
            return None, position + 1

    value, _ = parse(0)
    return value


def parse_z3_output(
    text: str, names: Sequence[str]
) -> "tuple[Verdict, dict[str, float] | None]":
    """Parse a Z3 transcript into a verdict and (for sat) a model.

    Z3's ``sat`` is exact, which trivially implies δ-sat, so it maps to
    :attr:`~repro.smt.Verdict.DELTA_SAT`.  Unparseable model values
    (``root-obj`` etc.) drop out of the dict; a transcript with no
    verdict line at all — crash chatter, ``timeout``, garbage — is
    UNKNOWN.
    """
    verdict: "Verdict | None" = None
    for line in text.splitlines():
        stripped = line.strip()
        if stripped == "unsat":
            return Verdict.UNSAT, None
        if stripped == "sat":
            verdict = Verdict.DELTA_SAT
            break
        if stripped in ("unknown", "timeout"):
            return Verdict.UNKNOWN, None
    if verdict is None:
        return Verdict.UNKNOWN, None

    wanted = set(names)
    model: dict[str, float] = {}
    for match in _DEFINE_FUN.finditer(text):
        name = _unquote(match.group(1))
        if name not in wanted:
            continue
        value_text, _ = _balanced_span(text, match.end())
        value = _numeric_from_sexpr(value_text)
        if value is not None and math.isfinite(value):
            model[name] = value
    return Verdict.DELTA_SAT, model


def _balanced_span(text: str, start: int) -> tuple[str, int]:
    """Slice of ``text`` from ``start`` up to the ``)`` closing the
    enclosing ``(define-fun`` form (exclusive)."""
    depth = 1  # we are inside the define-fun's open paren
    cursor = start
    while cursor < len(text) and depth > 0:
        char = text[cursor]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        cursor += 1
    return text[start : cursor - 1], cursor


def parse_dreal_output(
    text: str, names: Sequence[str]
) -> "tuple[Verdict, dict[str, tuple[float, float]] | None]":
    """Parse a dReal transcript into a verdict and interval model.

    dReal reports ``delta-sat with delta = …`` (older builds print bare
    ``sat``) followed by per-variable interval lines like
    ``x : [ -0.125, 0.25 ]``; open endpoints ``( lo, hi )`` appear for
    strict bounds and are handled identically — the witness midpoint
    lies inside either way.  Anything unrecognized is UNKNOWN.
    """
    lowered = text.lower()
    verdict: "Verdict | None" = None
    for line in lowered.splitlines():
        stripped = line.strip()
        if stripped == "unsat":
            return Verdict.UNSAT, None
        if stripped.startswith("delta-sat") or stripped == "sat":
            verdict = Verdict.DELTA_SAT
            break
        if stripped == "unknown":
            return Verdict.UNKNOWN, None
    if verdict is None:
        return Verdict.UNKNOWN, None

    wanted = set(names)
    model: dict[str, tuple[float, float]] = {}
    for match in _DREAL_INTERVAL.finditer(text):
        name = _unquote(match.group(1))
        if name not in wanted:
            continue
        try:
            lo, hi = float(match.group(3)), float(match.group(4))
        except ValueError:
            continue
        if math.isfinite(lo) and math.isfinite(hi) and lo <= hi:
            model[name] = (lo, hi)
    return Verdict.DELTA_SAT, model


def result_from_model(
    verdict: Verdict,
    model: "dict[str, ModelValue] | None",
    query: SmtLibQuery,
    stats: "SolverStats | None" = None,
) -> SmtResult:
    """Land a parsed external verdict in our :class:`~repro.smt.SmtResult`.

    A δ-sat claim is only usable downstream if it carries a concrete
    witness the synthesis loop can simulate from, so a sat verdict whose
    model is missing any variable **downgrades to UNKNOWN** rather than
    returning ``DELTA_SAT`` with ``witness=None`` (which would crash the
    counterexample refinement).  Interval model values collapse to
    midpoints via :func:`repro.barrier.witness_point`, and the witness
    is re-checked against the original subproblems with δ slack to set
    ``witness_validated``.
    """
    stats = stats or SolverStats()
    if verdict is not Verdict.DELTA_SAT:
        return SmtResult(verdict, query.delta, stats=stats)
    if model is None or any(name not in model for name in query.names):
        return SmtResult(Verdict.UNKNOWN, query.delta, stats=stats)

    from ..barrier.falsify import witness_point  # heavy package; lazy

    try:
        witness = witness_point(model, query.names)
    except ReproError:
        return SmtResult(Verdict.UNKNOWN, query.delta, stats=stats)

    intervals = []
    for name in query.names:
        value = model[name]
        if isinstance(value, (tuple, list)):
            intervals.append(Interval(float(value[0]), float(value[1])))
        else:
            intervals.append(Interval(float(value), float(value)))
    witness_box = Box(intervals)

    validated = False
    for sub in query.subproblems:
        if not sub.region.inflate(absolute=query.delta).contains(witness):
            continue
        if all(
            c.satisfied_at(witness, query.names, slack=query.delta)
            for c in sub.constraints
        ):
            validated = True
            break
    return SmtResult(
        Verdict.DELTA_SAT,
        query.delta,
        witness=witness,
        witness_box=witness_box,
        witness_validated=validated,
        stats=stats,
    )


# ----------------------------------------------------------------------
# Subprocess adapters
# ----------------------------------------------------------------------


def _run_with_deadline(
    command: Sequence[str], timeout: float
) -> "tuple[str | None, bool]":
    """Run ``command``, killing its process group at the deadline.

    Returns ``(stdout, timed_out)``; stdout is None when the output
    could not be collected after the kill.  The solver runs in its own
    session, so the kill also reaches anything it spawned — a wrapper
    script's child would otherwise outlive it and hold the pipe open.
    """
    try:
        process = subprocess.Popen(
            list(command),
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            text=True,
            start_new_session=True,
        )
    except OSError as exc:
        raise SolverError(f"failed to launch {command[0]!r}: {exc}") from exc
    try:
        stdout, _ = process.communicate(timeout=timeout)
        return stdout, False
    except subprocess.TimeoutExpired:
        pass
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except OSError:
        process.kill()
    try:
        stdout, _ = process.communicate(timeout=2.0)
    except subprocess.TimeoutExpired:
        stdout = None
    return stdout, True


class _SubprocessSolver:
    """Shared machinery: binary resolution, probe cache, temp-file solve."""

    name = ""
    env_var = ""
    default_binary = ""
    version_args: tuple[str, ...] = ("--version",)
    _version_pattern = re.compile(r"(\d+(?:\.\d+)+)")

    def __init__(self, binary: "str | None" = None):
        self._binary = binary
        self._probe_lock = threading.Lock()
        self._probe_cache: "tuple[str, SolverInfo] | None" = None

    def command_name(self) -> str:
        """Configured command: constructor arg > env var > default."""
        return self._binary or os.environ.get(self.env_var) or self.default_binary

    def probe(self, refresh: bool = False) -> SolverInfo:
        """Resolve + version-probe the binary, cached per command name.

        The cache keys on :meth:`command_name` so flipping the env var
        (tests do) re-probes instead of returning stale availability.
        """
        command = self.command_name()
        with self._probe_lock:
            cached = self._probe_cache
            if not refresh and cached is not None and cached[0] == command:
                return cached[1]
        info = self._probe(command)
        with self._probe_lock:
            self._probe_cache = (command, info)
        return info

    def _probe(self, command: str) -> SolverInfo:
        resolved = shutil.which(command)
        if resolved is None:
            return SolverInfo(
                self.name,
                command,
                False,
                reason=f"{command} binary not found on PATH",
            )
        try:
            completed = subprocess.run(
                [resolved, *self.version_args],
                capture_output=True,
                text=True,
                timeout=10.0,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            return SolverInfo(
                self.name, resolved, False, reason=f"version probe failed: {exc}"
            )
        blob = (completed.stdout or "") + (completed.stderr or "")
        match = self._version_pattern.search(blob)
        version = match.group(1) if match else "unknown"
        return SolverInfo(self.name, resolved, True, version=version)

    def supports(self, ops: frozenset[str]) -> bool:
        """Default: full operator coverage (dReal-style δ-completeness)."""
        return True

    def solve(
        self, query: SmtLibQuery, timeout: float = DEFAULT_TIMEOUT
    ) -> SmtResult:
        """Write the script, dispatch the binary, parse the verdict.

        A timeout or an unrecognizable transcript is UNKNOWN — an
        external solver can never make a check worse than inconclusive.
        """
        info = self.probe()
        if not info.available:
            raise SolverError(f"{self.name} is not available: {info.reason}")
        if timeout <= 0.0:
            raise SolverError(f"timeout must be positive, got {timeout}")
        descriptor, path = tempfile.mkstemp(
            suffix=".smt2", prefix=f"repro-{self.name}-"
        )
        start = time.perf_counter()
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(self._script(query))
            command = self._command(info.command, path, query, timeout)
            stdout, timed_out = _run_with_deadline(command, timeout)
        finally:
            try:
                os.unlink(path)
            except OSError:
                pass
        stats = SolverStats(elapsed_seconds=time.perf_counter() - start)
        if timed_out or stdout is None:
            return SmtResult(Verdict.UNKNOWN, query.delta, stats=stats)
        verdict, model = self._parse(stdout, query.names)
        return result_from_model(verdict, model, query, stats)

    # hooks ------------------------------------------------------------
    def _script(self, query: SmtLibQuery) -> str:
        return query.text

    def _command(
        self, binary: str, path: str, query: SmtLibQuery, timeout: float
    ) -> list[str]:
        raise NotImplementedError

    def _parse(self, text: str, names: Sequence[str]):
        raise NotImplementedError


class Z3Solver(_SubprocessSolver):
    """Z3 over ``QF_NRA``: exact verdicts, no transcendentals.

    ``supports`` declines any query using :data:`TRANSCENDENTAL_OPS` —
    Z3 parses ``sin`` as an uninterpreted function and would happily
    return an unsound ``sat``.  Scenarios whose NN activations are
    polynomial/rational (ReLU via ite, sigmoid-free) stay in reach.
    """

    name = "z3"
    env_var = "REPRO_Z3"
    default_binary = "z3"
    version_args = ("--version",)

    def supports(self, ops: frozenset[str]) -> bool:
        """True iff the query is transcendental-free."""
        return not (frozenset(ops) & TRANSCENDENTAL_OPS)

    def _script(self, query: SmtLibQuery) -> str:
        return query.text + "(get-model)\n"

    def _command(
        self, binary: str, path: str, query: SmtLibQuery, timeout: float
    ) -> list[str]:
        # -T is a belt-and-braces in-solver deadline; the subprocess
        # poll loop is the authoritative one.
        return [binary, "-smt2", f"-T:{max(1, math.ceil(timeout))}", path]

    def _parse(self, text: str, names: Sequence[str]):
        return parse_z3_output(text, names)


class DRealSolver(_SubprocessSolver):
    """dReal 4: δ-complete over the full operator set, interval models."""

    name = "dreal"
    env_var = "REPRO_DREAL"
    default_binary = "dreal"
    version_args = ("--version",)

    def _command(
        self, binary: str, path: str, query: SmtLibQuery, timeout: float
    ) -> list[str]:
        return [binary, "--precision", repr(query.delta), "--model", path]

    def _parse(self, text: str, names: Sequence[str]):
        return parse_dreal_output(text, names)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------

_REGISTRY: "dict[str, ExternalSolver]" = {}
_REGISTRY_LOCK = threading.Lock()


def register_solver(solver: ExternalSolver, replace: bool = False) -> None:
    """Add an adapter to the external-solver registry."""
    if not solver.name:
        raise SolverError("external solver must have a non-empty name")
    with _REGISTRY_LOCK:
        if solver.name in _REGISTRY and not replace:
            raise SolverError(
                f"solver {solver.name!r} already registered (replace=True to override)"
            )
        _REGISTRY[solver.name] = solver


def unregister_solver(name: str) -> None:
    """Remove an adapter from the registry (missing names are ignored)."""
    with _REGISTRY_LOCK:
        _REGISTRY.pop(name, None)


def get_solver(name: str) -> ExternalSolver:
    """Look up a registered adapter by name."""
    with _REGISTRY_LOCK:
        try:
            return _REGISTRY[name]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY)) or "none"
            raise SolverError(
                f"unknown external solver {name!r}; registered: {known}"
            ) from None


def solver_names() -> tuple[str, ...]:
    """Sorted names of all registered adapters."""
    with _REGISTRY_LOCK:
        return tuple(sorted(_REGISTRY))


def external_solvers() -> "tuple[ExternalSolver, ...]":
    """All registered adapters in name order (available or not)."""
    with _REGISTRY_LOCK:
        return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def probe_all(refresh: bool = False) -> "dict[str, SolverInfo]":
    """Probe every registered adapter; name-ordered dict of infos."""
    return {solver.name: solver.probe(refresh=refresh) for solver in external_solvers()}


def _register_builtins() -> None:
    register_solver(Z3Solver())
    register_solver(DRealSolver())


_register_builtins()
