"""Scenario corpus: generated twins, extra families, and the fuzzer.

Importing this package registers the corpus scenario families
(:mod:`repro.corpus.families`) alongside the builtins — the family
registry also lazy-loads them on first lookup, so ``repro families``
sees them without anyone importing :mod:`repro.corpus` explicitly.
"""

from .families import CORPUS_FAMILY_NAMES, register_corpus_families
from .fuzz import (
    CHECK_KINDS,
    DEFAULT_ENGINES,
    FUZZ_CLAMPS,
    FuzzFailure,
    FuzzReport,
    VOLATILE_FIELDS,
    check_point,
    fuzz,
    load_regressions,
    replay_failure,
    sample_corpus_point,
    shrink_failure,
    write_regression,
)
from .twins import (
    FLIPPING_MUTATIONS,
    MUTATIONS,
    PRESERVING_MUTATIONS,
    Twin,
    conforms,
    generate_twins,
    mutate,
)

__all__ = [
    "CHECK_KINDS",
    "CORPUS_FAMILY_NAMES",
    "DEFAULT_ENGINES",
    "FLIPPING_MUTATIONS",
    "FUZZ_CLAMPS",
    "FuzzFailure",
    "FuzzReport",
    "MUTATIONS",
    "PRESERVING_MUTATIONS",
    "Twin",
    "VOLATILE_FIELDS",
    "check_point",
    "conforms",
    "fuzz",
    "generate_twins",
    "load_regressions",
    "mutate",
    "register_corpus_families",
    "replay_failure",
    "sample_corpus_point",
    "shrink_failure",
    "write_regression",
]
