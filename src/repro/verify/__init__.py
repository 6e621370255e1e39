"""Differential conformance & fuzzing: every engine vs the reference oracle.

The paper's claim — and this repo's — is that the fine-grained cuBLASTP
pipeline and every baseline return *identical* alignments to the
sequential reference. This package makes that claim continuously
checkable instead of spot-checked:

* :mod:`~repro.verify.cases` — seeded generative workloads (random,
  homolog-enriched, SEG-heavy, diagonal-pileup, boundary-length) plus
  the 64-case pinned corpus;
* :mod:`~repro.verify.canonical` — the canonical, text-diffable result
  form two engines must agree on;
* :mod:`~repro.verify.oracle` — the differential oracle
  (:class:`SerialOracle`, ``reference:serial-gapped``): its own hit scan
  and the scalar best-first gapped loop;
* :mod:`~repro.verify.matrix` — the engine matrix: all engines, all
  three cuBLASTP extension strategies, and the view/mmap/batch
  execution paths;
* :mod:`~repro.verify.runner` — :class:`DifferentialRunner`, fanning
  each case across the matrix and reporting first divergence;
* :mod:`~repro.verify.shrink` — greedy minimisation of a divergent case
  into a replayable reproducer (seed recorded);
* :mod:`~repro.verify.golden` — versioned golden snapshots locking the
  pinned corpus across refactors;
* :mod:`~repro.verify.cli` — the ``repro verify`` subcommand and its
  CI exit protocol.

See ``docs/TESTING.md`` for the oracle/matrix/golden model and the
divergence triage workflow.
"""

from repro.verify.canonical import (
    CANONICAL_VERSION,
    canonical_alignments,
    canonical_text,
    first_divergence,
    result_digest,
    results_equal,
)
from repro.verify.cases import (
    CORPUS_SEED,
    CORPUS_SIZE,
    FAMILIES,
    Case,
    build_case,
    generate_cases,
    pinned_corpus,
)
from repro.verify.golden import GoldenMismatch, GoldenStore
from repro.verify.oracle import SerialOracle
from repro.verify.matrix import (
    BuggedEngine,
    BuggedVariant,
    DEFAULT_VARIANTS,
    EngineVariant,
    ORACLE_NAME,
    OracleRunner,
    VARIANT_NAMES,
    default_matrix,
    variants_by_name,
)
from repro.verify.runner import DifferentialRunner, Divergence, VerifyReport
from repro.verify.shrink import Reproducer, minimise

__all__ = [
    "BuggedEngine",
    "BuggedVariant",
    "CANONICAL_VERSION",
    "CORPUS_SEED",
    "CORPUS_SIZE",
    "Case",
    "DEFAULT_VARIANTS",
    "DifferentialRunner",
    "Divergence",
    "EngineVariant",
    "FAMILIES",
    "GoldenMismatch",
    "GoldenStore",
    "ORACLE_NAME",
    "OracleRunner",
    "Reproducer",
    "SerialOracle",
    "VARIANT_NAMES",
    "VerifyReport",
    "build_case",
    "canonical_alignments",
    "canonical_text",
    "default_matrix",
    "first_divergence",
    "generate_cases",
    "minimise",
    "pinned_corpus",
    "result_digest",
    "results_equal",
    "variants_by_name",
]
