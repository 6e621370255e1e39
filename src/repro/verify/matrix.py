"""The engine matrix: every implementation and execution path under test.

A :class:`EngineVariant` pairs an engine (by registry name, including the
``cublastp:<strategy>`` forms) with an *execution path* — how the query
and database reach it. The matrix splits along those two axes: every
engine runs on the direct path, and every other path runs on the
``reference`` engine, because no path depends on which engine it carries
(db-sweep ignores it except to compile the queries). So a ``cublastp-*``
name means cuBLASTP's kernels run, and each ``reference-*`` name is a
path:

``direct``
    ``engine.run(engine.compile(q), db)``, the plain protocol call.
``view``
    The database is searched as a zero-copy
    :class:`~repro.io.database.DatabaseView` into a parent that holds one
    more sequence in front, so the view's offset rebase is not the
    identity; results must be identical to the copy.
``mmap``
    The database round-trips through the versioned binary format and is
    re-opened memory-mapped; exercises the storage layer end to end.
``batch``
    The query goes through a threaded
    :class:`~repro.engine.executor.BatchExecutor` (jobs=2, duplicated
    query) — scheduling must not perturb output.
``process``
    The same duplicated-query batch through the *process* backend: the
    database crosses to warm workers via a spilled binary file, results
    come back as canonical-form payloads — the whole
    :mod:`~repro.engine.procpool` marshalling story must be lossless.
``sweep``
    The duplicated-query batch in the executor's ``db-sweep`` mode: the
    inverted, batch-first dataflow (one blocked database pass through a
    merged :class:`~repro.seeding.multi_query.MultiQueryIndex`) must be
    result-identical to per-query search. Blocks hold
    :data:`SWEEP_BLOCK_RESIDUES` residues, so a case database of two or
    more sequences spans several blocks and the cross-block merge runs.
``sweep-process``
    Same inversion under the process backend, where workers own database
    *blocks* and ship back query-tagged extension streams — the merge in
    block order must reconstruct the per-query results exactly.

:func:`default_matrix` is the full implementation-under-test list; the
``reference`` pipeline (:data:`ORACLE_NAME`) is the oracle it is checked
against. :class:`BuggedEngine` deliberately corrupts an engine's output
and exists so the subsystem can prove — in CI, continuously — that it
*would* catch a real divergence (``repro verify --selftest``).
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.core.statistics import SearchParams
from repro.engine.executor import BatchExecutor
from repro.engine.protocol import CUBLASTP_STRATEGY_NAMES, Engine, make_engine

if TYPE_CHECKING:
    from repro.core.results import SearchResult
    from repro.io.database import SequenceDatabase
    from repro.verify.cases import Case

#: The engine whose output is ground truth.
ORACLE_NAME = "reference"

#: Execution paths a variant may route through.
PATHS = ("direct", "view", "mmap", "batch", "process", "sweep", "sweep-process")

#: Residues per block on the sweep paths. The smallest pinned corpus
#: database of two or more sequences holds 80 residues; at 50 per block
#: every such case is cut into at least two blocks.
SWEEP_BLOCK_RESIDUES = 50


@dataclass(frozen=True)
class EngineVariant:
    """One implementation under test: an engine on an execution path.

    ``sanitize=True`` builds the engine with
    ``CuBlastpConfig(sanitize=True)``, so every simulated kernel runs
    under the memory sanitizer (racecheck/initcheck/boundscheck) and any
    hazard fails the case — the conformance corpus doubles as the
    sanitizer's clean-run fixture (docs/ANALYSIS.md).
    """

    name: str
    engine_name: str
    path: str = "direct"
    sanitize: bool = False

    def make(self, params: SearchParams) -> Engine:
        config = None
        if self.sanitize:
            from repro.cublastp import CuBlastpConfig

            config = CuBlastpConfig(sanitize=True)
        return make_engine(self.engine_name, params, config=config)

    def run_case(self, case: "Case") -> "SearchResult":
        """Run the case through this variant, returning its result."""
        engine = self.make(case.params)
        if self.path == "mmap":
            # Round-trip through the binary format and search the live
            # memory-mapped database (the mapping stays open for the run).
            from repro.io.database import SequenceDatabase

            with tempfile.TemporaryDirectory(prefix="repro-verify-") as tmp:
                path = Path(tmp) / "case.rpdb"
                case.db.save(path)
                db = SequenceDatabase.load(path, mmap=True)
                return engine.run(engine.compile(case.query), db)
        if self.path in ("batch", "process", "sweep", "sweep-process"):
            backend = "process" if self.path in ("process", "sweep-process") else "thread"
            mode = "db-sweep" if self.path.startswith("sweep") else "per-query"
            return _run_batched(
                engine, case.query_id, case.query, case.db, backend, mode=mode
            )
        if self.path == "view":
            db: "SequenceDatabase" = _offset_view(case.db)
        elif self.path == "direct":
            db = case.db
        else:
            raise ValueError(f"unknown execution path {self.path!r}")
        return engine.run(engine.compile(case.query), db)


def _offset_view(db: "SequenceDatabase") -> "SequenceDatabase":
    """``db`` as a view of a parent holding a copy of its first sequence in
    front of it (a full-range ``db.view(0, len(db))`` is ``db`` itself)."""
    from repro.io.database import SequenceDatabase

    head = int(db.offsets[1])
    parent = SequenceDatabase(
        np.concatenate([db.codes[:head], db.codes]),
        np.concatenate([[0], db.offsets + head]),
        ["view-pad", *db.identifiers],
    )
    return parent.view(1, len(parent))


def _run_batched(
    engine: Engine,
    query_id: str,
    query: str,
    db: "SequenceDatabase",
    backend: str = "thread",
    mode: str = "per-query",
) -> "SearchResult":
    """Run the query twice through an executor; both copies must agree
    with each other (a scheduling-sensitivity check local to this path)
    and the first is returned for the oracle comparison."""
    from repro.verify.canonical import results_equal

    executor = BatchExecutor(
        engine, jobs=2, backend=backend, mode=mode, block_residues=SWEEP_BLOCK_RESIDUES
    )
    outcomes = list(
        executor.stream([(query_id, query), (f"{query_id}+dup", query)], db)
    )
    for outcome in outcomes:
        if outcome.error is not None:
            raise outcome.error
    first, second = outcomes[0].result, outcomes[1].result
    if not results_equal(first, second):
        raise AssertionError(
            "batch executor returned different results for identical queries"
        )
    return first


#: The full matrix: every engine on the direct path (all three cuBLASTP
#: strategies, the baselines, and cuBLASTP under the sanitizer), then
#: every other execution path on the reference engine.
DEFAULT_VARIANTS: tuple[EngineVariant, ...] = (
    EngineVariant("cublastp-diagonal", "cublastp:diagonal"),
    EngineVariant("cublastp-hit", "cublastp:hit"),
    EngineVariant("cublastp-window", "cublastp:window"),
    EngineVariant("fsa", "fsa"),
    EngineVariant("ncbi", "ncbi"),
    EngineVariant("cuda-blastp", "cuda-blastp"),
    EngineVariant("gpu-blastp", "gpu-blastp"),
    EngineVariant("cublastp-sanitize", "cublastp", sanitize=True),
    EngineVariant("reference-view", "reference", path="view"),
    EngineVariant("reference-mmap", "reference", path="mmap"),
    EngineVariant("reference-batch", "reference", path="batch"),
    EngineVariant("reference-process", "reference", path="process"),
    EngineVariant("reference-sweep", "reference", path="sweep"),
    EngineVariant("reference-sweep-process", "reference", path="sweep-process"),
)

#: Variant names accepted by ``repro verify --engines``.
VARIANT_NAMES = tuple(v.name for v in DEFAULT_VARIANTS)


def default_matrix() -> list[EngineVariant]:
    """The full implementation-under-test list (oracle excluded)."""
    return list(DEFAULT_VARIANTS)


def variants_by_name(names: "list[str] | tuple[str, ...]") -> list[EngineVariant]:
    """Resolve ``--engines`` selections against the registry.

    Accepts variant names (``cublastp-window``, ``reference-mmap``) and,
    for convenience, bare engine registry names (``fsa``,
    ``cublastp:hit``) which run on the direct path.
    """
    registry = {v.name: v for v in DEFAULT_VARIANTS}
    out: list[EngineVariant] = []
    for name in names:
        if name in registry:
            out.append(registry[name])
        elif name == ORACLE_NAME:
            out.append(EngineVariant("reference", "reference"))
        elif name in ("cublastp",) + CUBLASTP_STRATEGY_NAMES + (
            "fsa", "ncbi", "cuda-blastp", "gpu-blastp",
        ):
            out.append(EngineVariant(name, name))
        else:
            raise ValueError(
                f"unknown engine variant {name!r} "
                f"(choose from {', '.join(VARIANT_NAMES)})"
            )
    return out


class OracleRunner:
    """Callable running a case through the oracle engine.

    The oracle is :class:`~repro.verify.oracle.SerialOracle`: its own
    whole-database hit scan and the scalar best-first gapped loop, while
    every variant under test runs the blocked sweep or a GPU kernel for
    phase 1 and the batched wavefront scheduler for phase 3 — so each of
    the matrix's comparisons doubles as a continuous differential on both
    rewrites.
    """

    name = ORACLE_NAME

    def __init__(self, params_override: SearchParams | None = None) -> None:
        self.params_override = params_override

    def __call__(self, case: "Case") -> "SearchResult":
        params = self.params_override or case.params
        engine = make_engine(f"{ORACLE_NAME}:serial-gapped", params)
        return engine.run(engine.compile(case.query), case.db)


@dataclass(frozen=True)
class BuggedEngine:
    """An engine wrapper that injects a deterministic output bug.

    ``score_delta`` perturbs the top alignment's score; ``drop_last``
    silently discards the weakest alignment. Used by ``repro verify
    --selftest`` and the conformance tests to demonstrate the harness
    catches an injected defect within the case budget.
    """

    inner: Engine
    score_delta: int = 1
    drop_last: bool = False
    name: str = "bugged"

    def compile(self, query):
        return self.inner.compile(query)

    def run(self, compiled, db, query_id: str | None = None, events=None) -> "SearchResult":
        from dataclasses import replace as dc_replace

        result = self.inner.run(compiled, db, events=events)
        alignments = list(result.alignments)
        if alignments:
            if self.drop_last:
                alignments = alignments[:-1]
            elif self.score_delta:
                alignments[0] = dc_replace(
                    alignments[0], score=alignments[0].score + self.score_delta
                )
        result.alignments = alignments
        result.num_reported = len(alignments)
        return result


@dataclass(frozen=True)
class BuggedVariant(EngineVariant):
    """A matrix entry whose engine is wrapped in :class:`BuggedEngine`."""

    score_delta: int = 1
    drop_last: bool = False

    def make(self, params: SearchParams) -> Engine:
        return BuggedEngine(
            make_engine(self.engine_name, params),
            score_delta=self.score_delta,
            drop_last=self.drop_last,
            name=self.name,
        )
