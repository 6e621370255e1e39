"""Concurrent batch scheduler over any engine.

Real deployments stream many queries against one resident database.
:class:`BatchExecutor` replaces the serial loop every caller used to
hand-roll: it compiles each query once, schedules searches on a bounded
thread pool, isolates per-query failures, and yields outcomes in input
order — streamed, so a consumer can render query *k*'s result while
query *k+N* is still in flight.

The database stays resident for the whole batch (it is shared read-only
by every worker), mirroring how the paper's evaluation amortises database
residency across a query stream. Wherever a database is accepted, a path
to a saved one works too: it is resolved through a
:class:`~repro.io.store.DatabaseStore` (mmap-loaded, LRU-resident), so
successive batches against the same file reuse one mapping.

Two backends share the scheduling contract (input-order streaming,
bounded in-flight work, per-query error isolation):

``backend="thread"``
    In-process thread pool. Zero marshalling, shared database object —
    but the hot phases hold the GIL, so CPU scaling is limited.
``backend="process"``
    Persistent warm worker processes (:mod:`repro.engine.procpool`).
    Each worker builds the engine once and re-opens the database through
    the versioned binary format (``mmap``, no pickling); only query
    strings and canonical-form result payloads cross the boundary. This
    is the backend that actually scales the GIL-bound phases across
    cores. In-memory databases are spilled to a temporary binary file
    for the batch.

Attach an :class:`~repro.engine.events.EventLog` for the per-phase story;
both backends emit the same events.
"""

from __future__ import annotations

import os
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Union

from repro.engine.compiled import CompiledQuery
from repro.engine.events import EventLog
from repro.engine.protocol import Engine, make_engine

if TYPE_CHECKING:
    from repro.core.results import SearchResult
    from repro.core.sweep import BlockOutput
    from repro.io.database import SequenceDatabase
    from repro.io.store import DatabaseStore

    DatabaseLike = Union["SequenceDatabase", str, Path]


@dataclass
class QueryOutcome:
    """Outcome of one query in a batch.

    Exactly one of :attr:`result` / :attr:`error` is set: a failing query
    produces an error record instead of aborting the batch.
    """

    index: int
    query_id: str
    result: "SearchResult | None" = None
    error: Exception | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


class BatchResult:
    """Outcome of a multi-query batch.

    Wraps the per-query :class:`QueryOutcome` records (input order).
    Failed queries keep their error record in :attr:`errors` /
    :attr:`records` without aborting the batch; successful ones appear in
    :attr:`results`.
    """

    def __init__(self, records: list[QueryOutcome] | None = None) -> None:
        self.records: list[QueryOutcome] = list(records or [])

    def __len__(self) -> int:
        return len(self.records)

    @property
    def results(self) -> "list[tuple[str, SearchResult]]":
        """``(query_id, result)`` pairs of the successful queries."""
        return [(r.query_id, r.result) for r in self.records if r.result is not None]

    @property
    def errors(self) -> list[tuple[str, Exception]]:
        """``(query_id, error)`` pairs of the failed queries."""
        return [(r.query_id, r.error) for r in self.records if r.error is not None]


class BatchExecutor:
    """Thread-pooled scheduler running a query stream through one engine.

    Parameters
    ----------
    engine:
        Any :class:`~repro.engine.protocol.Engine` (defaults to cuBLASTP
        with default parameters — see :func:`~repro.engine.protocol.make_engine`).
    jobs:
        Worker threads (or processes). Under the thread backend ``1``
        runs inline (no pool); results are in input order and
        byte-identical regardless of ``jobs`` and backend. The process
        backend caps it at ``os.cpu_count()`` — extra worker processes on
        an oversubscribed host only multiply engine builds and database
        mappings; the requested value stays readable as
        :attr:`requested_jobs`.
    backend:
        ``"thread"`` (default) or ``"process"`` — see the module
        docstring for the tradeoff.
    events:
        Optional :class:`~repro.engine.events.EventLog` every search of
        the batch emits into (handed to the engine's ``run``, or re-emitted
        from the workers), for phase-level consumption of the whole batch.
    store:
        :class:`~repro.io.store.DatabaseStore` used to resolve database
        *paths* passed to :meth:`stream` / :meth:`run` (defaults to the
        process-wide store).
    mode:
        ``"per-query"`` (default): each worker owns whole queries.
        ``"db-sweep"``: the batch-first inversion — the whole batch is
        compiled up front, hit detection makes *one* blocked pass over
        the database through a merged
        :class:`~repro.seeding.multi_query.MultiQueryIndex`, and under
        the process backend workers own database *blocks* instead of
        queries (query-tagged extension streams merge across blocks
        before gapped extension). db-sweep runs the reference sweep
        (:func:`~repro.core.sweep.search_batch_sweep`) whatever engine
        compiled the queries; phase events carry the engine's name.
        Results are identical to per-query mode, outcome for outcome;
        error isolation is coarser — a failure during the shared sweep
        fails the whole batch (compile errors stay per-query).
    block_residues:
        Target residues per sweep block (db-sweep mode; default
        :data:`~repro.core.sweep.DEFAULT_BLOCK_RESIDUES`).
    keep_pool:
        Keep the process backend's worker pool warm across batches —
        per-query mode only; db-sweep builds and shuts down a pool per
        batch, since its workers are bound to the batch's queries. An
        always-on service runs one small batch per
        coalescing window; without this every window would pay worker
        spawn + engine build + database ``mmap``. The kept pool is bound
        to one database path; call :meth:`close` (or use the executor as
        a context manager) to retire it. Successive batches reuse the
        same workers — crash respawn budgets carry across batches, and a
        fully dead pool fails subsequent batches fast instead of hanging.
    max_respawns:
        Per-worker-slot crash budget for the process backend (default 2).
    """

    #: Execution backends ``backend`` accepts.
    BACKENDS = ("thread", "process")

    #: Scheduling modes ``mode`` accepts.
    MODES = ("per-query", "db-sweep")

    def __init__(
        self,
        engine: Engine | None = None,
        *,
        jobs: int = 1,
        backend: str = "thread",
        events: EventLog | None = None,
        store: "DatabaseStore | None" = None,
        mode: str = "per-query",
        block_residues: int | None = None,
        keep_pool: bool = False,
        max_respawns: int = 2,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        if backend not in self.BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r} (choose from {', '.join(self.BACKENDS)})"
            )
        if mode not in self.MODES:
            raise ValueError(
                f"unknown mode {mode!r} (choose from {', '.join(self.MODES)})"
            )
        if block_residues is not None and block_residues < 1:
            raise ValueError("block_residues must be positive")
        self.requested_jobs = jobs
        if backend == "process":
            jobs = max(1, min(jobs, os.cpu_count() or 1))
        self.engine = engine if engine is not None else make_engine("cublastp", events=events)
        self.jobs = jobs
        self.backend = backend
        self.mode = mode
        self.block_residues = block_residues
        self.events = events
        self.store = store
        self.keep_pool = keep_pool
        self.max_respawns = max_respawns
        # Pool residency is dispatcher-owned: exactly one thread drives
        # stream()/run() at a time (the serve dispatcher, or whatever
        # single thread owns this executor). The concurrency contract
        # checker holds every other access to that discipline.
        self._pool: Any | None = None  # owned-by: dispatcher
        self._pool_key: tuple | None = None  # owned-by: dispatcher
        self._pool_cleanup: Any | None = None  # owned-by: dispatcher

    @property
    def jobs_clamped(self) -> bool:
        """Whether the host's core count reduced the requested jobs."""
        return self.jobs < self.requested_jobs

    def _resolve_db(self, db: "DatabaseLike") -> "SequenceDatabase":
        """Pass databases through; open paths via the (default) store."""
        if isinstance(db, (str, Path)):
            if self.store is None:
                from repro.io.store import get_default_store

                self.store = get_default_store()
            return self.store.open(db)
        return db

    # -- per-query work ----------------------------------------------------

    def _execute(self, index: int, query_id: str, sequence: str, db: "SequenceDatabase") -> QueryOutcome:
        try:
            compiled = self.engine.compile(sequence)
            result = self.engine.run(compiled, db, query_id=query_id, events=self.events)
            return QueryOutcome(index, query_id, result=result)
        except Exception as exc:  # per-query isolation: record, don't abort
            return QueryOutcome(index, query_id, error=exc)

    # -- scheduling --------------------------------------------------------

    def stream(  # runs-on: dispatcher
        self, queries: Iterable[tuple[str, str]], db: "DatabaseLike"
    ) -> Iterator[QueryOutcome]:
        """Yield one :class:`QueryOutcome` per query, in input order.

        ``db`` may be a resident :class:`~repro.io.database.SequenceDatabase`
        or a path to a saved one (store-resolved). Consumption drives
        submission: at most ``2 * jobs`` queries are in flight ahead of
        the consumer.
        """
        if self.mode == "db-sweep":
            yield from self._stream_sweep(queries, db)
            return
        if self.backend == "process":
            yield from self._stream_process(queries, db)
            return
        db = self._resolve_db(db)
        if self.jobs == 1:
            for index, (query_id, sequence) in enumerate(queries):
                yield self._execute(index, query_id, sequence, db)
            return
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=self.jobs, thread_name_prefix="repro-batch")
        max_in_flight = 2 * self.jobs
        try:
            pending: deque = deque()
            for index, (query_id, sequence) in enumerate(queries):
                pending.append(pool.submit(self._execute, index, query_id, sequence, db))
                while len(pending) >= max_in_flight:
                    yield pending.popleft().result()
            while pending:
                yield pending.popleft().result()
        finally:
            pool.shutdown(wait=True, cancel_futures=True)

    # -- db-sweep mode -----------------------------------------------------

    def _compile_batch(
        self, queries: Iterable[tuple[str, str]]
    ) -> tuple[list[tuple[int, str, str, CompiledQuery]], list[QueryOutcome]]:
        """Compile the whole batch up front, isolating per-query failures.

        Sweep modes share one database pass, so a query that cannot even
        compile must be excluded *before* the sweep (under the process
        backend it would otherwise crash every worker's ``setup``).
        Returns the good ``(index, query_id, sequence, compiled)`` entries
        plus ready-made error outcomes for the rest.
        """
        good: list[tuple[int, str, str, CompiledQuery]] = []
        failed: list[QueryOutcome] = []
        for index, (query_id, sequence) in enumerate(queries):
            try:
                compiled = self.engine.compile(sequence)
            except Exception as exc:
                failed.append(QueryOutcome(index, query_id, error=exc))
                continue
            good.append((index, query_id, sequence, compiled))
        return good, failed

    def _stream_sweep(
        self, queries: Iterable[tuple[str, str]], db: "DatabaseLike"
    ) -> Iterator[QueryOutcome]:
        """db-sweep on either backend: one blocked pass serves the batch.

        Whatever engine compiled the queries, the batch runs the reference
        sweep (:func:`~repro.core.sweep.search_batch_sweep`) with phase
        events under the engine's name. Only where the blocks are swept
        differs: in this thread (the store's cached cut of a path, else
        ``db.blocks``; ``jobs`` does not fan the pass out), or — process
        backend — in pool workers that each own database blocks
        (:class:`~repro.engine.procpool.SweepBlockSpec`) and ship back only
        the per-query surviving extensions, which this process accumulates
        in block order before finishing phases 3–4 per query.
        """
        from repro.core.pipeline import BlastpPipeline
        from repro.core.sweep import num_sweep_blocks, search_batch_sweep

        good, failed = self._compile_batch(queries)
        outcomes: dict[int, QueryOutcome] = {o.index: o for o in failed}
        if good:
            resolved = self._resolve_db(db)
            num_blocks = num_sweep_blocks(resolved, self.block_residues)
            try:
                pipelines = [
                    BlastpPipeline(compiled, query_id=query_id)
                    for _, query_id, _, compiled in good
                ]
                with self._sweep_source(good, db, resolved, num_blocks) as source:
                    results = search_batch_sweep(
                        pipelines,
                        resolved,
                        engine_name=self.engine.name,
                        events=self.events,
                        **source,
                    )
            except Exception as exc:
                # Coarse isolation: the pass is shared, so a failure anywhere
                # in it — a lost block included — is every query's failure.
                for index, query_id, _, _ in good:
                    outcomes[index] = QueryOutcome(index, query_id, error=exc)
            else:
                for (index, query_id, _, _), (result, _counts) in zip(good, results):
                    outcomes[index] = QueryOutcome(index, query_id, result=result)
        for index in sorted(outcomes):
            yield outcomes[index]

    @contextmanager
    def _sweep_source(
        self,
        good: list[tuple[int, str, str, CompiledQuery]],
        db: "DatabaseLike",
        resolved: "SequenceDatabase",
        num_blocks: int,
    ) -> Iterator[dict[str, Any]]:
        """The blocks of one sweep, as ``search_batch_sweep`` keywords:
        ``blocks`` to sweep here, or ``swept`` blocks decoded from a
        per-batch process pool (shut down, with any spill, on exit)."""
        if self.backend == "thread":
            if isinstance(db, (str, Path)):
                assert self.store is not None  # set by _resolve_db
                yield {"blocks": self.store.blocks(db, num_blocks)}
            else:
                yield {"blocks": resolved.blocks(num_blocks)}
            return
        from repro.engine.procpool import (
            EngineSpec,
            ProcessPool,
            SweepBlockSpec,
            database_path_for_workers,
        )
        from repro.verify import canonical

        engine_spec = EngineSpec.from_engine(self.engine)
        db_path, cleanup = database_path_for_workers(db, store=self.store)
        task_spec = SweepBlockSpec(
            engine=engine_spec,
            db_path=str(db_path),
            queries=tuple((query_id, sequence) for _, query_id, sequence, _ in good),
            num_blocks=num_blocks,
        )
        pool = ProcessPool(
            task_spec,
            jobs=self.jobs,
            max_respawns=self.max_respawns,
        )
        runs = pool.run(range(num_blocks))

        def swept() -> "Iterator[BlockOutput]":
            for _block, payload, error in runs:
                if error is not None:
                    # One lost block loses every query's hits in it.
                    raise error
                yield (
                    [canonical.extensions_from_payload(p) for p in payload["extensions"]],
                    payload["num_hits"],
                    payload["num_seeds"],
                    payload["phase_wall_ms"],
                )

        try:
            yield {"swept": swept()}
        finally:
            runs.close()
            pool.shutdown()
            if cleanup is not None:
                cleanup()

    def _stream_process(
        self, queries: Iterable[tuple[str, str]], db: "DatabaseLike"
    ) -> Iterator[QueryOutcome]:
        """The process-backend stream: warm workers over the binary format."""
        from repro.engine.procpool import (
            EngineSpec,
            QueryTaskSpec,
            database_path_for_workers,
        )
        from repro.verify.canonical import result_from_payload

        engine_spec = EngineSpec.from_engine(self.engine)
        db_path, cleanup = database_path_for_workers(db, store=self.store)
        task_spec = QueryTaskSpec(
            engine=engine_spec,
            db_path=str(db_path),
            collect_events=self.events is not None,
        )
        pool, pool_owned = self._acquire_pool(task_spec, cleanup)
        # Query ids are recorded as the pool consumes the (lazy) stream,
        # so an outcome can always name its query even on a crash.
        ids: dict[int, str] = {}

        def tasks() -> Iterator[tuple[str, str]]:
            for i, (query_id, sequence) in enumerate(queries):
                ids[i] = query_id
                yield query_id, sequence

        try:
            for index, payload, error in pool.run(tasks()):
                query_id = ids.pop(index, f"query-{index}")
                if error is not None:
                    yield QueryOutcome(index, query_id, error=error)
                    continue
                if self.events is not None:
                    engine_name = payload.get("engine", engine_spec.name)
                    for phase, work_items, modelled_ms, wall_ms in payload.get("events", []):
                        self.events.emit(
                            engine_name,
                            phase,
                            work_items=work_items,
                            modelled_ms=modelled_ms,
                            wall_ms=wall_ms,
                            query_id=query_id,
                        )
                yield QueryOutcome(
                    index, query_id, result=result_from_payload(payload["result"])
                )
        finally:
            if pool_owned:
                pool.shutdown()
                if cleanup is not None:
                    cleanup()

    # -- pool residency ----------------------------------------------------

    def _acquire_pool(self, task_spec: Any, cleanup: Any) -> tuple[Any, bool]:
        """The process pool for this batch: ``(pool, owned_by_this_call)``.

        Without :attr:`keep_pool` the pool is built fresh and the caller
        shuts it down after the batch. With it, one pool is kept warm per
        ``(db_path, collect_events)`` binding until :meth:`close`;
        switching the binding retires the old pool (and any temp-file
        spill it mapped).
        """
        from repro.engine.procpool import ProcessPool

        key = (task_spec.db_path, task_spec.collect_events)
        if self.keep_pool and self._pool is not None and self._pool_key == key:
            return self._pool, False
        pool = ProcessPool(
            task_spec,
            jobs=self.jobs,
            max_respawns=self.max_respawns,
        )
        if not self.keep_pool:
            return pool, True
        self.close()
        self._pool = pool
        self._pool_key = key
        self._pool_cleanup = cleanup
        return pool, False

    @property
    def process_pool(self) -> Any | None:
        """The kept process pool, when one is alive (``keep_pool`` in
        per-query mode only).

        Cross-thread introspection (fault-injection tests read worker
        PIDs from the test thread): a benign racy read of a reference,
        never dereferenced for mutation by the reader.
        """
        return self._pool  # reprolint: disable=thread-ownership

    def close(self) -> None:  # runs-on: dispatcher
        """Retire a kept process pool and its database spill (idempotent).

        The ``runs-on: dispatcher`` contract here is ownership
        *transfer*, not thread identity: the caller must be done driving
        ``stream``/``run`` before closing (the serve layer joins the
        dispatcher thread first — a happens-before edge), at which point
        the closing thread is the single logical driver these fields
        belong to.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_key = None
        if self._pool_cleanup is not None:
            self._pool_cleanup()
            self._pool_cleanup = None

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def run(self, queries: Iterable[tuple[str, str]], db: "DatabaseLike") -> "BatchResult":
        """Run the whole batch and aggregate it into a :class:`BatchResult`."""
        return BatchResult(list(self.stream(queries, db)))
