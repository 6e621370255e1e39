"""The always-on search service: coalescer → executor → cache.

:class:`SearchService` is the serving core, independent of any transport
(the HTTP front-end in :mod:`repro.serve.http` is one thin consumer; the
fault-injection suite drives this class directly). One instance owns:

* a :class:`~repro.serve.coalescer.Coalescer` batching concurrent
  arrivals. Dispatch is work-conserving: the one dispatcher thread takes
  the pending batch as soon as it is free, unless the coalescer's
  arrival-gap estimate predicts a companion within ``window_ms``; then
  it holds the batch until at most ``window_ms`` after its oldest
  request (the timer lives here, the rule in the coalescer). Arrivals
  pile up while a batch executes, so under backlog batches still close
  at ``max_batch``;
* a :class:`~repro.engine.executor.BatchExecutor` running each closed
  batch against the resident database — thread or process backend,
  per-query or db-sweep mode. Under the process backend in per-query
  mode the executor keeps its worker pool *warm across batches*
  (``keep_pool``), so a coalescing window never pays worker spawn +
  engine build + database ``mmap``; a db-sweep batch (the default mode)
  builds and retires its own pool, whose workers compile that batch;
* a :class:`~repro.serve.cache.ResultCache` of canonical payload bytes
  keyed ``(query-hash, db-version, params)``, where db-version is the
  RPDB header's content stamp — :meth:`refresh_db_version` picks up an
  out-of-band stamp bump and invalidates exactly the stale entries;
* admission control: at most ``max_pending`` requests may be queued or
  executing; past that :meth:`submit` sheds load with
  :class:`OverloadedError` (HTTP 429) instead of queueing unboundedly.
  Cache hits bypass admission — they cost a dict lookup, shedding them
  would be self-defeating.

Failure semantics are the executor's, surfaced per request: a query
whose worker crashes gets :class:`~repro.engine.procpool.WorkerCrashError`
on its future (503 at the HTTP layer) while queued siblings requeue onto
live workers; a fully dead pool fails requests *fast* — the service
never hangs on a lost backend.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Union

from repro.analysis.witness import new_condition, thread_shared
from repro.engine.executor import BatchExecutor
from repro.engine.protocol import Engine, make_engine
from repro.errors import ReproError
from repro.serve.cache import CacheKey, ResultCache, params_key, query_key
from repro.serve.coalescer import Coalescer
from repro.verify.canonical import payload_to_bytes, result_to_payload

if TYPE_CHECKING:
    from repro.core.statistics import SearchParams
    from repro.io.database import SequenceDatabase

    DatabaseLike = Union["SequenceDatabase", str, Path]


class ServeError(ReproError):
    """Base class for serving-layer failures."""


class OverloadedError(ServeError):
    """Admission control shed this request (HTTP 429).

    The pending+executing population is at ``max_pending``; retry later.
    """


class ServiceClosedError(ServeError):
    """The service is shutting down and accepts no new requests (HTTP 503)."""


@dataclass
class ServeOutcome:
    """One served request: the response payload plus cache provenance."""

    query_id: str
    #: Deterministic canonical-payload bytes (the HTTP response body).
    payload: bytes
    cache_hit: bool


@dataclass
class _Request:
    """A request admitted into the coalescer, awaiting its batch."""

    query_id: str
    sequence: str
    key: CacheKey
    future: "Future[ServeOutcome]" = field(default_factory=Future)


@dataclass
class ServiceStats:
    """Request-level counters (coalescer and cache keep their own)."""

    requests: int = 0
    #: Requests answered straight from the cache (never coalesced).
    cache_hits: int = 0
    #: Requests refused by admission control (the 429s).
    shed: int = 0
    #: Requests whose future carries an error.
    failed: int = 0
    completed: int = 0


@thread_shared
class SearchService:
    """Coalescing, caching search service over one resident database.

    Thread contract (checked by ``repro lint``'s ``thread-ownership``
    rule): request threads enter through :meth:`submit`; one dispatcher
    thread owns batch execution; the *lifecycle* role — the single
    logical thread that drives :meth:`start`/:meth:`close` — owns the
    dispatcher handle. Everything the roles share is guarded by
    ``self._cond``.

    Parameters
    ----------
    db:
        The database to serve: a saved binary path (preferred — the
        content stamp in its header keys the cache, and process workers
        ``mmap`` it directly), a FASTA-loaded or in-memory
        :class:`~repro.io.database.SequenceDatabase` (spilled to a
        temporary binary file when the process backend needs one), or a
        store-registered name.
    engine:
        Engine registry name or instance (default ``cublastp``).
    params:
        :class:`~repro.core.statistics.SearchParams` (defaults applied
        when ``None``); part of every cache key.
    backend / jobs / mode:
        Passed to the :class:`~repro.engine.executor.BatchExecutor`. The
        process backend asks for a warm persistent pool (``keep_pool``),
        which per-query mode keeps; db-sweep builds one per batch.
    window_ms:
        Coalescing window: a pending batch closes at latest this long
        after its first arrival. A free dispatcher holds a batch only
        when the arrival-gap estimate predicts a companion within the
        window, so a lone request on an idle service leaves at once.
        ``0`` never holds: each batch is whatever arrived while the
        previous one was executing.
    max_batch:
        Size close: a batch never exceeds this many requests.
    max_pending:
        Admission bound on queued+executing requests; beyond it
        :meth:`submit` raises :class:`OverloadedError`.
    cache_capacity:
        :class:`~repro.serve.cache.ResultCache` size (``0`` disables).
    max_respawns:
        Process-backend crash budget per worker slot.
    """

    def __init__(
        self,
        db: "DatabaseLike",
        *,
        engine: "Engine | str | None" = None,
        params: "SearchParams | None" = None,
        backend: str = "thread",
        jobs: int = 1,
        mode: str = "db-sweep",
        window_ms: float = 20.0,
        max_batch: int = 32,
        max_pending: int = 256,
        cache_capacity: int = 1024,
        max_respawns: int = 2,
    ) -> None:
        if window_ms < 0:
            raise ValueError("window_ms must be >= 0")
        if max_pending < 1:
            raise ValueError("max_pending must be positive")
        if isinstance(engine, Engine):
            self.engine = engine
        else:
            self.engine = make_engine(engine or "cublastp", params)
        engine_params = getattr(self.engine, "params", None)
        if engine_params is None:
            from repro.core.statistics import SearchParams

            engine_params = SearchParams()
        self.params: "SearchParams" = engine_params
        self.window_ms = window_ms
        self.max_pending = max_pending
        self.backend = backend
        self._db, self._db_path, self._db_spill = self._resolve_db(db, backend)
        self.db_version = self._read_db_version()  # guarded-by: self._cond
        self.cache = ResultCache(cache_capacity)
        self.coalescer: Coalescer[_Request] = Coalescer(max_batch)
        self.stats = ServiceStats()  # guarded-by: self._cond
        self.executor = BatchExecutor(
            self.engine,
            jobs=jobs,
            backend=backend,
            mode=mode,
            keep_pool=(backend == "process"),
            max_respawns=max_respawns,
        )
        self._params_key = params_key(self.params)
        self._cond = new_condition("SearchService._cond")
        self._ready: deque[list[_Request]] = deque()  # guarded-by: self._cond
        #: Requests admitted and not yet resolved (queued or executing).
        self._admitted = 0  # guarded-by: self._cond
        self._closed = False  # guarded-by: self._cond
        self._dispatcher: threading.Thread | None = None  # owned-by: lifecycle

    # -- database binding --------------------------------------------------

    @staticmethod
    def _resolve_db(
        db: "DatabaseLike", backend: str
    ) -> "tuple[DatabaseLike, Path | None, Callable[[], None] | None]":
        """Bind the database: ``(executor_db_arg, binary_path, spill_cleanup)``.

        The process backend needs a stable binary path (the warm pool is
        keyed on it); anything in-memory is spilled *once* for the
        service's lifetime rather than per batch.
        """
        from repro.io import storage

        if isinstance(db, (str, Path)):
            path = Path(db)
            if path.exists() and storage.sniff_format(path) == "binary":
                return path, path, None
        if backend == "process":
            from repro.engine.procpool import database_path_for_workers

            spill, cleanup = database_path_for_workers(db)
            return spill, spill, cleanup
        return db, None, None

    def _read_db_version(self) -> int:
        """The bound database's content stamp (0 when not a binary file)."""
        from repro.io import storage

        if self._db_path is None:
            return 0
        return storage.read_db_version(self._db_path)

    def refresh_db_version(self) -> tuple[int, int, int]:
        """Re-read the RPDB stamp; returns ``(old, new, invalidated)``.

        On a stamp change the store's residency entry is evicted (the
        file's content generation changed, the old mapping must not be
        served) and every cache entry keyed under a superseded stamp is
        reclaimed. Entries for the current stamp are untouched.
        """
        new = self._read_db_version()
        with self._cond:
            # The version swap races with request threads keying the
            # cache off db_version; publish it under the lock. Eviction
            # and invalidation run outside — both are idempotent, and
            # holding _cond across store/cache locks would add ordering
            # edges for no benefit.
            old = self.db_version
            changed = new != old
            if changed:
                self.db_version = new
        invalidated = 0
        if changed:
            if self._db_path is not None:
                from repro.io.store import get_default_store

                (self.executor.store or get_default_store()).evict(self._db_path)
            invalidated = self.cache.invalidate_stale(new)
        return old, new, invalidated

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "SearchService":  # runs-on: lifecycle
        """Start the dispatcher thread (idempotent); returns ``self``."""
        if self._dispatcher is None:
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name="repro-serve-dispatch", daemon=True
            )
            self._dispatcher.start()
        return self

    def close(self) -> None:  # runs-on: lifecycle
        """Drain pending batches, stop the dispatcher, retire the pool."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            batch = self.coalescer.flush()
            if batch:
                self._ready.append(batch)
            self._cond.notify_all()
        if self._dispatcher is not None:
            # The dispatcher drains every already-queued batch before it
            # exits, so admitted requests still get real results.
            self._dispatcher.join(timeout=60)
            self._dispatcher = None
        else:
            # Never started: fail anything queued rather than leak futures.
            with self._cond:
                leftovers = list(self._ready)
                self._ready.clear()
            for batch in leftovers:
                for r in batch:
                    if r.future.set_running_or_notify_cancel():
                        self._resolve_error(r, ServiceClosedError("service is shut down"))
        self.executor.close()
        if self._db_spill is not None:
            self._db_spill()
            self._db_spill = None

    def __enter__(self) -> "SearchService":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- request path ------------------------------------------------------

    def submit(self, query_id: str, sequence: str) -> "Future[ServeOutcome]":
        """Admit one request; resolve its future when its batch completes.

        Raises :class:`OverloadedError` (shed) or
        :class:`ServiceClosedError`; per-query search failures surface as
        the future's exception, not here.
        """
        if self._closed:
            raise ServiceClosedError("service is shut down")
        key = CacheKey(query_key(sequence), self.db_version, self._params_key)
        cached = self.cache.get(key)
        if cached is not None:
            # Counter updates take the lock even on the fast path: hits
            # race with the dispatcher's completed += len(batch) and a
            # lost update here understates every serving metric.
            with self._cond:
                self.stats.requests += 1
                self.stats.cache_hits += 1
                self.stats.completed += 1
            fut: "Future[ServeOutcome]" = Future()
            fut.set_result(ServeOutcome(query_id, cached, cache_hit=True))
            return fut
        request = _Request(query_id, sequence, key)
        with self._cond:
            if self._closed:
                raise ServiceClosedError("service is shut down")
            if self._admitted >= self.max_pending:
                self.stats.shed += 1
                raise OverloadedError(
                    f"{self._admitted} requests pending (max_pending="
                    f"{self.max_pending}); shedding load"
                )
            self.stats.requests += 1
            self._admitted += 1
            batch = self.coalescer.add(request, time.monotonic())
            if batch is not None:
                self._ready.append(batch)
            self._cond.notify_all()
        return request.future

    def search(
        self, query_id: str, sequence: str, timeout: float | None = None
    ) -> ServeOutcome:
        """Blocking convenience wrapper over :meth:`submit`."""
        return self.submit(query_id, sequence).result(timeout)

    # -- dispatcher --------------------------------------------------------

    def _next_batch(self) -> list[_Request] | None:  # runs-on: dispatcher
        with self._cond:
            while True:
                if self._ready:
                    return self._ready.popleft()
                if self._closed:
                    return None
                due = self.coalescer.due(self.window_ms / 1e3)
                if due is None:
                    self._cond.wait()
                    continue
                remaining = due - time.monotonic()
                if remaining > 0:
                    # An arrival or close() notifies; either may move the due time.
                    self._cond.wait(remaining)
                    continue
                batch = self.coalescer.flush()
                if batch is not None:
                    return batch

    def _dispatch_loop(self) -> None:  # runs-on: dispatcher
        while True:
            batch = self._next_batch()
            if batch is None:
                return
            self._execute(batch)

    def _execute(self, batch: list[_Request]) -> None:  # runs-on: dispatcher
        # Claim each future before running it: a caller (or asyncio's
        # wrap_future, when an HTTP handler is cancelled) may have cancelled
        # it while it waited, and resolving a cancelled future raises and
        # would end this thread. Cancelled requests are dropped here; their
        # admission slots are still released below.
        live = [r for r in batch if r.future.set_running_or_notify_cancel()]
        queries = [(r.query_id, r.sequence) for r in live]
        completed = 0
        try:
            outcomes = list(self.executor.stream(queries, self._db)) if live else []
        except Exception as exc:
            # A failure of the whole stream (not per-query isolated) is
            # every request's failure — report, never hang the futures.
            for r in live:
                self._resolve_error(r, exc)
        else:
            for r, outcome in zip(live, outcomes):
                if outcome.error is not None:
                    self._resolve_error(r, outcome.error)
                else:
                    payload = payload_to_bytes(result_to_payload(outcome.result))
                    self.cache.put(r.key, payload)
                    completed += 1
                    r.future.set_result(
                        ServeOutcome(r.query_id, payload, cache_hit=False)
                    )
        finally:
            # One locked update per batch: the counters race with the
            # cache-hit path in request threads, so the batch's tally is
            # folded in under the same lock as the admission count.
            with self._cond:
                self.stats.completed += completed
                self._admitted -= len(batch)
                self._cond.notify_all()

    def _resolve_error(self, request: _Request, error: Exception) -> None:
        with self._cond:
            self.stats.failed += 1
        request.future.set_exception(error)

    # -- introspection -----------------------------------------------------

    def worker_pids(self) -> list[int]:
        """Live process-backend worker PIDs.

        Empty for the thread backend, and always empty in ``db-sweep``
        mode: that mode builds its pool per batch and keeps none (only a
        per-query process executor keeps a warm pool).
        """
        pool = self.executor.process_pool
        return pool.worker_pids() if pool is not None else []

    @property
    def pending(self) -> int:
        """Requests admitted and not yet resolved."""
        with self._cond:
            return self._admitted

    def stats_dict(self) -> dict[str, Any]:
        """One JSON-able snapshot across service, coalescer, and cache."""
        c, k = self.coalescer.stats, self.cache.stats
        return {
            "requests": self.stats.requests,
            "completed": self.stats.completed,
            "failed": self.stats.failed,
            "shed": self.stats.shed,
            "pending": self.pending,
            "db_version": self.db_version,
            "coalescer": {
                "batches": c.batches,
                "size_closes": c.size_closes,
                "window_closes": c.window_closes,
                "mean_batch_size": round(c.mean_batch_size, 3),
            },
            "cache": {
                "entries": len(self.cache),
                "hits": k.hits,
                "misses": k.misses,
                "evictions": k.evictions,
                "invalidations": k.invalidations,
                "hit_rate": round(k.hit_rate, 4),
            },
        }
