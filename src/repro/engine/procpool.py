"""Process-pool execution backend: warm workers over the mmap store.

The thread-pooled :class:`~repro.engine.executor.BatchExecutor` keeps the
database resident but cannot buy CPU parallelism for the hot phases — the
gapped-extension row loop, the gpusim warp interpreter, and ragged hit
expansion all hold the GIL, so ``--jobs 8`` on an 8-core box runs barely
faster than serial. This module is the escape hatch the zero-copy storage
layer (PR 2) was built to enable: a database saved in the versioned
binary format re-opens in a *worker process* for the cost of a
``mmap(2)``, so the only things that ever cross the process boundary are

* once, at worker start: a compact, picklable task spec (engine registry
  name + :class:`~repro.core.statistics.SearchParams` + configuration,
  and the database *path*);
* per query: the ``(query_id, sequence)`` pair going out, and a
  canonical-form result payload (:mod:`repro.verify.canonical`) coming
  back — exact ``repr``-round-tripped floats, no pickled result objects.

Layers
------
:class:`ProcessPool`
    Generic warm-worker pool: one task per message with a bounded
    number in flight, input-order streaming, worker-crash isolation (a
    dead worker fails only its in-flight tasks and is respawned), and a
    respawn budget so a deterministically-crashing setup cannot spin.
:class:`EngineSpec`
    The picklable description of an engine (what crosses the boundary
    instead of the engine object).
:class:`QueryTaskSpec`
    The search task: build the engine once per worker, ``mmap`` the
    database once per worker, then stream queries.

:func:`database_path_for_workers` is the in-memory fallback: anything
that is not already a saved binary database is spilled to a temporary
``.rpdb`` file so every caller can opt in to process execution.
"""

from __future__ import annotations

import multiprocessing
import os
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from queue import Empty
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from repro.engine.protocol import Engine, make_engine

if TYPE_CHECKING:
    from repro.core.statistics import SearchParams
    from repro.core.sweep import BlockSweep
    from repro.cublastp.config import CuBlastpConfig
    from repro.io.database import SequenceDatabase
    from repro.io.store import DatabaseStore


class WorkerCrashError(RuntimeError):
    """The worker process holding this task died before finishing it."""


class RemoteTaskError(RuntimeError):
    """An exception raised inside a worker, rehydrated at the parent.

    Carries the original type name and the remote traceback text (the
    exception object itself never crosses the boundary).
    """

    def __init__(self, exc_type: str, message: str, remote_traceback: str = "") -> None:
        super().__init__(f"{exc_type}: {message}")
        self.exc_type = exc_type
        self.remote_traceback = remote_traceback


def _encode_error(exc: BaseException) -> dict:
    return {
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exc(),
    }


def _decode_error(payload: dict) -> RemoteTaskError:
    return RemoteTaskError(payload["type"], payload["message"], payload["traceback"])


# -- the engine spec -------------------------------------------------------


@dataclass(frozen=True)
class EngineSpec:
    """Picklable description of an engine: what a worker rebuilds locally.

    Mirrors :func:`~repro.engine.protocol.make_engine`'s arguments — a
    registry ``name`` plus the small parameter/configuration dataclasses.
    A worker calls :meth:`build` once and reuses the engine for every
    query it is handed.
    """

    name: str
    params: "SearchParams | None" = None
    config: "CuBlastpConfig | None" = None
    threads: int | None = None
    device: Any | None = None

    def build(self, events: Any | None = None) -> Engine:
        return make_engine(
            self.name,
            self.params,
            config=self.config,
            threads=self.threads,
            device=self.device,
            events=events,
        )

    @classmethod
    def from_engine(cls, engine: Engine) -> "EngineSpec":
        """Derive the spec of a live engine instance.

        Works for every registry engine; hand-built engine objects that
        are not registry types cannot cross the process boundary.
        """
        from repro.baselines.cuda_blastp import CudaBlastp
        from repro.baselines.fsa_blast import FsaBlast
        from repro.baselines.gpu_blastp import GpuBlastp
        from repro.baselines.ncbi_blast import NcbiBlast
        from repro.core.pipeline import BlastpPipeline
        from repro.cublastp.search import CuBlastp

        if isinstance(engine, CuBlastp):
            return cls(
                "cublastp",
                engine.params,
                config=engine.config,
                device=engine.device,
            )
        if isinstance(engine, NcbiBlast):  # before FsaBlast (subclass)
            return cls("ncbi", engine.params, threads=engine.threads)
        if isinstance(engine, FsaBlast):
            return cls("fsa", engine.params)
        if isinstance(engine, GpuBlastp):  # before CudaBlastp (subclass)
            return cls("gpu-blastp", engine.params, device=engine.device)
        if isinstance(engine, CudaBlastp):
            return cls("cuda-blastp", engine.params, device=engine.device)
        if isinstance(engine, BlastpPipeline):
            return cls("reference", engine.params)
        raise TypeError(
            f"cannot derive a process-boundary spec for {type(engine).__name__}: "
            "only registry engines (make_engine) run on the process backend"
        )


# -- the database spill ----------------------------------------------------


def database_path_for_workers(
    db: "SequenceDatabase | str | Path", store: "DatabaseStore | None" = None
) -> tuple[Path, Callable[[], None] | None]:
    """A binary-format path workers can ``mmap``, spilling when needed.

    A path to a saved binary database passes straight through. Anything
    else — an in-memory database or a store-registered name — is
    resolved and written to a temporary ``.rpdb`` file. Returns
    ``(path, cleanup)``; call ``cleanup`` (when not ``None``) after the
    workers are done with the file.
    """
    from repro.io import storage

    if isinstance(db, (str, Path)):
        path = Path(db)
        if path.exists() and storage.sniff_format(path) == "binary":
            return path, None
        if store is None:
            from repro.io.store import get_default_store

            store = get_default_store()
        db = store.resolve(db)
    fd, name = tempfile.mkstemp(prefix="repro-batch-", suffix=".rpdb")
    os.close(fd)
    db.save(name)
    return Path(name), lambda: os.unlink(name)


# -- worker side -----------------------------------------------------------


@dataclass
class _QueryWorkerState:
    engine: Engine
    db: "SequenceDatabase"
    events: Any


@dataclass(frozen=True)
class QueryTaskSpec:
    """One-query-per-task work: the :class:`BatchExecutor` process backend.

    ``setup`` builds the engine once and maps the database once;
    ``run`` executes ``(query_id, sequence)`` tasks against them and
    returns canonical-form payloads.
    """

    engine: EngineSpec
    db_path: str
    collect_events: bool = False

    def setup(self) -> _QueryWorkerState:
        from repro.engine.events import EventLog
        from repro.io.database import SequenceDatabase

        events = EventLog() if self.collect_events else None
        engine = self.engine.build(events=events)
        db = SequenceDatabase.load(self.db_path, mmap=True)
        return _QueryWorkerState(engine, db, events)

    def run(self, state: _QueryWorkerState, task: tuple[str, str]) -> dict:
        from repro.verify.canonical import result_to_payload

        query_id, sequence = task
        t0 = time.perf_counter()
        compiled = state.engine.compile(sequence)
        result = state.engine.run(compiled, state.db, query_id=query_id)
        payload = {
            "result": result_to_payload(result),
            "engine": getattr(state.engine, "name", self.engine.name),
            "wall_ms": (time.perf_counter() - t0) * 1e3,
        }
        if state.events is not None:
            payload["events"] = [
                (e.phase, e.work_items, e.modelled_ms, e.wall_ms)
                for e in state.events.events
            ]
            state.events.clear()
        return payload


@dataclass(frozen=True)
class SweepBlockSpec:
    """One-database-block-per-task work: the db-sweep executor mode.

    The inversion of :class:`QueryTaskSpec`'s ownership model: workers own
    *database blocks* instead of whole queries. ``setup`` compiles every
    query of the batch once, maps the database and builds the same
    :class:`~repro.core.sweep.BlockSweep` the in-process sweep builds —
    merged index, whole-database cutoffs, and the residue-balanced block
    cut the parent scheduled (block bounds are deterministic, so head and
    workers agree). ``run`` takes a block index, sweeps that block for the
    whole batch, runs block-local two-hit + ungapped extension per query,
    and returns only the surviving extensions — plain int lists, a few KB
    per block, instead of the block's millions of raw hits. The parent
    feeds the decoded blocks, in block order, to
    :func:`~repro.core.sweep.search_batch_sweep`, which accumulates them
    and finishes gapped extension + traceback per query.

    Every field is a picklable builtin or a registry dataclass — the
    ``picklable-spec-fields`` lint rule keeps it that way by construction.
    """

    engine: EngineSpec
    db_path: str
    #: The whole batch: ``(query_id, sequence)`` pairs, in batch order.
    queries: tuple
    num_blocks: int

    def setup(self) -> "BlockSweep":
        from repro.core.pipeline import BlastpPipeline
        from repro.core.sweep import BlockSweep
        from repro.io.database import SequenceDatabase

        engine = self.engine.build()
        db = SequenceDatabase.load(self.db_path, mmap=True)
        pipelines = [
            BlastpPipeline(engine.compile(sequence), query_id=query_id)
            for query_id, sequence in self.queries
        ]
        return BlockSweep.build(pipelines, db, db.blocks(self.num_blocks))

    def run(self, state: "BlockSweep", block_index: int) -> dict:
        from repro.verify.canonical import extensions_to_payload

        t0 = time.perf_counter()
        extensions, num_hits, num_seeds, phase_wall = state.extend(block_index)
        return {
            "block": block_index,
            "num_hits": [int(n) for n in num_hits],
            "num_seeds": [int(n) for n in num_seeds],
            # Columnar marshalling: six aligned int lists per query, not
            # one nested list per record.
            "extensions": [
                extensions_to_payload(per_query) for per_query in extensions
            ],
            "wall_ms": (time.perf_counter() - t0) * 1e3,
            # Worker-side phase split, so the parent can attribute the
            # block's wall to hit detection vs ungapped extension instead
            # of one opaque sweep number.
            "phase_wall_ms": {k: float(v) for k, v in phase_wall.items()},
        }


def _worker_main(
    spec: Any, task_queue: Any, result_queue: Any, worker_id: int
) -> None:
    """Worker entry point: one setup, then a task loop until the sentinel."""
    try:
        state = spec.setup()
    except BaseException as exc:  # noqa: BLE001
        result_queue.put(("init_error", worker_id, _encode_error(exc)))
        return
    while True:
        message = task_queue.get()
        if message is None:
            return
        index, item = message
        # Announce the task before touching it: on a crash the parent
        # can tell truly-in-flight tasks (fail) from ones still queued
        # behind the corpse (safe to requeue on a sibling).
        result_queue.put(("begin", worker_id, (index, None)))
        try:
            payload = spec.run(state, item)
            result_queue.put(("ok", worker_id, (index, payload)))
        except BaseException as exc:  # noqa: BLE001
            result_queue.put(("err", worker_id, (index, _encode_error(exc))))


# -- parent side -----------------------------------------------------------


@dataclass
class _WorkerSlot:
    slot: int
    proc: Any = None
    task_queue: Any = None
    #: index -> True for every task dispatched to this worker and not yet
    #: answered.
    pending: dict = field(default_factory=dict)
    #: indices the worker has announced it started executing; on a crash
    #: exactly these fail — pending-but-unstarted tasks are requeued.
    started: set = field(default_factory=set)
    respawns_left: int = 2
    dead: bool = False


def default_start_method() -> str:
    """``fork`` where available (cheap warm-up), else ``spawn``."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


class ProcessPool:
    """Persistent warm workers executing a picklable task spec.

    Parameters
    ----------
    spec:
        Picklable object with ``setup() -> state`` (run once per worker)
        and ``run(state, item) -> payload`` (run per task). Payloads must
        be picklable builtins.
    jobs:
        Number of worker processes.
    max_respawns:
        Crash budget per worker slot; past it the slot stays dead (and if
        every slot dies, remaining tasks fail with
        :class:`WorkerCrashError` instead of hanging).

    The workers stay warm across :meth:`run` calls until :meth:`shutdown`
    — the always-on serving mode runs every coalesced batch as one
    ``run`` on the same workers; whoever builds a pool shuts it down.
    Sequential ``run`` calls only (the task queues are not re-entrant).
    """

    def __init__(
        self,
        spec: Any,
        jobs: int,
        *,
        max_respawns: int = 2,
    ) -> None:
        if jobs < 1:
            raise ValueError("jobs must be positive")
        self.spec = spec
        self.jobs = jobs
        self.ctx = multiprocessing.get_context(default_start_method())
        self.max_respawns = max_respawns
        # Scheduling state below is dispatcher-owned: one thread drives
        # ensure_started/run/shutdown (sequential ``run`` calls only —
        # see the class docstring). The concurrency contract checker
        # flags any other thread reaching in; the worker processes only
        # ever touch the queues.
        self._started = False  # owned-by: dispatcher
        self._closed = False  # owned-by: dispatcher
        #: First task index of the next ``run`` call. Task indexes are
        #: global across the pool's lifetime so a straggler
        #: result from an abandoned earlier stream can never be mistaken
        #: for a current one (stale indexes are simply dropped).
        self._task_base = 0  # owned-by: dispatcher
        self._results = self.ctx.Queue()
        self._slots = [  # owned-by: dispatcher
            _WorkerSlot(slot=i, respawns_left=max_respawns) for i in range(jobs)
        ]
        #: task index -> original item for every dispatched, unanswered
        #: task: its size is the in-flight bound, and a task queued behind
        #: a crashed worker is requeued on a sibling from here.
        self._items: dict[int, Any] = {}  # owned-by: dispatcher

    # -- worker lifecycle --------------------------------------------------

    def ensure_started(self) -> None:  # runs-on: dispatcher
        """Spawn the worker set once (idempotent)."""
        if self._closed:
            raise RuntimeError("pool has been shut down")
        if self._started:
            return
        for slot in self._slots:
            if not slot.dead and slot.proc is None:
                self._spawn(slot)
        self._started = True

    def worker_pids(self) -> list[int]:
        """PIDs of the live workers (fault-injection tests target these).

        Cross-thread introspection: a racy read of live slot state used
        by tests and diagnostics only, never to mutate the pool.
        """
        slots = self._slots  # reprolint: disable=thread-ownership
        return [
            slot.proc.pid
            for slot in slots
            if slot.proc is not None and slot.proc.is_alive() and slot.proc.pid
        ]

    @property
    def alive_workers(self) -> int:
        """Slots that have not exhausted their respawn budget.

        Cross-thread introspection, same caveat as :meth:`worker_pids`.
        """
        slots = self._slots  # reprolint: disable=thread-ownership
        return sum(1 for s in slots if not s.dead)

    def _spawn(self, slot: _WorkerSlot) -> None:
        slot.task_queue = self.ctx.Queue()
        slot.proc = self.ctx.Process(
            target=_worker_main,
            args=(self.spec, slot.task_queue, self._results, slot.slot),
            daemon=True,
            name=f"repro-worker-{slot.slot}",
        )
        slot.proc.start()

    def _handle_dead(self, slot: _WorkerSlot, buffered: dict) -> list[tuple[int, Any]]:
        """Fail the dead worker's started tasks; return the rest for requeue."""
        exitcode = slot.proc.exitcode if slot.proc is not None else None
        requeue: list[tuple[int, Any]] = []
        for index in list(slot.pending):
            if index in slot.started:
                buffered[index] = (
                    None,
                    WorkerCrashError(
                        f"worker {slot.slot} died (exit code {exitcode}) with "
                        f"query #{index - self._task_base} in flight"
                    ),
                )
                self._items.pop(index, None)
            else:
                requeue.append((index, self._items[index]))
        slot.pending.clear()
        slot.started.clear()
        return requeue

    def _reap_dead(self, buffered: dict) -> None:
        for slot in self._slots:
            if slot.dead or slot.proc is None or slot.proc.is_alive():
                continue
            requeue = self._handle_dead(slot, buffered)
            if slot.respawns_left > 0:
                slot.respawns_left -= 1
                self._spawn(slot)
            else:
                slot.dead = True
                slot.proc = None
            self._redispatch(requeue, buffered)

    def _alive_slots(self) -> list[_WorkerSlot]:
        return [s for s in self._slots if not s.dead]

    def _dispatch(self, live: list[_WorkerSlot], index: int, item: Any) -> None:
        """Send one task to the least-loaded live worker."""
        slot = min(live, key=lambda s: len(s.pending))
        slot.pending[index] = True
        self._items[index] = item
        slot.task_queue.put((index, item))

    def _redispatch(
        self, requeue: list[tuple[int, Any]], buffered: dict
    ) -> None:
        """Requeue never-started tasks from a dead worker, or fail them."""
        if not requeue:
            return
        live = self._alive_slots()
        if not live:
            for index, _ in requeue:
                buffered[index] = (
                    None,
                    WorkerCrashError(
                        f"no live workers left to requeue query "
                        f"#{index - self._task_base} (respawn budget spent)"
                    ),
                )
                self._items.pop(index, None)
            return
        for index, item in requeue:
            self._dispatch(live, index, item)

    # -- scheduling --------------------------------------------------------

    def run(  # runs-on: dispatcher
        self, tasks: Iterable[Any]
    ) -> Iterator[tuple[int, Any, Exception | None]]:
        """Yield ``(index, payload, error)`` per task, in input order.

        Tasks are consumed lazily and dispatched one per message to the
        least-loaded live worker; at most ``2 * jobs`` are outstanding,
        so an unbounded task stream gets backpressure. Indexes yielded
        are relative to this call's task stream (0-based); the pool's
        internal indexes are global across calls.
        """
        self.ensure_started()
        # A previous stream abandoned mid-flight (consumer stopped
        # iterating) may have left bookkeeping behind; drop it so a later
        # crash cannot try to requeue dead history. Results for those
        # tasks still drain from the queue below and are discarded by the
        # stale-index check.
        for slot in self._slots:
            slot.pending.clear()
            slot.started.clear()
        self._items.clear()
        base = self._task_base
        task_iter = enumerate(tasks, start=base)
        dispatched_all = False
        dispatched = 0
        buffered: dict[int, tuple[Any, Exception | None]] = {}
        emit = base
        try:
            while True:
                # Top up: assign tasks while under the in-flight bound.
                while not dispatched_all:
                    live = self._alive_slots()
                    if not live:
                        # Every slot exhausted its respawn budget: fail
                        # the rest of the stream instead of hanging.
                        for index, _ in task_iter:
                            buffered[index] = (
                                None,
                                WorkerCrashError(
                                    "no live workers left for query "
                                    f"#{index - base} (respawn budget spent)"
                                ),
                            )
                            dispatched += 1
                        dispatched_all = True
                        break
                    if len(self._items) >= 2 * self.jobs:
                        break
                    task = next(task_iter, None)
                    if task is None:
                        dispatched_all = True
                        break
                    self._dispatch(live, *task)
                    dispatched += 1
                while emit in buffered:
                    payload, error = buffered.pop(emit)
                    yield emit - base, payload, error
                    emit += 1
                if dispatched_all and emit - base >= dispatched:
                    return
                try:
                    kind, worker_id, body = self._results.get(timeout=0.1)
                except Empty:
                    # The queue is drained, so every pre-death message of a
                    # crashed worker has been seen — safe to reap now.
                    self._reap_dead(buffered)
                    continue
                slot = self._slots[worker_id]
                if kind == "init_error":
                    # Setup failed: nothing assigned was started, so all of
                    # it can requeue; the respawn budget decides whether
                    # the slot itself gets another attempt.
                    requeue = self._handle_dead(slot, buffered)
                    if slot.proc is not None:
                        slot.proc.join(timeout=5)
                    if slot.respawns_left > 0:
                        slot.respawns_left -= 1
                        self._spawn(slot)
                    else:
                        slot.dead = True
                        slot.proc = None
                    self._redispatch(requeue, buffered)
                    continue
                index, payload = body
                if index < base:
                    # Straggler from an abandoned earlier stream; its
                    # bookkeeping is already gone.
                    continue
                if kind == "begin":
                    slot.started.add(index)
                    continue
                if kind == "ok":
                    buffered[index] = (payload, None)
                else:
                    buffered[index] = (None, _decode_error(payload))
                slot.pending.pop(index, None)
                slot.started.discard(index)
                self._items.pop(index, None)
        finally:
            self._task_base = base + dispatched

    def shutdown(self) -> None:  # runs-on: dispatcher
        """Stop every worker (sentinel, join, then terminate stragglers).

        Idempotent; a pool cannot be restarted afterwards (the shared
        result queue is closed for good). Runs on the dispatcher role:
        from the thread driving the pool, or from a closing thread after
        the stream is fully drained — at which point ownership has
        transferred and that thread is the single logical driver of the
        pool.
        """
        self._started = False
        for slot in self._slots:
            if slot.proc is None:
                continue
            if slot.proc.is_alive():
                try:
                    slot.task_queue.put(None)
                except (OSError, ValueError):  # queue already closed
                    pass
        for slot in self._slots:
            if slot.proc is None:
                continue
            slot.proc.join(timeout=2)
            if slot.proc.is_alive():
                slot.proc.terminate()
                slot.proc.join(timeout=2)
            slot.proc = None
        if not self._closed:
            self._closed = True
            self._results.close()
            self._results.join_thread()
