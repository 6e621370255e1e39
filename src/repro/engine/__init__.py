"""The unified engine layer: compiled queries, pluggable executors, events.

This package decouples *query compilation* from *execution* — the repo's
version of the paper's central move of decoupling BLASTP's phases so each
can be scheduled on the resource that suits it:

* :mod:`~repro.engine.compiled` — :class:`CompiledQuery` (the query-side
  build: encode, SEG, neighbourhood, DFA, PSSM, built once and
  shared across engines and database blocks);
* :mod:`~repro.engine.protocol` — the :class:`Engine` protocol every
  implementation satisfies, and :func:`make_engine` for building engines
  by registry name;
* :mod:`~repro.engine.executor` — :class:`BatchExecutor`, the concurrent
  batch scheduler (database residency, bounded in-flight queries,
  per-query error isolation, deterministic input-order streaming) with
  thread and process backends;
* :mod:`~repro.engine.procpool` — the process backend's machinery:
  :class:`ProcessPool` (warm workers, crash isolation and
  respawn) and :class:`EngineSpec` (the picklable engine description
  that crosses the process boundary);
* :mod:`~repro.engine.events` — the phase-level :class:`PhaseEvent` /
  :class:`EventLog` stream all engines emit into.
"""

from repro.engine.compiled import CompiledQuery, compile_query, compile_signature
from repro.engine.events import EventLog, PhaseEvent
from repro.engine.executor import BatchExecutor, BatchResult, QueryOutcome
from repro.engine.procpool import (
    EngineSpec,
    ProcessPool,
    SweepBlockSpec,
    RemoteTaskError,
    WorkerCrashError,
    database_path_for_workers,
)
from repro.engine.protocol import (
    CUBLASTP_STRATEGY_NAMES,
    ENGINE_NAMES,
    Engine,
    ReportingEngine,
    make_engine,
)

__all__ = [
    "CUBLASTP_STRATEGY_NAMES",
    "ENGINE_NAMES",
    "BatchExecutor",
    "BatchResult",
    "CompiledQuery",
    "Engine",
    "EngineSpec",
    "EventLog",
    "PhaseEvent",
    "ProcessPool",
    "QueryOutcome",
    "RemoteTaskError",
    "ReportingEngine",
    "SweepBlockSpec",
    "WorkerCrashError",
    "compile_query",
    "compile_signature",
    "database_path_for_workers",
    "make_engine",
]
