"""Phase-level event stream shared by every engine.

Every engine can emit :class:`PhaseEvent` records into an
:class:`EventLog`: one closed record per phase it ran, carrying the
phase's work-item count, its modelled time and its measured wall time.
One consumer works against every implementation, instead of reaching
into ``CuBlastpReport`` internals.

The modelled times flowing through the stream are the same numbers the
engine reports elsewhere (kernel profile times, LPT makespans, transfer
model times): the event stream *attributes* them, it does not re-derive
them. A search with no log attached emits nothing and pays nothing.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Iterator

from repro.analysis.witness import new_lock, thread_shared


@dataclass(frozen=True)
class PhaseEvent:
    """One phase of one search, closed.

    Attributes
    ----------
    engine:
        Name of the emitting engine (``"reference"``, ``"cuBLASTP"``, ...).
    phase:
        Canonical phase name (``"hit_detection"``, ``"gapped_extension"``,
        ``"data_transfer"``, ...).
    seq:
        Position in the log (total order over all threads).
    work_items:
        Number of work items the phase processed (hits, seeds, extensions,
        alignments), when the phase counts anything.
    modelled_ms:
        Modelled time attributed to the phase, when the engine prices its
        phases (the reference pipeline emits counters only; the
        performance-modelled engines emit both).
    wall_ms:
        Measured host time the phase took, as opposed to the *modelled*
        time above; ``None`` when the phase is modelled rather than timed.
    query_id:
        Batch query identifier, when the search runs under one.
    """

    engine: str
    phase: str
    seq: int
    work_items: int | None = None
    modelled_ms: float | None = None
    wall_ms: float | None = None
    query_id: str | None = None


@thread_shared
class EventLog:
    """Thread-safe sink and query surface for :class:`PhaseEvent` streams.

    One log may receive events from many concurrent searches (the
    :class:`~repro.engine.executor.BatchExecutor` threads all share the
    caller's log); ``seq`` gives the global arrival order and ``query_id``
    separates interleaved searches.
    """

    def __init__(self) -> None:
        self._lock = new_lock("EventLog._lock")
        self._events: list[PhaseEvent] = []  # guarded-by: self._lock

    def emit(
        self,
        engine: str,
        phase: str,
        *,
        work_items: int | None = None,
        modelled_ms: float | None = None,
        wall_ms: float | None = None,
        query_id: str | None = None,
    ) -> PhaseEvent:
        """Append one closed phase record (thread-safe) and return it."""
        with self._lock:
            event = PhaseEvent(
                engine=engine,
                phase=phase,
                seq=len(self._events),
                work_items=work_items,
                modelled_ms=modelled_ms,
                wall_ms=wall_ms,
                query_id=query_id,
            )
            self._events.append(event)
        return event

    @contextmanager
    def phase(
        self, engine: str, phase: str, query_id: str | None = None
    ) -> Iterator[dict[str, Any]]:
        """Time a block and emit its record when the block exits.

        Yields a dict the block may fill with ``work_items``.
        """
        attrs: dict[str, Any] = {}
        t0 = time.perf_counter()
        try:
            yield attrs
        finally:
            self.emit(
                engine,
                phase,
                work_items=attrs.get("work_items"),
                wall_ms=(time.perf_counter() - t0) * 1e3,
                query_id=query_id,
            )

    # -- consumption -------------------------------------------------------

    @property
    def events(self) -> list[PhaseEvent]:
        """Snapshot of all events in arrival order."""
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def _matching(self, engine: str | None, query_id: str | None) -> list[PhaseEvent]:
        return [
            e
            for e in self.events
            if (engine is None or e.engine == engine)
            and (query_id is None or e.query_id == query_id)
        ]

    def breakdown(
        self, engine: str | None = None, query_id: str | None = None
    ) -> dict[str, float]:
        """Phase -> summed modelled ms over matching events.

        This is the event-stream view of the per-report ``breakdown``
        dicts: identical numbers, one schema for every engine.
        """
        out: dict[str, float] = {}
        for e in self._matching(engine, query_id):
            if e.modelled_ms is not None:
                out[e.phase] = out.get(e.phase, 0.0) + e.modelled_ms
        return out

    def wall_breakdown(
        self, engine: str | None = None, query_id: str | None = None
    ) -> dict[str, float]:
        """Phase -> summed *measured* wall ms over matching timed events."""
        out: dict[str, float] = {}
        for e in self._matching(engine, query_id):
            if e.wall_ms is not None:
                out[e.phase] = out.get(e.phase, 0.0) + e.wall_ms
        return out

    def work_items(
        self, phase: str, engine: str | None = None, query_id: str | None = None
    ) -> int:
        """Summed work items of one phase over matching events."""
        return sum(
            e.work_items or 0 for e in self._matching(engine, query_id) if e.phase == phase
        )

    def modelled_ms(
        self, engine: str | None = None, query_id: str | None = None
    ) -> float:
        """Total modelled ms attributed over matching events."""
        return sum(self.breakdown(engine, query_id).values())

    def clear(self) -> None:
        with self._lock:
            self._events.clear()
