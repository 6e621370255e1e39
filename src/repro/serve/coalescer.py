"""Request coalescing: the arrival-batching state machine.

The always-on service turns independent request arrivals into *batches*
so the executor's amortizations (resident database, warm process
workers, the db-sweep multi-query index) actually engage under
concurrent load. A batch closes when it reaches ``max_batch`` requests
(size close) or when the dispatcher takes it at its :meth:`Coalescer.due`
time. The dispatch is work-conserving: a batch is held only when the
arrival rate predicts a companion within the coalescing window, and
never past the window (adaptive batching as in Clipper and Triton's
dynamic batcher, where the queue delay is a maximum, not a fixed wait).

:class:`Coalescer` is deliberately *clock-free*: callers pass the time of
each arrival to :meth:`add`, and :meth:`due` is a pure function of the
pending batch and an EWMA of the inter-arrival gaps. The service layer
owns the actual clock and timer (:mod:`repro.serve.service`); keeping
time out of this class is what makes its contract — every request
appears in exactly one emitted batch, in arrival order, and nothing
waits past its window — directly checkable by the Hypothesis property
suite over arbitrary timed add/flush schedules
(``tests/property/test_prop_coalescer.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.analysis.witness import new_lock, thread_shared

T = TypeVar("T")

#: Weight of the newest gap in the inter-arrival EWMA: 1/8, the gain of
#: TCP's smoothed round-trip time (RFC 6298).
GAP_WEIGHT = 1 / 8


@dataclass
class CoalescerStats:
    """Batching counters of one :class:`Coalescer`."""

    arrivals: int = 0
    #: Items that have left in an emitted batch (arrivals minus pending).
    emitted: int = 0
    batches: int = 0
    #: Batches closed by reaching ``max_batch``.
    size_closes: int = 0
    #: Batches closed by :meth:`Coalescer.flush` (taken at their due time,
    #: or a shutdown drain).
    window_closes: int = 0

    @property
    def mean_batch_size(self) -> float:
        """Emitted items per batch (the coalescing payoff in one number)."""
        return self.emitted / self.batches if self.batches else 0.0


@thread_shared
class Coalescer(Generic[T]):
    """Clock-free FIFO batcher with a size bound and a hold rule.

    Thread-safe: arrivals may come from any number of request threads
    while one dispatcher flushes. Every item is emitted exactly once, in
    global arrival order (and therefore in per-connection arrival order,
    since each connection submits sequentially).
    """

    def __init__(self, max_batch: int = 32) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be positive")
        self.max_batch = max_batch
        self.stats = CoalescerStats()  # guarded-by: self._lock
        self._lock = new_lock("Coalescer._lock")
        self._pending: list[T] = []  # guarded-by: self._lock
        #: Arrival time of the oldest pending item.
        self._oldest = 0.0  # guarded-by: self._lock
        #: Arrival time of the latest item; ``None`` before the first.
        self._last: float | None = None  # guarded-by: self._lock
        #: EWMA of the inter-arrival gaps; ``None`` before the second arrival.
        self._gap: float | None = None  # guarded-by: self._lock

    def add(self, item: T, now: float) -> list[T] | None:
        """Record an arrival at time ``now``; return the batch if it filled one.

        ``now`` must not decrease from one call to the next.
        """
        with self._lock:
            if self._last is not None:
                gap = now - self._last
                self._gap = gap if self._gap is None else self._gap + GAP_WEIGHT * (gap - self._gap)
            self._last = now
            if not self._pending:
                self._oldest = now
            self._pending.append(item)
            self.stats.arrivals += 1
            if len(self._pending) >= self.max_batch:
                self.stats.size_closes += 1
                return self._close()
            return None

    def due(self, window_s: float) -> float | None:
        """When the pending batch must be taken; ``None`` when nothing is pending.

        The oldest pending arrival (take it now) unless the gap estimate
        predicts at least one companion within the window; then that
        arrival plus ``window_s``, so no item waits longer than the window.
        """
        with self._lock:
            if not self._pending:
                return None
            if self._gap is None or self._gap > window_s:
                return self._oldest
            return self._oldest + window_s

    def flush(self) -> list[T] | None:
        """Close the pending batch (its due time came, or a shutdown drain).

        Returns ``None`` when nothing is pending — a flush never emits an
        empty batch.
        """
        with self._lock:
            if not self._pending:
                return None
            self.stats.window_closes += 1
            return self._close()

    def _close(self) -> list[T]:
        # Caller holds the lock.
        batch, self._pending = self._pending, []
        self.stats.batches += 1
        self.stats.emitted += len(batch)
        return batch

    def __len__(self) -> int:
        """Number of pending (not yet emitted) items."""
        with self._lock:
            return len(self._pending)
