"""Runtime lock witness: the dynamic half of the concurrency contracts.

The ``thread-ownership`` rule in :mod:`repro.analysis.concurrency`
proves a property of the *source*: declared guards are held at write
sites. Lock *order* is a property of executions, and this module checks
it where it happens — the sanitizer-vs-racecheck pairing the gpusim
layer already has, applied to host threading:

* :class:`WitnessLock` / :class:`WitnessCondition` are drop-in
  replacements for ``threading.Lock`` / ``threading.Condition`` that
  report every acquisition to a process-global
  :class:`LockWitnessRegistry`;
* the registry maintains the **observed** per-thread acquisition-order
  graph (lock A held while acquiring lock B ⇒ edge A→B) and records a
  violation the moment an edge closes a cycle — a real interleaving away
  from deadlock, caught even when the test run happened not to deadlock;
* :meth:`LockWitnessRegistry.note_blocking` records a violation when a
  thread enters a blocking call while holding any witnessed lock —
  :meth:`WitnessCondition.wait` reports itself this way when other
  witnessed locks are still held. The serving layer's latency/deadlock
  contract is that locks bound *state updates*, never *work*.

Instrumentation is off by default and costs one branch per construction:
:func:`new_lock` / :func:`new_condition` return plain ``threading``
primitives unless ``REPRO_LOCK_WITNESS=1`` is set (CI's serve smoke job)
or a test enabled the registry first (the ``lock_witness`` fixture). The
serve and pool layers construct every lock through these factories, so
one environment variable turns the whole serving stack into its own
deadlock detector.

The witness deliberately does not raise at the violation site — a cycle
observed inside a request thread must not turn into a 500 for that one
request. Violations accumulate in the registry; the test fixtures call
:meth:`LockWitnessRegistry.assert_clean` at teardown, which is where the
failure is reported with every witnessed path.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from types import TracebackType
from typing import Any, Protocol, TypeVar

__all__ = [
    "ENV_FLAG",
    "LockWitnessRegistry",
    "MutexLike",
    "WitnessCondition",
    "WitnessLock",
    "WitnessViolation",
    "get_witness_registry",
    "new_condition",
    "new_lock",
    "thread_shared",
    "witness_env_enabled",
]

#: Environment variable that turns the witness on for a whole process.
ENV_FLAG = "REPRO_LOCK_WITNESS"

_T = TypeVar("_T")


def witness_env_enabled() -> bool:
    """Whether ``REPRO_LOCK_WITNESS`` asks for instrumented locks."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


class MutexLike(Protocol):
    """What :func:`new_lock` returns: a plain or witnessed mutex.

    Structural, so it covers ``threading.Lock()`` instances (whose
    concrete class lives in ``_thread``) and :class:`WitnessLock` alike.
    """

    def acquire(self, blocking: bool = ..., timeout: float = ...) -> bool: ...

    def release(self) -> None: ...

    def locked(self) -> bool: ...

    def __enter__(self) -> bool: ...

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc_value: BaseException | None,
        traceback: TracebackType | None,
    ) -> None: ...


def thread_shared(cls: type[_T]) -> type[_T]:
    """Marker: instances of ``cls`` are shared across threads.

    Purely declarative at runtime. The static ``thread-ownership`` rule
    uses the decorator to know which classes carry concurrency contracts
    (``# guarded-by:`` / ``# owned-by:`` / ``# runs-on:`` annotations —
    see docs/ANALYSIS.md "Concurrency contracts").
    """
    setattr(cls, "__thread_shared__", True)
    return cls


@dataclass(frozen=True)
class WitnessViolation:
    """One observed violation of the locking discipline."""

    #: ``"lock-order-cycle"`` | ``"blocking-call-under-lock"``.
    kind: str
    detail: str
    thread: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.detail} (thread {self.thread})"


def _reach(
    edges: dict[str, dict[str, str]], start: str, target: str
) -> list[str] | None:
    """Path ``start .. target`` through ``edges``, or None."""
    stack: list[tuple[str, list[str]]] = [(start, [start])]
    seen: set[str] = set()
    while stack:
        node, path = stack.pop()
        if node == target:
            return path
        if node in seen:
            continue
        seen.add(node)
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                stack.append((nxt, path + [nxt]))
    return None


class _HeldState(threading.local):
    """Per-thread held-lock bookkeeping (acquisition order + depths)."""

    def __init__(self) -> None:
        #: Witness names in acquisition order, re-entrant re-acquisitions
        #: collapsed (a name appears at most once).
        self.order: list[str] = []
        #: name -> re-entrant depth.
        self.depth: dict[str, int] = {}


class LockWitnessRegistry:
    """Process-global observed lock-order graph and violation log.

    Thread-safe. The registry's own mutex is a plain ``threading.Lock``
    — the witness must never witness itself.
    """

    def __init__(self, *, enabled: bool | None = None) -> None:
        self._mutex = threading.Lock()
        self._held = _HeldState()
        self.enabled = witness_env_enabled() if enabled is None else enabled
        #: observed edge src -> dst -> human-readable first-witness site.
        self._edges: dict[str, dict[str, str]] = {}
        self._violations: list[WitnessViolation] = []
        self._acquisitions = 0

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop the observed graph and violations (keeps enablement)."""
        with self._mutex:
            self._edges.clear()
            self._violations.clear()
            self._acquisitions = 0

    # -- recording -------------------------------------------------------

    def acquired(self, name: str) -> None:
        """A witnessed lock was acquired by the current thread."""
        if not self.enabled:
            return
        held = self._held
        depth = held.depth.get(name, 0)
        held.depth[name] = depth + 1
        if depth:
            return  # re-entrant: no new ordering information
        prior = list(held.order)
        held.order.append(name)
        with self._mutex:
            self._acquisitions += 1
            if not prior:
                self._edges.setdefault(name, {})
                return
            site = (
                f"{threading.current_thread().name}: holding "
                f"[{', '.join(prior)}] while acquiring {name}"
            )
            for prev in prior:
                self._edges.setdefault(prev, {}).setdefault(name, site)
            self._edges.setdefault(name, {})
            cycle = self._cycle_through(name, set(prior))
            if cycle is not None:
                self._violations.append(
                    WitnessViolation(
                        kind="lock-order-cycle",
                        detail=(
                            "observed acquisition orders form a cycle: "
                            + " -> ".join(cycle + [cycle[0]])
                            + f"; latest edge at {site}"
                        ),
                        thread=threading.current_thread().name,
                    )
                )

    def released(self, name: str) -> None:
        """A witnessed lock was released by the current thread."""
        if not self.enabled:
            return
        held = self._held
        depth = held.depth.get(name, 0)
        if depth <= 1:
            held.depth.pop(name, None)
            if name in held.order:
                held.order.remove(name)
        else:
            held.depth[name] = depth - 1

    def note_blocking(self, label: str) -> None:
        """Record a blocking call entered while witnessed locks are held."""
        if not self.enabled:
            return
        prior = list(self._held.order)
        if not prior:
            return
        with self._mutex:
            self._violations.append(
                WitnessViolation(
                    kind="blocking-call-under-lock",
                    detail=(
                        f"blocking call {label} entered while holding "
                        f"[{', '.join(prior)}]"
                    ),
                    thread=threading.current_thread().name,
                )
            )

    def held_by_current_thread(self) -> tuple[str, ...]:
        """Witnessed locks the calling thread holds, in acquisition order."""
        return tuple(self._held.order)

    # -- the graph -------------------------------------------------------

    def _cycle_through(self, start: str, targets: set[str]) -> list[str] | None:
        # Caller holds self._mutex. DFS from `start`: reaching any lock
        # currently held *before* start closes a held-while-acquiring cycle.
        stack: list[tuple[str, list[str]]] = [(start, [start])]
        seen: set[str] = set()
        while stack:
            node, path = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            for nxt in self._edges.get(node, ()):
                if nxt in targets:
                    return path + [nxt]
                if nxt not in seen:
                    stack.append((nxt, path + [nxt]))
        return None

    def cycles(self) -> list[list[str]]:
        """Every distinct cycle in the observed order graph."""
        with self._mutex:
            edges = {src: dict(dsts) for src, dsts in self._edges.items()}
        found: list[list[str]] = []
        seen_keys: set[tuple[str, ...]] = set()
        for src, dsts in edges.items():
            for dst in dsts:
                # A cycle exists through edge src->dst iff dst reaches src.
                path = _reach(edges, dst, src)
                if path is None:
                    continue
                cycle = [src] + path[:-1]  # path ends at src: list it once
                k = min(
                    tuple(cycle[i:] + cycle[:i]) for i in range(len(cycle))
                )
                if k not in seen_keys:
                    seen_keys.add(k)
                    found.append(cycle)
        return found

    @property
    def violations(self) -> list[WitnessViolation]:
        with self._mutex:
            return list(self._violations)

    def snapshot(self) -> dict[str, Any]:
        """One JSON-able view: edges, cycles, violations, counters."""
        with self._mutex:
            edges = [
                {"src": src, "dst": dst, "site": site}
                for src, dsts in sorted(self._edges.items())
                for dst, site in sorted(dsts.items())
            ]
            violations = [
                {"kind": v.kind, "detail": v.detail, "thread": v.thread}
                for v in self._violations
            ]
            acquisitions = self._acquisitions
        return {
            "enabled": self.enabled,
            "acquisitions": acquisitions,
            "edges": edges,
            "cycles": [" -> ".join(c + [c[0]]) for c in self.cycles()],
            "violations": violations,
        }

    def assert_clean(self) -> None:
        """Raise ``AssertionError`` listing every violation (if any)."""
        violations = self.violations
        if violations:
            raise AssertionError(
                f"lock witness recorded {len(violations)} violation(s):\n"
                + "\n".join(f"  {v}" for v in violations)
            )


_REGISTRY = LockWitnessRegistry()


def get_witness_registry() -> LockWitnessRegistry:
    """The process-global witness registry."""
    return _REGISTRY


class WitnessLock:
    """``threading.Lock`` drop-in reporting to a witness registry."""

    def __init__(
        self, name: str, registry: LockWitnessRegistry | None = None
    ) -> None:
        self.name = name
        self._registry = registry if registry is not None else _REGISTRY
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        ok = self._lock.acquire(blocking, timeout)
        if ok:
            self._registry.acquired(self.name)
        return ok

    def release(self) -> None:
        self._registry.released(self.name)
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def __repr__(self) -> str:
        return f"WitnessLock({self.name!r})"


class WitnessCondition(threading.Condition):
    """``threading.Condition`` drop-in reporting to a witness registry.

    The underlying lock is the Condition default (an ``RLock``); the
    registry collapses re-entrant re-acquisitions, so ``wait()`` —
    which fully releases and later reacquires — is modelled as exactly
    that. A ``wait()`` entered while *other* witnessed locks are held is
    recorded as a blocking-call violation: sleeping on a condition while
    holding an unrelated lock stalls every thread behind that lock.
    """

    def __init__(
        self, name: str, registry: LockWitnessRegistry | None = None
    ) -> None:
        super().__init__()
        self.name = name
        self._registry = registry if registry is not None else _REGISTRY

    def acquire(self, *args: Any) -> bool:
        ok: bool = super().acquire(*args)
        if ok:
            self._registry.acquired(self.name)
        return ok

    def release(self) -> None:
        self._registry.released(self.name)
        super().release()

    def __enter__(self) -> bool:
        ret: bool = super().__enter__()
        self._registry.acquired(self.name)
        return ret

    def __exit__(self, *exc_info: Any) -> Any:
        self._registry.released(self.name)
        return super().__exit__(*exc_info)

    def wait(self, timeout: float | None = None) -> bool:
        self._registry.released(self.name)
        others = self._registry.held_by_current_thread()
        if others:
            self._registry.note_blocking(f"{self.name}.wait()")
        try:
            return super().wait(timeout)
        finally:
            self._registry.acquired(self.name)


def new_lock(name: str) -> MutexLike:
    """A mutex for ``name``: witnessed when the witness is on, plain otherwise.

    The one concurrency-layer entry point for lock construction — using
    it is what makes a class's locking observable to the witness without
    any cost (beyond this branch) in production.
    """
    if _REGISTRY.enabled:
        return WitnessLock(name)
    return threading.Lock()


def new_condition(name: str) -> threading.Condition:
    """A condition variable for ``name`` (witnessed when the witness is on)."""
    if _REGISTRY.enabled:
        return WitnessCondition(name)
    return threading.Condition()
