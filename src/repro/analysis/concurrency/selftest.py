"""--selftest: inject known concurrency bugs, require the tools to bite.

Mirrors ``repro verify --selftest`` (engine bug injection) and the
gpusim hazard-injection tests: a checker that has never been seen to
fail is not evidence of anything. Two families of injection:

1. an **unguarded write** to a ``# guarded-by:`` attribute that the
   static :class:`ThreadOwnershipRule` must flag — including the
   interprocedural variant where the naked write hides in a private
   helper reached from an unlocked public entry;
2. bugs executed for real on instrumented locks, through the same
   :class:`~repro.analysis.witness.WitnessLock` /
   :class:`~repro.analysis.witness.WitnessCondition` code the serving
   stack runs under ``REPRO_LOCK_WITNESS=1``: an A→B / B→A inversion
   the :class:`~repro.analysis.witness.LockWitnessRegistry` must record
   as an observed cycle, and a ``Condition.wait`` entered while another
   witnessed lock is held.

Exit 0 only when every injection is caught.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.analysis.base import ModuleSource
from repro.analysis.concurrency.ownership import ThreadOwnershipRule
from repro.analysis.witness import (
    LockWitnessRegistry,
    WitnessCondition,
    WitnessLock,
)

__all__ = ["run_selftest"]

_UNGUARDED_SRC = '''\
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: self._lock
        self.misses = 0  # guarded-by: self._lock

    def record_hit(self):
        self.hits += 1  # BUG: no lock

    def record_miss(self):
        self._bump_misses()  # BUG: public entry, lock never taken

    def _bump_misses(self):
        self.misses += 1
'''


def _check(label: str, ok: bool, detail: str, emit: Callable[[str], None]) -> bool:
    emit(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    return ok


def _violations(registry: LockWitnessRegistry, kind: str) -> list[str]:
    return [v.detail for v in registry.violations if v.kind == kind]


def run_selftest(emit: Callable[[str], None] = print) -> int:
    """Run every injection; return 0 iff all were caught."""
    ok = True

    # 1. static unguarded writes ----------------------------------------
    ung = ModuleSource.parse(
        Path("selftest_unguarded.py"), text=_UNGUARDED_SRC
    )
    found = list(ThreadOwnershipRule().check(ung))
    direct = [f for f in found if "hits" in f.message]
    indirect = [f for f in found if "misses" in f.message]
    ok &= _check(
        "unguarded write (direct)",
        bool(direct),
        direct[0].message if direct else "naked self.hits += 1 missed",
        emit,
    )
    ok &= _check(
        "unguarded write (via helper)",
        bool(indirect),
        indirect[0].message
        if indirect
        else "helper write reached from unlocked public entry missed",
        emit,
    )

    # 2. runtime witness ------------------------------------------------
    registry = LockWitnessRegistry(enabled=True)
    lock_a = WitnessLock("selftest.a", registry)
    lock_b = WitnessLock("selftest.b", registry)
    with lock_a:
        with lock_b:
            pass
    with lock_b:
        with lock_a:
            pass
    cycles = _violations(registry, "lock-order-cycle")
    ok &= _check(
        "runtime witness inversion",
        bool(cycles),
        cycles[0] if cycles else "executed inversion not recorded",
        emit,
    )

    registry.reset()
    cond = WitnessCondition("selftest.cond", registry)
    with lock_a:
        with cond:
            cond.wait(timeout=0)
    blocking = _violations(registry, "blocking-call-under-lock")
    ok &= _check(
        "wait holding another lock",
        bool(blocking),
        blocking[0] if blocking else "Condition.wait under a held lock not recorded",
        emit,
    )

    emit(
        "concurrency selftest: "
        + ("all injections caught" if ok else "INJECTION MISSED")
    )
    return 0 if ok else 1
