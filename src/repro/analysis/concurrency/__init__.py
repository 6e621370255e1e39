"""Concurrency contract checker (static half of the lock witness).

:class:`~repro.analysis.concurrency.ownership.ThreadOwnershipRule` is a
per-module, annotation-driven reprolint rule: writes to ``# guarded-by:``
attributes must happen under the named lock (interprocedurally within
the class), and ``# owned-by:`` state must never be touched off its
owner role. Plain ``repro lint`` runs it with the other rules.

Lock *order* is checked where it actually happens: the runtime witness
in :mod:`repro.analysis.witness` records the acquisition graph of every
test run under it. ``repro lint --selftest`` injects an unguarded write,
a lock inversion and a wait under a foreign lock, and requires the rule
and the witness to catch all of them.
"""

from __future__ import annotations

from repro.analysis.concurrency.contracts import (
    ClassContracts,
    LockInfo,
    collect_contracts,
)
from repro.analysis.concurrency.ownership import ThreadOwnershipRule
from repro.analysis.concurrency.selftest import run_selftest

__all__ = [
    "ClassContracts",
    "LockInfo",
    "ThreadOwnershipRule",
    "collect_contracts",
    "run_selftest",
]
