"""The shipped rule catalogue (see docs/ANALYSIS.md for rationale)."""

from __future__ import annotations

from repro.analysis.base import Rule
from repro.analysis.concurrency.ownership import ThreadOwnershipRule
from repro.analysis.rules.picklable import PicklableSpecRule
from repro.analysis.rules.record_loops import PerRecordLoopRule
from repro.analysis.rules.rng import UnseededRngRule
from repro.analysis.rules.wallclock import WallClockRule

#: Every shipped rule, in catalogue order.
ALL_RULES: tuple[Rule, ...] = (
    UnseededRngRule(),
    WallClockRule(),
    PicklableSpecRule(),
    PerRecordLoopRule(),
    ThreadOwnershipRule(),
)

RULE_NAMES: tuple[str, ...] = tuple(r.name for r in ALL_RULES)


def rule_by_name(name: str) -> Rule:
    for rule in ALL_RULES:
        if rule.name == name:
            return rule
    raise KeyError(
        f"unknown rule {name!r} (choose from {', '.join(RULE_NAMES)})"
    )


__all__ = ["ALL_RULES", "RULE_NAMES", "rule_by_name"]
