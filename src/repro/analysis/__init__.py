"""Static analysis for the repro tree: the ``reprolint`` framework.

The type system cannot see the invariants this package enforces —
seed-pinned randomness, kernel time from counted cycles, picklable
worker specs, the columnar phase dataflow, locked writes to shared
serving state. Each is written as an AST :class:`Rule` over the source
tree, run continuously by ``repro lint`` (and the test suite), so the
properties hold by construction instead of by review. Generic hygiene
(bare ``except:``, ``__all__`` names) is ruff's job, not a rule here.

See docs/ANALYSIS.md for the rule catalogue, why each rule is kept, and
how to add one.
"""

from repro.analysis.base import (
    Finding,
    ModuleSource,
    Rule,
    iter_python_files,
    run_lint,
)
from repro.analysis.rules import ALL_RULES, rule_by_name

__all__ = [
    "ALL_RULES",
    "Finding",
    "ModuleSource",
    "Rule",
    "iter_python_files",
    "rule_by_name",
    "run_lint",
]
