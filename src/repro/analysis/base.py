"""reprolint core: findings, the rule protocol, suppression, the walker.

A rule is a small object with a ``name``, a one-line ``description``, and
a ``check(module)`` returning :class:`Finding` records. Modules are
parsed once into a :class:`ModuleSource` (path + text + AST) shared by
every rule, so a full-tree run costs one parse per file regardless of
how many rules are active.

Suppression
-----------
A finding is dropped when its line carries an inline marker::

    risky_call()  # reprolint: disable=rule-name

or when the file opts out of a rule entirely within its first ten
lines::

    # reprolint: disable-file=rule-name

Both accept a comma-separated rule list. Suppressions are deliberate,
grep-able escape hatches — the lint report stays empty-by-default so CI
can gate on exit status.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence, runtime_checkable

#: Directory names the walker never descends into. ``_fixtures`` holds
#: the per-rule violation fixtures the test suite feeds to the rules
#: directly — they must never count against the tree.
EXCLUDED_DIR_NAMES = frozenset(
    {"__pycache__", ".git", ".ruff_cache", ".mypy_cache", "_fixtures"}
)

_INLINE_SUPPRESS = re.compile(r"#\s*reprolint:\s*disable=([\w,\- ]+)")
_FILE_SUPPRESS = re.compile(r"#\s*reprolint:\s*disable-file=([\w,\- ]+)")

#: How many leading lines may carry a ``disable-file`` marker.
_FILE_SUPPRESS_WINDOW = 10


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def __str__(self) -> str:
        return f"{self.location}: {self.rule}: {self.message}"


@dataclass
class ModuleSource:
    """One parsed module, shared by every rule in a run."""

    path: Path
    text: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.lines:
            self.lines = self.text.splitlines()

    @classmethod
    def parse(cls, path: Path, text: str | None = None) -> "ModuleSource":
        src = path.read_text() if text is None else text
        return cls(path=path, text=src, tree=ast.parse(src, filename=str(path)))

    def finding(self, rule: str, node: ast.AST, message: str) -> Finding:
        """Build a finding anchored at ``node``."""
        return Finding(
            rule=rule,
            path=str(self.path),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )

    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressed_rules_for_line(self, lineno: int) -> frozenset[str]:
        m = _INLINE_SUPPRESS.search(self.line_text(lineno))
        if not m:
            return frozenset()
        return frozenset(p.strip() for p in m.group(1).split(","))

    def file_suppressed_rules(self) -> frozenset[str]:
        out: set[str] = set()
        for line in self.lines[:_FILE_SUPPRESS_WINDOW]:
            m = _FILE_SUPPRESS.search(line)
            if m:
                out.update(p.strip() for p in m.group(1).split(","))
        return frozenset(out)


@runtime_checkable
class Rule(Protocol):
    """A reprolint rule: one invariant, checked per module."""

    #: Stable kebab-case identifier (``--rule``, suppression comments).
    name: str
    #: One-line rationale shown by ``repro lint --list``.
    description: str

    def check(self, module: ModuleSource) -> "Iterable[Finding]":
        """Return the rule's findings for one parsed module."""
        ...


def iter_python_files(paths: Sequence[Path | str]) -> Iterator[Path]:
    """Yield every ``.py`` file under ``paths`` (files pass through).

    Directories named in :data:`EXCLUDED_DIR_NAMES` are pruned; output is
    sorted per root so runs are deterministic.
    """
    for raw in paths:
        root = Path(raw)
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for path in sorted(root.rglob("*.py")):
            if any(part in EXCLUDED_DIR_NAMES for part in path.parts):
                continue
            yield path


def check_module(module: ModuleSource, rules: Sequence[Rule]) -> list[Finding]:
    """Run ``rules`` over one module, applying suppressions."""
    file_off = module.file_suppressed_rules()
    out: list[Finding] = []
    for rule in rules:
        if rule.name in file_off:
            continue
        for finding in rule.check(module):
            if rule.name in module.suppressed_rules_for_line(finding.line):
                continue
            out.append(finding)
    return out


def run_lint(
    paths: Sequence[Path | str],
    rules: Sequence[Rule],
) -> tuple[list[Finding], list[str]]:
    """Run ``rules`` over every python file under ``paths``.

    Returns ``(findings, errors)`` — errors are files that failed to
    parse (reported separately so a syntax error cannot silently shrink
    the scanned tree).
    """
    findings: list[Finding] = []
    errors: list[str] = []
    for path in iter_python_files(paths):
        try:
            module = ModuleSource.parse(path)
        except (SyntaxError, UnicodeDecodeError, OSError) as exc:
            errors.append(f"{path}: {exc}")
            continue
        findings.extend(check_module(module, rules))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, errors


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    cur = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if isinstance(cur, ast.Name):
        parts.append(cur.id)
        return ".".join(reversed(parts))
    return None
