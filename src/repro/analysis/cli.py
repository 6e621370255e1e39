"""``repro lint``: run the reprolint rules over the tree.

Exit protocol (mirrors ``repro verify``):

* ``0`` — scanned clean;
* ``1`` — findings reported;
* ``2`` — the run itself failed (unknown rule, unreadable path, syntax
  error in a scanned file) — CI treats this as an infrastructure error,
  not a lint failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.analysis.base import run_lint
from repro.analysis.rules import ALL_RULES, RULE_NAMES, rule_by_name

#: Default scan roots, relative to the working directory.
DEFAULT_PATHS = ("src",)


def add_lint_parser(sub: "argparse._SubParsersAction[argparse.ArgumentParser]") -> None:
    p = sub.add_parser(
        "lint",
        help="run the reprolint static-analysis rules",
        description="AST lint for repro-specific invariants (docs/ANALYSIS.md).",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to scan (default: {' '.join(DEFAULT_PATHS)})",
    )
    p.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="NAME",
        help="run only this rule (repeatable); default: all rules",
    )
    p.add_argument(
        "--list",
        action="store_true",
        help="list the available rules and exit",
    )
    p.add_argument(
        "--selftest",
        action="store_true",
        help=(
            "inject unguarded writes, a lock inversion and a wait under a "
            "foreign lock, and require the concurrency checkers to catch all"
        ),
    )
    p.set_defaults(func=cmd_lint)


def cmd_lint(args: argparse.Namespace) -> int:
    if args.list:
        width = max(len(n) for n in RULE_NAMES)
        for rule in ALL_RULES:
            print(f"{rule.name:<{width}}  {rule.description}")
        return 0

    if args.selftest:
        from repro.analysis.concurrency import run_selftest

        return run_selftest()

    if args.rules:
        try:
            rules = [rule_by_name(name) for name in args.rules]
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
    else:
        rules = list(ALL_RULES)

    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"error: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2

    findings, errors = run_lint(paths, rules)
    for finding in findings:
        print(str(finding))
    if findings:
        print(f"\n{len(findings)} finding(s)", file=sys.stderr)
    for err in errors:
        print(f"error: {err}", file=sys.stderr)

    if errors:
        return 2
    return 1 if findings else 0
