"""no-per-record-loop-in-phase: phase hot paths stay columnar.

The columnar extension dataflow retired per-object HSP records from the
phase 2→4 hot path: extensions move as six aligned ``int64`` columns and
every phase reduces them with array operations. A ``for`` loop over an
extension-record stream inside a ``phase_*`` function quietly reverts
that — one seemingly innocent loop re-inflates thousands of records per
query. The rule flags loops (and comprehensions) inside functions whose
name starts with ``phase_`` when they iterate a name that conventionally
holds an extension stream. Deliberately sequential cold loops (e.g. the
gapped DP, whose per-item cost dwarfs record overhead) carry an inline
``reprolint: disable`` with their justification.

The same goes one level up, for the query batch: phase 2 of the sweep
consumes a block's query-tagged hit stream whole (one sort, one two-hit
filter, one extension for every query), and the tag is dropped only from
the surviving *extensions*, at the block boundary. A loop over the
batch's queries that touches the hit stream — inside a ``phase_*``
function or ``sweep_extend_block`` — is the Q x B un-batching creeping
back, and is flagged too.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.base import Finding, ModuleSource, dotted_name

#: Iteration-target names that conventionally hold extension/HSP record
#: streams in this tree. Index arrays (``order``, ``idx``) and scalar
#: columns are not listed — looping those is the columnar idiom itself.
_RECORD_STREAM_NAMES = frozenset(
    {"extensions", "exts", "ext", "records", "hsps", "gapped", "triggered"}
)

#: Names a query batch goes by (or its size: ``range(n_queries)``).
_QUERY_BATCH_NAMES = frozenset(
    {"pipelines", "queries", "compiled", "num_queries", "n_queries"}
)

#: Names a hit stream goes by — tagged or per-query, whole or as columns.
_HIT_STREAM_NAMES = frozenset({"tagged", "hits", "db_hits", "keys"})

#: Transparent wrappers whose first argument is the real iterable.
_WRAPPERS = frozenset({"enumerate", "sorted", "reversed", "list", "tuple"})


def _record_stream(node: ast.expr) -> str | None:
    """The record-stream expression iterated by ``node``, if any."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in _WRAPPERS
        and node.args
    ):
        node = node.args[0]
    name = dotted_name(node)
    if name is not None and name.split(".")[-1] in _RECORD_STREAM_NAMES:
        return name
    return None


def _mentions(nodes: Iterable[ast.AST], names: frozenset[str]) -> str | None:
    """The first of ``names`` that ``nodes`` name (bare, or as an attribute)."""
    for node in nodes:
        for sub in ast.walk(node):
            found = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
            if found in names:
                return found
    return None


def _iter_targets(
    func: ast.AST,
) -> Iterable[tuple[ast.AST, ast.expr, list[ast.AST]]]:
    """Every (anchor node, iterated expression, per-item code) inside ``func``."""
    for sub in ast.walk(func):
        if isinstance(sub, ast.For):
            yield sub, sub.iter, sub.body
        elif isinstance(sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            item = [sub.key, sub.value] if isinstance(sub, ast.DictComp) else [sub.elt]
            for gen in sub.generators:
                yield sub, gen.iter, item + gen.ifs


class PerRecordLoopRule:
    name = "no-per-record-loop-in-phase"
    description = (
        "phase_* functions must not loop over extension records, nor per "
        "query over hits"
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        out: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not (node.name.startswith("phase_") or node.name == "sweep_extend_block"):
                continue
            for anchor, iterated, per_item in _iter_targets(node):
                stream = _record_stream(iterated)
                if stream is not None:
                    out.append(
                        module.finding(
                            self.name,
                            anchor,
                            f"per-record loop over {stream} in "
                            f"{node.name!r}: phase hot paths consume "
                            "extension columns, not record objects",
                        )
                    )
                    continue
                hits = _mentions(per_item, _HIT_STREAM_NAMES)
                if hits is not None and _mentions([iterated], _QUERY_BATCH_NAMES):
                    out.append(
                        module.finding(
                            self.name,
                            anchor,
                            f"per-query loop over the hit stream {hits!r} in "
                            f"{node.name!r}: phase 2 consumes the query-tagged "
                            "stream whole; split per query only the extensions, "
                            "at the block boundary",
                        )
                    )
        return out
