"""Parsing of concurrency-contract annotations out of a module's AST.

The grammar is three trailing comments plus one decorator (documented in
docs/ANALYSIS.md "Concurrency contracts"):

``# guarded-by: self._lock``
    On an attribute-initialising assignment (usually in ``__init__``):
    every *write* to the attribute must happen inside a
    ``with self._lock:`` scope — directly, or in a private helper whose
    intra-class callers all hold it.

``# owned-by: dispatcher``
    On an attribute-initialising assignment: the attribute belongs to
    one logical thread ("role"). Reads *and* writes are only legal in
    methods running on that role.

``# runs-on: dispatcher``
    On a ``def`` line: declares the role the method executes on. Private
    helpers inherit the role of their callers when unannotated.

``@thread_shared``
    Class decorator marking instances as cross-thread shared; it is how
    a class opts into checking when it carries no other annotations yet.

Everything here is syntactic — contracts are read off source lines, not
evaluated.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.base import ModuleSource, dotted_name

__all__ = [
    "ClassContracts",
    "LockInfo",
    "ModuleContracts",
    "collect_contracts",
    "with_lock_names",
]

_GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([\w.\[\]]+)")
_OWNED_BY = re.compile(r"#\s*owned-by:\s*([\w-]+)")
_RUNS_ON = re.compile(r"#\s*runs-on:\s*([\w-]+)")

#: Constructor callables whose result is a lock (last dotted component).
_LOCK_CTORS = frozenset(
    {"Lock", "RLock", "Condition", "new_lock", "new_condition",
     "WitnessLock", "WitnessCondition"}
)


@dataclass(frozen=True)
class LockInfo:
    """One discovered lock: ``owner.attr`` plus its construction site."""

    #: Qualified id: ``ClassName.attr`` or ``module_stem.NAME``.
    qualname: str
    #: Attribute / global name the lock is stored under.
    attr: str
    lineno: int


@dataclass
class ClassContracts:
    """Contracts and structure collected from one ``class`` statement."""

    name: str
    node: ast.ClassDef
    thread_shared: bool = False
    #: attr -> guard expression text, e.g. ``"self._lock"``.
    guarded: dict[str, str] = field(default_factory=dict)
    #: attr -> owning role, e.g. ``"dispatcher"``.
    owned: dict[str, str] = field(default_factory=dict)
    #: attr -> line the contract comment sits on (for diagnostics).
    contract_lines: dict[str, int] = field(default_factory=dict)
    #: method name -> declared role (``# runs-on:`` on the def line).
    runs_on: dict[str, str] = field(default_factory=dict)
    #: lock attr -> LockInfo for locks constructed on ``self``.
    locks: dict[str, LockInfo] = field(default_factory=dict)
    #: method name -> its def node (functions directly in the class body).
    methods: dict[str, "ast.FunctionDef | ast.AsyncFunctionDef"] = field(
        default_factory=dict
    )

    @property
    def has_contracts(self) -> bool:
        return bool(
            self.thread_shared or self.guarded or self.owned or self.runs_on
        )


@dataclass
class ModuleContracts:
    """Every contract-bearing structure found in one module."""

    module: ModuleSource
    classes: list[ClassContracts] = field(default_factory=list)
    #: module-level locks: global name -> LockInfo.
    module_locks: dict[str, LockInfo] = field(default_factory=dict)


def _is_lock_ctor(node: ast.AST) -> bool:
    """Whether the RHS of an assignment constructs a lock."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.rsplit(".", 1)[-1] in _LOCK_CTORS


def _self_attr_target(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is exactly ``self.attr``, else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def with_lock_names(stmt: ast.With) -> list[str]:
    """Dotted names of a with-statement's context expressions.

    ``with self._lock:`` -> ``["self._lock"]``. Non-name expressions
    (``with open(p) as f:``) yield nothing — they are not lock guards.
    """
    out: list[str] = []
    for item in stmt.items:
        name = dotted_name(item.context_expr)
        if name is not None:
            out.append(name)
    return out


def _scan_method_decls(
    cls: ClassContracts, module: ModuleSource, class_name: str
) -> None:
    """Harvest contracts from attribute assignments inside methods."""
    for meth in cls.methods.values():
        for node in ast.walk(meth):
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(node, ast.Assign):
                targets, value = list(node.targets), node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            else:
                continue
            for tgt in targets:
                attr = _self_attr_target(tgt)
                if attr is None:
                    continue
                line = module.line_text(node.lineno)
                m = _GUARDED_BY.search(line)
                if m:
                    cls.guarded[attr] = m.group(1)
                    cls.contract_lines[attr] = node.lineno
                m = _OWNED_BY.search(line)
                if m:
                    cls.owned[attr] = m.group(1)
                    cls.contract_lines[attr] = node.lineno
                if _is_lock_ctor(value) and attr not in cls.locks:
                    cls.locks[attr] = LockInfo(
                        qualname=f"{class_name}.{attr}",
                        attr=attr,
                        lineno=node.lineno,
                    )


def _collect_class(node: ast.ClassDef, module: ModuleSource) -> ClassContracts:
    cls = ClassContracts(name=node.name, node=node)
    for deco in node.decorator_list:
        name = dotted_name(deco)
        if name is not None and name.rsplit(".", 1)[-1] == "thread_shared":
            cls.thread_shared = True
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            cls.methods[item.name] = item
            m = _RUNS_ON.search(module.line_text(item.lineno))
            if m:
                cls.runs_on[item.name] = m.group(1)
        elif isinstance(item, ast.AnnAssign) and isinstance(
            item.target, ast.Name
        ):
            # Class-body (e.g. dataclass field) declarations may carry
            # contracts too; guards reference them via ``self.<name>``.
            line = module.line_text(item.lineno)
            m = _GUARDED_BY.search(line)
            if m:
                cls.guarded[item.target.id] = m.group(1)
                cls.contract_lines[item.target.id] = item.lineno
            m = _OWNED_BY.search(line)
            if m:
                cls.owned[item.target.id] = m.group(1)
                cls.contract_lines[item.target.id] = item.lineno
    _scan_method_decls(cls, module, node.name)
    return cls


def collect_contracts(module: ModuleSource) -> ModuleContracts:
    """Parse every class's contracts plus module-level locks."""
    out = ModuleContracts(module=module)
    stem = module.path.stem
    for node in module.tree.body:
        if isinstance(node, ast.ClassDef):
            out.classes.append(_collect_class(node, module))
        elif isinstance(node, ast.Assign) and _is_lock_ctor(node.value):
            for tgt in node.targets:
                if isinstance(tgt, ast.Name):
                    out.module_locks[tgt.id] = LockInfo(
                        qualname=f"{stem}.{tgt.id}",
                        attr=tgt.id,
                        lineno=node.lineno,
                    )
    return out
