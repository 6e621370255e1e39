"""thread-ownership: annotated shared state obeys its declared contract.

Two contract families, both declared next to the state they protect
(grammar in :mod:`repro.analysis.concurrency.contracts`):

* ``# guarded-by: self._lock`` — every write to the attribute (plain,
  unpacking or augmented assignment, ``del``, subscript store, or a
  mutating method call such as ``.append``) must execute inside a
  ``with self._lock:`` scope. The check is interprocedural within the
  class: a private helper may write nakedly when every intra-class call
  site holds the lock — the requirement floats up the call graph and
  only becomes a finding when it escapes through a public entry point
  or a helper no one provably locks for.
* ``# owned-by: dispatcher`` — the attribute belongs to one logical
  thread. Any access from a method not declared (or inferred, for
  private helpers whose callers agree) to run on that role is a
  finding: this is the "dispatcher-owned state reached from a public
  entry point" race.

Reads of *guarded* attributes are deliberately not flagged — the tree
uses plenty of benign racy reads (progress counters in ``__repr__``)
and flagging them would bury the writes that actually corrupt state.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Iterable, Iterator

from repro.analysis.base import Finding, ModuleSource
from repro.analysis.concurrency.contracts import (
    ClassContracts,
    collect_contracts,
    with_lock_names,
)

__all__ = ["ThreadOwnershipRule"]

#: Methods that run before the instance is visible to other threads.
_CONSTRUCTION_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

#: Method names that mutate their receiver — a call
#: ``self.<guarded>.append(...)`` is a write to the guarded attribute.
_MUTATOR_NAMES = frozenset(
    {
        "append", "appendleft", "add", "clear", "discard", "extend",
        "extendleft", "insert", "pop", "popleft", "popitem", "put",
        "remove", "rotate", "setdefault", "sort", "update",
    }
)


def _is_public(name: str) -> bool:
    """Entry points other threads may call: public names and dunders."""
    if name in _CONSTRUCTION_METHODS:
        return False
    if name.startswith("__") and name.endswith("__"):
        return True
    return not name.startswith("_")


def _root_self_attr(expr: ast.AST) -> str | None:
    """Root attribute of a ``self.a``/``self.a.b``/``self.a[k]`` chain."""
    cur = expr
    last_attr: str | None = None
    while True:
        if isinstance(cur, ast.Attribute):
            last_attr = cur.attr
            cur = cur.value
        elif isinstance(cur, ast.Subscript):
            cur = cur.value
        else:
            break
    if isinstance(cur, ast.Name) and cur.id == "self" and last_attr:
        return last_attr
    return None


@dataclass(frozen=True)
class _Write:
    """One write to a guarded attribute observed outside its lock."""

    method: str
    attr: str
    lock: str
    node: ast.AST


@dataclass(frozen=True)
class _CallSite:
    """An intra-class call ``self.<callee>(...)`` with the held-lock set."""

    caller: str
    callee: str
    held: frozenset[str]


@dataclass(frozen=True)
class _OwnedAccess:
    """Any touch of an ``# owned-by:`` attribute."""

    method: str
    attr: str
    role: str
    node: ast.AST


class _MethodScanner:
    """Walk one method body tracking the set of held lock expressions."""

    def __init__(self, cls: ClassContracts, method_name: str) -> None:
        self.cls = cls
        self.method = method_name
        self.naked_writes: list[_Write] = []
        self.calls: list[_CallSite] = []
        self.owned: list[_OwnedAccess] = []

    def scan(self, node: "ast.FunctionDef | ast.AsyncFunctionDef") -> None:
        for stmt in node.body:
            self._visit(stmt, frozenset())

    # -- dispatch --------------------------------------------------------

    def _visit(self, node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, ast.With):
            for item in node.items:
                self._visit(item.context_expr, held)
            inner = held | frozenset(with_lock_names(node))
            for stmt in node.body:
                self._visit(stmt, inner)
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs run later, on an unknown thread: skip
        self._record(node, held)
        for child in ast.iter_child_nodes(node):
            self._visit(child, held)

    def _record(self, node: ast.AST, held: frozenset[str]) -> None:
        if isinstance(node, ast.Assign):
            for tgt in node.targets:
                self._record_write(tgt, node, held)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if not (isinstance(node, ast.AnnAssign) and node.value is None):
                self._record_write(node.target, node, held)
        elif isinstance(node, ast.Delete):
            for tgt in node.targets:
                self._record_write(tgt, node, held)
        elif isinstance(node, ast.Call):
            self._record_call(node, held)
        elif isinstance(node, ast.Attribute):
            attr = _root_self_attr(node)
            if attr is not None and attr in self.cls.owned:
                self.owned.append(
                    _OwnedAccess(
                        method=self.method,
                        attr=attr,
                        role=self.cls.owned[attr],
                        node=node,
                    )
                )

    def _record_write(
        self, target: ast.AST, node: ast.AST, held: frozenset[str]
    ) -> None:
        # ``a, self.x = ...`` / ``[*self.x] = ...``: every element is a write.
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._record_write(elt, node, held)
            return
        if isinstance(target, ast.Starred):
            self._record_write(target.value, node, held)
            return
        attr = _root_self_attr(target)
        if attr is None:
            return
        lock = self.cls.guarded.get(attr)
        if lock is not None and lock not in held:
            self.naked_writes.append(
                _Write(method=self.method, attr=attr, lock=lock, node=node)
            )

    def _record_call(self, node: ast.Call, held: frozenset[str]) -> None:
        func = node.func
        if not isinstance(func, ast.Attribute):
            return
        # self.helper(...) — an intra-class edge for the fixpoint.
        if (
            isinstance(func.value, ast.Name)
            and func.value.id == "self"
            and func.attr in self.cls.methods
        ):
            self.calls.append(
                _CallSite(caller=self.method, callee=func.attr, held=held)
            )
            return
        # self.<guarded>.append(...) — a mutating call is a write.
        if func.attr in _MUTATOR_NAMES:
            attr = _root_self_attr(func.value)
            if attr is None:
                return
            lock = self.cls.guarded.get(attr)
            if lock is not None and lock not in held:
                self.naked_writes.append(
                    _Write(
                        method=self.method, attr=attr, lock=lock, node=node
                    )
                )


def _role_of_methods(
    cls: ClassContracts, calls: list[_CallSite]
) -> dict[str, str]:
    """Declared roles plus roles inferred for private helpers.

    A private, unannotated method whose intra-class callers all resolve
    to one role runs on that role too. Public methods never inherit —
    they are entry points, callable from anywhere.
    """
    roles: dict[str, str] = dict(cls.runs_on)
    callers: dict[str, set[str]] = {}
    for site in calls:
        callers.setdefault(site.callee, set()).add(site.caller)
    changed = True
    while changed:
        changed = False
        for name in cls.methods:
            if name in roles or _is_public(name):
                continue
            direct = callers.get(name)
            if not direct:
                continue
            got = {roles.get(c) for c in direct}
            if None in got or len(got) != 1:
                continue
            (role,) = got
            assert role is not None
            roles[name] = role
            changed = True
    return roles


class ThreadOwnershipRule:
    """Annotation-driven shared-state discipline, per module."""

    name = "thread-ownership"
    description = (
        "guarded-by writes must hold the lock; owned-by state stays on "
        "its declared thread"
    )

    def check(self, module: ModuleSource) -> Iterable[Finding]:
        contracts = collect_contracts(module)
        for cls in contracts.classes:
            if not cls.has_contracts:
                continue
            yield from self._check_class(module, contracts.module_locks, cls)

    # -- per-class -------------------------------------------------------

    def _check_class(
        self,
        module: ModuleSource,
        module_locks: dict[str, object],
        cls: ClassContracts,
    ) -> Iterator[Finding]:
        # Contract sanity: every guard names a lock we can see.
        for attr, guard in sorted(cls.guarded.items()):
            known = (
                guard.startswith("self.")
                and guard[len("self."):] in cls.locks
            ) or guard in module_locks
            if not known:
                anchor = ast.copy_location(
                    ast.Pass(), cls.node
                )
                anchor.lineno = cls.contract_lines.get(attr, cls.node.lineno)
                anchor.col_offset = 0
                yield module.finding(
                    self.name,
                    anchor,
                    f"'{cls.name}.{attr}' is guarded-by {guard}, but no "
                    f"lock named {guard} is constructed in this class or "
                    "module",
                )

        scanners: dict[str, _MethodScanner] = {}
        all_calls: list[_CallSite] = []
        for name, meth in cls.methods.items():
            scanner = _MethodScanner(cls, name)
            scanner.scan(meth)
            scanners[name] = scanner
            all_calls.extend(scanner.calls)

        yield from self._check_guarded(module, cls, scanners, all_calls)
        yield from self._check_owned(module, cls, scanners, all_calls)

    def _check_guarded(
        self,
        module: ModuleSource,
        cls: ClassContracts,
        scanners: dict[str, _MethodScanner],
        all_calls: list[_CallSite],
    ) -> Iterator[Finding]:
        # R[m] = set of origin writes whose lock is not yet proven held
        # on every path reaching them. Requirements float up the
        # intra-class call graph; ones that reach a public entry (or a
        # helper nobody calls) are real findings.
        requirements: dict[str, set[_Write]] = {
            name: set(s.naked_writes)
            for name, s in scanners.items()
            if name not in _CONSTRUCTION_METHODS and s.naked_writes
        }
        callers: dict[str, list[_CallSite]] = {}
        for site in all_calls:
            if site.caller in _CONSTRUCTION_METHODS:
                continue
            callers.setdefault(site.callee, []).append(site)

        changed = True
        while changed:
            changed = False
            for callee, reqs in list(requirements.items()):
                if _is_public(callee):
                    continue  # surfaces as a finding below, stop floating
                for site in callers.get(callee, ()):
                    missing = {w for w in reqs if w.lock not in site.held}
                    bucket = requirements.setdefault(site.caller, set())
                    before = len(bucket)
                    bucket.update(missing)
                    if len(bucket) != before:
                        changed = True

        reported: set[tuple[int, int, str]] = set()
        for method, reqs in sorted(requirements.items()):
            public = _is_public(method)
            uncalled = not callers.get(method)
            if not (public or uncalled):
                continue  # every caller holds the lock: proven
            for write in reqs:
                key = (
                    getattr(write.node, "lineno", 0),
                    getattr(write.node, "col_offset", 0),
                    write.lock,
                )
                if key in reported:
                    continue
                reported.add(key)
                if write.method == method:
                    via = ""
                elif public:
                    via = f" (reachable from public entry '{method}')"
                else:
                    via = f" (via '{method}', which no caller locks for)"
                yield module.finding(
                    self.name,
                    write.node,
                    f"write to '{cls.name}.{write.attr}' (guarded-by "
                    f"{write.lock}) outside a 'with {write.lock}' "
                    f"scope{via}",
                )

    def _check_owned(
        self,
        module: ModuleSource,
        cls: ClassContracts,
        scanners: dict[str, _MethodScanner],
        all_calls: list[_CallSite],
    ) -> Iterator[Finding]:
        if not cls.owned:
            return
        roles = _role_of_methods(cls, all_calls)
        for name, scanner in sorted(scanners.items()):
            if name in _CONSTRUCTION_METHODS:
                continue
            method_role = roles.get(name)
            seen: set[tuple[int, int, str]] = set()
            for access in scanner.owned:
                if method_role == access.role:
                    continue
                key = (
                    getattr(access.node, "lineno", 0),
                    getattr(access.node, "col_offset", 0),
                    access.attr,
                )
                if key in seen:
                    continue
                seen.add(key)
                where = (
                    f"method '{name}' runs on '{method_role}'"
                    if method_role is not None
                    else f"public entry '{name}'"
                    if _is_public(name)
                    else f"helper '{name}' with no inferable role"
                )
                yield module.finding(
                    self.name,
                    access.node,
                    f"'{cls.name}.{access.attr}' is owned-by "
                    f"'{access.role}' but {where} touches it; annotate "
                    "the method with '# runs-on:' or marshal through the "
                    "owner",
                )
