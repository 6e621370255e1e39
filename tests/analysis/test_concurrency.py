"""Concurrency contract checker: the thread-ownership rule and its contracts.

Each test parses a small inline module (``ModuleSource.parse`` with
``text=``) so the property under test is visible in the test itself. The
tree-wide guarantees (the shipped coalescer is ownership-clean, the
selftest bites) are asserted at the bottom against the real repository.
"""

import textwrap
from pathlib import Path

import pytest

from repro.analysis import ModuleSource
from repro.analysis.concurrency import (
    ThreadOwnershipRule,
    collect_contracts,
    run_selftest,
)

REPO = Path(__file__).resolve().parents[2]


def parse(src, name="mod.py"):
    return ModuleSource.parse(Path(name), text=textwrap.dedent(src))


def ownership(src):
    return list(ThreadOwnershipRule().check(parse(src)))


class TestContracts:
    def test_annotations_are_collected(self):
        module = parse(
            """
            import threading

            from repro.analysis.witness import thread_shared


            @thread_shared
            class Box:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._cond = threading.Condition()
                    self.items = []  # guarded-by: self._lock
                    self.cursor = None  # owned-by: dispatcher

                def drain(self):  # runs-on: dispatcher
                    pass
            """
        )
        contracts = collect_contracts(module)
        (cls,) = contracts.classes
        assert cls.name == "Box"
        assert cls.thread_shared
        assert cls.guarded == {"items": "self._lock"}
        assert cls.owned == {"cursor": "dispatcher"}
        assert cls.runs_on == {"drain": "dispatcher"}
        assert set(cls.locks) == {"_lock", "_cond"}

    def test_module_level_locks_are_collected(self):
        module = parse(
            """
            import threading

            _LOCK = threading.Lock()
            """,
            name="store.py",
        )
        contracts = collect_contracts(module)
        (info,) = contracts.module_locks.values()
        assert info.qualname == "store._LOCK"


class TestThreadOwnership:
    GUARDED_HEADER = """
        import threading


        class Stats:
            def __init__(self):
                self._lock = threading.Lock()
                self.hits = 0  # guarded-by: self._lock
    """

    def test_naked_write_is_flagged(self):
        findings = ownership(
            self.GUARDED_HEADER
            + """
            def bump(self):
                self.hits += 1
            """
        )
        (f,) = findings
        assert f.rule == "thread-ownership"
        assert "Stats.hits" in f.message and "self._lock" in f.message

    def test_write_under_lock_is_clean(self):
        assert (
            ownership(
                self.GUARDED_HEADER
                + """
            def bump(self):
                with self._lock:
                    self.hits += 1
            """
            )
            == []
        )

    def test_mutator_call_counts_as_write(self):
        findings = ownership(
            """
            import threading


            class Q:
                def __init__(self):
                    self._lock = threading.Lock()
                    self.items = []  # guarded-by: self._lock

                def push(self, x):
                    self.items.append(x)
            """
        )
        assert len(findings) == 1
        assert "Q.items" in findings[0].message

    def test_reads_are_not_flagged(self):
        assert (
            ownership(
                self.GUARDED_HEADER
                + """
            def peek(self):
                return self.hits
            """
            )
            == []
        )

    def test_init_writes_are_exempt(self):
        # The construction write itself (`self.hits = 0` above) is the
        # canonical case: no findings on the header alone.
        assert ownership(self.GUARDED_HEADER) == []

    def test_helper_called_only_under_lock_is_proven_clean(self):
        assert (
            ownership(
                self.GUARDED_HEADER
                + """
            def bump(self):
                with self._lock:
                    self._bump_locked()

            def _bump_locked(self):
                self.hits += 1
            """
            )
            == []
        )

    def test_helper_reachable_from_public_entry_is_flagged(self):
        findings = ownership(
            self.GUARDED_HEADER
            + """
            def bump(self):
                self._bump_locked()

            def _bump_locked(self):
                self.hits += 1
            """
        )
        (f,) = findings
        assert "reachable from public entry 'bump'" in f.message

    @pytest.mark.parametrize(
        "write",
        ["self.hits, spare = 1, 2", "[first, *self.hits] = (1, 2)"],
        ids=["tuple", "starred-list"],
    )
    def test_unpacking_write_outside_lock_is_flagged(self, write):
        findings = ownership(
            self.GUARDED_HEADER
            + f"""
            def swap(self):
                {write}
            """
        )
        (f,) = findings
        assert "Stats.hits" in f.message

    def test_owned_access_off_role_is_flagged(self):
        findings = ownership(
            """
            class Pool:
                def __init__(self):
                    self.slots = []  # owned-by: dispatcher

                def run(self):  # runs-on: dispatcher
                    self.slots.append(1)

                def poke(self):  # runs-on: lifecycle
                    self.slots.append(2)
            """
        )
        (f,) = findings
        assert "poke" in f.message and "dispatcher" in f.message

    def test_private_method_inherits_role_from_callers(self):
        assert (
            ownership(
                """
            class Pool:
                def __init__(self):
                    self.slots = []  # owned-by: dispatcher

                def run(self):  # runs-on: dispatcher
                    self._grow()

                def _grow(self):
                    self.slots.append(1)
            """
            )
            == []
        )

    def test_unknown_lock_in_guard_is_reported(self):
        findings = ownership(
            """
            class Bad:
                def __init__(self):
                    self.x = 0  # guarded-by: self._lock
            """
        )
        assert len(findings) == 1
        assert "_lock" in findings[0].message

    def test_inline_suppression_is_honoured(self):
        src = (
            self.GUARDED_HEADER
            + """
            def bump(self):
                self.hits += 1  # reprolint: disable=thread-ownership
            """
        )
        module = parse(src)
        findings = [
            f
            for f in ThreadOwnershipRule().check(module)
            if f.rule not in module.suppressed_rules_for_line(f.line)
        ]
        assert findings == []


class TestTreeContracts:
    COALESCER = REPO / "src" / "repro" / "serve" / "coalescer.py"

    def test_coalescer_close_from_unlocked_entry_is_flagged(self):
        # As shipped, both callers of _close (add, flush) hold the lock, so
        # its ``batch, self._pending = self._pending, []`` swap is proven.
        rule = ThreadOwnershipRule()
        assert list(rule.check(ModuleSource.parse(self.COALESCER))) == []
        anchor = "    def _close(self) -> list[T]:\n"
        src = self.COALESCER.read_text()
        assert src.count(anchor) == 1
        leaky = src.replace(
            anchor, "    def drain(self):\n        return self._close()\n\n" + anchor
        )
        module = ModuleSource.parse(Path("coalescer_copy.py"), text=leaky)
        pending = [f for f in rule.check(module) if "Coalescer._pending" in f.message]
        (f,) = pending
        assert "reachable from public entry 'drain'" in f.message

    def test_selftest_catches_all_injections(self):
        lines = []
        assert run_selftest(emit=lines.append) == 0
        passes = [line for line in lines if line.startswith("PASS")]
        assert len(passes) == 4
        assert all(line.startswith(("PASS", "concurrency")) for line in lines)
