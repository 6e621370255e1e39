"""Runtime lock witness: order-graph recording, cycle and blocking detection.

Every test drives a private :class:`LockWitnessRegistry` so nothing here
touches the process-global one (other suites enable it via the
``lock_witness`` fixture). The factory tests toggle the global registry
and restore it.
"""

import threading

import pytest

from repro.analysis.witness import (
    LockWitnessRegistry,
    WitnessCondition,
    WitnessLock,
    get_witness_registry,
    new_condition,
    new_lock,
    thread_shared,
    witness_env_enabled,
)


def make(enabled=True):
    return LockWitnessRegistry(enabled=enabled)


class TestWitnessLock:
    def test_context_manager_acquires_and_releases(self):
        reg = make()
        lock = WitnessLock("l", reg)
        with lock:
            assert lock.locked()
            assert reg.held_by_current_thread() == ("l",)
        assert not lock.locked()
        assert reg.held_by_current_thread() == ()

    def test_nested_acquisition_records_an_edge(self):
        reg = make()
        a, b = WitnessLock("a", reg), WitnessLock("b", reg)
        with a:
            with b:
                pass
        snap = reg.snapshot()
        assert {(e["src"], e["dst"]) for e in snap["edges"]} == {("a", "b")}
        assert snap["cycles"] == []
        reg.assert_clean()

    def test_consistent_order_is_clean(self):
        reg = make()
        a, b = WitnessLock("a", reg), WitnessLock("b", reg)
        for _ in range(3):
            with a:
                with b:
                    pass
        reg.assert_clean()
        assert reg.cycles() == []

    def test_failed_nonblocking_acquire_not_recorded(self):
        reg = make()
        lock = WitnessLock("l", reg)
        lock.acquire()
        grabbed = []

        def contender():
            grabbed.append(lock.acquire(blocking=False))

        t = threading.Thread(target=contender)
        t.start()
        t.join()
        assert grabbed == [False]
        # Only this thread's successful acquisition was counted.
        assert reg.snapshot()["acquisitions"] == 1
        lock.release()

    def test_disabled_registry_records_nothing(self):
        reg = make(enabled=False)
        a, b = WitnessLock("a", reg), WitnessLock("b", reg)
        with a, b:
            pass
        snap = reg.snapshot()
        assert snap["acquisitions"] == 0
        assert snap["edges"] == []


class TestCycleDetection:
    def test_inverted_order_across_threads_is_a_violation(self):
        reg = make()
        a, b = WitnessLock("a", reg), WitnessLock("b", reg)

        def forward():
            with a:
                with b:
                    pass

        def backward():
            with b:
                with a:
                    pass

        # Sequential execution: the *orders* conflict even though the
        # threads never contended — that's the point of the witness.
        t1 = threading.Thread(target=forward)
        t1.start()
        t1.join()
        t2 = threading.Thread(target=backward)
        t2.start()
        t2.join()

        kinds = {v.kind for v in reg.violations}
        assert kinds == {"lock-order-cycle"}
        assert reg.cycles() != []
        with pytest.raises(AssertionError, match="lock-order-cycle"):
            reg.assert_clean()

    def test_three_lock_rotation_is_a_violation(self):
        reg = make()
        locks = {n: WitnessLock(n, reg) for n in "abc"}

        def pair(x, y):
            with locks[x]:
                with locks[y]:
                    pass

        for x, y in [("a", "b"), ("b", "c"), ("c", "a")]:
            t = threading.Thread(target=pair, args=(x, y))
            t.start()
            t.join()
        assert any(v.kind == "lock-order-cycle" for v in reg.violations)
        (cycle,) = reg.cycles()
        assert sorted(cycle) == ["a", "b", "c"]

    def test_reset_clears_graph_and_violations(self):
        reg = make()
        a, b = WitnessLock("a", reg), WitnessLock("b", reg)
        with a:
            with b:
                pass
        reg.reset()
        snap = reg.snapshot()
        assert snap["edges"] == [] and snap["violations"] == []
        reg.assert_clean()


class TestBlockingCalls:
    def test_blocking_call_under_lock_is_a_violation(self):
        reg = make()
        lock = WitnessLock("l", reg)
        with lock:
            reg.note_blocking("Future.result()")
        (v,) = reg.violations
        assert v.kind == "blocking-call-under-lock"
        assert "Future.result()" in v.detail and "l" in v.detail

    def test_blocking_call_outside_locks_is_clean(self):
        reg = make()
        reg.note_blocking("Future.result()")
        assert reg.violations == []


class TestWitnessCondition:
    def test_reentrant_with_blocks_are_not_self_cycles(self):
        reg = make()
        cond = WitnessCondition("c", reg)
        with cond:
            with cond:
                assert reg.held_by_current_thread() == ("c",)
        assert reg.held_by_current_thread() == ()
        reg.assert_clean()
        assert reg.cycles() == []

    def test_wait_notify_roundtrip_is_clean(self):
        reg = make()
        cond = WitnessCondition("c", reg)
        ready = []

        def waiter():
            with cond:
                while not ready:
                    cond.wait(timeout=5)

        t = threading.Thread(target=waiter)
        t.start()
        with cond:
            ready.append(True)
            cond.notify_all()
        t.join()
        reg.assert_clean()

    def test_wait_while_holding_another_lock_is_a_violation(self):
        reg = make()
        outer = WitnessLock("outer", reg)
        cond = WitnessCondition("c", reg)
        with outer:
            with cond:
                cond.wait(timeout=0.01)
        kinds = [v.kind for v in reg.violations]
        assert "blocking-call-under-lock" in kinds


class TestFactoriesAndMarkers:
    def test_factories_return_plain_primitives_when_disabled(self):
        reg = get_witness_registry()
        was = reg.enabled
        reg.disable()
        try:
            assert isinstance(new_lock("x"), type(threading.Lock()))
            cond = new_condition("x")
            assert type(cond) is threading.Condition
        finally:
            reg.enabled = was

    def test_factories_return_witnessed_when_enabled(self):
        reg = get_witness_registry()
        was = reg.enabled
        reg.enable()
        try:
            assert isinstance(new_lock("x"), WitnessLock)
            assert isinstance(new_condition("x"), WitnessCondition)
        finally:
            reg.enabled = was
            reg.reset()

    def test_env_flag_parsing(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCK_WITNESS", raising=False)
        assert not witness_env_enabled()
        monkeypatch.setenv("REPRO_LOCK_WITNESS", "0")
        assert not witness_env_enabled()
        monkeypatch.setenv("REPRO_LOCK_WITNESS", "1")
        assert witness_env_enabled()

    def test_thread_shared_is_a_transparent_marker(self):
        @thread_shared
        class Box:
            pass

        assert Box.__thread_shared__ is True
        assert Box.__name__ == "Box"

    def test_lock_witness_fixture_enables_the_global_registry(self, lock_witness):
        assert lock_witness is get_witness_registry()
        assert lock_witness.enabled
        lock = new_lock("fixture.l")
        assert isinstance(lock, WitnessLock)
        with lock:
            pass
