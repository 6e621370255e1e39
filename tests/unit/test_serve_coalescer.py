"""Unit tests for the request coalescer (the serving layer's batcher)."""

import random
import threading

import pytest

from repro.serve import Coalescer

pytestmark = pytest.mark.serve


class TestCoalescer:
    def test_size_close_at_max_batch(self):
        c = Coalescer(max_batch=3)
        assert c.add("a", 0.0) is None
        assert c.add("b", 0.0) is None
        assert c.add("c", 0.0) == ["a", "b", "c"]
        assert len(c) == 0
        assert c.stats.size_closes == 1
        assert c.stats.window_closes == 0

    def test_flush_closes_partial_batch(self):
        c = Coalescer(max_batch=10)
        c.add(1, 0.0)
        c.add(2, 0.0)
        assert c.flush() == [1, 2]
        assert c.stats.window_closes == 1

    def test_flush_empty_emits_nothing(self):
        c = Coalescer(max_batch=4)
        assert c.flush() is None
        assert c.stats.batches == 0

    def test_arrival_order_preserved(self):
        c = Coalescer(max_batch=100)
        for i in range(17):
            c.add(i, 0.0)
        assert c.flush() == list(range(17))

    def test_max_batch_validated(self):
        with pytest.raises(ValueError):
            Coalescer(max_batch=0)

    def test_stats_mean_batch_size_counts_emitted_only(self):
        c = Coalescer(max_batch=2)
        c.add("a", 0.0)
        c.add("b", 0.0)  # size close: batch of 2
        c.add("c", 0.0)  # pending, never emitted
        assert c.stats.arrivals == 3
        assert c.stats.emitted == 2
        assert c.stats.mean_batch_size == 2.0

    def test_due_follows_the_gap_ewma(self):
        c = Coalescer(max_batch=100)
        assert c.due(20.0) is None
        c.add("a", 100.0)
        assert c.due(20.0) == 100.0  # no gap yet: take at once
        c.add("b", 110.0)  # gap 10: a companion is expected, hold
        assert c.due(20.0) == 120.0
        c.add("c", 200.0)  # gap 90: estimate 10 + (90 - 10) / 8 = 20
        assert c.due(20.0) == 120.0
        assert c.due(19.0) == 100.0
        assert c.flush() == ["a", "b", "c"]
        c.add("d", 200.0)  # gap 0: estimate 20 - 20 / 8 = 17.5
        assert c.due(17.5) == 217.5
        assert c.due(17.0) == 200.0

    def test_seed_pinned_short_window_schedule(self):
        """Seed-pinned arrival/flush schedule: exactly-once, in order.

        A deterministic pseudo-random interleaving of arrivals and
        window expiries (flushes) — the tier-1 stand-in for the
        Hypothesis interleaving property, pinned so it never flakes.
        """
        rng = random.Random(20140519)
        c = Coalescer(max_batch=4)
        emitted, arrivals = [], []
        for step in range(200):
            if rng.random() < 0.7:
                item = f"req-{step}"
                arrivals.append(item)
                batch = c.add(item, float(step))
            else:
                batch = c.flush()
            if batch is not None:
                assert 1 <= len(batch) <= 4
                emitted.extend(batch)
        final = c.flush()
        if final is not None:
            emitted.extend(final)
        assert emitted == arrivals  # every arrival exactly once, in order
        assert c.stats.emitted == c.stats.arrivals == len(arrivals)
        # The schedule is pinned, so the batching outcome is too.
        assert c.stats.batches == c.stats.size_closes + c.stats.window_closes

    def test_concurrent_adds_exactly_once(self):
        """Racing arrival threads: no item lost, none duplicated."""
        c = Coalescer(max_batch=7)
        emitted = []
        lock = threading.Lock()

        def producer(tag):
            for i in range(50):
                batch = c.add((tag, i), 0.0)
                if batch is not None:
                    with lock:
                        emitted.extend(batch)

        threads = [threading.Thread(target=producer, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        final = c.flush()
        if final is not None:
            emitted.extend(final)
        assert len(emitted) == 200
        assert len(set(emitted)) == 200
        # Per-producer arrival order survives any interleaving.
        for tag in range(4):
            mine = [i for (t, i) in emitted if t == tag]
            assert mine == sorted(mine)
