"""Properties of the request coalescer and of coalesced execution.

Two layers of the same claim — batching must be invisible to correctness:

* **State-machine properties** (pure, tier-1): for *any* interleaving of
  arrivals (tagged by connection), batch-size bounds, and takes
  (:meth:`~repro.serve.coalescer.Coalescer.flush` calls), every request
  is emitted exactly once, batches respect ``max_batch``, and arrival
  order is preserved globally — hence per connection.
* **Hold-rule properties** (pure, tier-1), over timed schedules of
  arrivals and takes — a take is the dispatcher looking at the batch at
  that moment and taking it if :meth:`~repro.serve.coalescer.Coalescer.due`
  has come: the same exactly-once order holds; no batch is due later
  than its oldest arrival plus the window; without a gap estimate, or
  with gaps steadily above the window, a batch is due at its oldest
  arrival (an idle dispatcher holds nothing); with gaps steadily at most
  half the window, it is held.
* **Execution property** (real searches, marked ``slow``): a coalesced
  batch dispatched through the service produces, request for request,
  the same canonical payload bytes as the same queries run serially
  through a bare engine — the cache is disabled, so every request takes
  the cold batched path.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import Coalescer

pytestmark = pytest.mark.serve

# An interleaving schedule: each step is an arrival on a connection
# (0-3) or a window expiry (None). Connections submit sequentially, so
# the k-th arrival on a connection is its k-th request.
steps = st.lists(
    st.one_of(st.integers(min_value=0, max_value=3), st.none()),
    min_size=0,
    max_size=120,
)


def run_schedule(schedule, max_batch):
    """Drive a coalescer through the schedule; return (arrivals, batches)."""
    c = Coalescer(max_batch=max_batch)
    arrivals, batches = [], []
    counters = {}
    for now, step in enumerate(schedule):
        if step is None:
            batch = c.flush()
        else:
            seq = counters.get(step, 0)
            counters[step] = seq + 1
            item = (step, seq)
            arrivals.append(item)
            batch = c.add(item, float(now))
        if batch is not None:
            batches.append(batch)
    final = c.flush()
    if final is not None:
        batches.append(final)
    return arrivals, batches


class TestCoalescerProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(steps, st.integers(min_value=1, max_value=8))
    def test_every_request_exactly_once_in_arrival_order(self, schedule, max_batch):
        arrivals, batches = run_schedule(schedule, max_batch)
        emitted = [item for batch in batches for item in batch]
        assert emitted == arrivals

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(steps, st.integers(min_value=1, max_value=8))
    def test_batches_never_empty_never_over_max(self, schedule, max_batch):
        _arrivals, batches = run_schedule(schedule, max_batch)
        for batch in batches:
            assert 1 <= len(batch) <= max_batch

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(steps, st.integers(min_value=1, max_value=8))
    def test_per_connection_order_preserved(self, schedule, max_batch):
        _arrivals, batches = run_schedule(schedule, max_batch)
        emitted = [item for batch in batches for item in batch]
        for conn in range(4):
            seqs = [seq for c, seq in emitted if c == conn]
            assert seqs == list(range(len(seqs)))

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(steps, st.integers(min_value=1, max_value=8))
    def test_stats_account_for_every_arrival(self, schedule, max_batch):
        c = Coalescer(max_batch=max_batch)
        for now, step in enumerate(schedule):
            if step is None:
                c.flush()
            else:
                c.add(step, float(now))
        assert c.stats.arrivals == sum(1 for s in schedule if s is not None)
        assert c.stats.emitted + len(c) == c.stats.arrivals
        assert c.stats.batches == c.stats.size_closes + c.stats.window_closes


# A timed schedule: each step advances the clock by a gap (ms), then is
# an arrival on a connection (0-3) or a take (None).
timed_steps = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=100.0),
        st.one_of(st.integers(min_value=0, max_value=3), st.none()),
    ),
    max_size=120,
)
windows = st.floats(min_value=0.0, max_value=50.0)


def run_timed(schedule, max_batch, window):
    """Drive a coalescer through a timed schedule.

    Returns ``(arrivals, batches, holds)``; ``holds`` has one
    ``(due, oldest pending arrival)`` pair per step that leaves a batch
    pending.
    """
    c = Coalescer(max_batch=max_batch)
    arrivals, batches, holds = [], [], []
    counters = {}
    now, oldest = 0.0, None
    for gap, step in schedule:
        now += gap
        if step is None:
            due = c.due(window)
            batch = c.flush() if due is not None and due <= now else None
        else:
            seq = counters.get(step, 0)
            counters[step] = seq + 1
            item = (step, seq)
            arrivals.append(item)
            if oldest is None:
                oldest = now
            batch = c.add(item, now)
        if batch is not None:
            batches.append(batch)
            oldest = None
        if oldest is not None:
            holds.append((c.due(window), oldest))
    final = c.flush()
    if final is not None:
        batches.append(final)
    return arrivals, batches, holds


def arrive_and_check(gaps, takes, window, expect_held):
    """Arrive at the given gaps and check ``due`` after every arrival.

    ``takes[i]`` says whether the dispatcher takes the batch right after
    arrival ``i``; otherwise it was busy and arrivals pile up.
    """
    c = Coalescer(max_batch=1000)
    now, oldest = 0.0, None
    for i, (gap, take) in enumerate(zip(gaps, takes)):
        now += gap
        c.add(i, now)
        if oldest is None:
            oldest = now
        # The first arrival leaves no gap to estimate from.
        held = expect_held and i > 0
        assert c.due(window) == (oldest + window if held else oldest)
        if take:
            assert c.flush()
            oldest = None


class TestHoldRuleProperties:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(timed_steps, st.integers(min_value=1, max_value=8), windows)
    def test_every_request_exactly_once_in_arrival_order(self, schedule, max_batch, window):
        arrivals, batches, _holds = run_timed(schedule, max_batch, window)
        assert [item for batch in batches for item in batch] == arrivals
        for batch in batches:
            assert 1 <= len(batch) <= max_batch

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(timed_steps, st.integers(min_value=1, max_value=8), windows)
    def test_due_never_past_the_window(self, schedule, max_batch, window):
        _arrivals, _batches, holds = run_timed(schedule, max_batch, window)
        for due, oldest in holds:
            assert oldest <= due <= oldest + window

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        windows,
        st.lists(
            st.tuples(st.floats(min_value=0.001, max_value=100.0), st.booleans()),
            min_size=1,
            max_size=60,
        ),
    )
    def test_no_hold_without_a_predicted_companion(self, window, steps):
        # Every gap is above the window, so the estimate is too: a batch
        # is due at its oldest arrival, pending alone or piled up.
        gaps = [0.0] + [window + extra for extra, _take in steps[1:]]
        takes = [take for _extra, take in steps]
        arrive_and_check(gaps, takes, window, expect_held=False)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.floats(min_value=0.001, max_value=50.0),
        st.lists(
            st.tuples(st.floats(min_value=0.0, max_value=0.5), st.booleans()),
            min_size=2,
            max_size=60,
        ),
    )
    def test_held_when_gaps_steadily_within_half_the_window(self, window, steps):
        gaps = [0.0] + [fraction * window for fraction, _take in steps[1:]]
        takes = [take for _fraction, take in steps]
        arrive_and_check(gaps, takes, window, expect_held=True)


@pytest.mark.slow
class TestCoalescedExecutionEqualsSerial:
    """Batch dispatch must not change any request's canonical payload."""

    @settings(max_examples=5, deadline=None, derandomize=True)
    @given(
        picks=st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=6),
        max_batch=st.integers(min_value=1, max_value=6),
    )
    def test_coalesced_equals_serial_canonical_payloads(
        self, tiny_db, tiny_spec, picks, max_batch
    ):
        from repro.engine import make_engine
        from repro.io import generate_query
        from repro.serve import SearchService
        from repro.verify.canonical import payload_to_bytes, result_to_payload

        pool = [
            generate_query(80 + 15 * i, tiny_spec, query_seed=700 + i)
            for i in range(5)
        ]
        engine = make_engine("cublastp")
        serial = {}
        for i in set(picks):
            result = engine.run(
                engine.compile(pool[i]), tiny_db, query_id=f"q{i}"
            )
            serial[i] = payload_to_bytes(result_to_payload(result))
        # cache_capacity=0: every request takes the cold coalesced path,
        # including repeats of the same query within one batch.
        with SearchService(
            tiny_db,
            backend="thread",
            window_ms=50,
            max_batch=max_batch,
            cache_capacity=0,
        ) as svc:
            futures = [(i, svc.submit(f"q{i}", pool[i])) for i in picks]
            for i, fut in futures:
                outcome = fut.result(timeout=240)
                assert not outcome.cache_hit
                assert outcome.payload == serial[i]
