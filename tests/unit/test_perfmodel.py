"""Unit tests for the CPU performance model."""

import pytest

from repro.core.gapped import GappedExtension
from repro.core.results import ExtensionArray, UngappedExtension
from repro.perfmodel import (
    DEFAULT_COSTS,
    NCBI_COSTS,
    critical_phase_ms,
    gapped_work_items,
    thread_makespan_ms,
    traceback_work_items,
    ungapped_cells,
)


def gext(cells=1000, box=20):
    return GappedExtension(
        seq_id=0, score=50, query_start=0, query_end=box - 1,
        subject_start=0, subject_end=box - 1, seed_query=5, seed_subject=5,
        box_query_start=0, box_query_end=box - 1,
        box_subject_start=0, box_subject_end=box - 1, cells=cells,
    )


class TestCriticalPhase:
    def test_scales_with_work(self):
        a = critical_phase_ms(1000, 100, 500, DEFAULT_COSTS)
        b = critical_phase_ms(2000, 200, 1000, DEFAULT_COSTS)
        assert b == pytest.approx(2 * a)

    def test_threads_divide_time(self):
        one = critical_phase_ms(10**6, 10**5, 10**5, DEFAULT_COSTS, threads=1)
        four = critical_phase_ms(10**6, 10**5, 10**5, DEFAULT_COSTS, threads=4)
        assert four < one / 3  # near-linear minus sync overhead

    def test_ncbi_slower_than_fsa(self):
        fsa = critical_phase_ms(10**6, 10**5, 10**5, DEFAULT_COSTS)
        ncbi = critical_phase_ms(10**6, 10**5, 10**5, NCBI_COSTS)
        assert 1.1 < ncbi / fsa < 1.5

    def test_ungapped_cells_counts_overshoot(self):
        exts = ExtensionArray.from_records([
            UngappedExtension(0, 0, 9, 0, 9, 30),
            UngappedExtension(0, 0, 4, 5, 9, 20),
        ])
        assert ungapped_cells(exts, x_drop=15) == (10 + 30) + (5 + 30)


class TestMakespan:
    def test_empty(self):
        assert thread_makespan_ms([], 4, DEFAULT_COSTS) == 0.0

    def test_single_thread_sums(self):
        items = [100.0, 200.0, 300.0]
        ms = thread_makespan_ms(items, 1, DEFAULT_COSTS)
        assert ms == pytest.approx(600 / (3.1e9) * 1e3)

    def test_perfect_split(self):
        items = [100.0] * 8
        one = thread_makespan_ms(items, 1, DEFAULT_COSTS)
        four = thread_makespan_ms(items, 4, DEFAULT_COSTS)
        sync = DEFAULT_COSTS.thread_sync_us / 1e3
        assert four - sync == pytest.approx((one) / 4)

    def test_imbalance_caps_scaling(self):
        # one huge item dominates: 4 threads don't help.
        items = [1000.0, 1.0, 1.0, 1.0]
        one = thread_makespan_ms(items, 1, DEFAULT_COSTS)
        four = thread_makespan_ms(items, 4, DEFAULT_COSTS)
        assert four > one * 0.95 * (1000 / 1003)

    def test_lpt_beats_naive_order(self):
        # LPT puts the two large items on different threads.
        items = [10.0, 10.0, 1.0, 1.0]
        ms = thread_makespan_ms(items, 2, DEFAULT_COSTS)
        sync = DEFAULT_COSTS.thread_sync_us / 1e3
        assert ms - sync == pytest.approx(11.0 / 3.1e9 * 1e3)

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            thread_makespan_ms([1.0], 0, DEFAULT_COSTS)


class TestWorkItems:
    def test_gapped_uses_counted_cells(self):
        (item,) = gapped_work_items([gext(cells=1000)], DEFAULT_COSTS)
        assert item == 1000 * DEFAULT_COSTS.gapped_cell + DEFAULT_COSTS.gapped_overhead

    def test_gapped_falls_back_to_box(self):
        (item,) = gapped_work_items([gext(cells=0, box=10)], DEFAULT_COSTS)
        assert item == 100 * DEFAULT_COSTS.gapped_cell + DEFAULT_COSTS.gapped_overhead

    def test_traceback_charges_band_cells(self):
        (item,) = traceback_work_items([gext(cells=1000, box=10)], DEFAULT_COSTS)
        assert item == 1000 * DEFAULT_COSTS.traceback_cell + DEFAULT_COSTS.gapped_overhead

    def test_traceback_falls_back_to_box(self):
        (item,) = traceback_work_items([gext(cells=0, box=10)], DEFAULT_COSTS)
        assert item == 100 * DEFAULT_COSTS.traceback_cell + DEFAULT_COSTS.gapped_overhead
