"""Integration tests for timing reports, pipeline overlap, and profiles."""

import pytest

from repro.baselines import CudaBlastp, FsaBlast, GpuBlastp
from repro.cublastp import CuBlastp, CuBlastpConfig
from repro.cublastp.cpu_phases import run_cpu_phases
from repro.cublastp.pipeline import pipeline_schedule
import numpy as np

from tests.conftest import swept


@pytest.fixture(scope="module")
def cublastp_report(small_query, small_params, small_db):
    return CuBlastp(small_query, small_params).search_with_report(small_db)


class TestCuBlastpReport:
    def test_breakdown_covers_serial_time(self, cublastp_report):
        _, rep = cublastp_report
        assert sum(rep.breakdown.values()) == pytest.approx(rep.serial_ms, rel=1e-6)

    def test_overlap_never_negative(self, cublastp_report):
        _, rep = cublastp_report
        assert rep.overall_ms <= rep.serial_ms + 1e-9
        assert rep.overlap_saved_ms >= 0

    def test_all_five_kernels_profiled(self, cublastp_report):
        _, rep = cublastp_report
        assert set(rep.gpu.profiles) == {
            "hit_detection",
            "hit_assembling",
            "hit_sorting",
            "hit_filtering",
            "ungapped_extension",
        }
        for p in rep.gpu.profiles.values():
            assert p.elapsed_ms() >= 0

    def test_transfers_positive(self, cublastp_report):
        _, rep = cublastp_report
        assert rep.h2d_ms > 0
        assert rep.d2h_ms > 0
        assert rep.gpu.h2d_bytes > rep.gpu.d2h_bytes  # db up, extensions back

    def test_counts_flow(self, cublastp_report):
        res, rep = cublastp_report
        assert rep.gpu.num_seeds < rep.gpu.num_hits
        assert len(rep.gpu.extensions) <= rep.gpu.num_seeds
        assert res.num_hits == rep.gpu.num_hits


class TestPipelineSchedule:
    def test_full_overlap_bound(self):
        # GPU-bound: total = h2d of first block + gpu total + tail.
        share = np.full(4, 0.25)
        t = pipeline_schedule(share, 100.0, 8.0, 4.0, np.full(4, 1.0))
        assert t == pytest.approx(2.0 + 100.0 + 1.0 + 1.0, abs=0.5)

    def test_cpu_bound_pipeline(self):
        share = np.full(4, 0.25)
        t = pipeline_schedule(share, 4.0, 1.0, 1.0, np.full(4, 50.0))
        # CPU dominates: ~ first block reaching CPU + 4 * 50
        assert 200 < t < 210

    def test_single_block_is_serial(self):
        t = pipeline_schedule(np.array([1.0]), 10.0, 2.0, 3.0, np.array([5.0]))
        assert t == pytest.approx(20.0)


class TestCpuPhases:
    def test_thread_scaling_monotone(self, small_pipeline, small_db, small_cutoffs):
        exts, _, _ = swept(small_pipeline, small_db, small_cutoffs)
        times = [
            run_cpu_phases(small_pipeline, exts, small_db, small_cutoffs, t).total_ms
            for t in (1, 2, 4)
        ]
        assert times[0] >= times[1] >= times[2]

    def test_results_independent_of_threads(self, small_pipeline, small_db, small_cutoffs):
        exts, _, _ = swept(small_pipeline, small_db, small_cutoffs)
        r1 = run_cpu_phases(small_pipeline, exts, small_db, small_cutoffs, 1)
        r4 = run_cpu_phases(small_pipeline, exts, small_db, small_cutoffs, 4)
        assert [a.score for a in r1.alignments] == [a.score for a in r4.alignments]


class TestCrossImplementationShape:
    """The headline orderings of Fig. 18/19 at test scale."""

    def test_critical_phase_ordering(self, small_query, small_params, small_db):
        _, fsa_t, _ = FsaBlast(small_query, small_params).search_with_timing(small_db)
        _, cu = CuBlastp(small_query, small_params).search_with_report(small_db)
        _, cuda = CudaBlastp(small_query, small_params).search_with_report(small_db)
        _, gpu = GpuBlastp(small_query, small_params).search_with_report(small_db)
        assert cu.gpu.critical_ms < gpu.critical_ms < cuda.critical_ms < fsa_t.critical_ms

    def test_fine_grained_profiler_wins(self, small_query, small_params, small_db):
        """Fig. 19: cuBLASTP kernels beat the coarse kernel on load
        efficiency and divergence."""
        _, cu = CuBlastp(small_query, small_params).search_with_report(small_db)
        _, cuda = CudaBlastp(small_query, small_params).search_with_report(small_db)
        hit = cu.gpu.profiles["hit_detection"]
        assert hit.global_load_efficiency > 3 * cuda.kernel.global_load_efficiency
        assert hit.divergence_overhead < cuda.kernel.divergence_overhead

    def test_readonly_cache_speeds_hit_detection(self, small_query, small_params, small_db):
        """Fig. 17: hierarchical buffering always helps."""
        with_cache = CuBlastp(small_query, small_params).search_with_report(small_db)[1]
        without = CuBlastp(
            small_query, small_params, CuBlastpConfig(use_readonly_cache=False)
        ).search_with_report(small_db)[1]
        assert (
            with_cache.gpu.kernel_ms("hit_detection")
            < without.gpu.kernel_ms("hit_detection")
        )


class TestCoarseKernelCounters:
    """The coarse baselines' kernel counters are pinned on the small
    fixture: the fused kernel shares its x-drop walk and word score with
    the fine-grained kernels, and that sharing must not move a single
    issue slot, transaction or divergent branch."""

    PINNED = {
        CudaBlastp: dict(
            issue_cycles=518291,
            instructions=83561,
            active_lane_slots=244786,
            divergent_branches=2101,
            global_load_transactions=65830,
            global_load_requested_bytes=207154,
            global_store_transactions=5193,
            atomic_ops=179,
            readonly_hits=0,
            readonly_misses=0,
        ),
        GpuBlastp: dict(
            issue_cycles=511022,
            instructions=76232,
            active_lane_slots=234158,
            divergent_branches=1971,
            global_load_transactions=65314,
            global_load_requested_bytes=207154,
            global_store_transactions=5223,
            atomic_ops=241,
            readonly_hits=0,
            readonly_misses=0,
        ),
    }

    @pytest.mark.parametrize("cls", [CudaBlastp, GpuBlastp], ids=lambda c: c.__name__)
    def test_counters_match_pinned(self, cls, small_query, small_params, small_db):
        _, rep = cls(small_query, small_params).search_with_report(small_db)
        got = {name: getattr(rep.kernel, name) for name in self.PINNED[cls]}
        assert got == self.PINNED[cls]
