"""Integration tests: GPU kernels vs the CPU reference, phase by phase."""

import numpy as np
import pytest

from repro.cublastp import CuBlastpConfig, ExtensionMode
from repro.cublastp.extension import run_extension
from repro.cublastp.filter_kernel import run_filter
from repro.cublastp.hit_detection_kernel import run_hit_detection
from repro.cublastp.session import DeviceSession
from repro.cublastp.sort_kernel import run_assemble, run_segmented_sort
from repro.cublastp.binning import unpack_hits
from repro.errors import GpuSimError
from repro.seeding import QueryDFA
from repro.verify.oracle import detect_hits

from tests.conftest import extension_keys, seed_flags, swept


@pytest.fixture(scope="module")
def session_factory(small_pipeline, small_db):
    dfa = QueryDFA(small_pipeline.neighborhood)

    def make(config=None):
        return DeviceSession(
            small_pipeline.query_codes,
            dfa,
            small_db,
            config or CuBlastpConfig(),
            small_pipeline.params.matrix,
        )

    return make


@pytest.fixture(scope="module")
def gpu_stages(session_factory, small_pipeline, small_db, small_cutoffs):
    """Run the whole GPU phase chain once; several tests inspect it."""
    sess = session_factory()
    binned, p_hit = run_hit_detection(sess)
    binned, p_asm = run_assemble(binned, sess.device)
    sorted_b, p_sort = run_segmented_sort(binned, sess.device)
    seeds, p_filter = run_filter(
        sess, sorted_b, small_pipeline.params.word_length,
        small_pipeline.params.two_hit_window,
    )
    exts, p_ext = run_extension(
        sess, seeds, small_cutoffs.x_drop_ungapped, small_pipeline.params.word_length
    )
    return {
        "session": sess,
        "binned": binned,
        "sorted": sorted_b,
        "seeds": seeds,
        "extensions": exts,
        "profiles": {
            "hit": p_hit, "asm": p_asm, "sort": p_sort,
            "filter": p_filter, "ext": p_ext,
        },
    }


class TestHitDetectionKernel:
    def test_hit_set_identical_to_reference(self, gpu_stages, small_pipeline, small_db):
        ref = detect_hits(small_pipeline.neighborhood, small_db)
        ref_set = set(
            zip(ref.seq_id.tolist(), ref.query_pos.tolist(), ref.subject_pos.tolist())
        )
        assert gpu_stages["binned"].as_hit_tuples() == ref_set

    def test_hits_land_in_correct_bins(self, gpu_stages):
        binned = gpu_stages["binned"]
        nb = binned.num_bins
        for k in range(binned.num_segments):
            seg = binned.segment(k)
            if seg.size:
                _, diag, _ = unpack_hits(seg)
                assert np.all(diag % nb == k % nb)

    def test_profile_sane(self, gpu_stages):
        p = gpu_stages["profiles"]["hit"]
        assert p.elapsed_ms() > 0
        assert 0.4 < p.global_load_efficiency <= 1.0  # tiled sequence loads
        assert p.divergent_branches > 0  # the hits inner loop diverges
        assert p.readonly_misses > 0  # DFA rides the read-only cache

    def test_bin_overflow_raises(self, small_pipeline, small_db):
        dfa = QueryDFA(small_pipeline.neighborhood)
        sess = DeviceSession(
            small_pipeline.query_codes, dfa, small_db,
            CuBlastpConfig(bin_capacity=1, num_bins=4),
            small_pipeline.params.matrix,
        )
        with pytest.raises(GpuSimError, match="bin overflow"):
            run_hit_detection(sess)

    def test_relaunch_sweep_reuses_buffers(self, session_factory):
        """Re-launching within one session must not grow the heap.

        The working buffers (``bins`` / ``bin_tops``) used to get a fresh
        ``name.N`` allocation per launch; a 10-relaunch sweep now reuses
        the first launch's allocations (identical output, stable buffer
        count, no simulated-memory growth).
        """
        sess = session_factory()
        first, _ = run_hit_detection(sess)
        buffer_count = len(sess.ctx.memory.buffers)
        used_bytes = sess.ctx.memory.used_bytes
        for _ in range(10):
            binned, _ = run_hit_detection(sess)
            assert len(sess.ctx.memory.buffers) == buffer_count
            assert sess.ctx.memory.used_bytes == used_bytes
            np.testing.assert_array_equal(binned.packed, first.packed)
            np.testing.assert_array_equal(binned.segment_offsets, first.segment_offsets)


class TestSortFilter:
    def test_segments_sorted(self, gpu_stages):
        s = gpu_stages["sorted"]
        assert s.is_sorted
        for k in range(s.num_segments):
            seg = s.segment(k)
            assert np.all(np.diff(seg) >= 0)

    def test_sorting_preserves_multiset(self, gpu_stages):
        assert np.array_equal(
            np.sort(gpu_stages["binned"].packed), np.sort(gpu_stages["sorted"].packed)
        )

    def test_filter_matches_reference_seed_mask(
        self, gpu_stages, small_pipeline, small_db
    ):
        ref = detect_hits(small_pipeline.neighborhood, small_db)
        mask = seed_flags(
            ref, small_pipeline.params.two_hit_window,
            small_pipeline.params.word_length,
        )
        ref_seeds = set(
            zip(
                ref.seq_id[mask].tolist(),
                ref.query_pos[mask].tolist(),
                ref.subject_pos[mask].tolist(),
            )
        )
        seeds = gpu_stages["seeds"]
        s, d, p = unpack_hits(seeds.packed)
        q = p - (d - seeds.query_length)
        assert set(zip(s.tolist(), q.tolist(), p.tolist())) == ref_seeds

    def test_survival_ratio_in_paper_band(self, gpu_stages):
        ratio = gpu_stages["profiles"]["filter"].extra["survival_ratio"]
        assert 0.03 <= ratio <= 0.13  # §3.3: 5-11 %

    def test_seed_groups_are_single_diagonal(self, gpu_stages):
        seeds = gpu_stages["seeds"]
        for g in range(seeds.num_groups):
            seg = seeds.packed[seeds.group_offsets[g] : seeds.group_offsets[g + 1]]
            keys = np.unique(seg >> 16)
            assert keys.size == 1
            # ascending subject positions within the group
            assert np.all(np.diff(seg & 0xFFFF) > 0)


class TestExtensionKernels:
    def test_reference_equality_all_modes(
        self, session_factory, gpu_stages, small_pipeline, small_db, small_cutoffs
    ):
        ref_exts, _, _ = swept(small_pipeline, small_db, small_cutoffs)
        ref_keys = extension_keys(ref_exts)
        for mode in ExtensionMode:
            sess = session_factory(CuBlastpConfig(extension_mode=mode))
            binned, _ = run_hit_detection(sess)
            binned, _ = run_assemble(binned, sess.device)
            sorted_b, _ = run_segmented_sort(binned, sess.device)
            seeds, _ = run_filter(
                sess, sorted_b, small_pipeline.params.word_length,
                small_pipeline.params.two_hit_window,
            )
            exts, _ = run_extension(
                sess, seeds, small_cutoffs.x_drop_ungapped,
                small_pipeline.params.word_length,
            )
            assert extension_keys(exts) == ref_keys, mode

    def test_window_mode_least_divergent(
        self, session_factory, small_pipeline, small_cutoffs
    ):
        """Fig. 16(b): window-based extension has the lowest divergence."""
        overhead = {}
        for mode in ExtensionMode:
            sess = session_factory(CuBlastpConfig(extension_mode=mode))
            binned, _ = run_hit_detection(sess)
            binned, _ = run_assemble(binned, sess.device)
            sorted_b, _ = run_segmented_sort(binned, sess.device)
            seeds, _ = run_filter(
                sess, sorted_b, small_pipeline.params.word_length,
                small_pipeline.params.two_hit_window,
            )
            _, prof = run_extension(
                sess, seeds, small_cutoffs.x_drop_ungapped,
                small_pipeline.params.word_length,
            )
            overhead[mode] = prof.divergence_overhead
        assert overhead[ExtensionMode.WINDOW] < overhead[ExtensionMode.HIT]
        assert overhead[ExtensionMode.WINDOW] < overhead[ExtensionMode.DIAGONAL]

    def test_hit_mode_reports_redundancy(
        self, session_factory, small_pipeline, small_cutoffs
    ):
        sess = session_factory(CuBlastpConfig(extension_mode=ExtensionMode.HIT))
        binned, _ = run_hit_detection(sess)
        binned, _ = run_assemble(binned, sess.device)
        sorted_b, _ = run_segmented_sort(binned, sess.device)
        seeds, _ = run_filter(
            sess, sorted_b, small_pipeline.params.word_length,
            small_pipeline.params.two_hit_window,
        )
        _, prof = run_extension(
            sess, seeds, small_cutoffs.x_drop_ungapped,
            small_pipeline.params.word_length,
        )
        assert prof.extra["redundant_extensions"] >= 0
        assert prof.extra["num_extensions"] + prof.extra["redundant_extensions"] == len(seeds)
