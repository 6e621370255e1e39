"""Unit tests for cuBLASTP's data structures and policies."""

import numpy as np
import pytest

from repro.cublastp import (
    CuBlastpConfig,
    ExtensionMode,
    MatrixMode,
    bin_of_diagonal,
    choose_matrix_placement,
    pack_hits,
    unpack_hits,
)
from repro.cublastp.ext_window import WalkState, chunk_update
from repro.cublastp.session import pack_word_entries
from repro.errors import ConfigError, SequenceError
from repro.gpusim import K20C


class TestPacking:
    def test_roundtrip(self):
        seq = np.array([0, 5, 2**30])
        diag = np.array([0, 1000, 65535])
        pos = np.array([0, 7, 65535])
        s, d, p = unpack_hits(pack_hits(seq, diag, pos))
        assert np.array_equal(s, seq)
        assert np.array_equal(d, diag)
        assert np.array_equal(p, pos)

    def test_sort_orders_by_seq_then_diag_then_pos(self):
        packed = pack_hits(
            np.array([1, 0, 0, 0]),
            np.array([0, 5, 5, 2]),
            np.array([0, 9, 3, 1]),
        )
        order = np.argsort(packed)
        s, d, p = unpack_hits(packed[order])
        assert list(zip(s, d, p)) == [(0, 2, 1), (0, 5, 3), (0, 5, 9), (1, 0, 0)]

    @pytest.mark.parametrize(
        "seq,diag,pos",
        [
            (0, 1 << 16, 0),       # diagonal overflows 16 bits
            (0, 0, 1 << 16),       # position overflows
            (1 << 31, 0, 0),       # sequence id overflows
            (0, -1, 0),            # negative diagonal
        ],
    )
    def test_field_overflow_rejected(self, seq, diag, pos):
        with pytest.raises(SequenceError):
            pack_hits(np.array([seq]), np.array([diag]), np.array([pos]))

    def test_nr_longest_sequence_fits(self):
        # The paper's argument: NR's longest sequence is 36,805 letters.
        pack_hits(np.array([0]), np.array([36805]), np.array([36805]))

    def test_bin_of_diagonal(self):
        assert bin_of_diagonal(np.array([0, 127, 128, 300]), 128).tolist() == [0, 127, 0, 44]


class TestWordEntries:
    def test_pack_word_entries_roundtrip(self, tiny_pipeline):
        nbr = tiny_pipeline.neighborhood
        entries = pack_word_entries(nbr)
        off = entries >> 20
        cnt = entries & ((1 << 20) - 1)
        assert np.array_equal(off, nbr.offsets[:-1])
        assert np.array_equal(cnt, np.diff(nbr.offsets))


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = CuBlastpConfig()
        assert cfg.num_bins == 128
        assert cfg.extension_mode is ExtensionMode.WINDOW
        assert cfg.window_size == 8
        assert cfg.use_readonly_cache

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_bins": 0},
            {"bin_capacity": 0},
            {"matrix_mode": "nope"},
            {"window_size": 5},
            {"cpu_threads": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            CuBlastpConfig(**kwargs)


class TestMatrixPlacement:
    def test_short_query_auto_pssm(self):
        p = choose_matrix_placement("auto", 127, K20C)
        assert p.mode is MatrixMode.PSSM_SHARED
        assert p.loads_per_score == 1
        assert p.shared_bytes == 127 * 64

    def test_medium_query_auto_blosum(self):
        # 517 residues: fits the 48 kB limit but starves occupancy, so
        # auto follows the paper's measured choice of BLOSUM62.
        p = choose_matrix_placement("auto", 517, K20C)
        assert p.mode is MatrixMode.BLOSUM_SHARED
        assert p.loads_per_score == 2

    def test_forced_pssm_stays_shared_until_768(self):
        assert choose_matrix_placement("pssm", 768, K20C).mode is MatrixMode.PSSM_SHARED
        assert choose_matrix_placement("pssm", 769, K20C).mode is MatrixMode.PSSM_GLOBAL

    def test_forced_blosum(self):
        p = choose_matrix_placement("blosum", 127, K20C)
        assert p.mode is MatrixMode.BLOSUM_SHARED
        assert p.shared_bytes == 32 * 32 * 2 + 127

    def test_reserve_bytes_respected(self):
        p = choose_matrix_placement("pssm", 700, K20C, reserve_bytes=8 * 1024)
        assert p.mode is MatrixMode.PSSM_GLOBAL


class TestChunkWalk:
    """chunk_update must reproduce the scalar x-drop walk exactly."""

    @staticmethod
    def scalar(deltas, x_drop):
        cur = best = best_steps = steps = 0
        for d in deltas:
            cur += int(d)
            steps += 1
            if cur > best:
                best = cur
                best_steps = steps
            if best - cur > x_drop:
                break
        return best, best_steps

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("wsize", [4, 8])
    def test_matches_scalar_random(self, seed, wsize):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 60))
        deltas = rng.integers(-6, 7, n).astype(np.int64)
        x_drop = int(rng.integers(3, 20))
        state = WalkState()
        for start in range(0, n, wsize):
            chunk = np.full(wsize, -(2**40), dtype=np.int64)
            seg = deltas[start : start + wsize]
            chunk[: seg.size] = seg
            chunk_update(state, chunk, x_drop)
            if state.stopped:
                break
        expect_best, expect_steps = self.scalar(deltas, x_drop)
        got_best = state.best if state.best > 0 else 0
        got_steps = state.best_steps if state.best > 0 else 0
        eb = expect_best if expect_best > 0 else 0
        es = expect_steps if expect_best > 0 else 0
        assert (got_best, got_steps) == (eb, es)

    def test_stopped_state_frozen(self):
        state = WalkState(stopped=True, best=5, best_steps=2)
        chunk_update(state, np.array([10, 10]), 100)
        assert state.best == 5

    def test_boundary_sentinel_stops(self):
        state = WalkState()
        chunk_update(state, np.array([3, -(2**40), 5, 5]), 10)
        assert state.stopped
        assert state.best == 3
