"""Unit tests for gapped x-drop extension."""

import numpy as np
import pytest

from repro.alphabet import encode
from repro.core.gapped import _half_extend, gapped_extend
from repro.matrices import BLOSUM62, build_pssm, match_mismatch_matrix
from tests.conftest import swept


def brute_force_half(scores, go, ge, x_drop):
    """Reference half-extension: full DP with explicit x-drop pruning.

    Computes every cell exactly (no windowing) and prunes a cell once it
    scores more than x_drop below the best seen so far (rows processed in
    order, best updated after each row).
    """
    n, m = scores.shape
    NEG = -(10**12)
    H = [[NEG] * (m + 1) for _ in range(n + 1)]
    E = [[NEG] * (m + 1) for _ in range(n + 1)]
    F = [[NEG] * (m + 1) for _ in range(n + 1)]
    H[0][0] = 0
    for j in range(1, m + 1):
        H[0][j] = -go - (j - 1) * ge
    best = 0
    # prune row 0 first
    for j in range(m + 1):
        if H[0][j] < best - x_drop:
            H[0][j] = NEG
    for i in range(1, n + 1):
        row_alive = False
        for j in range(m + 1):
            E[i][j] = max(H[i - 1][j] - go, E[i - 1][j] - ge)
            if j > 0:
                diag = H[i - 1][j - 1] + scores[i - 1][j - 1] if H[i - 1][j - 1] > NEG // 2 else NEG
                F[i][j] = max(H[i][j - 1] - go, F[i][j - 1] - ge)
                H[i][j] = max(diag, E[i][j], F[i][j])
            else:
                H[i][j] = E[i][j]
        row_best = max(H[i])
        best = max(best, row_best)
        for j in range(m + 1):
            if H[i][j] < best - x_drop:
                H[i][j] = NEG
            elif H[i][j] > NEG // 2:
                row_alive = True
        if not row_alive:
            break
    return best


class TestHalfExtend:
    def test_empty_dimensions(self):
        h = _half_extend(np.zeros((0, 5), dtype=np.int64), 11, 1, 38)
        assert h.best == 0 and h.cells == 0

    def test_perfect_diagonal(self):
        scores = np.full((6, 6), -4, dtype=np.int64)
        np.fill_diagonal(scores, 5)
        h = _half_extend(scores, 11, 1, 20)
        assert h.best == 30
        assert (h.best_i, h.best_j) == (6, 6)

    def test_gap_crossed_when_affordable(self):
        # Diagonal match for 3, then the partner skips one residue: the
        # optimum crosses a single gap (open 5, extend 1).
        n, m = 6, 7
        scores = np.full((n, m), -4, dtype=np.int64)
        for i in range(3):
            scores[i, i] = 5
        for i in range(3, 6):
            scores[i, i + 1] = 5
        h = _half_extend(scores, 5, 1, 30)
        assert h.best == 30 - 5  # six matches minus one gap open
        assert (h.best_i, h.best_j) == (6, 7)

    def test_xdrop_prunes_before_recovery(self):
        # all-negative start: alignment never beats empty.
        scores = np.full((10, 10), -4, dtype=np.int64)
        scores[8, 8] = 5
        h = _half_extend(scores, 11, 1, 6)
        assert h.best == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 12)), int(rng.integers(2, 12))
        scores = rng.integers(-6, 7, size=(n, m)).astype(np.int64)
        go, ge, X = 5, 2, 9
        got = _half_extend(scores, go, ge, X)
        assert got.best == brute_force_half(scores, go, ge, X)

    def test_cells_at_most_box(self):
        rng = np.random.default_rng(3)
        scores = rng.integers(-6, 7, size=(20, 20)).astype(np.int64)
        h = _half_extend(scores, 5, 1, 10)
        assert 0 < h.cells <= (h.reach_i + 1) * (h.reach_j + 1) + 21


class TestGappedExtend:
    def test_exact_match_score(self):
        mm = match_mismatch_matrix(5, -4)
        q = encode("MKTAYIAKQR")
        pssm = build_pssm(q, mm)
        g = gapped_extend(pssm, q, 0, 5, 5, 11, 1, 30)
        assert g.score == 50
        assert (g.query_start, g.query_end) == (0, 9)
        assert (g.subject_start, g.subject_end) == (0, 9)

    def test_single_insertion_in_subject(self):
        mm = match_mismatch_matrix(5, -4)
        q = encode("MKTAYIAKQR")
        s = encode("MKTAYWIAKQR")  # W inserted mid-way
        pssm = build_pssm(q, mm)
        g = gapped_extend(pssm, s, 0, 2, 2, 5, 1, 40)
        # 10 matches (50) minus one 1-residue gap (5+... open=5 covers it)
        assert g.score == 50 - 5
        assert g.subject_end == 10

    def test_seed_pair_counted_once(self):
        mm = match_mismatch_matrix(5, -4)
        q = encode("MMM")
        pssm = build_pssm(q, mm)
        g = gapped_extend(pssm, q, 0, 1, 1, 11, 1, 20)
        assert g.score == 15  # not 20: seed pair belongs to one half only

    def test_bad_seed_rejected(self):
        pssm = build_pssm(encode("MKT"), BLOSUM62)
        with pytest.raises(ValueError):
            gapped_extend(pssm, encode("MKT"), 0, 5, 0, 11, 1, 20)

    def test_box_contains_alignment(self, tiny_pipeline, tiny_db, tiny_cutoffs):
        exts, _, _ = swept(tiny_pipeline, tiny_db, tiny_cutoffs)
        gapped, _ = tiny_pipeline.phase_gapped(exts, tiny_db, tiny_cutoffs)
        assert gapped, "workload should trigger gapped extensions"
        for g in gapped:
            assert g.box_query_start <= g.query_start <= g.query_end <= g.box_query_end
            assert g.box_subject_start <= g.subject_start
            assert g.subject_end <= g.box_subject_end
            assert g.cells > 0

    def test_gapped_score_at_least_seed_neighborhood(self, tiny_pipeline, tiny_db, tiny_cutoffs):
        """A gapped extension through a high-scoring ungapped segment's
        midpoint scores at least the segment's own diagonal run through
        that point (the DP can always follow the ungapped path)."""
        exts, _, _ = swept(tiny_pipeline, tiny_db, tiny_cutoffs)
        triggered = [e for e in exts if e.score >= tiny_cutoffs.gap_trigger]
        gapped, _ = tiny_pipeline.phase_gapped(exts, tiny_db, tiny_cutoffs)
        if triggered and gapped:
            assert max(g.score for g in gapped) >= max(e.score for e in triggered) * 0.8
