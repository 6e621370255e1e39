"""Unit tests for alignment with traceback."""

import tracemalloc

import numpy as np
import pytest

from repro.alphabet import encode
from repro.core.traceback import batch_traceback_align, traceback_align
from repro.matrices import BLOSUM62, build_pssm, build_score_table, match_mismatch_matrix


def align(query, subject, matrix=None, go=5, ge=1, box=None):
    matrix = matrix or match_mismatch_matrix(5, -4)
    q, s = encode(query), encode(subject)
    pssm = build_pssm(q, matrix)
    box = box or (0, q.size - 1, 0, s.size - 1)
    return traceback_align(pssm, q, s, box, go, ge)


class TestBasicAlignments:
    def test_identical_sequences(self):
        tb = align("MKTAYIAK", "MKTAYIAK")
        assert tb.score == 40
        assert tb.aligned_query == "MKTAYIAK"
        assert tb.aligned_subject == "MKTAYIAK"
        assert tb.midline == "MKTAYIAK"
        assert tb.identities == 8 and tb.gaps == 0

    def test_substitution_midline(self):
        tb = align("MKTAY", "MKWAY")
        assert tb.aligned_query == "MKTAY"
        assert tb.midline[2] == " "  # T vs W scores negative
        assert tb.identities == 4

    def test_positive_substitution_marked_plus(self):
        # I vs L scores +2 in BLOSUM62 -> '+', not identity.
        tb = align("MKIAY", "MKLAY", matrix=BLOSUM62, go=11, ge=1)
        assert tb.midline[2] == "+"
        assert tb.positives == 5 and tb.identities == 4

    def test_gap_in_subject(self):
        tb = align("MKTAYIAK", "MKTAIAK")  # Y deleted
        assert tb.aligned_subject == "MKTA-IAK"
        assert tb.aligned_query == "MKTAYIAK"
        assert tb.gaps == 1
        assert tb.score == 7 * 5 - 5  # seven matched pairs minus one gap open

    def test_gap_in_query(self):
        tb = align("MKTAIAK", "MKTAYIAK")
        assert tb.aligned_query == "MKTA-IAK"
        assert tb.gaps == 1

    def test_affine_prefers_one_long_gap(self):
        # Deleting three adjacent residues: one open + two extends (5+1+1)
        # beats separate opens.
        tb = align("MKTAYWIAKQR", "MKTIAKQR", go=5, ge=1)
        assert "---" in tb.aligned_subject
        assert tb.score == 8 * 5 - (5 + 1 + 1)
        assert tb.gaps == 3

    def test_local_alignment_trims_junk(self):
        tb = align("CCCCMKTAYIAKCCCC", "WWWWMKTAYIAKWWWW")
        assert tb.aligned_query == "MKTAYIAK"
        assert tb.query_start == 4 and tb.query_end == 11
        assert tb.subject_start == 4 and tb.subject_end == 11

    def test_no_positive_alignment_returns_none(self):
        assert align("MKT", "WWW") is None

    def test_box_restricts_search(self):
        # Alignment exists outside the box; inside the box only junk.
        tb = align("MKTAYIAK" + "C" * 6, "MKTAYIAK" + "W" * 6, box=(8, 13, 8, 13))
        assert tb is None

    def test_coordinates_absolute_with_offset_box(self):
        tb = align("CCMKTAYCC", "WWMKTAYWW", box=(2, 6, 2, 6))
        assert (tb.query_start, tb.query_end) == (2, 6)
        assert (tb.subject_start, tb.subject_end) == (2, 6)

    def test_invalid_box_rejected(self):
        with pytest.raises(ValueError):
            align("MKT", "MKT", box=(0, 5, 0, 2))


class TestScoreConsistency:
    def test_score_equals_column_sum(self):
        """Alignment score must equal the sum of its column scores."""
        rng = np.random.default_rng(11)
        letters = list("ARNDCQEGHILKMFPSTWYV")
        for _ in range(10):
            qs = "".join(rng.choice(letters, 30))
            ss = "".join(rng.choice(letters, 30))
            tb = align(qs, ss, matrix=BLOSUM62, go=11, ge=1)
            if tb is None:
                continue
            q, s = encode(qs), encode(ss)
            pssm = build_pssm(q, BLOSUM62)
            total = 0
            qpos = tb.query_start
            gap_dir = None  # direction of an open gap, or None
            for ca, cb in zip(tb.aligned_query, tb.aligned_subject):
                if ca == "-" or cb == "-":
                    direction = "q" if ca == "-" else "s"
                    total += -1 if gap_dir == direction else -11  # extend / open
                    gap_dir = direction
                    if ca != "-":
                        qpos += 1
                else:
                    total += int(pssm[encode(cb)[0], qpos])
                    qpos += 1
                    gap_dir = None
            assert total == tb.score


class TestBatchTraceback:
    def _inputs(self, boxes=40, n=200, m=250):
        rng = np.random.default_rng(3)
        letters = list("ARNDCQEGHILKMFPSTWYV")
        query = encode("".join(rng.choice(letters, n + 50)))
        subjects = [encode("".join(rng.choice(letters, m + 50))) for _ in range(boxes)]
        spans = [
            (int(a), int(a) + n - 1, int(b), int(b) + m - 1)
            for a, b in zip(rng.integers(0, 50, boxes), rng.integers(0, 50, boxes))
        ]
        return build_score_table(build_pssm(query, BLOSUM62)), query, subjects, spans

    def test_working_set_is_a_byte_per_cell(self):
        """~2 M box cells (two chunks) fill in well under 8 MB: one direction
        byte per cell plus rolling rows, not full score matrices."""
        table, query, subjects, boxes = self._inputs()
        batch_traceback_align(table, query, subjects, boxes, 11, 1)
        tracemalloc.start()
        try:
            batch_traceback_align(table, query, subjects, boxes, 11, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_subjects_must_match_boxes(self, extra):
        table, query, subjects, boxes = self._inputs(boxes=3, n=20, m=20)
        subjects = subjects[:extra] if extra < 0 else subjects + subjects[:extra]
        with pytest.raises(ValueError):
            batch_traceback_align(table, query, subjects, boxes, 11, 1)
