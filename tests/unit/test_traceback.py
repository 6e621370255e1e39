"""Unit tests for alignment with traceback."""

import numpy as np
import pytest

from repro.alphabet import decode, encode
from repro.core.gapped_batch import batch_gapped_extend, batch_half_extend
from repro.core.traceback import batch_traceback_align, traceback_align
from repro.io.database import SequenceDatabase
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
    def _inputs(self, seeds=40, n=200, m=250):
        """Extensions from ``seeds`` seeds into random subjects, each of
        which is a mutated copy of a stretch of the query."""
        rng = np.random.default_rng(3)
        letters = list("ARNDCQEGHILKMFPSTWYV")
        query = encode("".join(rng.choice(letters, n + 50)))
        subjects = []
        for a in rng.integers(0, 50, seeds):
            s = query[a : a + m].copy()
            flip = rng.random(s.size) < 0.2
            s[flip] = rng.integers(0, 20, int(flip.sum()))
            subjects.append(s)
        db = SequenceDatabase.from_strings([decode(s) for s in subjects])
        seq_ids = np.arange(seeds, dtype=np.int64)
        seed = np.full(seeds, 20, dtype=np.int64)
        return build_pssm(query, BLOSUM62), query, db, seq_ids, seed

    def test_phase3_keeps_a_byte_per_computed_cell(self):
        """What phase 4 walks is one direction byte per cell phase 3
        computed, plus two guard bytes per lane row, not a box, and the
        bytes are not copied per lane."""
        pssm, query, db, seq_ids, seed = self._inputs()
        table = build_score_table(pssm)
        q_anchor = np.concatenate([seed + 1, seed])
        s_anchor = np.concatenate([db.offsets[seq_ids] + seed + 1, db.offsets[seq_ids] + seed])
        step = np.repeat(np.array([-1, 1]), seq_ids.size)
        n_rows = np.concatenate([seed + 1, query.size - seed - 1])
        m_cols = np.concatenate([seed + 1, db.offsets[seq_ids + 1] - db.offsets[seq_ids] - seed - 1])
        *fields, paths = batch_half_extend(
            table, db.codes, q_anchor, step, s_anchor, step, n_rows, m_cols, 11, 1, 38
        )
        best_i, reach_i, cells = fields[1], fields[3], fields[5]
        rows = paths.records.shape[1]
        assert rows == int(reach_i.sum())
        assert paths.dirs.dtype == np.uint8
        # ``cells`` also counts each lane's row 0, which needs no bytes.
        row0 = np.minimum(m_cols, 1 + (38 - 11) // 1) + 1
        assert paths.dirs.size == int((cells - row0).sum()) + 2 * rows
        assert int(best_i.max()) > 100  # long paths, so the test is not vacuous
        # Lanes no walk will read hold no path, and the kept ones share
        # the call's buffer rather than copies of it.
        keep = np.arange(best_i.size) % 2 == 0
        halves = paths.select(keep)
        assert halves[1] is None
        assert all(h.dirs is paths.dirs for h in halves[::2])

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_subjects_must_match_boxes(self, extra):
        pssm, query, db, seq_ids, seed = self._inputs(seeds=3, n=20, m=20)
        seed = np.full(3, 5, dtype=np.int64)
        gapped = batch_gapped_extend(
            build_score_table(pssm), db, seq_ids, seed, seed, 11, 1, 38, 0
        )
        subjects = [db.sequence(g.seq_id) for g in gapped]
        subjects = subjects[:extra] if extra < 0 else subjects + subjects[:extra]
        with pytest.raises(ValueError):
            batch_traceback_align(pssm, query, subjects, gapped)
