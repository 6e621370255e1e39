"""Unit tests for the packed SequenceDatabase."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.io import FastaRecord, SequenceDatabase


@pytest.fixture()
def db():
    return SequenceDatabase.from_strings(
        ["MKTAY", "AR", "NDCQEGHILK", "WWW"], ["a", "b", "c", "d"]
    )


class TestConstruction:
    def test_from_strings_lengths(self, db):
        assert np.array_equal(db.lengths, [5, 2, 10, 3])

    def test_from_records(self):
        recs = [FastaRecord("r1", "", "MK"), FastaRecord("r2", "", "AY")]
        db = SequenceDatabase.from_records(recs)
        assert db.identifiers == ["r1", "r2"]
        assert db.sequence_str(1) == "AY"

    def test_default_identifiers(self):
        db = SequenceDatabase.from_strings(["MK", "AR"])
        assert db.identifiers == ["seq0", "seq1"]

    def test_empty_database_rejected(self):
        with pytest.raises(SequenceError):
            SequenceDatabase.from_strings([])

    def test_empty_sequence_rejected(self):
        codes = np.zeros(2, dtype=np.uint8)
        offsets = np.array([0, 1, 1, 2], dtype=np.int64)
        with pytest.raises(SequenceError, match="empty sequences"):
            SequenceDatabase(codes, offsets)

    def test_bad_offsets_rejected(self):
        with pytest.raises(SequenceError):
            SequenceDatabase(np.zeros(4, dtype=np.uint8), np.array([0, 2], dtype=np.int64))

    def test_identifier_count_mismatch(self):
        with pytest.raises(SequenceError):
            SequenceDatabase.from_strings(["MK"], ["a", "b"])


class TestAccess:
    def test_sequence_roundtrip(self, db):
        assert db.sequence_str(0) == "MKTAY"
        assert db.sequence_str(2) == "NDCQEGHILK"

    def test_sequence_view_is_packed_slice(self, db):
        s = db.sequence(1)
        assert np.array_equal(s, db.codes[5:7])

    def test_out_of_range_index(self, db):
        with pytest.raises(IndexError):
            db.sequence(4)

    def test_codes_read_only(self, db):
        with pytest.raises(ValueError):
            db.codes[0] = 1

    def test_stats(self, db):
        st = db.stats()
        assert st.num_sequences == 4
        assert st.total_residues == 20
        assert st.max_length == 10
        assert st.min_length == 2
        assert st.mean_length == pytest.approx(5.0)

    def test_len(self, db):
        assert len(db) == 4


class TestTransforms:
    def test_subset_preserves_content(self, db):
        sub = db.subset(np.array([2, 0]))
        assert sub.sequence_str(0) == "NDCQEGHILK"
        assert sub.sequence_str(1) == "MKTAY"
        assert sub.identifiers == ["c", "a"]

    def test_blocks_cover_everything(self, db):
        blocks = db.blocks(2)
        assert sum(len(b) for b in blocks) == len(db)
        joined = [b.sequence_str(i) for b in blocks for i in range(len(b))]
        assert joined == [db.sequence_str(i) for i in range(len(db))]

    def test_blocks_more_than_sequences(self, db):
        blocks = db.blocks(10)
        assert sum(len(b) for b in blocks) == len(db)
        assert all(len(b) >= 1 for b in blocks)

    def test_blocks_balance_residues(self):
        db = SequenceDatabase.from_strings(["A" * 100] * 8)
        blocks = db.blocks(4)
        assert [int(b.codes.size) for b in blocks] == [200, 200, 200, 200]

    def test_blocks_invalid(self, db):
        with pytest.raises(ValueError):
            db.blocks(0)
