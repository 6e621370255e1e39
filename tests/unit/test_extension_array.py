"""Unit tests for the columnar extension container (ExtensionArray)."""

import numpy as np
import pytest

from repro.core.results import ExtensionArray, UngappedExtension


def sample_records():
    # Deliberately unsorted, with ties on every prefix of the sort key.
    return [
        UngappedExtension(2, 5, 9, 7, 11, 30),
        UngappedExtension(0, 0, 4, 3, 7, 12),
        UngappedExtension(2, 5, 9, 7, 11, 18),  # ties all but score
        UngappedExtension(0, 0, 2, 3, 5, 40),
        UngappedExtension(1, 8, 10, 0, 2, 7),
    ]


def assert_same_rows(ext: ExtensionArray, records):
    assert len(ext) == len(records)
    assert list(ext) == list(records)


class TestRoundTrips:
    def test_records_round_trip(self):
        recs = sample_records()
        ext = ExtensionArray.from_records(recs)
        assert_same_rows(ext, recs)
        assert [e for e in ext] == recs  # __iter__ shim
        assert ext[3] == recs[3]

    def test_columns_round_trip(self):
        ext = ExtensionArray.from_records(sample_records())
        cols = ext.to_columns()
        assert all(isinstance(c, list) for c in cols)
        assert all(isinstance(v, int) for c in cols for v in c)
        back = ExtensionArray.from_columns(cols)
        assert_same_rows(back, list(ext))

    def test_empty_round_trip(self):
        ext = ExtensionArray.empty()
        assert len(ext) == 0 and not ext
        assert list(ExtensionArray.from_columns(ext.to_columns())) == []
        assert list(ExtensionArray.from_records([])) == []

    def test_from_columns_wrong_arity(self):
        with pytest.raises(ValueError):
            ExtensionArray.from_columns([[1], [2], [3]])


class TestValidation:
    def test_misaligned_columns_rejected(self):
        z = np.zeros(2, dtype=np.int64)
        with pytest.raises(ValueError):
            ExtensionArray(z, z, z, np.zeros(3, dtype=np.int64), z, z)

    def test_off_diagonal_rejected(self):
        # Same rule the record constructor enforces, columnwise.
        one = np.array([0], dtype=np.int64)
        with pytest.raises(ValueError):
            ExtensionArray(one, one, one + 5, one, one + 4, one)

    def test_columns_coerced_to_int64(self):
        ext = ExtensionArray(
            np.array([0], dtype=np.int32), [0], [4], [1], [5], [9]
        )
        for name in ExtensionArray.FIELDS:
            assert getattr(ext, name).dtype == np.int64


class TestTransforms:
    def test_take_mask_and_indices(self):
        recs = sample_records()
        ext = ExtensionArray.from_records(recs)
        mask = ext.score >= 18
        assert_same_rows(ext.take(mask), [r for r in recs if r.score >= 18])
        idx = np.array([4, 0])
        assert_same_rows(ext.take(idx), [recs[4], recs[0]])

    def test_concat_preserves_order(self):
        recs = sample_records()
        a = ExtensionArray.from_records(recs[:2])
        b = ExtensionArray.from_records(recs[2:])
        assert_same_rows(ExtensionArray.concat([a, ExtensionArray.empty(), b]), recs)
        assert list(ExtensionArray.concat([])) == []

    def test_with_seq_offset(self):
        recs = sample_records()
        ext = ExtensionArray.from_records(recs)
        shifted = ext.with_seq_offset(10)
        assert shifted.seq_id.tolist() == [r.seq_id + 10 for r in recs]
        assert ext.with_seq_offset(0) is ext

    def test_with_seq_ids(self):
        ext = ExtensionArray.from_records(sample_records())
        remap = np.array([100, 101, 102], dtype=np.int64)
        out = ext.with_seq_ids(remap[ext.seq_id])
        assert out.seq_id.tolist() == [102, 100, 102, 100, 101]
        assert out.score.tolist() == ext.score.tolist()

    def test_sorted_full_matches_record_sort(self):
        # The dataclass order compares all six fields lexicographically;
        # sorted_full must reproduce it exactly, including the tie rows.
        recs = sample_records()
        ext = ExtensionArray.from_records(recs).sorted_full()
        assert list(ext) == sorted(recs)

    def test_lengths(self):
        recs = sample_records()
        ext = ExtensionArray.from_records(recs)
        assert ext.lengths.tolist() == [r.length for r in recs]
