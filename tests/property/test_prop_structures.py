"""Property-based tests on core data structures (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import ALPHABET, decode, encode
from repro.cublastp.binning import pack_hits, unpack_hits
from repro.gpusim import K20C, ReadOnlyCache
from repro.gpusim.memory import coalesce_transactions
from repro.io import FastaRecord, read_fasta


protein_text = st.text(alphabet=ALPHABET, min_size=1, max_size=200)


class TestAlphabetProperties:
    @given(protein_text)
    def test_encode_decode_roundtrip(self, s):
        assert decode(encode(s)) == s

    @given(protein_text)
    def test_encoding_is_length_preserving(self, s):
        assert encode(s).size == len(s)

    @given(st.text(min_size=0, max_size=100))
    def test_encode_never_crashes(self, s):
        codes = encode(s)
        assert codes.dtype == np.uint8
        assert codes.size == 0 or int(codes.max()) < len(ALPHABET)


class TestPackingProperties:
    hit_fields = st.tuples(
        st.integers(0, 2**31 - 1),  # seq id
        st.integers(0, 2**16 - 1),  # diagonal
        st.integers(0, 2**16 - 1),  # subject position
    )

    @given(st.lists(hit_fields, min_size=1, max_size=64))
    def test_roundtrip(self, hits):
        seq, diag, pos = (np.array(x) for x in zip(*hits))
        s, d, p = unpack_hits(pack_hits(seq, diag, pos))
        assert np.array_equal(s, seq)
        assert np.array_equal(d, diag)
        assert np.array_equal(p, pos)

    @given(st.lists(hit_fields, min_size=2, max_size=64, unique=True))
    def test_packed_order_is_lexicographic(self, hits):
        seq, diag, pos = (np.array(x) for x in zip(*hits))
        packed = pack_hits(seq, diag, pos)
        order = np.argsort(packed, kind="stable")
        triples = list(zip(seq[order], diag[order], pos[order]))
        assert triples == sorted(triples)


class TestFastaProperties:
    records = st.lists(
        st.tuples(
            st.text(alphabet="abcdefgh123_", min_size=1, max_size=12),
            protein_text,
        ),
        min_size=1,
        max_size=8,
    )

    @given(records, st.integers(1, 100))
    @settings(max_examples=30)
    def test_write_read_roundtrip(self, recs, width):
        records = [FastaRecord(f"id{i}", "", seq) for i, (_, seq) in enumerate(recs)]
        lines = []
        for r in records:
            lines.append(f">{r.identifier}")
            for start in range(0, len(r.sequence), width):
                lines.append(r.sequence[start : start + width])
        back = list(read_fasta(lines))
        assert back == records


class TestCoalescingProperties:
    @given(
        st.lists(st.integers(0, 10**6), min_size=1, max_size=32),
        st.sampled_from([1, 2, 4, 8]),
    )
    def test_bounds(self, elems, itemsize):
        addrs = np.array(sorted(set(elems)), dtype=np.int64) * itemsize
        tx = coalesce_transactions(addrs, itemsize, 128)
        # at least the bytes / line_size, at most two lines per element
        assert tx >= 1
        assert tx <= 2 * addrs.size
        span_lines = (addrs.max() + itemsize - 1) // 128 - addrs.min() // 128 + 1
        assert tx <= span_lines

    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=32))
    def test_monotone_under_subset(self, elems):
        addrs = np.array(sorted(set(elems)), dtype=np.int64) * 4
        full = coalesce_transactions(addrs, 4, 128)
        half = coalesce_transactions(addrs[: max(1, addrs.size // 2)], 4, 128)
        assert half <= full


class TestCacheProperties:
    @given(st.lists(st.integers(0, 5000), min_size=1, max_size=300))
    def test_hits_plus_misses_equals_accesses(self, lines):
        c = ReadOnlyCache(K20C)
        total = 0
        for line in lines:
            h, m = c.access_lines([line])
            assert h + m == 1
            total += 1
        assert c.hits + c.misses == total

    @given(st.lists(st.integers(0, 50), min_size=1, max_size=100))
    def test_small_working_set_all_hits_after_warmup(self, lines):
        # 51 distinct lines always fit a 384-line cache: after one touch
        # each, everything hits.
        c = ReadOnlyCache(K20C)
        for line in set(lines):
            c.access_lines([line])
        c.hits = c.misses = 0
        for line in lines:
            c.access_lines([line])
        assert c.misses == 0

    @given(st.integers(1, 8), st.lists(st.integers(0, 10**4), min_size=1, max_size=100))
    def test_repeat_access_hits(self, ways, lines):
        c = ReadOnlyCache(K20C, ways=ways)
        for line in lines:
            c.access_lines([line])
            h, _ = c.access_lines([line])  # immediate re-touch always hits
            assert h == 1


class TestDatabaseViewProperties:
    """Any view's local reads equal the parent's reads at the mapped ids."""

    dbs = st.lists(protein_text, min_size=1, max_size=20)

    @given(dbs, st.data())
    @settings(max_examples=60)
    def test_view_sequences_match_parent_via_to_global(self, seqs, data):
        from repro.io import SequenceDatabase

        db = SequenceDatabase.from_strings(seqs)
        start = data.draw(st.integers(0, len(db) - 1))
        stop = data.draw(st.integers(start + 1, len(db)))
        v = db.view(start, stop)
        assert np.shares_memory(v.codes, db.codes) or v is db
        for i in range(len(v)):
            g = start + i
            assert np.array_equal(v.sequence(i), db.sequence(g))
            assert v.identifier(i) == db.identifier(g)

    @given(dbs, st.data())
    @settings(max_examples=60)
    def test_subset_gather_matches_per_sequence_reads(self, seqs, data):
        from repro.io import SequenceDatabase

        db = SequenceDatabase.from_strings(seqs)
        indices = data.draw(
            st.lists(st.integers(0, len(db) - 1), min_size=1, max_size=12)
        )
        sub = db.subset(np.asarray(indices, dtype=np.int64))
        assert len(sub) == len(indices)
        for local, g in enumerate(indices):
            assert np.array_equal(sub.sequence(local), db.sequence(g))

    @given(dbs, st.integers(1, 6))
    @settings(max_examples=60)
    def test_blocks_tile_the_parent(self, seqs, num_blocks):
        from repro.io import SequenceDatabase

        db = SequenceDatabase.from_strings(seqs)
        blocks = db.blocks(num_blocks)
        assert sum(len(b) for b in blocks) == len(db)
        # Each block starts where the one before it stopped.
        starts = [getattr(b, "start", 0) for b in blocks]
        assert starts == db.block_bounds(num_blocks)[:-1].tolist()
        total = sum(int(b.codes.size) for b in blocks)
        assert total == int(db.codes.size)
