"""Unit tests for word enumeration and neighbourhood construction."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from repro.alphabet import ALPHABET, ALPHABET_SIZE, encode
from repro.engine.compiled import compile_query
from repro.errors import SequenceError
from repro.matrices import BLOSUM62, build_pssm, match_mismatch_matrix
from repro.seeding import (
    all_words,
    build_neighborhood,
    num_words,
    word_indices,
)
from repro.seeding import words as words_module


def widx(word: str) -> int:
    codes = encode(word)
    out = 0
    for c in codes:
        out = out * ALPHABET_SIZE + int(c)
    return out


class TestWords:
    def test_num_words(self):
        assert num_words(3) == ALPHABET_SIZE**3

    def test_all_words_roundtrip(self):
        words = all_words(2)
        assert words.shape == (ALPHABET_SIZE**2, 2)
        recomputed = words[:, 0].astype(np.int64) * ALPHABET_SIZE + words[:, 1]
        assert np.array_equal(recomputed, np.arange(ALPHABET_SIZE**2))

    def test_word_indices_known(self):
        assert list(word_indices(encode("ARND"), 3)) == [widx("ARN"), widx("RND")]

    def test_word_indices_short_sequence(self):
        assert word_indices(encode("AR"), 3).size == 0

    def test_word_indices_window_count(self):
        assert word_indices(encode("A" * 50), 3).size == 48


class TestNeighborhood:
    def test_self_words_present_for_blosum(self):
        # High-scoring query words (e.g. WWW scores 33) contain themselves.
        q = encode("WWWCW")
        nbr = build_neighborhood(q, BLOSUM62, threshold=11)
        assert 0 in nbr.positions_for_word(widx("WWW")).tolist()

    def test_low_scoring_self_word_excluded(self):
        # AAA self-scores 12 >= 11, but scores only 3 against SSS-like
        # thresholds; with a higher threshold it disappears.
        q = encode("AAAA")
        nbr = build_neighborhood(q, BLOSUM62, threshold=13)
        assert widx("AAA") not in {
            w
            for w in range(num_words())
            if nbr.positions_for_word(w).size
        }

    def test_threshold_monotonicity(self):
        q = encode("MKTAYIAKQRQISFVKSHFSRQ")
        low = build_neighborhood(q, BLOSUM62, threshold=10)
        high = build_neighborhood(q, BLOSUM62, threshold=13)
        assert high.total_entries < low.total_entries

    def test_positions_sorted_per_word(self):
        q = encode("WAWAWAWAW")
        nbr = build_neighborhood(q, BLOSUM62)
        for w in range(num_words()):
            pos = nbr.positions_for_word(w)
            assert np.all(np.diff(pos) > 0)

    def test_offsets_csr_consistent(self):
        q = encode("MKTAYIAKQR")
        nbr = build_neighborhood(q, BLOSUM62)
        assert nbr.offsets[0] == 0
        assert nbr.offsets[-1] == nbr.positions.size
        assert np.all(np.diff(nbr.offsets) >= 0)

    def test_brute_force_equivalence_small(self):
        # Exhaustive check against direct PSSM scoring on a short query.
        q = encode("WCAYK")
        matrix = BLOSUM62
        threshold = 12
        nbr = build_neighborhood(q, matrix, threshold=threshold)
        pssm = build_pssm(q, matrix)
        words = all_words(3)
        for w in range(0, num_words(), 997):  # sampled words
            expected = [
                p
                for p in range(3)
                if int(
                    pssm[words[w, 0], p]
                    + pssm[words[w, 1], p + 1]
                    + pssm[words[w, 2], p + 2]
                )
                >= threshold
            ]
            assert nbr.positions_for_word(w).tolist() == expected

    def test_match_matrix_neighborhood_is_exact_words(self):
        # With match=5/mismatch=-4 and threshold 15, only exact words pass.
        q = encode("MKTAY")
        nbr = build_neighborhood(q, match_mismatch_matrix(5, -4), threshold=15)
        assert nbr.total_entries == 3
        assert nbr.positions_for_word(widx("MKT")).tolist() == [0]
        assert nbr.positions_for_word(widx("KTA")).tolist() == [1]
        assert nbr.positions_for_word(widx("TAY")).tolist() == [2]

    def test_query_shorter_than_word_rejected(self):
        with pytest.raises(SequenceError):
            build_neighborhood(encode("MK"), BLOSUM62)

    def test_max_positions_per_word(self):
        q = encode("WWWW")
        nbr = build_neighborhood(q, BLOSUM62)
        assert int(np.diff(nbr.offsets).max()) >= 2

    def test_query_length_recorded(self):
        q = encode("MKTAYIAK")
        assert build_neighborhood(q, BLOSUM62).query_length == 8


def same(a, b) -> bool:
    return np.array_equal(a.offsets, b.offsets) and np.array_equal(a.positions, b.positions)


class TestNeighbourTable:
    def test_registry_is_bounded_and_rebuilds_evicted_tables(self):
        q = encode("MKTAYIAKQRQISFVKSHFSRQ")
        first = build_neighborhood(q, BLOSUM62, threshold=9)
        for threshold in range(10, 10 + words_module._MAX_TABLES):
            build_neighborhood(q, BLOSUM62, threshold=threshold)
        assert len(words_module._TABLES) == words_module._MAX_TABLES
        # T=9 was the least recently used: it is gone, and comes back equal.
        assert same(build_neighborhood(q, BLOSUM62, threshold=9), first)
        assert len(words_module._TABLES) == words_module._MAX_TABLES

    def test_threads_filling_one_fresh_table_match_serial(self, monkeypatch, lock_witness):
        rng = np.random.default_rng(7)
        queries = [rng.integers(0, 20, 120).astype(np.uint8) for _ in range(8)]
        monkeypatch.setattr(words_module, "_TABLES", words_module._TableRegistry())
        serial = [build_neighborhood(q, BLOSUM62) for q in queries]
        # A second fresh registry, built with the witness on: every row the
        # threads need is cold and they race to fill it.
        monkeypatch.setattr(words_module, "_TABLES", words_module._TableRegistry())
        threaded = [None] * len(queries)
        barrier = threading.Barrier(len(queries))

        def compile_one(i):
            barrier.wait(timeout=30)
            threaded[i] = build_neighborhood(queries[i], BLOSUM62)

        threads = [threading.Thread(target=compile_one, args=(i,)) for i in range(len(queries))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert all(same(got, want) for got, want in zip(threaded, serial))

    def test_warm_compile_allocates_no_score_table(self):
        # The table this replaced was num_words x n_pos int32 (58 MB here).
        # Deterministic: counts bytes, times nothing.
        q = np.random.default_rng(3).integers(0, 20, 1054).astype(np.uint8)
        compile_query(q)
        tracemalloc.start()
        try:
            compile_query(q)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"warm compile peaked at {peak / 2**20:.1f} MB"


def test_alphabet_letters_cover_examples():
    # Guard: the tests above index ALPHABET by letter.
    for c in "WACKMTYSR":
        assert c in ALPHABET
