"""Unit tests: DFA vs the flat word-indexed scan, and DFA structure."""

import numpy as np
import pytest

from repro.alphabet import ALPHABET_SIZE, encode
from repro.io import SequenceDatabase, generate_query
from repro.io.workloads import WorkloadSpec
from repro.matrices import BLOSUM62
from repro.seeding import QueryDFA, all_words, build_neighborhood
from repro.verify.oracle import detect_hits


@pytest.fixture(scope="module")
def nbr():
    return build_neighborhood(encode("MKWTAYCIAKWQRNDHE"), BLOSUM62)


@pytest.fixture(scope="module")
def dfa(nbr):
    return QueryDFA(nbr)


def lookup_scan(nbr, subject: str) -> tuple[np.ndarray, np.ndarray]:
    """The flat word-indexed scan of one subject: the oracle's
    whole-database scan over a one-sequence database."""
    hits = detect_hits(nbr, SequenceDatabase.from_strings([subject]))
    return hits.query_pos, hits.subject_pos


class TestDfaStructure:
    def test_num_states(self, dfa):
        assert dfa.num_states == ALPHABET_SIZE**2

    def test_transition_drops_oldest_letter(self, dfa):
        # state "AB" + letter C -> state "BC"
        a, b, c = 0, 1, 2
        state_ab = a * ALPHABET_SIZE + b
        assert dfa.next_state[state_ab, c] == b * ALPHABET_SIZE + c

    def test_emitted_word_is_state_plus_letter(self, dfa):
        state = 5 * ALPHABET_SIZE + 7
        assert dfa.word_of[state, 3] == state * ALPHABET_SIZE + 3

    def test_initial_state(self, dfa):
        codes = encode("ARN")
        assert dfa.initial_state(codes) == 0 * ALPHABET_SIZE + 1

    def test_state_table_small_enough_for_shared_memory(self, dfa):
        assert dfa.state_table_nbytes < 48 * 1024 * 8  # full tables
        # The per-state record form used on the device is tiny:
        assert dfa.num_states * 8 < 8 * 1024

    def test_position_lists_nbytes(self, dfa, nbr):
        assert dfa.position_lists_nbytes == nbr.offsets.nbytes + nbr.positions.nbytes


class TestScanEquivalence:
    def test_fig2_example(self):
        """The paper's Fig. 2(a) walkthrough: query BABBC, subject CBABB.

        With an exact-match scoring scheme, word BAB matches query position
        0 and ABB matches position 1 — the hits the figure derives.
        """
        from repro.matrices import match_mismatch_matrix

        q = encode("BABBC")
        nbr = build_neighborhood(q, match_mismatch_matrix(5, -4), threshold=15)
        dfa = QueryDFA(nbr)
        qp, sp = dfa.scan(encode("CBABB"))
        assert list(zip(qp.tolist(), sp.tolist())) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("subject_seed", [0, 1, 2, 3])
    def test_dfa_equals_lookup_on_random_subjects(self, dfa, nbr, subject_seed):
        spec = WorkloadSpec(name="t", num_sequences=1, mean_length=100, seed=subject_seed)
        subj = generate_query(120, spec, query_seed=subject_seed)
        qp1, sp1 = dfa.scan(encode(subj))
        qp2, sp2 = lookup_scan(nbr, subj)
        assert np.array_equal(qp1, qp2)
        assert np.array_equal(sp1, sp2)

    def test_scan_short_subject(self, dfa, nbr):
        assert dfa.scan(encode("MK"))[0].size == 0
        assert lookup_scan(nbr, "MK")[0].size == 0

    def test_scan_column_major_order(self, dfa, nbr):
        for qp, sp in (dfa.scan(encode("MKWTAYMKWTAY")), lookup_scan(nbr, "MKWTAYMKWTAY")):
            assert sp.size
            # subject positions non-decreasing = column-major emission order
            assert np.all(np.diff(sp) >= 0)

    def test_positions_for_word_passthrough(self, dfa, nbr):
        """A one-word subject emits exactly that word's position list."""
        words = all_words(nbr.word_length)
        listed = np.flatnonzero(np.diff(nbr.offsets))
        for w in (0, *listed[:3]):
            qp, sp = dfa.scan(words[w])
            assert np.array_equal(qp, nbr.positions_for_word(w))
            assert np.all(sp == 0)
