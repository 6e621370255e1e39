"""Property: the table gather is the full-table threshold.

:func:`repro.seeding.words.build_neighborhood` compiles a query by
gathering rows of a lazily filled word → neighbour-words table. The
definition it must reproduce is the one it replaced, kept here as the
reference: score *every* word against *every* query position through the
PSSM (a ``num_words x n_pos`` table), threshold, and read the survivors
off in row-major order. The
two must agree array for array — ``offsets`` and ``positions`` — over

* random integer matrices, asymmetric ones included (the neighbour residue
  indexes the row, the query residue the column, as in the PSSM);
* ``T`` from far below the smallest word score (every word a neighbour)
  to above the largest (an empty neighbourhood), ``W`` in {2, 3};
* queries of exactly ``W`` residues and homopolymers (one word, many
  positions);
* one table reused across examples: rows are filled in whatever order the
  examples' queries ask for them, and no order may change an answer.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.alphabet import ALPHABET_SIZE
from repro.matrices import BLOSUM62
from repro.seeding.words import all_words, build_neighborhood

SCORE_SPAN = 12  # |entry| of the random matrices


def _reference_neighbourhood(query, scores, word_length, threshold):
    """``(offsets, positions)`` from the full score table."""
    n_pos = query.size - word_length + 1
    pssm = scores[:, query]
    words = all_words(word_length)
    table = np.zeros((words.shape[0], n_pos), dtype=np.int32)
    for k in range(word_length):
        table += pssm[words[:, k], k : k + n_pos].astype(np.int32)
    word_ids, positions = np.nonzero(table >= threshold)
    offsets = np.zeros(words.shape[0] + 1, dtype=np.int64)
    np.cumsum(np.bincount(word_ids, minlength=words.shape[0]), out=offsets[1:])
    return offsets, positions.astype(np.int32)


def _random_matrix(seed):
    rng = np.random.default_rng(seed)
    scores = rng.integers(-SCORE_SPAN, SCORE_SPAN + 1, (ALPHABET_SIZE, ALPHABET_SIZE))
    # ScoringMatrix insists on symmetry; build_neighborhood reads .scores only.
    return SimpleNamespace(scores=scores.astype(np.int16))


residues = st.integers(min_value=0, max_value=ALPHABET_SIZE - 1)


def queries(word_length):
    return st.one_of(
        st.lists(residues, min_size=word_length, max_size=40),
        st.lists(residues, min_size=word_length, max_size=word_length),
        st.builds(lambda code, n: [code] * n, residues, st.integers(word_length, 30)),
    ).map(lambda codes: np.asarray(codes, dtype=np.uint8))


def _assert_same(query, matrix, word_length, threshold):
    got = build_neighborhood(query, matrix, word_length, threshold)
    offsets, positions = _reference_neighbourhood(query, matrix.scores, word_length, threshold)
    assert got.offsets.dtype == offsets.dtype and got.positions.dtype == positions.dtype
    assert np.array_equal(got.offsets, offsets)
    assert np.array_equal(got.positions, positions)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_gather_equals_full_table_threshold(data):
    word_length = data.draw(st.sampled_from([2, 3]))
    matrix = data.draw(
        st.one_of(st.just(BLOSUM62), st.integers(0, 2**32 - 1).map(_random_matrix))
    )
    reach = word_length * SCORE_SPAN
    threshold = data.draw(st.integers(-reach - 3, reach + 3))
    query = data.draw(queries(word_length))
    _assert_same(query, matrix, word_length, threshold)


SHARED = _random_matrix(20140519)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_lazy_fill_order_changes_no_answer(data):
    # One signature, so every example reads (and extends) the same table.
    query = data.draw(queries(3))
    _assert_same(query, SHARED, 3, 22)
