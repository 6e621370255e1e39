"""Word (W-mer) enumeration and query neighbourhoods.

A *word* is a length-``W`` window of residues (``W = 3`` for BLASTP). Words
are identified by their base-``ALPHABET_SIZE`` integer index (first residue
most significant), so a word list is just an integer array and
neighbourhood lookup is array indexing.

The *neighbourhood* of a query position ``p`` is the set of words ``v``
whose PSSM score against ``query[p : p+W]`` reaches the threshold ``T``
(BLASTP default 11). Hit detection then reports a hit ``(p, s)`` whenever
the subject word at position ``s`` lies in the neighbourhood of ``p``.

The PSSM is ``matrix.scores[:, query]``, so the neighbours of position
``p`` depend only on the query **word** at ``p``:

    ``score(v | w) = sum_k matrix.scores[v_k, w_k]``

with the neighbour (subject) residue indexing the row and the query
residue the column — the orientation of
:func:`~repro.matrices.pssm.build_pssm`, which matters as soon as a matrix
is not symmetric. :class:`NeighbourTable` keeps that word → neighbour-words
relation once per ``(scores, W, T)`` for the life of the process, and
:func:`build_neighborhood` compiles a query by *gathering* from it; no
``num_words x query_length`` score table is ever formed.

Table layout. Rows live in an append-only CSR pool: ``starts[w]`` /
``counts[w]`` locate the ascending neighbour words of query word ``w`` in
one growable flat buffer (``counts[w] < 0`` marks a row not computed yet).
For BLOSUM62 / ``W = 3`` / ``T = 11`` the full relation is 500 402 pairs,
at most 212 per word — about 1 MB of ``uint16``.

Laziness. Rows are filled the first time any query contains their word, in
bounded chunks (:data:`_FILL_CELLS` score cells at a time). An eager build
of all ``num_words`` rows takes seconds and would be paid by every process
start — in the benchmark's terms it would land in ``setup_s`` — while a
query touches at most ``query_length`` rows; after a few queries the
common words are warm and a compile is one gather plus one radix sort.
Filled rows are never rewritten, so forked workers inherit them and
spawned workers refill their own on demand, with identical results.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.alphabet import ALPHABET_SIZE
from repro.analysis.witness import new_lock, thread_shared
from repro.errors import SequenceError
from repro.matrices.blosum import ScoringMatrix

#: BLASTP defaults: word length 3, neighbourhood threshold 11.
DEFAULT_WORD_LENGTH = 3
DEFAULT_THRESHOLD = 11

#: Score cells one fill step may hold (``chunk x num_words`` of ``int32``,
#: 4 MB): 75 query words at a time for ``W = 3``, 3 for ``W = 4``.
_FILL_CELLS = 1 << 20
#: Neighbour tables kept per process, least recently used evicted first.
#: Real traffic uses one ``(matrix, W, T)``; the verify matrix and the
#: Hypothesis suites push hundreds through one process.
_MAX_TABLES = 4


def num_words(word_length: int = DEFAULT_WORD_LENGTH) -> int:
    """Number of distinct words of the given length (``ALPHABET_SIZE ** W``)."""
    return ALPHABET_SIZE**word_length


def all_words(word_length: int = DEFAULT_WORD_LENGTH) -> np.ndarray:
    """Enumerate every word as residue codes.

    Returns
    -------
    numpy.ndarray
        ``uint8`` array of shape ``(num_words, word_length)``; row ``i`` is
        the code sequence of the word with index ``i``.
    """
    return _word_codes(np.arange(num_words(word_length), dtype=np.int64), word_length)


def _word_codes(indices: np.ndarray, word_length: int) -> np.ndarray:
    """Residue codes of the given word indices, ``(len(indices), W)`` ``uint8``."""
    shifts = ALPHABET_SIZE ** np.arange(word_length - 1, -1, -1, dtype=np.int64)
    return ((indices[:, None] // shifts) % ALPHABET_SIZE).astype(np.uint8)


def word_indices(codes: np.ndarray, word_length: int = DEFAULT_WORD_LENGTH) -> np.ndarray:
    """Word index of every length-``W`` window of a code sequence.

    Parameters
    ----------
    codes:
        ``uint8`` residue codes.
    word_length:
        Window size ``W``.

    Returns
    -------
    numpy.ndarray
        ``int64`` array of length ``len(codes) - W + 1`` (empty when the
        sequence is shorter than ``W``).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    n = codes.size - word_length + 1
    if n <= 0:
        return np.zeros(0, dtype=np.int64)
    out = np.zeros(n, dtype=np.int64)
    for k in range(word_length):
        out *= ALPHABET_SIZE
        out += codes[k : k + n]
    return out


@dataclass(frozen=True)
class Neighborhood:
    """Inverted word -> query-position mapping in CSR form.

    For word index ``w``, the matching query positions are
    ``positions[offsets[w] : offsets[w + 1]]`` — sorted ascending, which the
    GPU hit-detection kernel relies on for deterministic binning order.

    Attributes
    ----------
    word_length:
        ``W``.
    threshold:
        Neighbourhood score threshold ``T``.
    offsets:
        ``int64`` array of length ``num_words + 1``.
    positions:
        ``int32`` array of query positions, grouped by word.
    query_length:
        Length of the query the neighbourhood was built from.
    """

    word_length: int
    threshold: int
    offsets: np.ndarray
    positions: np.ndarray
    query_length: int

    def positions_for_word(self, word_index: int) -> np.ndarray:
        """Query positions whose neighbourhood contains ``word_index``."""
        return self.positions[self.offsets[word_index] : self.offsets[word_index + 1]]

    @property
    def total_entries(self) -> int:
        """Total number of (word, position) pairs in the neighbourhood."""
        return int(self.positions.size)


@thread_shared
class NeighbourTable:
    """Lazily filled word → sorted neighbour words, for one ``(scores, W, T)``.

    Shared by every thread that compiles a query (serve dispatcher,
    executor threads; pool workers own a forked or fresh copy). One lock
    covers *fill + snapshot*; what :meth:`rows` hands out is never written
    again — new rows are appended past the published end of the pool, and
    a full pool is replaced, not resized — so callers gather from it
    outside the lock.
    """

    def __init__(self, scores: np.ndarray, word_length: int, threshold: int) -> None:
        self.word_length = word_length
        self.threshold = threshold
        #: ``[query residue, neighbour residue]``: ``scores`` transposed, so
        #: indexing by a query residue yields its PSSM column as a row.
        self._by_query = np.ascontiguousarray(np.asarray(scores).T, dtype=np.int32)
        n_words = num_words(word_length)
        self._lock = new_lock("NeighbourTable._lock")
        self._starts = np.zeros(n_words, dtype=np.int64)  # guarded-by: self._lock
        self._counts = np.full(n_words, -1, dtype=np.int32)  # guarded-by: self._lock
        #: Neighbour words of every filled row, back to back. The dtype is
        #: the narrowest that holds a word index (``uint16`` up to W = 3).
        row_dtype = np.min_scalar_type(n_words - 1)
        self._pool = np.empty(1 << 14, dtype=row_dtype)  # guarded-by: self._lock
        self._used = 0  # guarded-by: self._lock

    def rows(self, words: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(starts, counts, pool)`` of the given query words' rows.

        The neighbours of ``words[i]`` are ``pool[starts[i] : starts[i] +
        counts[i]]``, ascending. Rows not computed yet are filled first.
        """
        with self._lock:
            missing = words[self._counts[words] < 0]
            if missing.size:
                self._fill(np.unique(missing))
            return self._starts[words], self._counts[words], self._pool

    def _fill(self, words: np.ndarray) -> None:
        """Compute and publish the rows of ``words`` (distinct, unfilled)."""
        chunk = max(1, _FILL_CELLS // self._counts.size)
        for lo in range(0, words.size, chunk):
            part = words[lo : lo + chunk]
            codes = _word_codes(part, self.word_length)
            # scores[j, v] = sum_k by_query[codes[j, k], v_k], grown one
            # residue at a time so v enumerates words in index order.
            scores = self._by_query[codes[:, 0]]
            for k in range(1, self.word_length):
                column = self._by_query[codes[:, k]]
                scores = (scores[:, :, None] + column[:, None, :]).reshape(part.size, -1)
            which, neighbours = np.nonzero(scores >= self.threshold)
            counts = np.bincount(which, minlength=part.size)
            end = self._used + neighbours.size
            if end > self._pool.size:
                grown = np.empty(max(end, 2 * self._pool.size), dtype=self._pool.dtype)
                grown[: self._used] = self._pool[: self._used]
                self._pool = grown
            self._pool[self._used : end] = neighbours
            self._starts[part] = self._used + np.cumsum(counts) - counts
            self._counts[part] = counts
            self._used = end


@thread_shared
class _TableRegistry:
    """The process's neighbour tables: a small LRU over ``(scores, W, T)``."""

    def __init__(self) -> None:
        self._lock = new_lock("words._TableRegistry._lock")
        self._tables: OrderedDict[tuple, NeighbourTable] = OrderedDict()  # guarded-by: self._lock

    def __len__(self) -> int:
        with self._lock:
            return len(self._tables)

    def get(self, scores: np.ndarray, word_length: int, threshold: int) -> NeighbourTable:
        key = (scores.tobytes(), word_length, threshold)
        with self._lock:
            table = self._tables.get(key)
            if table is None:
                table = self._tables[key] = NeighbourTable(scores, word_length, threshold)
                while len(self._tables) > _MAX_TABLES:
                    self._tables.popitem(last=False)
            else:
                self._tables.move_to_end(key)
            return table


_TABLES = _TableRegistry()


def build_neighborhood(
    query_codes: np.ndarray,
    matrix: ScoringMatrix,
    word_length: int = DEFAULT_WORD_LENGTH,
    threshold: int = DEFAULT_THRESHOLD,
    masked: np.ndarray | None = None,
) -> Neighborhood:
    """Build the neighbourhood of every query position.

    A gather from the process's :class:`NeighbourTable` for ``(matrix.scores,
    word_length, threshold)``: the query's word at each position selects a
    row of neighbour words (rows the table lacks are computed now — the
    only cost that depends on what was compiled before, never on the
    result), the rows are expanded into ``(neighbour word, position)``
    pairs in position order, and one **stable** sort by neighbour word
    inverts them into CSR form. Stable, because it keeps the positions
    ascending inside each word's slice — :class:`Neighborhood` documents
    that order and the hit-detection kernel bins by it.

    Parameters
    ----------
    masked:
        Optional boolean low-complexity mask over query residues (SEG,
        soft masking): positions whose word overlaps a masked residue are
        excluded from the neighbourhood — no seeding there — while
        extension scoring (the PSSM) keeps the original residues.

    Raises
    ------
    SequenceError
        When the query is shorter than the word length.
    """
    query_codes = np.asarray(query_codes, dtype=np.uint8)
    qlen = query_codes.size
    n_pos = qlen - word_length + 1
    if n_pos <= 0:
        raise SequenceError(f"query of length {qlen} is shorter than W={word_length}")
    query_words = word_indices(query_codes, word_length)
    positions = np.arange(n_pos, dtype=np.int32)
    if masked is not None:
        masked = np.asarray(masked, dtype=bool)
        if masked.size != qlen:
            raise SequenceError("mask length must equal query length")
        keep = np.ones(n_pos, dtype=bool)
        for k in range(word_length):
            keep &= ~masked[k : k + n_pos]
        query_words = query_words[keep]
        positions = positions[keep]
    table = _TABLES.get(matrix.scores, word_length, threshold)
    starts, counts, pool = table.rows(query_words)
    # Ragged expansion of the rows (the sweep_block trick): neighbour ``k``
    # of a position reads pool entry ``starts + k``.
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    neighbours = pool[np.arange(total, dtype=np.int64) + np.repeat(starts - first, counts)]
    order = np.argsort(neighbours, kind="stable")
    n_words = num_words(word_length)
    offsets = np.zeros(n_words + 1, dtype=np.int64)
    np.cumsum(np.bincount(neighbours, minlength=n_words), out=offsets[1:])
    return Neighborhood(
        word_length=word_length,
        threshold=threshold,
        offsets=offsets,
        positions=np.repeat(positions, counts)[order],
        query_length=qlen,
    )
