"""Deterministic finite automaton for hit detection (Cameron et al., Fig. 2a).

The DFA reads a subject sequence one residue at a time. Its state is the
last ``W - 1`` residues seen; on reading residue ``c`` in state ``s`` it
emits the word ``s · c`` and transitions to the state formed by dropping the
oldest residue. Emitting a word means handing back the query-position list
from the neighbourhood — the actual per-word work of hit detection.

The split the paper's hierarchical buffering exploits is explicit here:

* :attr:`QueryDFA.next_state` and :attr:`QueryDFA.word_of` — the *state
  tables*, small and fixed-size (``ALPHABET_SIZE**(W-1) x ALPHABET_SIZE``
  of ``uint16``/``int32``), pinned in simulated shared memory;
* :attr:`QueryDFA.offsets` / :attr:`QueryDFA.positions` — the *query
  position lists*, query-length dependent, placed in global memory and read
  through the simulated read-only cache (Fig. 10, Fig. 17).
"""

from __future__ import annotations

import numpy as np

from repro.alphabet import ALPHABET_SIZE
from repro.matrices.blosum import ScoringMatrix
from repro.seeding.words import (
    DEFAULT_THRESHOLD,
    DEFAULT_WORD_LENGTH,
    Neighborhood,
    build_neighborhood,
)


class QueryDFA:
    """DFA over subject residues emitting query-position lists per word."""

    def __init__(self, neighborhood: Neighborhood) -> None:
        self._nbr = neighborhood
        w = neighborhood.word_length
        n_states = ALPHABET_SIZE ** (w - 1)
        states = np.arange(n_states, dtype=np.int64)
        letters = np.arange(ALPHABET_SIZE, dtype=np.int64)
        # State encodes the last W-1 residues base-ALPHABET_SIZE, oldest in
        # the highest digit. Reading letter c: word = state*A + c, next
        # state = (state mod A^(W-2)) * A + c.
        tail = states % (ALPHABET_SIZE ** (w - 2)) if w >= 2 else states * 0
        self._next_state = (
            tail[:, None] * ALPHABET_SIZE + letters[None, :]
        ).astype(np.uint16)
        self._word_of = (
            states[:, None] * ALPHABET_SIZE + letters[None, :]
        ).astype(np.int32)

    @classmethod
    def build(
        cls,
        query_codes: np.ndarray,
        matrix: ScoringMatrix,
        word_length: int = DEFAULT_WORD_LENGTH,
        threshold: int = DEFAULT_THRESHOLD,
    ) -> "QueryDFA":
        """Build the DFA for a query under the given scoring system."""
        return cls(build_neighborhood(query_codes, matrix, word_length, threshold))

    # -- structure ---------------------------------------------------------

    @property
    def neighborhood(self) -> Neighborhood:
        return self._nbr

    @property
    def word_length(self) -> int:
        return self._nbr.word_length

    @property
    def num_states(self) -> int:
        return self._next_state.shape[0]

    @property
    def next_state(self) -> np.ndarray:
        """``uint16`` transition table ``(num_states, ALPHABET_SIZE)``."""
        return self._next_state

    @property
    def word_of(self) -> np.ndarray:
        """``int32`` emitted-word table ``(num_states, ALPHABET_SIZE)``."""
        return self._word_of

    @property
    def offsets(self) -> np.ndarray:
        """Per-word CSR offsets into :attr:`positions` (global memory side)."""
        return self._nbr.offsets

    @property
    def positions(self) -> np.ndarray:
        """Flattened query-position lists (global memory side)."""
        return self._nbr.positions

    @property
    def state_table_nbytes(self) -> int:
        """Shared-memory footprint of the state tables."""
        return int(self._next_state.nbytes + self._word_of.nbytes)

    @property
    def position_lists_nbytes(self) -> int:
        """Global-memory footprint of offsets + position lists."""
        return int(self._nbr.offsets.nbytes + self._nbr.positions.nbytes)

    # -- traversal ---------------------------------------------------------

    def initial_state(self, prefix_codes: np.ndarray) -> int:
        """State after reading the first ``W - 1`` residues."""
        w = self.word_length
        state = 0
        for c in np.asarray(prefix_codes[: w - 1], dtype=np.int64):
            state = state * ALPHABET_SIZE + int(c)
        return state

    def scan(self, subject_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Letter-by-letter DFA traversal of one subject sequence.

        Semantically identical to the oracle's whole-database scan
        (:func:`repro.verify.oracle.detect_hits`) on one sequence (tests
        assert so); this path exists to model the DFA's memory behaviour
        faithfully and to serve as the reference for the GPU hit-detection
        kernel.

        Returns
        -------
        (query_pos, subject_pos):
            Hits in column-major order.
        """
        codes = np.asarray(subject_codes, dtype=np.int64)
        w = self.word_length
        if codes.size < w:
            return (np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64))
        qpos_parts: list[np.ndarray] = []
        spos_parts: list[np.ndarray] = []
        state = self.initial_state(codes)
        for j in range(w - 1, codes.size):
            c = int(codes[j])
            word = int(self._word_of[state, c])
            state = int(self._next_state[state, c])
            plist = self._nbr.positions_for_word(word)
            if plist.size:
                qpos_parts.append(plist)
                spos_parts.append(
                    np.full(plist.size, j - (w - 1), dtype=np.int64)
                )
        if not qpos_parts:
            return (np.zeros(0, dtype=np.int32), np.zeros(0, dtype=np.int64))
        return (
            np.concatenate(qpos_parts).astype(np.int32),
            np.concatenate(spos_parts),
        )
