"""Position-specific scoring matrix (PSSM) construction.

The PSSM is the query-side scoring structure of Fig. 2(b): column ``i``
holds, for every alphabet symbol, the score of aligning that symbol against
``query[i]``. Scoring a subject residue against a query position is then a
single lookup ``pssm[subject_code, i]`` instead of the two loads the plain
substitution matrix needs — the memory-traffic trade-off the paper's
hierarchical-buffering study (Fig. 15) measures.
"""

from __future__ import annotations

import numpy as np

from repro.matrices.blosum import ScoringMatrix

#: Bytes per PSSM column: one int16 score for each alphabet symbol, padded to
#: 32 rows exactly as the paper budgets it ("each column contains 64 bytes,
#: 32 rows with 2 bytes each").
PSSM_COLUMN_BYTES = 32 * 2

#: Score of the padding residue in :func:`build_score_table`: far below any
#: reachable DP cell, far enough above the ``int32`` floor that subtracting
#: a gap penalty cannot wrap.
PAD_SCORE = -(2**30)


def build_pssm(query_codes: np.ndarray, matrix: ScoringMatrix) -> np.ndarray:
    """Build the PSSM for an encoded query.

    Parameters
    ----------
    query_codes:
        ``uint8`` residue codes of the query sequence.
    matrix:
        Substitution matrix providing the per-pair scores.

    Returns
    -------
    numpy.ndarray
        ``int16`` array of shape ``(ALPHABET_SIZE, len(query))``;
        ``pssm[code, i] == matrix.score(code, query[i])``.
    """
    query_codes = np.asarray(query_codes, dtype=np.uint8)
    if query_codes.ndim != 1:
        raise ValueError("query must be a 1-D code array")
    if query_codes.size == 0:
        raise ValueError("query must be non-empty")
    # Fancy-index the matrix columns by the query codes: one column per
    # query position, rows indexed by subject residue code.
    return matrix.scores[:, query_codes].astype(np.int16)


def build_score_table(pssm: np.ndarray) -> np.ndarray:
    """The PSSM transposed into the DP phases' ``int32`` score table.

    Returns a ``(query_length, codes + 1)`` array whose row ``i`` holds
    query position ``i``'s score against every residue code, plus one
    padding residue (code ``codes``) scoring :data:`PAD_SCORE`. Flattened,
    the score of ``(i, code)`` is one ``take`` at ``i * width + code``,
    which is how the gapped extension and the traceback fill read it.
    """
    table = np.full((pssm.shape[1], pssm.shape[0] + 1), PAD_SCORE, dtype=np.int32)
    table[:, :-1] = pssm.T
    return table


def pssm_memory_bytes(query_length: int) -> int:
    """Device-memory footprint of a PSSM for a query of the given length.

    This is the quantity the §3.5 placement policy compares against the
    48-kB shared-memory budget: the PSSM fits while ``query_length <= 768``.
    """
    if query_length <= 0:
        raise ValueError("query_length must be positive")
    return query_length * PSSM_COLUMN_BYTES
