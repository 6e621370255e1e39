"""Scoring matrices, position-specific scoring matrices, and score statistics.

This package provides the two scoring data structures the paper contrasts in
its hierarchical-buffering study (Fig. 2b/2c, Fig. 15):

* the fixed :data:`~repro.matrices.blosum.BLOSUM62` substitution matrix
  (24 x 24, 2 bytes/element -> 1.125 kB, always fits in shared memory), and
* the query-derived PSSM (:func:`~repro.matrices.pssm.build_pssm`), whose
  footprint grows with query length (64 B/column).

Karlin-Altschul statistics (:mod:`repro.matrices.karlin`) convert raw
alignment scores into bit scores and E-values exactly as BLAST does.
"""

from repro.matrices.blosum import BLOSUM62, ScoringMatrix, match_mismatch_matrix
from repro.matrices.henikoff import blosum_from_blocks
from repro.matrices.karlin import KarlinParams, gapped_params, ungapped_params
from repro.matrices.pssm import build_pssm, build_score_table, pssm_memory_bytes

__all__ = [
    "BLOSUM62",
    "KarlinParams",
    "ScoringMatrix",
    "blosum_from_blocks",
    "build_pssm",
    "build_score_table",
    "gapped_params",
    "match_mismatch_matrix",
    "pssm_memory_bytes",
    "ungapped_params",
]
