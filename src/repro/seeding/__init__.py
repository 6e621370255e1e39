"""Seeding structures: W-mer words, neighbourhoods, and the structures over them.

Hit detection needs, for every length-``W`` word of a subject sequence, the
list of query positions whose neighbourhood contains that word:

* :class:`~repro.seeding.words.Neighborhood` — that mapping as a flat,
  word-indexed CSR table (:func:`build_neighborhood`), the structure
  classic BLAST scans on the CPU and the one a compiled query carries;
* :class:`~repro.seeding.dfa.QueryDFA` — the deterministic finite automaton
  of Cameron et al. (Fig. 2a) over the same neighbourhood, whose small
  state table is what cuBLASTP pins in shared memory while the position
  lists ride the read-only cache;
* :class:`~repro.seeding.multi_query.MultiQueryIndex` — many queries'
  neighbourhoods merged into one index, so one database sweep serves a
  whole batch.

The DFA's scan and the verifier's flat scan
(:func:`repro.verify.oracle.detect_hits`) yield identical hits; tests
enforce this equivalence.
"""

from repro.seeding.dfa import QueryDFA
from repro.seeding.multi_query import MultiQueryIndex, TaggedHits
from repro.seeding.seg import seg_mask, window_entropy
from repro.seeding.words import (
    DEFAULT_THRESHOLD,
    DEFAULT_WORD_LENGTH,
    Neighborhood,
    all_words,
    build_neighborhood,
    num_words,
    word_indices,
)

__all__ = [
    "DEFAULT_THRESHOLD",
    "DEFAULT_WORD_LENGTH",
    "MultiQueryIndex",
    "Neighborhood",
    "QueryDFA",
    "TaggedHits",
    "all_words",
    "build_neighborhood",
    "num_words",
    "seg_mask",
    "window_entropy",
    "word_indices",
]
