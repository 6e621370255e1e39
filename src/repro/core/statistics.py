"""Search parameters and score cutoffs.

BLASTP's heuristics are driven by a handful of thresholds. The user-facing
ones are expressed in *bits* (scale-free); :func:`resolve_cutoffs` converts
them to raw-score cutoffs for a concrete (matrix, query, database)
combination using Karlin-Altschul statistics, which is how NCBI BLAST
derives its internal cutoffs from ``-evalue`` and friends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigError
from repro.matrices.blosum import BLOSUM62, ScoringMatrix
from repro.matrices.karlin import KarlinParams, gapped_params, ungapped_params
from repro.seeding.words import DEFAULT_THRESHOLD, DEFAULT_WORD_LENGTH


@dataclass(frozen=True)
class SearchParams:
    """All tunable parameters of a BLASTP search.

    Defaults mirror NCBI/FSA BLASTP for protein search: ``W=3``, ``T=11``,
    two-hit window 40, ungapped X-drop 7 bits, gapped trigger 22 bits,
    gapped X-drop 15 bits, E-value 10, BLOSUM62 with gaps (11, 1).
    """

    matrix: ScoringMatrix = field(default_factory=lambda: BLOSUM62)
    word_length: int = DEFAULT_WORD_LENGTH
    threshold: int = DEFAULT_THRESHOLD
    two_hit_window: int = 40
    x_drop_ungapped_bits: float = 7.0
    gap_trigger_bits: float = 22.0
    x_drop_gapped_bits: float = 15.0
    evalue: float = 10.0
    gap_open: int = 11
    gap_extend: int = 1
    max_alignments: int = 500
    #: Search-space override: compute E-values and the report cutoff as if
    #: the database had this many residues. The sandbox databases stand in
    #: for multi-GB NCBI ones (DESIGN.md §2); scaling the statistics to the
    #: emulated size keeps cutoff behaviour — which alignments survive to
    #: traceback — faithful to the paper's setting instead of the tiny
    #: stand-in's. ``None`` uses the actual database size.
    effective_db_residues: int | None = None

    def __post_init__(self) -> None:
        if self.word_length < 2:
            raise ConfigError("word_length must be >= 2")
        if self.two_hit_window <= self.word_length:
            raise ConfigError("two_hit_window must exceed word_length")
        if self.evalue <= 0:
            raise ConfigError("evalue must be positive")
        if self.gap_open < 0 or self.gap_extend <= 0:
            raise ConfigError("gap penalties must be non-negative / positive")
        if self.max_alignments < 1:
            raise ConfigError("max_alignments must be >= 1")
        if self.effective_db_residues is not None and self.effective_db_residues < 1:
            raise ConfigError("effective_db_residues must be >= 1 (or None)")


@dataclass(frozen=True)
class Cutoffs:
    """Raw-score thresholds for one concrete search.

    Attributes
    ----------
    x_drop_ungapped:
        Raw-score drop that terminates ungapped extension.
    gap_trigger:
        Minimum ungapped-extension score that seeds a gapped extension.
    x_drop_gapped:
        Raw-score drop that prunes the gapped-extension DP.
    report_cutoff:
        Minimum gapped score for an alignment to be reported (from the
        E-value threshold and the search-space size).
    gapped:
        Gapped Karlin-Altschul parameters (bit scores / E-values reported).
    """

    x_drop_ungapped: int
    gap_trigger: int
    x_drop_gapped: int
    report_cutoff: int
    gapped: KarlinParams
    #: Residue count used for the statistics (actual or emulated).
    effective_db_residues: int = 0


def bits_to_raw(bits: float, params: KarlinParams) -> int:
    """Smallest raw score reaching ``bits`` bit-score under ``params``."""
    return max(1, math.ceil((bits * math.log(2.0) + math.log(params.K)) / params.lam))


def raw_drop_from_bits(bits: float, params: KarlinParams) -> int:
    """Raw-score equivalent of an X-drop expressed in bits.

    X-drops are score *differences*, so only lambda (not K) enters.
    """
    return max(1, math.floor(bits * math.log(2.0) / params.lam))


def resolve_cutoffs(params: SearchParams, query_length: int, db_residues: int) -> Cutoffs:
    """Convert bit-space parameters to raw cutoffs for a concrete search."""
    if query_length <= 0 or db_residues <= 0:
        raise ConfigError("query_length and db_residues must be positive")
    effective = params.effective_db_residues or db_residues
    ungapped = ungapped_params(params.matrix)
    gapped = gapped_params(params.matrix, params.gap_open, params.gap_extend)
    report = gapped.score_for_evalue(params.evalue, query_length, effective)
    return Cutoffs(
        x_drop_ungapped=raw_drop_from_bits(params.x_drop_ungapped_bits, ungapped),
        gap_trigger=bits_to_raw(params.gap_trigger_bits, ungapped),
        x_drop_gapped=raw_drop_from_bits(params.x_drop_gapped_bits, gapped),
        report_cutoff=report,
        gapped=gapped,
        effective_db_residues=effective,
    )
