"""Karlin-Altschul statistics: lambda, K, bit scores and E-values.

BLAST reports an alignment's significance as an E-value derived from its raw
score via ``E = K * m * n * exp(-lambda * S)``. For ungapped alignments
``lambda`` is the unique positive root of ``sum_ij p_i p_j exp(lambda*s_ij)
= 1`` and ``K`` follows from the score distribution; for gapped alignments
no closed form exists and BLAST ships empirically fitted constants per
(matrix, gap costs) combination. We solve the ungapped case numerically and
table the gapped constants for the matrix/gap settings this repo supports,
exactly as NCBI BLAST does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from repro.alphabet import background_frequencies
from repro.matrices.blosum import ScoringMatrix


@dataclass(frozen=True)
class KarlinParams:
    """Statistical parameters of a scoring system.

    Attributes
    ----------
    lam:
        The Karlin-Altschul lambda (nats per score unit).
    K:
        The Karlin-Altschul K constant.
    H:
        Relative entropy of the scoring system (nats per aligned pair).
    """

    lam: float
    K: float
    H: float

    def bit_score(self, raw_score: float) -> float:
        """Convert a raw score to a normalised bit score."""
        return (self.lam * raw_score - math.log(self.K)) / math.log(2.0)

    def evalue(self, raw_score: float, query_len: int, db_len: int) -> float:
        """Expected number of chance alignments scoring >= ``raw_score``.

        ``query_len`` and ``db_len`` are the effective search-space sides;
        we use the plain lengths (length adjustment is a refinement BLAST
        applies for short queries and is out of scope here).
        """
        return self.K * query_len * db_len * math.exp(-self.lam * raw_score)

    def score_for_evalue(self, evalue: float, query_len: int, db_len: int) -> int:
        """Smallest integer raw score whose E-value is <= ``evalue``.

        Used to derive phase cutoffs (e.g. the gapped-trigger score) from a
        significance target, the way BLAST derives its defaults.
        """
        if evalue <= 0:
            raise ValueError("evalue must be positive")
        s = math.log(self.K * query_len * db_len / evalue) / self.lam
        return max(1, math.ceil(s))


def _solve_lambda(scores: np.ndarray, probs: np.ndarray) -> float:
    """Solve sum_ij p_i p_j exp(lambda * s_ij) = 1 for lambda > 0."""
    pq = np.outer(probs, probs)

    def phi(lam: float) -> float:
        return float(np.sum(pq * np.exp(lam * scores)) - 1.0)

    # phi(0) == 0 always; for a valid scoring system (negative expectation,
    # positive max score) phi dips negative then grows without bound, so the
    # positive root is bracketed between a small epsilon and an upper bound
    # found by doubling.
    lo = 1e-6
    if phi(lo) >= 0:
        raise ValueError("scoring system has non-negative expected score")
    hi = 0.5
    while phi(hi) < 0:
        hi *= 2.0
        if hi > 64:  # pragma: no cover - defensive
            raise RuntimeError("failed to bracket lambda")
    return float(brentq(phi, lo, hi, xtol=1e-12))


def ungapped_params(matrix: ScoringMatrix) -> KarlinParams:
    """Compute ungapped Karlin-Altschul parameters for a scoring matrix.

    Lambda is solved exactly; H is the relative entropy at that lambda; K is
    estimated with the standard geometric-decay approximation
    ``K ~ H/lambda * exp(-1.9*H/lambda)`` renormalised against the known
    BLOSUM62 anchor (lambda=0.3176, K=0.134), which keeps K within a few
    percent for BLOSUM-family matrices — sufficient because E-values depend
    on K only logarithmically.
    """
    probs = background_frequencies()
    active = probs > 0
    scores = matrix.scores[np.ix_(active, active)].astype(np.float64)
    p = probs[active]
    p = p / p.sum()
    lam = _solve_lambda(scores, p)
    pq = np.outer(p, p)
    weights = pq * np.exp(lam * scores)
    H = float(lam * np.sum(weights * scores))
    # Anchor-calibrated K estimate (see docstring).
    ratio = H / lam
    k_shape = ratio * math.exp(-1.9 * ratio)
    anchor_shape = (0.4012 / 0.3176) * math.exp(-1.9 * (0.4012 / 0.3176))
    K = 0.134 * k_shape / anchor_shape
    return KarlinParams(lam=lam, K=K, H=H)


# NCBI's fitted gapped constants, keyed by (matrix name, gap_open,
# gap_extend). Values from the BLAST+ source (blast_stat.c).
_GAPPED_TABLE: dict[tuple[str, int, int], KarlinParams] = {
    ("BLOSUM62", 11, 1): KarlinParams(lam=0.267, K=0.041, H=0.14),
    ("BLOSUM62", 10, 1): KarlinParams(lam=0.243, K=0.024, H=0.10),
    ("BLOSUM62", 12, 1): KarlinParams(lam=0.281, K=0.057, H=0.17),
    ("BLOSUM62", 9, 2): KarlinParams(lam=0.286, K=0.058, H=0.18),
    ("BLOSUM62", 11, 2): KarlinParams(lam=0.297, K=0.082, H=0.27),
}


def gapped_params(
    matrix: ScoringMatrix,
    gap_open: int | None = None,
    gap_extend: int | None = None,
) -> KarlinParams:
    """Look up gapped Karlin-Altschul parameters.

    Falls back to the ungapped parameters scaled by the canonical
    gapped/ungapped lambda ratio of BLOSUM62 when the exact combination is
    not tabled — adequate for the synthetic matrices used in tests, where
    only score *ordering* matters.
    """
    go = matrix.gap_open if gap_open is None else gap_open
    ge = matrix.gap_extend if gap_extend is None else gap_extend
    key = (matrix.name, go, ge)
    if key in _GAPPED_TABLE:
        return _GAPPED_TABLE[key]
    base = ungapped_params(matrix)
    scale = 0.267 / 0.3176
    return KarlinParams(lam=base.lam * scale, K=base.K * 0.3, H=base.H * 0.35)
