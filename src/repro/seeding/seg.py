"""SEG low-complexity filtering (Wootton & Federhen, 1993).

Real protein searches mask low-complexity query regions (poly-A runs,
proline-rich stretches, coiled coils) before seeding: such regions pepper
the database with biologically meaningless hits that cost time in every
phase. NCBI BLASTP applies SEG to the query by default as *soft masking* —
masked positions are excluded from the lookup structure, but extensions
crossing them still score against the original residues.

This implementation follows SEG's trigger/extension structure on Shannon
entropy: a sliding window whose entropy falls below ``locut`` triggers,
and the masked region extends while neighbouring windows stay below
``hicut``. (The original uses K2 compositional complexity; window entropy
is the standard simplification and agrees on everything a synthetic
workload can contain.)
"""

from __future__ import annotations

import numpy as np

from repro.alphabet import ALPHABET_SIZE

#: SEG defaults for protein (window 12, locut 2.2, hicut 2.5 bits).
DEFAULT_WINDOW = 12
DEFAULT_LOCUT = 2.2
DEFAULT_HICUT = 2.5


def window_entropy(codes: np.ndarray, window: int = DEFAULT_WINDOW) -> np.ndarray:
    """Shannon entropy (bits) of every length-``window`` residue window.

    Returns an array of length ``len(codes) - window + 1`` (empty when the
    sequence is shorter than the window).
    """
    codes = np.asarray(codes, dtype=np.int64)
    n = codes.size - window + 1
    if n <= 0:
        return np.zeros(0, dtype=np.float64)
    # Sliding composition via cumulative one-hot counts: counts[i, a] =
    # occurrences of residue a in codes[i : i + window].
    onehot = np.zeros((codes.size + 1, ALPHABET_SIZE), dtype=np.int32)
    np.add.at(onehot, (np.arange(1, codes.size + 1), codes), 1)
    cum = np.cumsum(onehot, axis=0)
    counts = cum[window:] - cum[:-window]
    p = counts / window
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(p > 0, -p * np.log2(p), 0.0)
    return terms.sum(axis=1)


def seg_mask(
    codes: np.ndarray,
    window: int = DEFAULT_WINDOW,
    locut: float = DEFAULT_LOCUT,
    hicut: float = DEFAULT_HICUT,
) -> np.ndarray:
    """Boolean mask of low-complexity residues.

    A window with entropy < ``locut`` triggers masking; the masked region
    extends over every overlapping window whose entropy stays < ``hicut``
    (SEG's two-threshold hysteresis). All residues covered by a qualifying
    window are masked.
    """
    if not locut <= hicut:
        raise ValueError("locut must not exceed hicut")
    codes = np.asarray(codes)
    mask = np.zeros(codes.size, dtype=bool)
    ent = window_entropy(codes, window)
    if ent.size == 0:
        return mask
    trigger = ent < locut
    if not trigger.any():
        return mask
    extendable = ent < hicut
    # Grow each trigger window left/right through extendable windows.
    covered = np.zeros(ent.size, dtype=bool)
    i = 0
    n = ent.size
    while i < n:
        if trigger[i] and not covered[i]:
            lo = i
            while lo > 0 and extendable[lo - 1]:
                lo -= 1
            hi = i
            while hi + 1 < n and extendable[hi + 1]:
                hi += 1
            covered[lo : hi + 1] = True
            i = hi + 1
        else:
            i += 1
    for w in np.nonzero(covered)[0]:
        mask[w : w + window] = True
    return mask
