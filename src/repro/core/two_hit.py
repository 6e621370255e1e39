"""Phase 2 on the query-tagged key stream: two-hit seeds + ungapped extension.

Semantics (pinned for the whole library)
----------------------------------------
Within each ``(query, sequence, diagonal)`` group, hits are visited in
ascending subject position:

1. a hit is a *seed* iff some earlier hit on the same diagonal lies within
   subject distance ``[word_length, two_hit_window]`` — the classic two-hit
   rule. The lower bound excludes overlapping words (two hits closer than
   ``W`` are one similarity region, not two independent matches; NCBI
   BLAST applies the same exclusion), and the first hit of a diagonal
   never seeds;
2. a seed *triggers* an ungapped extension iff its subject position lies
   beyond ``ext_reach``, the subject end of the previous extension on that
   diagonal (Algorithm 3's covered-hit check).

This is precisely what cuBLASTP's filter kernel (rule 1) plus its
diagonal-based extension kernel (rule 2) compute, so the sequential
reference and the fine-grained GPU path produce identical extension sets *by
construction*. The paper's Algorithm 1 writes the extension end back into
``lasthit_arr`` instead of keeping the raw hit position; we keep the raw hit
position so rule 1 matches the filter kernel exactly — the difference only
surfaces for hits that are already covered by an extension, which trigger
nothing either way.

Dataflow
--------
The input is a block's :class:`~repro.core.hits.TaggedHits` — every hit of
every batch query as one sorted packed key, query-major and then
diagonal-major — and everything here runs on that one stream for the
whole batch: the two-hit filter on key differences (:func:`seed_mask`),
one :func:`~repro.core.ungapped.batch_ungapped_extend` over every query's
seeds against the column-stacked PSSM, one :func:`covered_seed_mask`.
Only the survivors are decoded, and the caller cuts the result per query
from the row bounds returned with it. A single query is a one-query
batch, not another path.
"""

from __future__ import annotations

import numpy as np

from repro.core.hits import KeyLayout, TaggedHits
from repro.core.results import ExtensionArray
from repro.core.ungapped import batch_ungapped_extend
from repro.io.database import SequenceDatabase


def seed_mask(keys: np.ndarray, layout: KeyLayout, word_length: int = 3) -> np.ndarray:
    """Boolean mask of hits satisfying the two-hit rule (rule 1 above).

    ``keys`` is a *sorted* packed-key stream of distinct hits under
    ``layout``, whose window (``layout.two_hit_window``) is the one
    applied. Keys of one ``(query, seq_id, diagonal)`` group differ by
    their subject distance; keys of different groups differ by more than
    the window (the layout pads the position field by it), so the rule
    is a test on plain key differences. In-group positions are distinct
    and ascending, so the ``k``-th predecessor of a hit lies at distance
    ``>= k``: the nearest predecessor at distance ``>= W`` is among the
    previous ``W`` keys, and if *any* earlier hit is within ``[W,
    window]`` that nearest one is too. Hence ``W`` shifted differences
    decide every hit: ``seed[i] = any(W <= keys[i] - keys[i-k] <=
    window for k in 1..W)``.
    """
    span = np.uint64(layout.two_hit_window - word_length)
    mask = np.zeros(keys.size, dtype=bool)
    for k in range(1, min(word_length, keys.size - 1) + 1):
        # One unsigned comparison tests both bounds: distances below W wrap.
        mask[k:] |= (keys[k:] - keys[:-k] - word_length).view(np.uint64) <= span
    return mask


def covered_seed_mask(
    seq_id: np.ndarray,
    diag: np.ndarray,
    spos: np.ndarray,
    s_end: np.ndarray,
) -> np.ndarray:
    """Vectorised coverage rule: which seeds trigger an extension (rule 2).

    Inputs are ``(seq_id, diag, spos)``-sorted seed columns with ``s_end``
    the subject end each seed's extension reached; on a tagged stream
    ``seq_id`` is the query-qualified id (the key above its diagonal). The scalar
    rule walks a group in ascending ``spos`` keeping a seed iff it starts
    beyond the previously *kept* extension's subject end. Because every
    kept extension contains its own seed word, its reach satisfies
    ``s_end >= spos + W - 1 > previous reach``, so the kept chain inside a
    group is exactly a pointer-jumping chase: from a kept seed, the next
    kept one is the first in-group seed with ``spos > s_end`` — found for
    *all* chains at once with one :func:`numpy.searchsorted` per wave on
    a composite ``group * stride + spos`` key. Wave count is the longest
    kept chain, not the seed count.

    Returns the kept mask aligned with the (sorted) inputs; kept rows in
    ascending index order are exactly the scalar loop's append order.
    """
    n = seq_id.size
    if n == 0:
        return np.zeros(0, dtype=bool)
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    new_group[1:] = (seq_id[1:] != seq_id[:-1]) | (diag[1:] != diag[:-1])
    group_id = np.cumsum(new_group) - 1
    group_first = np.flatnonzero(new_group)
    group_past = np.append(group_first[1:], n)
    # One composite key per seed; the stride clears every position *and*
    # every extension reach so targets never alias the next group.
    stride = np.int64(int(s_end.max()) + 2)
    keyed = group_id * stride + spos
    kept = np.zeros(n, dtype=bool)
    # Wave 0: the first seed of every group (scalar reach resets to -1).
    cur = group_first
    while cur.size:
        kept[cur] = True
        # First in-group seed past this extension's reach, per chain.
        nxt = np.searchsorted(keyed, group_id[cur] * stride + s_end[cur], side="right")
        alive = nxt < group_past[group_id[cur]]
        cur = nxt[alive]
    return kept


def select_seeds_and_extend(
    tagged: TaggedHits,
    db: SequenceDatabase,
    pssm: np.ndarray,
    query_cols: np.ndarray,
    word_length: int,
    x_drop: np.ndarray,
) -> tuple[ExtensionArray, int, np.ndarray, np.ndarray]:
    """Apply both rules and run ungapped extension on every triggered seed,
    for every query of the stream at once.

    ``pssm`` is the batch's PSSMs stacked column-wise; query ``q`` owns
    columns ``[query_cols[q], query_cols[q + 1])`` and extends under
    ``x_drop[q]``.

    Returns
    -------
    (extensions, num_seeds, bounds, seeds_per_query):
        One query-major :class:`~repro.core.results.ExtensionArray` — per
        query in ``(seq_id, diagonal, subject_pos)`` seed order, with
        query-local coordinates — whose rows ``bounds[q]:bounds[q + 1]``
        belong to query ``q``; the number of hits that passed the two-hit
        rule (the paper's "hits passed to ungapped extension", 5-11 % of
        all hits) in total and per query.
    """
    layout = tagged.layout
    seeds = tagged.keys[seed_mask(tagged.keys, layout, word_length)]
    seed_bounds = np.searchsorted(seeds, layout.query_starts(query_cols.size - 1))
    query, seq_id, diag, spos = layout.unpack(seeds)
    lo, hi = query_cols[query], query_cols[query + 1]

    # Extend every seed in one vectorised batch (results for seeds that turn
    # out to be covered are simply discarded — recomputing eagerly is the
    # same trade the paper's hit-based kernel makes, and it is what lets
    # phase 2 run without a per-seed Python loop).
    q_start, q_end, s_start, s_end, score = batch_ungapped_extend(
        pssm,
        db.codes,
        db.offsets[seq_id],
        db.offsets[seq_id + 1],
        lo,
        hi,
        hi + spos - diag,  # lo + query_pos: diagonal = spos - qpos + qlen
        spos,
        word_length,
        x_drop[query],
    )

    # Coverage pass per (query, sequence, diagonal) group: keep a seed only
    # when it starts beyond the previous kept extension's subject end. Fully
    # vectorised (see covered_seed_mask); kept rows stay in seed order.
    kept = covered_seed_mask(seeds >> layout.seq_shift, diag, spos, s_end)
    lo = lo[kept]
    extensions = ExtensionArray(
        seq_id=seq_id[kept],
        query_start=q_start[kept] - lo,
        query_end=q_end[kept] - lo,
        subject_start=s_start[kept],
        subject_end=s_end[kept],
        score=score[kept],
    )
    bounds = np.concatenate(([0], np.cumsum(kept)))[seed_bounds]
    return extensions, int(seeds.size), bounds, np.diff(seed_bounds)
