"""The differential oracle: the reference search by an independent route.

Production runs phases 1–2 through the batched database sweep
(:mod:`repro.core.sweep`) and phase 3 as waves of batched DP
(:meth:`~repro.core.pipeline.BlastpPipeline.phase_gapped`). The oracle
keeps its own implementation of both, so the verify matrix and the
end-to-end benchmark check those paths against code they do not share:

1. :func:`detect_hits` — one vectorised scan of the whole database for
   the query's neighbour words, no multi-query index and no blocks;
2. :func:`tag_hits` — that scan's hits as a one-query tagged stream;
3. :func:`~repro.core.pipeline.phase_ungapped_tagged` — phase 2, shared
   with production;
4. :func:`serial_gapped` — the scalar best-first gapped loop under
   BLAST's containment rule, one candidate at a time;
5. :meth:`~repro.core.pipeline.BlastpPipeline.phase_traceback` /
   :meth:`~repro.core.pipeline.BlastpPipeline.phase_ungapped_report` —
   phase 4, shared with production.

:class:`SerialOracle` composes them behind the engine protocol;
``make_engine("reference:serial-gapped")`` builds it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.core.gapped import GappedExtension, gapped_extend
from repro.core.hits import HitArray, KeyLayout, TaggedHits
from repro.core.pipeline import (
    BlastpPipeline,
    PhaseCounts,
    gapped_candidates,
    phase_ungapped_tagged,
)
from repro.core.results import ExtensionArray, SearchResult
from repro.core.statistics import Cutoffs, SearchParams
from repro.engine.compiled import CompiledQuery, compile_query
from repro.io.database import SequenceDatabase
from repro.seeding.words import Neighborhood, word_indices

if TYPE_CHECKING:
    from repro.engine.events import EventLog


def detect_hits(nbr: Neighborhood, db: SequenceDatabase) -> HitArray:
    """Find every word hit between the query and every database sequence.

    Scans every subject column-major — exactly the order of Fig. 3 — in
    one vectorised pass: word indices for all subject windows at once,
    one CSR gather for the neighbourhood lists, then a ragged expansion.
    Returns the hits as one flat array in (sequence, column-major) order.
    """
    w = nbr.word_length
    offsets = db.offsets
    # Word index of every window of every sequence, computed on the packed
    # code array, then windows that straddle a sequence boundary are masked.
    widx_all = word_indices(db.codes, w)
    window_global = np.arange(widx_all.size, dtype=np.int64)
    # Sequence owning each window start; a window is valid when it ends
    # within the same sequence.
    owner = np.searchsorted(offsets, window_global, side="right") - 1
    valid = window_global + w <= offsets[owner + 1]
    widx = widx_all[valid]
    owner = owner[valid]
    local_pos = window_global[valid] - offsets[owner]

    starts = nbr.offsets[widx]
    counts = (nbr.offsets[widx + 1] - starts).astype(np.int64)
    total = int(counts.sum())
    # Ragged expansion of the CSR slices: hit ``k`` of a window reads
    # neighbourhood entry ``starts + k``.
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    return HitArray(
        seq_id=np.repeat(owner, counts),
        query_pos=nbr.positions[np.repeat(starts, counts) + within].astype(np.int64),
        subject_pos=np.repeat(local_pos, counts),
        query_length=nbr.query_length,
    )


def tag_hits(hits: HitArray, two_hit_window: int) -> TaggedHits:
    """One query's hits as a one-query stream (every key tagged query 0)."""
    diag = hits.diagonal
    layout = KeyLayout.fit(
        1,
        int(hits.seq_id.max(initial=0)),
        int(diag.max(initial=0)),
        int(hits.subject_pos.max(initial=0)),
        two_hit_window,
    )
    keys = layout.pack(0, hits.seq_id, diag, hits.subject_pos)
    return TaggedHits.from_keys(keys, layout, 1)


def serial_gapped(
    pipe: BlastpPipeline,
    extensions: ExtensionArray,
    db: SequenceDatabase,
    cutoffs: Cutoffs,
) -> tuple[list[GappedExtension], int]:
    """Phase 3 as the scalar best-first loop.

    Walks the triggered candidates (:func:`~repro.core.pipeline.gapped_candidates`)
    in best-first order, skipping any seed inside an accepted same-sequence
    bounding box; the box test is one vectorised comparison against flat
    accepted-box columns per candidate. Returns ``(gapped_extensions,
    num_triggers)`` — what :meth:`BlastpPipeline.phase_gapped` returns.
    """
    num_triggers, seqs, seed_q, seed_s = gapped_candidates(extensions, cutoffs)
    accepted: list[GappedExtension] = []
    box_cols = np.empty((5, 0), dtype=np.int64)
    for k in range(seqs.size):
        if box_cols.shape[1]:
            b_seq, bqs, bqe, bss, bse = box_cols
            covered = bool(
                np.any(
                    (b_seq == seqs[k])
                    & (bqs <= seed_q[k]) & (seed_q[k] <= bqe)
                    & (bss <= seed_s[k]) & (seed_s[k] <= bse)
                )
            )
            if covered:
                continue
        gext = gapped_extend(
            pipe.pssm,
            db.sequence(int(seqs[k])),
            int(seqs[k]),
            int(seed_q[k]),
            int(seed_s[k]),
            pipe.params.gap_open,
            pipe.params.gap_extend,
            cutoffs.x_drop_gapped,
        )
        accepted.append(gext)
        box = [
            [gext.seq_id],
            [gext.box_query_start],
            [gext.box_query_end],
            [gext.box_subject_start],
            [gext.box_subject_end],
        ]
        box_cols = np.concatenate([box_cols, np.array(box, dtype=np.int64)], axis=1)
    return accepted, num_triggers


class SerialOracle:
    """The oracle engine (``make_engine("reference:serial-gapped")``).

    Satisfies the :class:`~repro.engine.protocol.ReportingEngine`
    protocol; ``run_with_report``'s report is the search's
    :class:`~repro.core.pipeline.PhaseCounts`.
    """

    name = "reference:serial-gapped"

    def __init__(self, params: SearchParams | None = None) -> None:
        self.params = params or SearchParams()

    def compile(self, query: str | np.ndarray) -> CompiledQuery:
        """Compile ``query`` under this engine's parameters."""
        return compile_query(query, self.params)

    def run(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
        events: EventLog | None = None,
    ) -> SearchResult:
        """Search ``db`` with an already-compiled query."""
        return self.run_with_report(compiled, db, query_id)[0]

    def run_with_report(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
        events: EventLog | None = None,
    ) -> tuple[SearchResult, PhaseCounts]:
        """Like :meth:`run`, with the per-phase work counts as the report
        (the oracle emits no phase events; ``events`` is accepted for the
        protocol and ignored)."""
        pipe = BlastpPipeline(compiled, query_id=query_id)
        cutoffs = pipe.cutoffs(db)
        hits = detect_hits(pipe.neighborhood, db)
        tagged = tag_hits(hits, pipe.params.two_hit_window)
        extensions, num_seeds, _, _ = phase_ungapped_tagged([pipe], tagged, db, [cutoffs])
        if pipe.params.ungapped_only:
            gapped, num_triggers = [], 0
            alignments = pipe.phase_ungapped_report(extensions, db, cutoffs)
        else:
            gapped, num_triggers = serial_gapped(pipe, extensions, db, cutoffs)
            alignments = pipe.phase_traceback(gapped, db, cutoffs)
        return pipe.assemble(
            db, extensions, len(hits), num_seeds, gapped, num_triggers, alignments
        )
