"""The reference four-phase BLASTP pipeline.

:class:`BlastpPipeline` holds one compiled query and the phase methods
that are the single source of truth for inter-phase plumbing (seed
choice, containment de-duplication, cutoff application). Phases 1–2 run
through the database sweep (:mod:`repro.core.sweep`), phases 3–4 through
:meth:`BlastpPipeline.phase_gapped` / :meth:`BlastpPipeline.phase_traceback`,
sequenced once for every engine by :func:`repro.core.sweep.finish_phases`.
The baselines and cuBLASTP replace only phases 1–2, so behavioural
differences between implementations are confined to the phases the paper
actually re-designs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.gapped import GappedExtension
from repro.core.gapped_batch import batch_gapped_extend
from repro.core.hits import TaggedHits
from repro.core.results import Alignment, ExtensionArray, SearchResult
from repro.core.statistics import (
    Cutoffs,
    SearchParams,
    bit_scores_for_scores,
    evalues_for_scores,
    resolve_cutoffs,
)
from repro.core.traceback import batch_traceback_align
from repro.core.two_hit import select_seeds_and_extend
from repro.engine.compiled import CompiledQuery, compile_query
from repro.errors import ConfigError
from repro.io.database import SequenceDatabase

if TYPE_CHECKING:
    from repro.engine.events import EventLog


@dataclass(frozen=True)
class PhaseCounts:
    """Work-item counts of one search, phase by phase.

    These drive the performance models: both the CPU cost model and the GPU
    simulator charge per work item, so identical counts guarantee the
    performance comparison measures *architecture*, not workload drift.
    """

    num_hits: int
    num_seeds: int
    num_ungapped_extensions: int
    num_gapped_triggers: int
    num_gapped_extensions: int
    num_traceback: int
    num_reported: int


def phase_ungapped_tagged(
    pipelines: "Sequence[BlastpPipeline]",
    tagged: TaggedHits,
    db: SequenceDatabase,
    cutoffs: Sequence[Cutoffs],
) -> tuple[ExtensionArray, int, np.ndarray, np.ndarray]:
    """Phase 2 for every query of a tagged hit stream at once.

    Stacks the batch's PSSMs column-wise and hands the stream to
    :func:`~repro.core.two_hit.select_seeds_and_extend`, whose result it
    returns: the query-major extension stream, the seed count, the
    stream's per-query row bounds and the per-query seed counts.
    """
    window = tagged.layout.two_hit_window
    if any(p.params.two_hit_window != window for p in pipelines):
        raise ConfigError(
            "all queries of a batch must share the two-hit window the hit "
            f"stream was keyed for ({window})"
        )
    query_cols = np.zeros(len(pipelines) + 1, dtype=np.int64)
    np.cumsum([p.query_length for p in pipelines], out=query_cols[1:])
    return select_seeds_and_extend(
        tagged,
        db,
        np.concatenate([p.pssm for p in pipelines], axis=1),
        query_cols,
        pipelines[0].params.word_length,
        np.array([c.x_drop_ungapped for c in cutoffs], dtype=np.int64),
    )


def gapped_candidates(
    extensions: ExtensionArray, cutoffs: Cutoffs
) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Phase 3's input: the segments scoring at least the gap trigger,
    best-first per sequence.

    Returns ``(num_triggers, seq_ids, seed_query, seed_subject)`` — the
    candidate columns in best-first order, each seed point the middle of
    its segment.
    """
    trig = extensions.take(extensions.score >= cutoffs.gap_trigger)
    # Best-first per sequence; lexsort is stable, so full ties keep
    # stream order.
    order = np.lexsort(
        (trig.query_start, trig.subject_start, trig.seq_id, -trig.score)
    )
    mid = trig.lengths // 2
    seqs = trig.seq_id[order].astype(np.int64)
    seed_q = (trig.query_start + mid)[order].astype(np.int64)
    seed_s = (trig.subject_start + mid)[order].astype(np.int64)
    return len(trig), seqs, seed_q, seed_s


class BlastpPipeline:
    """Reference BLASTP search for one query.

    :meth:`search` is the one-query case of the batch sweep
    (:func:`~repro.core.sweep.search_batch_sweep`); the scalar
    differential oracle it is checked against lives in
    :mod:`repro.verify.oracle`.

    Parameters
    ----------
    query:
        Query sequence as a residue string, an encoded ``uint8`` array, or
        an already-built :class:`~repro.engine.compiled.CompiledQuery`
        (shared query-side structures; ``params`` rebinds it when given).
        ``None`` builds a query-less instance usable only through the
        engine protocol (:meth:`compile` / :meth:`run`).
    params:
        Search parameters (defaults are the BLASTP standards).
    events:
        Optional :class:`~repro.engine.events.EventLog` the phases emit
        their records into.
    """

    #: Engine-protocol name.
    name = "reference"

    def __init__(
        self,
        query: str | np.ndarray | CompiledQuery | None = None,
        params: SearchParams | None = None,
        *,
        events: EventLog | None = None,
        query_id: str | None = None,
    ) -> None:
        self.events = events
        self.query_id = query_id
        if query is None:
            self.compiled: CompiledQuery | None = None
            self.params = params or SearchParams()
            return
        self.compiled = compile_query(query, params)
        self.params = self.compiled.params
        self.query_codes = self.compiled.query_codes
        self.pssm = self.compiled.pssm
        self.score_table = self.compiled.score_table
        self.seg_mask = self.compiled.seg_mask
        self.neighborhood = self.compiled.neighborhood

    @property
    def query_length(self) -> int:
        return int(self.query_codes.size)

    # -- engine protocol ---------------------------------------------------

    def compile(self, query: str | np.ndarray) -> CompiledQuery:
        """Compile ``query`` under this engine's parameters."""
        return compile_query(query, self.params)

    def _bind(
        self,
        compiled: CompiledQuery,
        query_id: str | None,
        events: EventLog | None = None,
    ) -> BlastpPipeline:
        """This engine bound to a compiled query (cheap: no rebuild),
        emitting into ``events`` (default: its own log)."""
        events = events if events is not None else self.events
        if compiled is self.compiled and query_id == self.query_id and events is self.events:
            return self
        return type(self)(compiled, events=events, query_id=query_id)

    def run(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
        events: EventLog | None = None,
    ) -> SearchResult:
        """Search ``db`` with an already-compiled query."""
        return self._bind(compiled, query_id, events).search(db)

    def run_with_report(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
        events: EventLog | None = None,
    ) -> tuple[SearchResult, PhaseCounts]:
        """Like :meth:`run`, with the per-phase work counts as the report."""
        return self._bind(compiled, query_id, events).search_with_counts(db)

    def cutoffs(self, db: SequenceDatabase) -> Cutoffs:
        """Raw-score cutoffs for this query against ``db``."""
        return resolve_cutoffs(self.params, self.query_length, int(db.codes.size))

    # -- phases ------------------------------------------------------------

    def phase_gapped(
        self,
        extensions: ExtensionArray,
        db: SequenceDatabase,
        cutoffs: Cutoffs,
    ) -> tuple[list[GappedExtension], int]:
        """Phase 3: gapped extension on high-scoring ungapped segments.

        Segments scoring below the gap trigger are dropped — a vectorised
        columnar filter, as is the best-first ordering and per-segment
        seed-point arithmetic. Triggered segments are processed best-first
        per sequence, and a segment whose seed point already lies inside
        an accepted extension's bounding box is skipped (BLAST's
        containment rule) — it would rediscover the same alignment.

        Scheduling: the only serial dependency in the best-first loop is
        BLAST's *per-sequence* containment rule, so the wave mode
        processes candidates in rounds — each round batch-extends the
        first surviving candidate of every sequence (provably
        independent: a box only ever suppresses later seeds of its own
        sequence) through one ragged-row batched DP, applies the new
        boxes with a vectorised containment test, and repeats. The
        accepted set, each extension's fields, and the output order are
        identical to the scalar best-first loop
        (:func:`repro.verify.oracle.serial_gapped`); the property suite
        and the verify matrix, whose oracle runs that loop, pin it.

        Returns
        -------
        (gapped_extensions, num_triggers)
        """
        num_triggers, seqs, seed_q, seed_s = gapped_candidates(extensions, cutoffs)
        go, ge = self.params.gap_open, self.params.gap_extend
        xd = cutoffs.x_drop_gapped
        accepted = []
        accepted_pos: list[np.ndarray] = []
        # ``pos`` holds the surviving candidates as indices into the
        # best-first order; each wave takes every sequence's head.
        pos = np.arange(seqs.size, dtype=np.int64)
        while pos.size:
            rem_seq = seqs[pos]
            by_seq = np.argsort(rem_seq, kind="stable")
            head = np.ones(by_seq.size, dtype=bool)
            srt = rem_seq[by_seq]
            head[1:] = srt[1:] != srt[:-1]
            pick = by_seq[head]  # one head per sequence, ascending seq_id
            chosen = pos[pick]
            wave = batch_gapped_extend(
                self.score_table, db, seqs[chosen], seed_q[chosen], seed_s[chosen],
                go, ge, xd, cutoffs.report_cutoff,
            )
            accepted.extend(wave)
            accepted_pos.append(chosen)
            rest = np.delete(pos, pick)
            if rest.size == 0:
                break
            # Vectorised containment: each remaining candidate tests
            # against its sequence's box from this wave (sequences are
            # unique within a wave, so searchsorted finds the one box).
            wave_seq = srt[head]
            slot = np.searchsorted(wave_seq, seqs[rest])
            slot_c = np.minimum(slot, wave_seq.size - 1)
            bqs = np.fromiter(
                (g.box_query_start for g in wave), np.int64, len(wave)
            )
            bqe = np.fromiter(
                (g.box_query_end for g in wave), np.int64, len(wave)
            )
            bss = np.fromiter(
                (g.box_subject_start for g in wave), np.int64, len(wave)
            )
            bse = np.fromiter(
                (g.box_subject_end for g in wave), np.int64, len(wave)
            )
            covered = (
                (wave_seq[slot_c] == seqs[rest])
                & (bqs[slot_c] <= seed_q[rest]) & (seed_q[rest] <= bqe[slot_c])
                & (bss[slot_c] <= seed_s[rest]) & (seed_s[rest] <= bse[slot_c])
            )
            pos = rest[~covered]
        if not accepted:
            return [], num_triggers
        # Waves visit candidates out of best-first order (every sequence's
        # head at once); restore the serial loop's acceptance order.
        serial_order = np.argsort(np.concatenate(accepted_pos))
        return [accepted[int(k)] for k in serial_order], num_triggers

    def phase_traceback(
        self,
        gapped: list[GappedExtension],
        db: SequenceDatabase,
        cutoffs: Cutoffs,
    ) -> list[Alignment]:
        """Phase 4: the reported alignments, each with its traceback.

        Which extensions are reported is decided from their own scores
        and endpoints, before any walk: the report cutoff, then
        de-duplication on ``(seq_id, endpoints)`` keeping the first in
        phase-3 acceptance order, the E-value cutoff, the report order
        and the ``max_alignments`` cut. Only the reported extensions are
        then walked and rendered, in one
        :func:`~repro.core.traceback.batch_traceback_align` call over the
        direction bytes phase 3 recorded; each alignment keeps its
        extension's score and endpoints.
        """
        seen: set[tuple[int, int, int, int, int]] = set()
        kept: list[tuple[GappedExtension, float]] = []
        db_residues = cutoffs.effective_db_residues or int(db.codes.size)
        # One comparison per gapped extension (hundreds at most); the
        # reported ones feed one batched walk below.
        for g in gapped:  # reprolint: disable=no-per-record-loop-in-phase
            if g.score < cutoffs.report_cutoff:
                continue
            key = (g.seq_id, g.query_start, g.query_end, g.subject_start, g.subject_end)
            if key in seen:
                continue
            seen.add(key)
            evalue = cutoffs.gapped.evalue(g.score, self.query_length, db_residues)
            if evalue <= self.params.evalue:
                kept.append((g, evalue))
        kept.sort(key=lambda k: (-k[0].score, k[0].seq_id, k[0].query_start, k[0].subject_start))
        kept = kept[: self.params.max_alignments]
        tbs = batch_traceback_align(
            self.pssm,
            self.query_codes,
            [db.sequence(g.seq_id) for g, _ in kept],
            [g for g, _ in kept],
        )
        return [
            Alignment(
                seq_id=g.seq_id,
                subject_identifier=db.identifier(g.seq_id),
                score=tb.score,
                bit_score=cutoffs.gapped.bit_score(tb.score),
                evalue=evalue,
                query_start=tb.query_start,
                query_end=tb.query_end,
                subject_start=tb.subject_start,
                subject_end=tb.subject_end,
                aligned_query=tb.aligned_query,
                aligned_subject=tb.aligned_subject,
                midline=tb.midline,
                identities=tb.identities,
                positives=tb.positives,
                gaps=tb.gaps,
            )
            for (g, evalue), tb in zip(kept, tbs)
        ]

    def phase_ungapped_report(
        self,
        extensions: ExtensionArray,
        db: SequenceDatabase,
        cutoffs: Cutoffs,
    ) -> list[Alignment]:
        """Render ungapped HSPs directly (BLAST's ``-ungapped`` mode).

        Replaces phases 3 and 4: extensions meeting the E-value threshold
        under the *ungapped* Karlin-Altschul statistics become reported
        alignments (no gap columns by construction). E-values, bit
        scores, the threshold filter and the first-occurrence de-dup all
        run columnar; only the surviving (reported) rows are rendered.
        """
        from repro.alphabet import decode

        ext = extensions
        db_residues = cutoffs.effective_db_residues or int(db.codes.size)
        evalues = evalues_for_scores(
            cutoffs.ungapped, ext.score, self.query_length, db_residues
        )
        idx = np.flatnonzero(evalues <= self.params.evalue)
        if idx.size:
            # First survivor per (seq_id, query_start, subject_start):
            # sort by the key (stable, so ties keep stream order), keep
            # each run's head, then restore stream order — exactly the
            # retired ``seen``-set walk.
            order = np.lexsort(
                (ext.subject_start[idx], ext.query_start[idx], ext.seq_id[idx])
            )
            srt = idx[order]
            sid, qst, sst = ext.seq_id[srt], ext.query_start[srt], ext.subject_start[srt]
            head = np.ones(srt.size, dtype=bool)
            head[1:] = (
                (sid[1:] != sid[:-1]) | (qst[1:] != qst[:-1]) | (sst[1:] != sst[:-1])
            )
            idx = np.sort(srt[head])
        bits = bit_scores_for_scores(cutoffs.ungapped, ext.score[idx])
        out: list[Alignment] = []
        for j, k in enumerate(idx):
            qs, qe = int(ext.query_start[k]), int(ext.query_end[k])
            ss, se = int(ext.subject_start[k]), int(ext.subject_end[k])
            seq_id = int(ext.seq_id[k])
            q_seg = self.query_codes[qs : qe + 1]
            s_seg = db.sequence(seq_id)[ss : se + 1]
            aligned_query = decode(q_seg)
            # Vectorised midline/identity: identity columns echo the
            # query letter, positive-scoring mismatches mark '+'.
            eq = q_seg == s_seg
            pos = self.pssm[s_seg, np.arange(qs, qe + 1)] > 0
            midline = np.where(
                eq,
                np.frombuffer(aligned_query.encode("ascii"), dtype="S1"),
                np.where(pos, b"+", b" "),
            ).tobytes().decode("ascii")
            out.append(
                Alignment(
                    seq_id=seq_id,
                    subject_identifier=db.identifier(seq_id),
                    score=int(ext.score[k]),
                    bit_score=float(bits[j]),
                    evalue=float(evalues[k]),
                    query_start=qs,
                    query_end=qe,
                    subject_start=ss,
                    subject_end=se,
                    aligned_query=aligned_query,
                    aligned_subject=decode(s_seg),
                    midline=midline,
                    identities=int(eq.sum()),
                    positives=int((eq | pos).sum()),
                    gaps=0,
                )
            )
        out.sort(key=lambda a: (-a.score, a.seq_id, a.query_start, a.subject_start))
        return out[: self.params.max_alignments]

    def assemble(
        self,
        db: SequenceDatabase,
        extensions: ExtensionArray,
        num_hits: int,
        num_seeds: int,
        gapped: list[GappedExtension],
        num_triggers: int,
        alignments: list[Alignment],
    ) -> tuple[SearchResult, PhaseCounts]:
        """The search result and its per-phase work counts, from the four
        phases' outputs (``gapped`` is empty in ungapped-only mode)."""
        counts = PhaseCounts(
            num_hits=num_hits,
            num_seeds=num_seeds,
            num_ungapped_extensions=len(extensions),
            num_gapped_triggers=num_triggers,
            num_gapped_extensions=len(gapped),
            num_traceback=len(gapped),
            num_reported=len(alignments),
        )
        result = SearchResult(
            query_length=self.query_length,
            db_sequences=len(db),
            db_residues=int(db.codes.size),
            alignments=alignments,
            num_hits=num_hits,
            num_seeds=num_seeds,
            num_ungapped_extensions=counts.num_ungapped_extensions,
            num_gapped_extensions=counts.num_gapped_extensions,
            num_reported=counts.num_reported,
        )
        return result, counts

    # -- end-to-end --------------------------------------------------------

    def search(self, db: SequenceDatabase) -> SearchResult:
        """Run all four phases and assemble the result."""
        result, _ = self.search_with_counts(db)
        return result

    def search_with_counts(self, db: SequenceDatabase) -> tuple[SearchResult, PhaseCounts]:
        """Run all four phases and also return the per-phase work counts.

        The one-query batch sweep: with an
        :class:`~repro.engine.events.EventLog` attached, the phases emit
        the sweep's events — one ``hit_detection`` and one
        ``ungapped_extension`` record per block, then one timed
        ``gapped_extension`` and ``final_alignment`` record, each carrying
        its work-item count (the reference pipeline attributes no modelled time — it
        *is* the semantics, not a performance model).
        """
        from repro.core.sweep import search_batch_sweep

        [outcome] = search_batch_sweep([self], db, events=self.events)
        return outcome
