"""Batched database sweep: one blocked pass serves an entire query batch.

Per-query search costs ``O(queries x database)`` passes over the subject
codes. This driver inverts the loop: the database is streamed once in
residue-balanced blocks (:meth:`~repro.io.database.SequenceDatabase.blocks`)
and each block goes through one call site, :func:`sweep_extend_block`,
shared by the in-process sweep and the process pool's workers: sweep the
block through a :class:`~repro.seeding.multi_query.MultiQueryIndex` into
a *query-tagged* sorted key stream (:class:`~repro.core.hits.TaggedHits`),
run phase 2 on that stream for every query at once
(:func:`~repro.core.pipeline.phase_ungapped_tagged`), and only then, at
the block boundary, cut the query-major *extension* stream per query —
zero-copy slices (:meth:`~repro.seeding.multi_query.MultiQueryIndex.untag`).
Only the surviving extensions — thousands, not the millions of raw hits —
accumulate across blocks; gapped extension and traceback then run per
query exactly as the per-query pipeline does (:func:`sweep_finish`).

Why this is result-identical to per-query search (the conformance
argument, enforced by the verify matrix's ``cublastp-batched`` variants
and the property suite):

* hit detection — the sweep produces, per query, the same hit multiset as
  :func:`~repro.core.hit_detection.detect_hits`;
* two-hit + ungapped extension — sorted keys are query-major, then
  ``(seq_id, diagonal, subject_pos)``: per query exactly the order the
  one-query stream has, and every phase-2 step groups by ``(query,
  seq_id, diagonal)``, so a query's rows are what its own hits give.
  Blocks split on sequence boundaries; since no group straddles a block
  and blocks ascend in ``seq_id``, the per-block extension columns
  concatenated in block order equal the one-shot
  :class:`~repro.core.results.ExtensionArray`;
* gapped extension onward — runs on the accumulated extension columns
  with the same cutoffs (statistics are resolved against the *whole*
  database, never a block), through the same phase methods.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import TYPE_CHECKING, Sequence

from repro.core.pipeline import BlastpPipeline, PhaseCounts, phase_ungapped_tagged
from repro.core.results import ExtensionArray, SearchResult
from repro.io.database import SequenceDatabase
from repro.seeding.multi_query import MultiQueryIndex

if TYPE_CHECKING:
    from repro.core.statistics import Cutoffs
    from repro.engine.events import EventLog

#: Default residues per sweep block. Small enough that one block's tagged
#: hits for a large batch stay tens of MB; large enough that the per-block
#: fixed costs (word indexing setup, PSSM stacking, the split) amortise.
DEFAULT_BLOCK_RESIDUES = 50_000


def num_sweep_blocks(db: SequenceDatabase, block_residues: int | None = None) -> int:
    """Block count giving roughly ``block_residues`` residues per block."""
    target = DEFAULT_BLOCK_RESIDUES if block_residues is None else block_residues
    if target < 1:
        raise ValueError("block_residues must be positive")
    return max(1, min(len(db), round(int(db.codes.size) / target)))


def sweep_extend_block(
    index: MultiQueryIndex,
    pipelines: Sequence[BlastpPipeline],
    block: SequenceDatabase,
    cutoffs: "Sequence[Cutoffs]",
    seq_id_base: int = 0,
) -> tuple[list[ExtensionArray], list[int], list[int], dict[str, float]]:
    """Sweep one block and run block-local phase 2 for every query.

    Returns per-query ``(extensions, num_hits, num_seeds)`` plus a
    ``{"hit_detection": ms, "ungapped_extension": ms}`` wall split —
    extension columns carry global sequence ids (``seq_id_base`` rebases
    the block-local ids in one vectorised add), so accumulating them
    across blocks needs no further translation, and the wall split is
    what the caller's phase events carry (:func:`emit_block_phases`),
    whether the block ran in this process or in a pool worker.

    Subject coordinates inside an extension are sequence-local, so only
    the sequence id needs rebasing.
    """
    t0 = time.perf_counter()
    tagged = index.sweep_block(block, pipelines[0].params.two_hit_window)
    t1 = time.perf_counter()
    stream, _, bounds, num_seeds = phase_ungapped_tagged(pipelines, tagged, block, cutoffs)
    stream = stream.with_seq_offset(seq_id_base)
    extensions = [index.untag(stream, bounds, q) for q in range(len(pipelines))]
    phase_wall = {
        "hit_detection": (t1 - t0) * 1e3,
        "ungapped_extension": (time.perf_counter() - t1) * 1e3,
    }
    return extensions, tagged.per_query.tolist(), num_seeds.tolist(), phase_wall


def emit_block_phases(
    events: "EventLog",
    engine_name: str,
    phase_wall: dict[str, float],
    num_hits: int,
    num_extensions: int,
) -> None:
    """Record one swept block as closing ``hit_detection`` /
    ``ungapped_extension`` events carrying :func:`sweep_extend_block`'s
    measured walls — the same events whether the block ran in this
    process or in a pool worker (``wall_breakdown`` sums the ``wall_ms``
    meta directly; nobody saw the starts)."""
    for phase, items in (("hit_detection", num_hits), ("ungapped_extension", num_extensions)):
        events.emit(
            engine_name, phase, "end", work_items=items, wall_ms=phase_wall[phase]
        )


def sweep_finish(
    pipe: BlastpPipeline,
    db: SequenceDatabase,
    extensions: ExtensionArray,
    num_hits: int,
    num_seeds: int,
    cutoffs: "Cutoffs",
    *,
    engine_name: str | None = None,
    events: "EventLog | None" = None,
) -> tuple[SearchResult, PhaseCounts]:
    """Phases 3+4 for one query, from its accumulated extension list.

    This is the tail of :meth:`BlastpPipeline.search_with_counts` with the
    first two phases already paid by the sweep; the result assembly is
    identical field for field.
    """
    name = engine_name or pipe.name

    def phase(phase_name: str):
        if events is None:
            return nullcontext({})
        return events.phase(name, phase_name, query_id=pipe.query_id)

    if pipe.params.ungapped_only:
        gapped, num_triggers = [], 0
        with phase("final_alignment") as ev:
            alignments = pipe.phase_ungapped_report(extensions, db, cutoffs)
            ev["work_items"] = len(alignments)
    else:
        with phase("gapped_extension") as ev:
            gapped, num_triggers = pipe.phase_gapped(extensions, db, cutoffs)
            ev["work_items"] = len(gapped)
        with phase("final_alignment") as ev:
            alignments = pipe.phase_traceback(gapped, db, cutoffs)
            ev["work_items"] = len(alignments)
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
        query_length=pipe.query_length,
        db_sequences=len(db),
        db_residues=int(db.codes.size),
        alignments=alignments,
        num_hits=counts.num_hits,
        num_seeds=counts.num_seeds,
        num_ungapped_extensions=counts.num_ungapped_extensions,
        num_gapped_extensions=counts.num_gapped_extensions,
        num_reported=counts.num_reported,
    )
    return result, counts


def search_batch_sweep(
    pipelines: Sequence[BlastpPipeline],
    db: SequenceDatabase,
    *,
    block_residues: int | None = None,
    blocks: Sequence[SequenceDatabase] | None = None,
    engine_name: str | None = None,
    events: "EventLog | None" = None,
) -> list[tuple[SearchResult, PhaseCounts]]:
    """Run the whole batch through one blocked database sweep.

    Parameters
    ----------
    pipelines:
        One *bound* :class:`BlastpPipeline` per batch query (each carries
        its compiled query and ``query_id``).
    db:
        The full database (cutoff statistics are resolved against it).
    block_residues:
        Target residues per block (default
        :data:`DEFAULT_BLOCK_RESIDUES`); ignored when ``blocks`` is given.
    blocks:
        Pre-cut contiguous blocks of ``db`` (e.g. the store's cached
        partition, :meth:`~repro.io.store.DatabaseStore.blocks`); each
        must be a :class:`~repro.io.database.DatabaseView` of ``db`` in
        ascending order — exactly what ``db.blocks(n)`` yields.
    engine_name:
        Name phase events are emitted under (default: the pipelines').
    events:
        Optional event log; the sweep emits closing ``hit_detection`` /
        ``ungapped_extension`` events per block (batch-scoped; their
        ``wall_ms`` sums in ``wall_breakdown``) and per-query
        ``gapped_extension`` / ``final_alignment`` pairs.
    """
    if not pipelines:
        return []
    index = MultiQueryIndex.from_compiled([p.compiled for p in pipelines])
    name = engine_name or pipelines[0].name
    cutoffs = [pipe.cutoffs(db) for pipe in pipelines]
    if blocks is None:
        blocks = db.blocks(num_sweep_blocks(db, block_residues))
    n_queries = len(pipelines)
    # Per-query extension columns accumulate block by block and
    # concatenate once at finish — no per-record work crosses a block.
    all_extensions: list[list[ExtensionArray]] = [[] for _ in range(n_queries)]
    total_hits = [0] * n_queries
    total_seeds = [0] * n_queries
    # Blocks of a view collapse onto the root parent, so their ``start``
    # is in root coordinates; rebase relative to ``db``'s own origin.
    db_start = getattr(db, "start", 0)
    for block in blocks:
        base = getattr(block, "start", db_start) - db_start
        extensions, num_hits, num_seeds, phase_wall = sweep_extend_block(
            index, pipelines, block, cutoffs, seq_id_base=base
        )
        for q in range(n_queries):
            all_extensions[q].append(extensions[q])
            total_hits[q] += num_hits[q]
            total_seeds[q] += num_seeds[q]
        if events is not None:
            emit_block_phases(
                events, name, phase_wall, sum(num_hits), sum(len(e) for e in extensions)
            )
    return [
        sweep_finish(
            pipe,
            db,
            ExtensionArray.concat(all_extensions[q]),
            total_hits[q],
            total_seeds[q],
            cutoffs[q],
            engine_name=name,
            events=events,
        )
        for q, pipe in enumerate(pipelines)
    ]
