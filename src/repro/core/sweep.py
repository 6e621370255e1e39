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
accumulate across blocks (:func:`sweep_extensions`); gapped extension and
traceback then run per query (:func:`sweep_finish`, over the one phase 3–4
tail every engine shares, :func:`finish_phases`).

This is the only phase 1–2 path in production: per-query search is the
one-query sweep (:meth:`BlastpPipeline.search_with_counts`). Why a
query's result does not depend on the batch around it or on the block
cut (the conformance argument, enforced by the verify matrix against the
independent scan of :mod:`repro.verify.oracle`, and by the property
suite):

* hit detection — the sweep produces, per query, the same hit multiset as
  the oracle's whole-database scan
  (:func:`~repro.verify.oracle.detect_hits`);
* two-hit + ungapped extension — sorted keys are query-major, then
  ``(seq_id, diagonal, subject_pos)``: per query exactly the order a
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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.core.gapped import GappedExtension
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

#: One swept block (:func:`sweep_extend_block`'s return): per-query
#: extension columns, hit counts and seed counts, plus the phase wall split.
BlockOutput = tuple[list[ExtensionArray], list[int], list[int], dict[str, float]]


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
) -> BlockOutput:
    """Sweep one block and run block-local phase 2 for every query.

    Returns per-query ``(extensions, num_hits, num_seeds)`` plus a
    ``{"hit_detection": ms, "ungapped_extension": ms}`` wall split —
    extension columns carry global sequence ids (``seq_id_base`` rebases
    the block-local ids in one vectorised add), so accumulating them
    across blocks needs no further translation, and the wall split is
    what the block's phase events carry, whether the block ran in this
    process or in a pool worker.

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


@dataclass
class BlockSweep:
    """What sweeping a batch's blocks needs before the first block: the
    merged index, whole-database cutoffs and the block cut with each
    block's sequence-id base. Built the same way in this process
    (:func:`sweep_extensions`) and in a pool worker
    (:class:`~repro.engine.procpool.SweepBlockSpec`), so both sweep the
    same blocks against the same index. Iterating it sweeps every block
    in order."""

    pipelines: Sequence[BlastpPipeline]
    index: MultiQueryIndex
    cutoffs: "Sequence[Cutoffs]"
    blocks: Sequence[SequenceDatabase]
    bases: list[int]

    @classmethod
    def build(
        cls,
        pipelines: Sequence[BlastpPipeline],
        db: SequenceDatabase,
        blocks: Sequence[SequenceDatabase],
        cutoffs: "Sequence[Cutoffs] | None" = None,
    ) -> "BlockSweep":
        index = MultiQueryIndex.from_compiled([p.compiled for p in pipelines])
        if cutoffs is None:
            # Whole-database statistics: blocks never enter the cutoffs.
            cutoffs = [p.cutoffs(db) for p in pipelines]
        # Blocks of a view collapse onto the root parent, so their ``start``
        # is in root coordinates; rebase relative to ``db``'s own origin.
        db_start = getattr(db, "start", 0)
        bases = [getattr(b, "start", db_start) - db_start for b in blocks]
        return cls(pipelines, index, cutoffs, blocks, bases)

    def extend(self, b: int) -> BlockOutput:
        """:func:`sweep_extend_block` on block ``b``."""
        return sweep_extend_block(
            self.index, self.pipelines, self.blocks[b], self.cutoffs, seq_id_base=self.bases[b]
        )

    def __iter__(self) -> Iterator[BlockOutput]:
        return (self.extend(b) for b in range(len(self.blocks)))


def finish_phases(
    pipe: BlastpPipeline,
    db: SequenceDatabase,
    extensions: ExtensionArray,
    num_hits: int,
    num_seeds: int,
    cutoffs: "Cutoffs",
    *,
    engine_name: str | None = None,
    events: "EventLog | None" = None,
) -> tuple[SearchResult, PhaseCounts, list[GappedExtension]]:
    """Phases 3+4 for one query, from its phase-2 extension columns.

    The one phase 3–4 tail: the sweep, FSA-BLAST, cuBLASTP and the coarse
    GPU baselines all finish here, whatever produced their extensions
    (engines differ only in phases 1–2). In ungapped-only mode the
    extensions are rendered directly instead. Returns the assembled
    result, its per-phase work counts, and the gapped extensions phase 3
    accepted (empty in ungapped-only mode) — what the result and the CPU
    price both need. With an event log, each phase emits one timed record
    under ``engine_name`` (default: the pipeline's) carrying its
    work-item count.
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
    result, counts = pipe.assemble(
        db, extensions, num_hits, num_seeds, gapped, num_triggers, alignments
    )
    return result, counts, gapped


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
    """:func:`finish_phases` for one query of a sweep: the assembled
    result with its per-phase work counts. (A name of its own because the
    end-to-end benchmark times the sweep's phase 3–4 span through it.)"""
    result, counts, _ = finish_phases(
        pipe, db, extensions, num_hits, num_seeds, cutoffs,
        engine_name=engine_name, events=events,
    )
    return result, counts


def sweep_extensions(
    pipelines: Sequence[BlastpPipeline],
    db: SequenceDatabase,
    cutoffs: "Sequence[Cutoffs]",
    *,
    block_residues: int | None = None,
    blocks: Sequence[SequenceDatabase] | None = None,
    swept: Iterable[BlockOutput] | None = None,
    engine_name: str | None = None,
    events: "EventLog | None" = None,
) -> list[tuple[ExtensionArray, int, int]]:
    """Phases 1+2 for the whole batch through one blocked database sweep.

    Returns per query ``(extensions, num_hits, num_seeds)``, accumulated
    over every block — the input :func:`finish_phases` takes. ``cutoffs``
    holds one entry per query, resolved against the whole of ``db``. The
    remaining parameters are :func:`search_batch_sweep`'s.
    """
    if swept is None:
        if blocks is None:
            blocks = db.blocks(num_sweep_blocks(db, block_residues))
        swept = BlockSweep.build(pipelines, db, blocks, cutoffs)
    name = engine_name or pipelines[0].name
    n_queries = len(pipelines)
    # A one-query batch is per-query search: its block events keep the id.
    query_id = pipelines[0].query_id if n_queries == 1 else None
    # Per-query extension columns accumulate block by block and
    # concatenate once at the end — no per-record work crosses a block.
    all_extensions: list[list[ExtensionArray]] = [[] for _ in range(n_queries)]
    total_hits = [0] * n_queries
    total_seeds = [0] * n_queries
    for extensions, num_hits, num_seeds, phase_wall in swept:
        for q in range(n_queries):
            all_extensions[q].append(extensions[q])
            total_hits[q] += num_hits[q]
            total_seeds[q] += num_seeds[q]
        if events is None:
            continue
        # One record per phase and block, carrying the block's measured
        # walls, the same whether the block ran here or in a pool worker.
        block_items = {
            "hit_detection": sum(num_hits),
            "ungapped_extension": sum(len(e) for e in extensions),
        }
        for phase, items in block_items.items():
            events.emit(
                name, phase, work_items=items, wall_ms=phase_wall[phase], query_id=query_id
            )
    return [
        (ExtensionArray.concat(all_extensions[q]), total_hits[q], total_seeds[q])
        for q in range(n_queries)
    ]


def search_batch_sweep(
    pipelines: Sequence[BlastpPipeline],
    db: SequenceDatabase,
    *,
    block_residues: int | None = None,
    blocks: Sequence[SequenceDatabase] | None = None,
    swept: Iterable[BlockOutput] | None = None,
    engine_name: str | None = None,
    events: "EventLog | None" = None,
) -> list[tuple[SearchResult, PhaseCounts]]:
    """Run the whole batch through one blocked database sweep.

    :func:`sweep_extensions` for phases 1–2, then :func:`sweep_finish`
    per query. A one-query batch is the per-query search
    (:meth:`BlastpPipeline.search_with_counts`).

    Parameters
    ----------
    pipelines:
        One *bound* :class:`BlastpPipeline` per batch query (each carries
        its compiled query and ``query_id``).
    db:
        The full database (cutoff statistics are resolved against it).
    block_residues:
        Target residues per block (default
        :data:`DEFAULT_BLOCK_RESIDUES`); ignored when ``blocks`` or
        ``swept`` is given.
    blocks:
        Pre-cut contiguous blocks of ``db`` (e.g. the store's cached
        partition, :meth:`~repro.io.store.DatabaseStore.blocks`); each
        must be a :class:`~repro.io.database.DatabaseView` of ``db`` in
        ascending order — exactly what ``db.blocks(n)`` yields.
    swept:
        The blocks already swept elsewhere: :func:`sweep_extend_block`'s
        outputs in block order (the process pool's workers supply them).
        This process then builds no index and cuts no blocks; only the
        accumulation and phases 3–4 run here.
    engine_name:
        Name phase events are emitted under (default: the pipelines').
    events:
        Optional event log; the sweep emits one ``hit_detection`` and one
        ``ungapped_extension`` record per block (batch-scoped unless the
        batch is one query) and one timed ``gapped_extension`` and
        ``final_alignment`` record per query.
    """
    if not pipelines:
        return []
    name = engine_name or pipelines[0].name
    cutoffs = [pipe.cutoffs(db) for pipe in pipelines]
    accumulated = sweep_extensions(
        pipelines, db, cutoffs, block_residues=block_residues, blocks=blocks,
        swept=swept, engine_name=name, events=events,
    )
    return [
        sweep_finish(pipe, db, *accumulated[q], cutoffs[q], engine_name=name, events=events)
        for q, pipe in enumerate(pipelines)
    ]
