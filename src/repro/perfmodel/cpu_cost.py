"""CPU time models built on counted work.

Each function converts *measured* work quantities (from an actual search)
into modelled milliseconds. Multithreaded phases schedule per-item costs
with longest-processing-time (LPT) onto the thread count and report the
makespan — the same quantity a wall clock would see, including imbalance.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.core.gapped import GappedExtension
from repro.core.results import ExtensionArray
from repro.perfmodel.calibration import CPU_CLOCK_GHZ, CostConstants


def _cycles_to_ms(cycles: float, clock_ghz: float = CPU_CLOCK_GHZ) -> float:
    return cycles / (clock_ghz * 1e9) * 1e3


def ungapped_cells(extensions: ExtensionArray, x_drop: int) -> int:
    """Residues examined across all ungapped extensions.

    Each walk overshoots its best prefix until the x-drop fires, by up to
    ``x_drop`` mostly-negative single steps per direction; the model
    charges the returned segment length plus that overshoot — the honest
    approximation DESIGN.md documents for cost accounting.
    """
    return int(np.sum(extensions.lengths)) + 2 * x_drop * len(extensions)


def critical_phase_ms(
    num_words: int,
    num_hits: int,
    ext_cells: int,
    costs: CostConstants,
    threads: int = 1,
) -> float:
    """Modelled time of hit detection + ungapped extension on the CPU.

    With ``threads > 1`` the phase parallelises over subject sequences;
    word/hit/cell work is assumed balanced by the sheer number of
    sequences (the fine-grained imbalance that matters on a GPU warp
    averages out over thousands of sequences per thread).
    """
    cycles = (
        num_words * costs.word_lookup
        + num_hits * costs.hit_process
        + ext_cells * costs.ungapped_cell
    )
    ms = _cycles_to_ms(cycles / max(1, threads))
    if threads > 1:
        ms += costs.thread_sync_us / 1e3
    return ms


def gapped_work_items(gapped: Iterable[GappedExtension], costs: CostConstants) -> list[float]:
    """Per-extension gapped-DP cost in cycles.

    Charges the cells the x-drop DP *actually computed* (the live band the
    extension records), falling back to the bounding-box area when an
    extension predates cell counting — the band is typically several times
    smaller than the box, and using the box would overstate phase 3.
    """
    items = []
    for g in gapped:
        cells = g.cells
        if not cells:
            rows = g.box_query_end - g.box_query_start + 1
            cols = g.box_subject_end - g.box_subject_start + 1
            cells = rows * cols
        items.append(cells * costs.gapped_cell + costs.gapped_overhead)
    return items


def traceback_work_items(gapped: Iterable[GappedExtension], costs: CostConstants) -> list[float]:
    """Per-alignment traceback cost in cycles.

    A production traceback re-runs the *banded* DP with path bookkeeping,
    so the charge is the extension's band cells at the (heavier) traceback
    cell cost; the bounding box is the fallback when cells weren't counted.
    (This repo's reference traceback solves the whole box for simplicity —
    the model prices the algorithm BLAST ships, not that shortcut.)
    """
    items = []
    for g in gapped:
        cells = g.cells
        if not cells:
            rows = g.box_query_end - g.box_query_start + 1
            cols = g.box_subject_end - g.box_subject_start + 1
            cells = rows * cols
        items.append(cells * costs.traceback_cell + costs.gapped_overhead)
    return items


def thread_makespan_ms(
    items_cycles: Sequence[float],
    threads: int,
    costs: CostConstants,
    clock_ghz: float = CPU_CLOCK_GHZ,
) -> float:
    """LPT-schedule per-item costs onto ``threads`` and return the makespan.

    This is how the multithreaded gapped-extension / traceback phases are
    timed: a handful of large DP boxes on one thread caps scaling exactly
    as it would with real pthreads (Fig. 13's sub-linear tail).
    """
    if threads < 1:
        raise ValueError("threads must be positive")
    if not items_cycles:
        return 0.0
    loads = [0.0] * threads
    heapq.heapify(loads)
    for c in sorted(items_cycles, reverse=True):
        lightest = heapq.heappop(loads)
        heapq.heappush(loads, lightest + c)
    makespan = max(loads)
    ms = _cycles_to_ms(makespan, clock_ghz)
    if threads > 1:
        ms += costs.thread_sync_us / 1e3
    return ms


@dataclass(frozen=True)
class CpuPhaseTimes:
    """Modelled times of the CPU-side phases of one search."""

    gapped_ms: float
    traceback_ms: float
    threads: int

    @property
    def total_ms(self) -> float:
        return self.gapped_ms + self.traceback_ms
