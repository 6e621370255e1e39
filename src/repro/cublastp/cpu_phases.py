"""CPU-side phases: multithreaded gapped extension and traceback (§3.6).

Functionally these are the reference pipeline's phases 3 and 4 — cuBLASTP
does not change their algorithms, only parallelises them with pthreads.
With one sandbox core, thread scaling is *modelled*: the per-extension DP
costs are LPT-scheduled onto the configured thread count and the makespan
is reported (DESIGN.md §2), which reproduces the strong-scaling behaviour
of Fig. 13 including its load-imbalance tail.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.gapped import GappedExtension
from repro.core.pipeline import BlastpPipeline
from repro.core.results import Alignment, ExtensionArray
from repro.core.statistics import Cutoffs
from repro.io.database import SequenceDatabase
from repro.perfmodel.calibration import CostConstants, DEFAULT_COSTS
from repro.perfmodel.cpu_cost import (
    gapped_work_items,
    thread_makespan_ms,
    traceback_work_items,
)


@dataclass
class CpuPhaseResult:
    """Output + modelled timing of the CPU phases for one batch."""

    alignments: list[Alignment]
    gapped_extensions: list[GappedExtension]
    num_triggers: int
    gapped_ms: float
    traceback_ms: float
    threads: int

    @property
    def total_ms(self) -> float:
        return self.gapped_ms + self.traceback_ms


def run_cpu_phases(
    pipe: BlastpPipeline,
    extensions: ExtensionArray,
    db: SequenceDatabase,
    cutoffs: Cutoffs,
    threads: int,
    costs: CostConstants = DEFAULT_COSTS,
) -> CpuPhaseResult:
    """Run gapped extension + traceback, timing them at ``threads`` threads.

    Parameters
    ----------
    pipe:
        The reference pipeline for this query (provides PSSM and phases).
    extensions:
        Phase-2 output columns (from the GPU kernels or the CPU
        reference — they are identical, which is the point).
    threads:
        Modelled pthread count (the paper uses 1, 2, 4).
    costs:
        Per-operation CPU cost constants.
    """
    if pipe.params.ungapped_only:
        # BLAST's -ungapped mode: no phase 3/4, just HSP rendering (priced
        # at one ungapped-cell pass over the reported segments).
        alignments = pipe.phase_ungapped_report(extensions, db, cutoffs)
        render_cycles = sum(a.length for a in alignments) * costs.ungapped_cell
        ms = render_cycles / (3.1e9) * 1e3 / max(1, threads)
        return CpuPhaseResult(
            alignments=alignments,
            gapped_extensions=[],
            num_triggers=0,
            gapped_ms=0.0,
            traceback_ms=ms,
            threads=threads,
        )
    gapped, num_triggers = pipe.phase_gapped(extensions, db, cutoffs)
    gapped_ms = thread_makespan_ms(gapped_work_items(gapped, costs), threads, costs)
    alignments = pipe.phase_traceback(gapped, db, cutoffs)
    reported = [g for g in gapped if g.score >= cutoffs.report_cutoff]
    traceback_ms = thread_makespan_ms(
        traceback_work_items(reported, costs), threads, costs
    )
    return CpuPhaseResult(
        alignments=alignments,
        gapped_extensions=gapped,
        num_triggers=num_triggers,
        gapped_ms=gapped_ms,
        traceback_ms=traceback_ms,
        threads=threads,
    )
