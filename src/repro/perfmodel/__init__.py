"""Performance models for the CPU-side implementations and comparisons.

The GPU implementations are timed by the simulator's cycle model; the CPU
implementations (FSA-BLAST, NCBI-BLAST xT, and cuBLASTP's own CPU phases)
are timed by the cost model here: abstract operations are counted from the
*actual* search (word scans, hits, extension cells, DP cells) and priced
with the calibrated per-operation cycle constants of
:mod:`repro.perfmodel.calibration`. Multithreaded timings schedule the
per-item costs onto threads (LPT) and take the makespan, so load-imbalance
effects are real rather than assumed.
"""

from repro.perfmodel.calibration import CPU_CLOCK_GHZ, CostConstants, DEFAULT_COSTS, NCBI_COSTS
from repro.perfmodel.cpu_cost import (
    CpuPhaseTimes,
    cpu_phase_times,
    critical_phase_ms,
    gapped_work_items,
    thread_makespan_ms,
    traceback_work_items,
    ungapped_cells,
)

__all__ = [
    "CPU_CLOCK_GHZ",
    "CostConstants",
    "CpuPhaseTimes",
    "DEFAULT_COSTS",
    "NCBI_COSTS",
    "cpu_phase_times",
    "critical_phase_ms",
    "gapped_work_items",
    "thread_makespan_ms",
    "traceback_work_items",
    "ungapped_cells",
]
