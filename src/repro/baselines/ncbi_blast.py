"""NCBI BLAST model: the same pipeline, heavier engine, pthreads.

NCBI BLAST+ parallelises a search by partitioning subject sequences over
threads; every phase scales with the partition. The model inherits the
FSA-BLAST machinery with NCBI's per-operation costs and a thread count
(the paper compares against four threads).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.fsa_blast import FsaBlast
from repro.core.statistics import SearchParams
from repro.engine.compiled import CompiledQuery
from repro.engine.events import EventLog
from repro.perfmodel.calibration import NCBI_COSTS


class NcbiBlast(FsaBlast):
    """Multithreaded NCBI BLAST (modelled)."""

    costs = NCBI_COSTS
    name = "NCBI-BLAST"

    def __init__(
        self,
        query: "str | np.ndarray | CompiledQuery | None" = None,
        params: SearchParams | None = None,
        threads: int = 4,
        *,
        events: EventLog | None = None,
    ) -> None:
        super().__init__(query, params, events=events)
        if threads < 1:
            raise ValueError("threads must be positive")
        self.threads = threads
        self.name = f"NCBI-BLAST x{threads}"
