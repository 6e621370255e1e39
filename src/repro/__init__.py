"""cuBLASTP reproduction: fine-grained protein sequence search.

A from-scratch Python implementation of the BLASTP pipeline together with
the cuBLASTP system of Zhang, Wang & Feng (IPDPS 2014 / TCBB 2015): the
fine-grained GPU kernels run on a functional SIMT simulator whose cycle
model reproduces the paper's performance comparisons, and every
implementation in the package returns output identical to the sequential
reference.

Quickstart::

    from repro import CuBlastp, SequenceDatabase

    db = SequenceDatabase.from_strings(["MKTAYIAKQR...", ...])
    result = CuBlastp("MKWVTFISLLFLFSSAYS...").search(db)
    for hit in result.alignments:
        print(hit.subject_identifier, hit.bit_score, hit.evalue)

Package map
-----------
``repro.engine``
    The unified engine layer: compiled queries (built once, shared across
    engines and database blocks), the pluggable :class:`Engine` protocol,
    the concurrent :class:`BatchExecutor`, and the phase-event stream.
``repro.core``
    The four-phase BLASTP pipeline (the algorithmic ground truth).
``repro.cublastp``
    The paper's system: binning hit detection, segmented sort, filtering,
    three extension strategies, hierarchical buffering, CPU phases, and
    the GPU/CPU overlap pipeline.
``repro.gpusim``
    The simulated Kepler GPU (warps, divergence, coalescing, caches,
    occupancy) standing in for the paper's K20c.
``repro.baselines``
    FSA-BLAST, NCBI-BLAST xT, CUDA-BLASTP, GPU-BLASTP, Smith-Waterman.
``repro.io`` / ``repro.matrices`` / ``repro.seeding`` / ``repro.alphabet``
    Substrates: FASTA + packed databases + synthetic workloads, scoring
    and statistics, word neighbourhoods and the DFA, residue encoding.
``repro.perfmodel``
    The calibrated CPU cost model used for the CPU-side baselines.
"""

from repro.baselines import CudaBlastp, FsaBlast, GpuBlastp, NcbiBlast
from repro.core import Alignment, BlastpPipeline, SearchParams, SearchResult
from repro.cublastp import CuBlastp, CuBlastpConfig, ExtensionMode
from repro.engine import (
    BatchExecutor,
    CompiledQuery,
    Engine,
    EventLog,
    compile_query,
    make_engine,
)
from repro.gpusim import DeviceSpec, K20C
from repro.io import (
    DatabaseStore,
    DatabaseView,
    SequenceDatabase,
    WorkloadSpec,
    get_default_store,
    generate_database,
    generate_query,
    read_fasta_file,
    standard_queries,
    standard_workloads,
)
from repro.matrices import BLOSUM62

__version__ = "1.0.0"

__all__ = [
    "Alignment",
    "BLOSUM62",
    "BatchExecutor",
    "BlastpPipeline",
    "CompiledQuery",
    "CuBlastp",
    "CuBlastpConfig",
    "CudaBlastp",
    "DatabaseStore",
    "DatabaseView",
    "DeviceSpec",
    "Engine",
    "EventLog",
    "ExtensionMode",
    "FsaBlast",
    "GpuBlastp",
    "K20C",
    "NcbiBlast",
    "SearchParams",
    "SearchResult",
    "SequenceDatabase",
    "WorkloadSpec",
    "compile_query",
    "generate_database",
    "generate_query",
    "get_default_store",
    "make_engine",
    "read_fasta_file",
    "standard_queries",
    "standard_workloads",
]
