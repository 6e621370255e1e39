"""Baseline implementations the paper compares against.

* :mod:`~repro.baselines.smith_waterman` — optimal local alignment, the
  accuracy oracle BLAST approximates;
* :mod:`~repro.baselines.fsa_blast` — the sequential CPU reference
  (FSA-BLAST), whose output every other implementation must match;
* :mod:`~repro.baselines.ncbi_blast` — the multithreaded CPU model
  (NCBI BLAST with pthreads);
* :mod:`~repro.baselines.coarse_kernel` — the shared coarse-grained
  one-thread-per-sequence GPU kernel;
* :mod:`~repro.baselines.cuda_blastp` / :mod:`~repro.baselines.gpu_blastp`
  — the two published coarse-grained GPU BLASTP systems built on it.
"""

from repro.baselines.cuda_blastp import CudaBlastp
from repro.baselines.fsa_blast import FsaBlast, FsaBlastTiming
from repro.baselines.gpu_blastp import GpuBlastp
from repro.baselines.ncbi_blast import NcbiBlast
from repro.baselines.smith_waterman import smith_waterman_align, smith_waterman_score, sw_search_scores

__all__ = [
    "CudaBlastp",
    "FsaBlast",
    "FsaBlastTiming",
    "GpuBlastp",
    "NcbiBlast",
    "smith_waterman_align",
    "smith_waterman_score",
    "sw_search_scores",
]
