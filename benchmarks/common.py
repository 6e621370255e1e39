"""Shared benchmark harness: workloads, cached runs, table printing.

Every figure bench draws its configurations from one session-scoped
:class:`Lab`, which memoises simulation runs — several figures share the
same underlying kernel executions (e.g. Fig. 18's cuBLASTP runs are
Fig. 19's profiling subjects), and simulated launches are expensive.

Scale: the databases default to half the standard sandbox size so the full
benchmark suite finishes in minutes; set ``REPRO_BENCH_SCALE=1.0`` for the
full sandbox workloads (the shapes are scale-stable; EXPERIMENTS.md records
both).
"""

from __future__ import annotations

import os
from functools import lru_cache

from repro.baselines import CudaBlastp, FsaBlast, GpuBlastp, NcbiBlast
from repro.core import SearchParams
from repro.cublastp import CuBlastp, CuBlastpConfig, ExtensionMode
from repro.engine import compile_query
from repro.io import (
    DatabaseStore,
    generate_database,
    standard_queries,
    standard_workloads,
)

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

QUERIES = ("query127", "query517", "query1054")
DATABASES = ("swissprot_mini", "env_nr_mini")


class Lab:
    """Memoised implementations-by-configuration runner."""

    def __init__(self, scale: float = BENCH_SCALE) -> None:
        from dataclasses import replace

        self.scale = scale
        self.specs = standard_workloads(scale)
        # Homolog-enriched variant for the CPU-phase figures (Fig. 11/13):
        # phase 3/4 need enough gapped extensions to expose thread scaling,
        # which the homolog-sparse standard workloads deliberately starve.
        self.specs["swissprot_rich"] = replace(
            self.specs["swissprot_mini"], name="swissprot_rich", homolog_fraction=0.08
        )
        # Databases stay resident in a store for the whole suite: one
        # generation per workload, shared (read-only) by every engine.
        self.store = DatabaseStore(capacity=len(self.specs) + 2)
        self._queries = {}

    def db(self, name: str):
        return self.store.get(name, lambda: generate_database(self.specs[name]))

    def query(self, db_name: str, q_name: str) -> str:
        key = (db_name, q_name)
        if key not in self._queries:
            self._queries[key] = standard_queries(self.specs[db_name])[q_name]
        return self._queries[key]

    def params(self, db_name: str) -> SearchParams:
        return SearchParams(**self.specs[db_name].search_params_kwargs)

    @lru_cache(maxsize=None)
    def compiled(self, db_name: str, q_name: str):
        """The (db, query) pair's CompiledQuery: one build, bound by every
        engine and configuration in the suite (engine-layer sharing)."""
        return compile_query(self.query(db_name, q_name), self.params(db_name))

    # -- cached runs ---------------------------------------------------------

    @lru_cache(maxsize=None)
    def fsa(self, db_name: str, q_name: str):
        """(result, timing, counts) of FSA-BLAST."""
        return FsaBlast(self.compiled(db_name, q_name)).search_with_timing(
            self.db(db_name)
        )

    @lru_cache(maxsize=None)
    def ncbi(self, db_name: str, q_name: str, threads: int = 4):
        return NcbiBlast(
            self.compiled(db_name, q_name), threads=threads
        ).search_with_timing(self.db(db_name))

    @lru_cache(maxsize=None)
    def cublastp(self, db_name: str, q_name: str, **config_kwargs):
        """(result, report) of cuBLASTP under a given configuration."""
        cfg_kwargs = dict(config_kwargs)
        if "extension_mode" in cfg_kwargs:
            cfg_kwargs["extension_mode"] = ExtensionMode(cfg_kwargs["extension_mode"])
        cfg = CuBlastpConfig(**cfg_kwargs)
        cb = CuBlastp(self.compiled(db_name, q_name), None, cfg)
        return cb.search_with_report(self.db(db_name))

    @lru_cache(maxsize=None)
    def coarse(self, system: str, db_name: str, q_name: str):
        """(result, report) of a coarse baseline ('cuda' or 'gpu')."""
        cls = CudaBlastp if system == "cuda" else GpuBlastp
        return cls(self.compiled(db_name, q_name)).search_with_report(
            self.db(db_name)
        )


_LAB: Lab | None = None


def get_lab() -> Lab:
    """The process-wide lab (shared across bench modules)."""
    global _LAB
    if _LAB is None:
        _LAB = Lab()
    return _LAB


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Print one paper-style table."""
    widths = [
        max(len(str(h)), max((len(_fmt(r[i])) for r in rows), default=0))
        for i, h in enumerate(headers)
    ]
    print(f"\n=== {title} ===")
    print("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    for r in rows:
        print("  ".join(_fmt(v).ljust(w) for v, w in zip(r, widths)))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.3f}" if abs(v) < 100 else f"{v:.1f}"
    return str(v)
