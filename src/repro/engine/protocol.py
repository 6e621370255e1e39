"""The engine protocol: compile once, run anywhere.

Every search implementation in the package — the reference pipeline,
cuBLASTP, and the baselines — satisfies :class:`Engine`:

* ``compile(query)`` builds the query-side structures once
  (:class:`~repro.engine.compiled.CompiledQuery`);
* ``run(compiled, db, query_id=None, events=None)`` executes the search
  and returns the canonical :class:`~repro.core.results.SearchResult`,
  emitting phase events into ``events`` (default: the engine's own log);
* ``run_with_report(compiled, db, query_id=None, events=None)``
  (optional, :class:`ReportingEngine`) additionally returns the engine's
  timing report.

The reference pipeline implements these itself; every other production
engine inherits them from :class:`~repro.engine.modelled.ModelledEngine`
and supplies only its phases 1–2 and its report.

Engines are interchangeable everywhere one is accepted: the batch
executor, the cluster layer, the CLI, and the benchmarks all program
against this protocol. :func:`make_engine` builds a query-less engine
instance from a registry name — the same names the CLI's ``--engine``
flag accepts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol, runtime_checkable

from repro.engine.compiled import CompiledQuery

if TYPE_CHECKING:
    import numpy as np

    from repro.core.results import SearchResult
    from repro.core.statistics import SearchParams
    from repro.cublastp.config import CuBlastpConfig
    from repro.engine.events import EventLog
    from repro.io.database import SequenceDatabase


@runtime_checkable
class Engine(Protocol):
    """A protein-search implementation."""

    name: str

    def compile(self, query: "str | np.ndarray") -> CompiledQuery:
        """Build the query-side structures for this engine's parameters."""
        ...

    def run(
        self,
        compiled: CompiledQuery,
        db: "SequenceDatabase",
        query_id: "str | None" = None,
        events: "EventLog | None" = None,
    ) -> "SearchResult":
        """Search ``db`` with an already-compiled query."""
        ...


@runtime_checkable
class ReportingEngine(Engine, Protocol):
    """An engine that also produces a timing report."""

    def run_with_report(
        self,
        compiled: CompiledQuery,
        db: "SequenceDatabase",
        query_id: "str | None" = None,
        events: "EventLog | None" = None,
    ) -> "tuple[SearchResult, Any]":
        ...


#: Registry names accepted by :func:`make_engine` (and ``--engine``).
ENGINE_NAMES = ("cublastp", "reference", "fsa", "ncbi", "cuda-blastp", "gpu-blastp")

#: ``cublastp`` accepts an extension-strategy suffix, e.g.
#: ``"cublastp:diagonal"`` — one name per Fig. 9 strategy, used by the
#: differential-verification matrix to pin each strategy as its own
#: implementation under test.
CUBLASTP_STRATEGY_NAMES = (
    "cublastp:diagonal",
    "cublastp:hit",
    "cublastp:window",
)


def make_engine(
    name: str,
    params: "SearchParams | None" = None,
    *,
    config: "CuBlastpConfig | None" = None,
    threads: int | None = None,
    device: Any | None = None,
    events: "EventLog | None" = None,
) -> Engine:
    """Construct a query-less engine instance by registry name.

    Parameters
    ----------
    name:
        One of :data:`ENGINE_NAMES`, a ``cublastp:<strategy>`` name, or
        ``reference:serial-gapped`` (the differential oracle,
        :class:`~repro.verify.oracle.SerialOracle`).
    params:
        Search parameters every query compiled by the engine inherits.
    config:
        cuBLASTP configuration (``cublastp`` only).
    threads:
        CPU thread count (``ncbi`` only; defaults to the paper's 4).
    device:
        Simulated device spec for the GPU engines.
    events:
        Event log the engine's searches emit phase events into.
    """
    if name == "cublastp" or name.startswith("cublastp:"):
        from repro.cublastp.config import CuBlastpConfig, ExtensionMode
        from repro.cublastp.search import CuBlastp
        from repro.gpusim.device import K20C

        if name != "cublastp":
            if config is not None:
                raise ValueError(
                    "pass either a strategy-suffixed name or an explicit "
                    "config, not both"
                )
            strategy = name.split(":", 1)[1]
            try:
                mode = ExtensionMode(strategy)
            except ValueError:
                raise ValueError(
                    f"unknown cublastp extension strategy {strategy!r} "
                    f"(choose from {', '.join(m.value for m in ExtensionMode)})"
                ) from None
            config = CuBlastpConfig(extension_mode=mode)
        return CuBlastp(None, params, config, device or K20C, events=events)
    if name == "reference":
        from repro.core.pipeline import BlastpPipeline

        return BlastpPipeline(None, params, events=events)
    if name.startswith("reference:"):
        suffix = name.split(":", 1)[1]
        if suffix != "serial-gapped":
            raise ValueError(
                f"unknown reference variant {suffix!r} (choose from serial-gapped)"
            )
        # The differential oracle lives with the verifier, not in core.
        from repro.verify.oracle import SerialOracle

        return SerialOracle(params)
    if name == "fsa":
        from repro.baselines.fsa_blast import FsaBlast

        return FsaBlast(None, params, events=events)
    if name == "ncbi":
        from repro.baselines.ncbi_blast import NcbiBlast

        return NcbiBlast(
            None, params, threads=threads if threads is not None else 4, events=events
        )
    if name in ("cuda-blastp", "gpu-blastp"):
        from repro.baselines.cuda_blastp import CudaBlastp
        from repro.baselines.gpu_blastp import GpuBlastp
        from repro.gpusim.device import K20C

        cls = CudaBlastp if name == "cuda-blastp" else GpuBlastp
        return cls(None, params, device or K20C, events=events)
    raise ValueError(f"unknown engine {name!r} (choose from {', '.join(ENGINE_NAMES)})")
