"""The engine skeleton: engines differ in phases 1–2 and share the rest.

The paper re-designs phases 1–2 and runs gapped extension and traceback
unchanged on the CPU (PAPER.md §1.5). :class:`ModelledEngine` is that
statement in code. It holds the query (a bound
:class:`~repro.core.pipeline.BlastpPipeline`), compiles, binds and runs it.
A subclass — cuBLASTP, FSA-BLAST / NCBI-BLAST, the coarse GPU baselines —
adds only its settings and :meth:`~ModelledEngine.search_with_report`: its
own phases 1–2, then the one phase 3–4 tail
(:func:`~repro.core.sweep.finish_phases`) priced by the one CPU price
(:func:`~repro.perfmodel.cpu_cost.cpu_phase_times`), then its report.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.core.pipeline import BlastpPipeline
from repro.engine.compiled import CompiledQuery, compile_query

if TYPE_CHECKING:
    from repro.core.results import SearchResult
    from repro.core.statistics import SearchParams
    from repro.engine.events import EventLog
    from repro.io.database import SequenceDatabase


class ModelledEngine:
    """A performance-modelled engine, bound to at most one query.

    Parameters
    ----------
    query:
        Query sequence (residue string, encoded array, or a
        :class:`~repro.engine.compiled.CompiledQuery`); ``None`` builds a
        query-less engine-protocol instance.
    params:
        Search parameters (defaults are the BLASTP standards).
    events:
        Optional :class:`~repro.engine.events.EventLog` the searches emit
        phase events into.
    query_id:
        Batch query identifier the events carry.

    Satisfies the :class:`~repro.engine.protocol.ReportingEngine`
    protocol; ``run_with_report``'s report is the subclass's
    :meth:`search_with_report` report.
    """

    name: str

    def __init__(
        self,
        query: str | np.ndarray | CompiledQuery | None = None,
        params: SearchParams | None = None,
        *,
        events: EventLog | None = None,
        query_id: str | None = None,
    ) -> None:
        self.events = events
        self.pipe = self._pipeline(query, params, query_id)

    def check_params(self, params: SearchParams) -> None:
        """Reject parameters this engine cannot run (default: none)."""

    def _pipeline(
        self,
        query: str | np.ndarray | CompiledQuery | None,
        params: SearchParams | None,
        query_id: str | None,
    ) -> BlastpPipeline:
        pipe = BlastpPipeline(query, params, query_id=query_id)
        if pipe.compiled is not None:
            self.check_params(pipe.params)
        return pipe

    @property
    def params(self) -> SearchParams:
        return self.pipe.params

    @property
    def compiled(self) -> CompiledQuery | None:
        return self.pipe.compiled

    @property
    def query_id(self) -> str | None:
        return self.pipe.query_id

    @property
    def query_length(self) -> int:
        return self.pipe.query_length

    # -- engine protocol ---------------------------------------------------

    def compile(self, query: str | np.ndarray) -> CompiledQuery:
        """Compile ``query`` under this engine's parameters."""
        self.check_params(self.params)
        return compile_query(query, self.params)

    def _bind(
        self,
        compiled: CompiledQuery,
        query_id: str | None,
        events: EventLog | None,
    ) -> ModelledEngine:
        """This engine, subclass settings included, bound to a compiled
        query and emitting into ``events`` (default: its own log)."""
        if (
            compiled is self.compiled
            and query_id == self.query_id
            and (events is None or events is self.events)
        ):
            return self
        bound = copy.copy(self)
        bound.pipe = self._pipeline(compiled, None, query_id)
        if events is not None:
            bound.events = events
        return bound

    def run(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
        events: EventLog | None = None,
    ) -> SearchResult:
        """Search ``db`` with an already-compiled query."""
        return self.run_with_report(compiled, db, query_id, events)[0]

    def run_with_report(
        self,
        compiled: CompiledQuery,
        db: SequenceDatabase,
        query_id: str | None = None,
        events: EventLog | None = None,
    ) -> tuple[SearchResult, Any]:
        """Like :meth:`run`, returning the engine's report as well."""
        return self._bind(compiled, query_id, events).search_with_report(db)

    # -- per-query API -----------------------------------------------------

    def search(self, db: SequenceDatabase) -> SearchResult:
        """Search ``db`` and return alignments (drops the report)."""
        return self.search_with_report(db)[0]

    def search_with_report(self, db: SequenceDatabase) -> tuple[SearchResult, Any]:
        """Phases 1–2, the shared tail, and the engine's report."""
        raise NotImplementedError
