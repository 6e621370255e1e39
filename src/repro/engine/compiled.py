"""Compiled queries: the query-side build, extracted and shareable.

Every BLASTP implementation in this repo needs the same query-side
structures before it can touch the database: the encoded residues, the
optional SEG mask, the T-threshold word neighbourhood (and the DFA over
it), and the position-specific scoring matrix. None of it depends
on the engine or the database, so it is built in one place and shared
across engines, database blocks and cluster nodes. The one costly step,
the neighbourhood, is a gather from a process-lifetime word →
neighbour-words table (:mod:`repro.seeding.words`): a fraction of a
millisecond once the query's words are in the table, a few milliseconds
per hundred residues for words no earlier query contained. The table is
filled lazily, so importing this module or building an engine computes
nothing; the first queries of a process pay for the rows they add.

:func:`compile_query` performs the build exactly once and packages it as a
:class:`CompiledQuery` that any engine can execute against any database
(the :class:`~repro.engine.protocol.Engine` protocol's currency).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable

import numpy as np

from repro.alphabet import encode
from repro.analysis.witness import new_lock
from repro.matrices.pssm import build_pssm, build_score_table
from repro.seeding.words import Neighborhood, build_neighborhood

if TYPE_CHECKING:
    # Imported lazily at runtime: repro.core imports this module, so a
    # module-level import of repro.core.statistics would be circular.
    from repro.core.statistics import SearchParams
    from repro.seeding.dfa import QueryDFA


def compile_signature(params: SearchParams) -> tuple[Hashable, ...]:
    """The subset of ``params`` the compiled structures depend on.

    Everything else (E-value, gap penalties, window, cutoff bits,
    effective database size) only affects *execution*, so two parameter
    sets with equal signatures can share one :class:`CompiledQuery` — the
    cluster layer relies on this to rebind per-node statistics without
    recompiling.
    """
    return (
        params.matrix.name,
        params.matrix.scores.tobytes(),
        params.word_length,
        params.threshold,
        params.seg,
    )


class CompiledQuery:
    """Immutable query-side build artefacts of one (sequence, params) pair.

    Attributes
    ----------
    params:
        The full search parameters the query was compiled under.
    query_codes:
        Encoded query residues (``uint8``).
    seg_mask:
        SEG low-complexity mask (or ``None`` when ``params.seg`` is off).
    neighborhood:
        The T-threshold word neighbourhood: word index -> query positions.
    pssm:
        Position-specific scoring matrix (``alphabet x query_length``).
    score_table:
        The PSSM as the DP phases' ``int32`` score table
        (:func:`~repro.matrices.pssm.build_score_table`), read by the
        batched gapped extension and the traceback fill.

    The DFA form of the neighbourhood (:attr:`dfa`) is built lazily on
    first access and cached — CPU engines never need it — and the cache is
    shared across :meth:`with_params` rebindings, so a compiled query run
    on four cluster nodes builds its DFA once.
    """

    def __init__(
        self,
        params: SearchParams,
        query_codes: np.ndarray,
        seg_mask: np.ndarray | None,
        neighborhood: Neighborhood,
        pssm: np.ndarray,
        score_table: np.ndarray,
        _dfa_cell: list | None = None,
    ) -> None:
        self.params = params
        self.query_codes = query_codes
        self.seg_mask = seg_mask
        self.neighborhood = neighborhood
        self.pssm = pssm
        self.score_table = score_table
        # One-slot DFA cache shared between with_params() siblings.
        self._dfa_cell = _dfa_cell if _dfa_cell is not None else []  # guarded-by: self._dfa_lock
        self._dfa_lock = new_lock("CompiledQuery._dfa_lock")

    @property
    def query_length(self) -> int:
        return int(self.query_codes.size)

    @property
    def dfa(self) -> "QueryDFA":
        """The neighbourhood's DFA form (built once, on first use)."""
        if not self._dfa_cell:
            with self._dfa_lock:
                if not self._dfa_cell:
                    from repro.seeding.dfa import QueryDFA

                    self._dfa_cell.append(QueryDFA(self.neighborhood))
        return self._dfa_cell[0]

    def with_params(self, params: SearchParams) -> "CompiledQuery":
        """This compilation rebound to ``params``.

        Cheap (structure-sharing) when the compile signature matches —
        only execution-side parameters differ — otherwise a fresh compile.
        """
        if params is self.params:
            return self
        if compile_signature(params) == compile_signature(self.params):
            return CompiledQuery(
                params,
                self.query_codes,
                self.seg_mask,
                self.neighborhood,
                self.pssm,
                self.score_table,
                _dfa_cell=self._dfa_cell,
            )
        return compile_query(self.query_codes, params)


def compile_query(
    query: "str | np.ndarray | CompiledQuery",
    params: SearchParams | None = None,
) -> CompiledQuery:
    """Compile ``query`` under ``params`` (encode, SEG, neighbourhood, PSSM).

    Accepts a residue string, an encoded ``uint8`` array, or an existing
    :class:`CompiledQuery` (rebound to ``params`` when given).
    """
    if isinstance(query, CompiledQuery):
        return query if params is None else query.with_params(params)
    if params is None:
        from repro.core.statistics import SearchParams

        params = SearchParams()
    query_codes = encode(query) if isinstance(query, str) else np.asarray(query, dtype=np.uint8)
    if query_codes.size < params.word_length:
        raise ValueError("query shorter than the word length")
    pssm = build_pssm(query_codes, params.matrix)
    mask = None
    if params.seg:
        from repro.seeding.seg import seg_mask

        mask = seg_mask(query_codes)
    neighborhood = build_neighborhood(
        query_codes, params.matrix, params.word_length, params.threshold, masked=mask
    )
    return CompiledQuery(params, query_codes, mask, neighborhood, pssm, build_score_table(pssm))

