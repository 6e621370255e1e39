"""Merged multi-query seeding index: one word table for a whole batch.

Per-query search walks the database once per query; the batched sweep
(:mod:`repro.core.sweep`) inverts that by walking the database *once* and
asking, for every subject word, "which positions of which queries match?"
:class:`MultiQueryIndex` is the structure that answers it: the CSR
neighbourhoods of every compiled query in the batch, merged into one
word → ``[(query_id, query_pos)]`` table. Chorus-style multi-query hashed
seeding, restated over this repo's CSR neighbourhoods.

This is production's only hit detector — per-query search is a one-query
batch. Semantics are pinned against an independent scan: for each query,
the keys :meth:`MultiQueryIndex.sweep_block` emits under that query's tag
decode to exactly the hits the differential oracle's whole-database scan
(:func:`repro.verify.oracle.detect_hits`) finds for that query alone —
the same multiset. The tag stays on through phase
2 (:mod:`repro.core.two_hit`); :meth:`MultiQueryIndex.untag` drops it
from the surviving extensions, at the block boundary. The property suite
(``tests/property``) and the unit tests enforce the equivalence.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.hits import KeyLayout, TaggedHits
from repro.core.results import ExtensionArray
from repro.errors import ConfigError
from repro.io.database import SequenceDatabase
from repro.seeding.words import Neighborhood, num_words, word_indices

if TYPE_CHECKING:
    from repro.engine.compiled import CompiledQuery


class MultiQueryIndex:
    """One word → ``[(query_id, query_pos)]`` table for a query batch.

    Built by merging the per-query CSR neighbourhoods: entries of one word
    are grouped by query (batch order) with query positions ascending
    inside each group. Every query must share one word length — mixed
    seeding geometries cannot share a sweep (:class:`ConfigError`).
    """

    def __init__(
        self,
        word_length: int,
        offsets: np.ndarray,
        positions: np.ndarray,
        query_ids: np.ndarray,
        query_lengths: Sequence[int],
    ) -> None:
        self.word_length = word_length
        self.offsets = offsets
        self.positions = positions
        self.query_ids = query_ids
        self.query_lengths = list(query_lengths)
        #: Per entry, ``query_length - query_pos``: the entry's share of a
        #: hit's diagonal number (the subject position is the other share).
        self.diag_offsets = (
            np.asarray(self.query_lengths, dtype=np.int64)[query_ids] - positions
        )

    @property
    def num_queries(self) -> int:
        return len(self.query_lengths)

    @property
    def total_entries(self) -> int:
        """Total (word, query, position) entries across the batch."""
        return int(self.positions.size)

    @classmethod
    def build(cls, neighborhoods: Sequence[Neighborhood]) -> "MultiQueryIndex":
        """Merge per-query neighbourhoods into one batch table."""
        if not neighborhoods:
            raise ConfigError("a multi-query index needs at least one query")
        word_length = neighborhoods[0].word_length
        for nbr in neighborhoods:
            if nbr.word_length != word_length:
                raise ConfigError(
                    "all queries of a batch must share one word length "
                    f"(got W={word_length} and W={nbr.word_length})"
                )
        n_words = num_words(word_length)
        word_ids = np.arange(n_words, dtype=np.int64)
        # Per entry: its word, owning query, and query position — then one
        # stable sort by word merges the per-query CSR tables while keeping
        # (query order, ascending position) inside each word's slice.
        words = np.concatenate(
            [np.repeat(word_ids, np.diff(nbr.offsets)) for nbr in neighborhoods]
        )
        qids = np.concatenate(
            [
                np.full(nbr.total_entries, q, dtype=np.int32)
                for q, nbr in enumerate(neighborhoods)
            ]
        )
        positions = np.concatenate([nbr.positions for nbr in neighborhoods])
        order = np.argsort(words, kind="stable")
        counts = np.bincount(words, minlength=n_words)
        offsets = np.zeros(n_words + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(
            word_length=word_length,
            offsets=offsets,
            positions=positions[order],
            query_ids=qids[order],
            query_lengths=[nbr.query_length for nbr in neighborhoods],
        )

    @classmethod
    def from_compiled(cls, compiled: "Sequence[CompiledQuery]") -> "MultiQueryIndex":
        """Build from the batch's compiled queries (the usual entry point)."""
        return cls.build([c.neighborhood for c in compiled])

    def entries_for_word(self, word_index: int) -> tuple[np.ndarray, np.ndarray]:
        """``(query_ids, query_positions)`` whose neighbourhood has the word."""
        lo, hi = self.offsets[word_index], self.offsets[word_index + 1]
        return self.query_ids[lo:hi], self.positions[lo:hi]

    # -- the sweep ---------------------------------------------------------

    def sweep_block(self, db: SequenceDatabase, two_hit_window: int) -> TaggedHits:
        """All hits of every batch query against one database block.

        The same vectorised pass as the oracle's scan
        (:func:`repro.verify.oracle.detect_hits`) — word indices for
        all subject windows, one CSR gather, ragged expansion — except
        that each hit is emitted as one packed ``(query, seq_id, diagonal,
        subject_pos)`` key, sized for this block and ``two_hit_window``
        (:class:`~repro.core.hits.KeyLayout`). Packing is linear, so a key
        is the sum of what the subject window knows (``seq_id`` and
        ``subject_pos``, the latter also as its share of the diagonal) and
        what the index entry knows (``query``, ``query_length -
        query_pos``): one repeat, one gather and one add per hit. The
        stream comes back sorted (:meth:`TaggedHits.from_keys`).
        """
        w = self.word_length
        offsets = db.offsets
        max_slen = int(np.diff(offsets).max(initial=0))
        layout = KeyLayout.fit(
            self.num_queries,
            max(len(db) - 1, 0),
            max_slen + max(self.query_lengths),
            max_slen,
            two_hit_window,
        )

        widx_all = word_indices(db.codes, w)
        window_global = np.arange(widx_all.size, dtype=np.int64)
        # Sequence owning each window start; a window is valid when it
        # ends within the same sequence.
        owner = np.searchsorted(offsets, window_global, side="right") - 1
        valid = window_global + w <= offsets[owner + 1]
        widx = widx_all[valid]
        owner = owner[valid]
        local_pos = window_global[valid] - offsets[owner]

        starts = self.offsets[widx]
        counts = self.offsets[widx + 1] - starts
        total = int(counts.sum())
        # Ragged expansion of the CSR slices (as in the oracle's
        # ``detect_hits``): hit ``k`` of a window reads index entry
        # ``starts + k``.
        first = np.cumsum(counts) - counts
        entry = np.arange(total, dtype=np.int64) + np.repeat(starts - first, counts)
        entry_keys = layout.pack(self.query_ids, 0, self.diag_offsets, 0)
        keys = np.repeat(layout.pack(0, owner, local_pos, local_pos), counts)
        keys += entry_keys[entry]
        return TaggedHits.from_keys(keys, layout, self.num_queries)

    @staticmethod
    def untag(stream: ExtensionArray, bounds: np.ndarray, query_index: int) -> ExtensionArray:
        """One query's rows of a block's query-major extension stream.

        The tag is dropped only here, at the block boundary, and only
        from the few extensions that survive phase 2: ``bounds`` are the
        stream's per-query row offsets (``Q + 1`` of them), so the split
        is a zero-copy slice of the six columns.
        """
        return stream.take(slice(int(bounds[query_index]), int(bounds[query_index + 1])))
