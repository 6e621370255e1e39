"""Result types produced by the BLASTP phases."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Iterable, Iterator, Sequence

import numpy as np


@dataclass(frozen=True, order=True)
class UngappedExtension:
    """Output of phase 2 for one triggered hit.

    Coordinates are inclusive residue indices of the maximal-scoring
    ungapped segment; ``subject_end - subject_start == query_end -
    query_start`` always (no gaps by definition). Ordering is lexicographic
    on the fields, giving a deterministic canonical order for
    output-equality tests across implementations.
    """

    seq_id: int
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    score: int

    def __post_init__(self) -> None:
        if self.subject_end - self.subject_start != self.query_end - self.query_start:
            raise ValueError("ungapped extension must stay on one diagonal")

    @property
    def length(self) -> int:
        """Number of aligned residue pairs."""
        return self.subject_end - self.subject_start + 1


@dataclass(eq=False)
class ExtensionArray:
    """Columnar (struct-of-arrays) form of a phase-2 extension stream.

    The phase 2→4 hot path moves extensions as six aligned ``int64``
    columns instead of one :class:`UngappedExtension` object per record:
    the batch x-drop math in :mod:`repro.core.ungapped` already produces
    columns, and every downstream consumer (gap-trigger filtering,
    containment seeding, e-value computation, sweep/process marshalling)
    reduces them with array operations. Records exist only at the edges —
    :meth:`from_records` / iteration are the shims for cold paths and
    tests, and they are deliberately the *only* places a per-record
    Python loop survives.

    Row order is meaningful and preserved by every transform here: the
    coverage pass emits ``(seq_id, diagonal, subject_pos)`` seed order,
    and the downstream phases depend on that order for deterministic
    tie-breaking, so concatenation and ``take`` never re-sort implicitly.
    """

    seq_id: np.ndarray
    query_start: np.ndarray
    query_end: np.ndarray
    subject_start: np.ndarray
    subject_end: np.ndarray
    score: np.ndarray

    #: Column names in canonical (payload) order.
    FIELDS: ClassVar[tuple[str, ...]] = (
        "seq_id", "query_start", "query_end",
        "subject_start", "subject_end", "score",
    )

    def __post_init__(self) -> None:
        for name in self.FIELDS:
            col = np.ascontiguousarray(getattr(self, name), dtype=np.int64)
            if col.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            setattr(self, name, col)
        n = self.seq_id.size
        if any(getattr(self, name).size != n for name in self.FIELDS):
            raise ValueError("extension columns must be aligned")
        if n and (
            (self.subject_end - self.subject_start)
            != (self.query_end - self.query_start)
        ).any():
            raise ValueError("ungapped extension must stay on one diagonal")

    # -- container protocol (record shims) ---------------------------------

    def __len__(self) -> int:
        return int(self.seq_id.size)

    def __bool__(self) -> bool:
        return self.seq_id.size > 0

    def __iter__(self) -> Iterator[UngappedExtension]:
        for k in range(self.seq_id.size):
            yield self.record(k)

    def __getitem__(self, index: int) -> UngappedExtension:
        return self.record(index)

    def record(self, index: int) -> UngappedExtension:
        """Row ``index`` as an :class:`UngappedExtension` (cold paths only)."""
        return UngappedExtension(
            seq_id=int(self.seq_id[index]),
            query_start=int(self.query_start[index]),
            query_end=int(self.query_end[index]),
            subject_start=int(self.subject_start[index]),
            subject_end=int(self.subject_end[index]),
            score=int(self.score[index]),
        )

    # -- construction ------------------------------------------------------

    @classmethod
    def empty(cls) -> "ExtensionArray":
        z = np.zeros(0, dtype=np.int64)
        return cls(z, z.copy(), z.copy(), z.copy(), z.copy(), z.copy())

    @classmethod
    def from_records(
        cls, records: Iterable[UngappedExtension]
    ) -> "ExtensionArray":
        """Build columns from record objects, preserving order."""
        records = list(records)
        if not records:
            return cls.empty()
        return cls(*(
            np.array([getattr(e, name) for e in records], dtype=np.int64)
            for name in cls.FIELDS
        ))

    @classmethod
    def concat(cls, parts: "Sequence[ExtensionArray]") -> "ExtensionArray":
        """Row-wise concatenation, order preserved (block accumulation)."""
        parts = [p for p in parts if len(p)]
        if not parts:
            return cls.empty()
        if len(parts) == 1:
            return parts[0]
        return cls(*(
            np.concatenate([getattr(p, name) for p in parts])
            for name in cls.FIELDS
        ))

    # -- transforms --------------------------------------------------------

    def take(self, which: np.ndarray) -> "ExtensionArray":
        """Rows selected by an index array or boolean mask, in order."""
        return type(self)(*(getattr(self, name)[which] for name in self.FIELDS))

    def with_seq_offset(self, offset: int) -> "ExtensionArray":
        """Same rows with ``seq_id`` rebased by ``offset`` (block→global)."""
        if not offset:
            return self
        return type(self)(
            self.seq_id + np.int64(offset),
            self.query_start, self.query_end,
            self.subject_start, self.subject_end, self.score,
        )

    def with_seq_ids(self, seq_id: np.ndarray) -> "ExtensionArray":
        """Same rows under a new ``seq_id`` column (id-space remapping)."""
        return type(self)(
            seq_id, self.query_start, self.query_end,
            self.subject_start, self.subject_end, self.score,
        )

    def sorted_full(self) -> "ExtensionArray":
        """Rows sorted on the full field tuple.

        Matches ``sorted()`` of the record objects (whose dataclass order
        compares all six fields lexicographically).
        """
        return self.take(np.lexsort((
            self.score, self.subject_end, self.subject_start,
            self.query_end, self.query_start, self.seq_id,
        )))

    @property
    def lengths(self) -> np.ndarray:
        """Aligned residue pairs per row (cf. ``UngappedExtension.length``)."""
        return self.subject_end - self.subject_start + 1

    # -- process-boundary payload ------------------------------------------

    def to_columns(self) -> list[list[int]]:
        """Six aligned plain-int lists (picklable builtins, column order
        :data:`FIELDS`) — the cross-process wire form."""
        return [getattr(self, name).tolist() for name in self.FIELDS]

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "ExtensionArray":
        """Inverse of :meth:`to_columns`."""
        if len(columns) != len(cls.FIELDS):
            raise ValueError(
                f"extension payload has {len(columns)} columns, "
                f"expected {len(cls.FIELDS)}"
            )
        return cls(*(np.asarray(col, dtype=np.int64) for col in columns))


@dataclass(frozen=True)
class Alignment:
    """A reported alignment after traceback (phase 4).

    ``aligned_query``/``aligned_subject`` are equal-length strings using
    ``-`` for gaps; ``midline`` marks identities (letter), positives
    (``+``) and mismatches/gaps (space), like BLAST's pairwise output.
    """

    seq_id: int
    subject_identifier: str
    score: int
    bit_score: float
    evalue: float
    query_start: int
    query_end: int
    subject_start: int
    subject_end: int
    aligned_query: str
    aligned_subject: str
    midline: str
    identities: int
    positives: int
    gaps: int

    @property
    def length(self) -> int:
        """Alignment length including gap columns."""
        return len(self.aligned_query)


@dataclass
class SearchResult:
    """Complete output of one BLASTP search.

    ``alignments`` is sorted by descending score (ties broken by
    ``seq_id`` then coordinates, so ordering is deterministic); the phase
    statistics feed both the performance models and the paper's
    hit-survival claims.
    """

    query_length: int
    db_sequences: int
    db_residues: int
    alignments: list[Alignment] = field(default_factory=list)
    num_hits: int = 0
    num_seeds: int = 0
    num_ungapped_extensions: int = 0
    num_gapped_extensions: int = 0
    num_reported: int = 0

    def best(self) -> Alignment | None:
        """Highest-scoring alignment, or ``None`` when nothing was reported."""
        return self.alignments[0] if self.alignments else None

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"hits={self.num_hits} seeds={self.num_seeds} "
            f"ungapped={self.num_ungapped_extensions} "
            f"gapped={self.num_gapped_extensions} reported={self.num_reported}"
        )
