"""Hit containers shared by every BLASTP implementation in this repo.

A *hit* is a tuple ``(seq_id, query_pos, subject_pos)`` naming one word
match. The *diagonal number* is defined exactly as the paper's Algorithm 1
line 6: ``diagonal = subject_pos - query_pos + query_length``, which maps
the range ``[-query_length, subject_length]`` onto non-negative integers.

Phase 2 consumes hits as one *packed-key stream* (:class:`TaggedHits`):
each hit is a single ``int64`` whose bit fields, most significant first,
are ``(query, seq_id, diagonal, subject_pos)`` (:class:`KeyLayout`). The
key is the whole record — ``query_pos = subject_pos - diagonal +
query_length[query]`` — so one plain ``np.sort`` puts a block's hits in
query-major, then diagonal-major order (the paper's bin -> segmented sort
on a packed 64-bit element), and nothing is gathered alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
import numpy as np

from repro.errors import ConfigError


def diagonal_of(query_pos: np.ndarray, subject_pos: np.ndarray, query_length: int) -> np.ndarray:
    """Diagonal number of each hit (Algorithm 1, line 6)."""
    return np.asarray(subject_pos, dtype=np.int64) - np.asarray(query_pos, dtype=np.int64) + query_length


@dataclass
class HitArray:
    """A flat batch of hits in structure-of-arrays form.

    All arrays are aligned (same length). The column-major invariant —
    within one sequence, ``subject_pos`` is non-decreasing, and hits of the
    same subject position are ordered by ascending ``query_pos`` — holds for
    the output of hit detection and is what the binning/sorting machinery
    re-orders into diagonal-major form.
    """

    seq_id: np.ndarray
    query_pos: np.ndarray
    subject_pos: np.ndarray
    query_length: int

    def __post_init__(self) -> None:
        self.seq_id = np.asarray(self.seq_id, dtype=np.int64)
        self.query_pos = np.asarray(self.query_pos, dtype=np.int64)
        self.subject_pos = np.asarray(self.subject_pos, dtype=np.int64)
        if not (self.seq_id.size == self.query_pos.size == self.subject_pos.size):
            raise ValueError("hit arrays must be aligned")

    def __len__(self) -> int:
        return int(self.seq_id.size)

    @property
    def diagonal(self) -> np.ndarray:
        """Diagonal number of every hit."""
        return diagonal_of(self.query_pos, self.subject_pos, self.query_length)

    def sorted_diagonal_major(self) -> "HitArray":
        """Reorder hits to (seq_id, diagonal, subject_pos) order.

        This is the order the ungapped-extension phase consumes — the
        target order of the paper's binning-sorting step.
        """
        order = np.lexsort((self.subject_pos, self.diagonal, self.seq_id))
        return HitArray(
            seq_id=self.seq_id[order],
            query_pos=self.query_pos[order],
            subject_pos=self.subject_pos[order],
            query_length=self.query_length,
        )

    def as_tuples(self) -> list[tuple[int, int, int]]:
        """Hits as ``(seq_id, query_pos, subject_pos)`` tuples (tests only)."""
        return list(
            zip(
                self.seq_id.tolist(),
                self.query_pos.tolist(),
                self.subject_pos.tolist(),
            )
        )


@dataclass(frozen=True)
class KeyLayout:
    """Field widths of the packed ``(query, seq_id, diagonal, subject_pos)`` key.

    Widths come from the stream's actual maxima (:meth:`fit`), not from
    fixed strides. The position field is sized for ``max subject_pos +
    two_hit_window``: keys of one ``(query, seq_id, diagonal)`` group then
    differ by their subject distance, and keys of different groups by more
    than the window — which is what lets the two-hit rule run on plain key
    differences (:func:`repro.core.two_hit.seed_mask`).
    """

    seq_bits: int
    diag_bits: int
    pos_bits: int
    #: The two-hit window the position field's padding guards.
    two_hit_window: int

    @classmethod
    def fit(
        cls,
        num_queries: int,
        max_seq_id: int,
        max_diagonal: int,
        max_subject_pos: int,
        two_hit_window: int,
    ) -> "KeyLayout":
        """The narrowest layout holding the given maxima, or :class:`ConfigError`.

        The query field takes what the other three leave of 63 bits; it
        must hold ``num_queries`` itself (the end sentinel of
        :meth:`query_starts`).
        """
        layout = cls(
            seq_bits=int(max_seq_id).bit_length(),
            diag_bits=int(max_diagonal).bit_length(),
            pos_bits=(int(max_subject_pos) + int(two_hit_window)).bit_length(),
            two_hit_window=int(two_hit_window),
        )
        need = layout.query_shift + int(num_queries).bit_length()
        if need > 63:
            raise ConfigError(
                f"packed hit key needs {need} bits (> 63) for {num_queries} queries, "
                f"sequence id <= {max_seq_id}, diagonal <= {max_diagonal}, subject position "
                f"<= {max_subject_pos}: search a smaller query batch or smaller database blocks"
            )
        return layout

    @property
    def seq_shift(self) -> int:
        return self.diag_bits + self.pos_bits

    @property
    def query_shift(self) -> int:
        return self.seq_bits + self.diag_bits + self.pos_bits

    def pack(self, query, seq_id, diagonal, subject_pos) -> np.ndarray:
        """Keys of aligned (or scalar) field values. Packing is linear:
        keys of partial records add, as long as every field's sum fits."""
        return (
            (np.asarray(query, dtype=np.int64) << self.query_shift)
            + (np.asarray(seq_id, dtype=np.int64) << self.seq_shift)
            + (np.asarray(diagonal, dtype=np.int64) << self.pos_bits)
            + np.asarray(subject_pos, dtype=np.int64)
        )

    def unpack(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(query, seq_id, diagonal, subject_pos)`` of each key."""
        return (
            keys >> self.query_shift,
            (keys >> self.seq_shift) & ((1 << self.seq_bits) - 1),
            (keys >> self.pos_bits) & ((1 << self.diag_bits) - 1),
            keys & ((1 << self.pos_bits) - 1),
        )

    def query_starts(self, num_queries: int) -> np.ndarray:
        """Smallest key of each query plus an end sentinel (``Q + 1`` keys):
        ``searchsorted`` of a sorted stream against it gives per-query bounds."""
        return np.arange(num_queries + 1, dtype=np.int64) << self.query_shift


@dataclass
class TaggedHits:
    """Query-tagged hits of one database block: a *sorted* packed-key stream.

    ``seq_id`` / ``subject_pos`` inside the keys are local to the swept
    block; the query field indexes the batch the stream was built for.
    """

    keys: np.ndarray
    layout: KeyLayout
    #: ``int64`` array: hits per batch query (length ``num_queries``).
    per_query: np.ndarray

    @classmethod
    def from_keys(cls, keys: np.ndarray, layout: KeyLayout, num_queries: int) -> "TaggedHits":
        """Sort ``keys`` in place — the one sort of phase 2 — and count per query."""
        keys.sort()
        bounds = np.searchsorted(keys, layout.query_starts(num_queries))
        return cls(keys, layout, np.diff(bounds))

    def __len__(self) -> int:
        return int(self.keys.size)
