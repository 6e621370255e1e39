"""Packed sequence database and zero-copy views.

A :class:`SequenceDatabase` stores all subject sequences in one contiguous
``uint8`` code array plus a CSR-style offset table. This is the layout the
GPU kernels scan (coalesced, position-indexed) and the layout FSA-BLAST
iterates, so both the simulator and the CPU reference share one source of
truth for subject data.

Slicing is zero-copy wherever the layout allows it: a contiguous run of
sequences is a :class:`DatabaseView` — shared ``codes`` storage, rebased
offsets, and its ``start`` in the parent's sequence ids — which is what
the database sweep and the Fig. 12 block pipeline stream and what the
cluster layer hands to each node under the contiguous scheme.
Non-contiguous selections (interleaved partitions, CUDA-BLASTP's length
sort) materialise a copy through one vectorised gather
(:meth:`SequenceDatabase.subset`).

Persistence goes through :mod:`repro.io.storage` — a versioned binary
format that reloads via ``mmap`` without any pickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.alphabet import decode, encode
from repro.errors import SequenceError
from repro.io.fasta import FastaRecord


@dataclass(frozen=True)
class DatabaseStats:
    """Summary statistics of a database, as the paper reports for its inputs."""

    num_sequences: int
    total_residues: int
    mean_length: float
    max_length: int
    min_length: int


class SequenceDatabase:
    """An immutable collection of encoded subject sequences.

    Parameters
    ----------
    codes:
        Concatenated ``uint8`` residue codes of every sequence.
    offsets:
        ``int64`` array of length ``num_sequences + 1``; sequence ``i``
        occupies ``codes[offsets[i]:offsets[i+1]]``.
    identifiers:
        Optional per-sequence identifiers (defaults to ``seq{i}``).
    """

    def __init__(
        self,
        codes: np.ndarray,
        offsets: np.ndarray,
        identifiers: Sequence[str] | None = None,
    ) -> None:
        codes = np.ascontiguousarray(codes, dtype=np.uint8)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.size < 1:
            raise SequenceError("offsets must be a 1-D array with at least one entry")
        if offsets[0] != 0 or offsets[-1] != codes.size:
            raise SequenceError("offsets must start at 0 and end at len(codes)")
        if np.any(np.diff(offsets) <= 0):
            raise SequenceError("empty sequences are not allowed in a database")
        self._codes = codes
        self._offsets = offsets
        self._lengths: np.ndarray | None = None
        n = offsets.size - 1
        if identifiers is None:
            identifiers = [f"seq{i}" for i in range(n)]
        if len(identifiers) != n:
            raise SequenceError(f"{len(identifiers)} identifiers for {n} sequences")
        self._identifiers: list[str] | None = list(identifiers)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_strings(cls, sequences: Iterable[str], identifiers: Sequence[str] | None = None) -> "SequenceDatabase":
        """Build a database from residue strings."""
        encoded = [encode(s) for s in sequences]
        if not encoded:
            raise SequenceError("database must contain at least one sequence")
        offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
        np.cumsum([len(e) for e in encoded], out=offsets[1:])
        codes = np.concatenate(encoded) if encoded else np.zeros(0, dtype=np.uint8)
        return cls(codes, offsets, identifiers)

    @classmethod
    def from_records(cls, records: Iterable[FastaRecord]) -> "SequenceDatabase":
        """Build a database from parsed FASTA records."""
        records = list(records)
        return cls.from_strings(
            [r.sequence for r in records], [r.identifier for r in records]
        )

    # -- accessors ---------------------------------------------------------

    @property
    def codes(self) -> np.ndarray:
        """Concatenated residue codes (read-only view)."""
        view = self._codes.view()
        view.flags.writeable = False
        return view

    @property
    def offsets(self) -> np.ndarray:
        """CSR offsets (read-only view)."""
        view = self._offsets.view()
        view.flags.writeable = False
        return view

    @property
    def identifiers(self) -> list[str]:
        """Per-sequence identifiers.

        The returned list is the database's own storage (no copy is made);
        treat it as read-only.
        """
        if self._identifiers is None:  # lazily built by views
            self._identifiers = self._build_identifiers()
        return self._identifiers

    def _build_identifiers(self) -> list[str]:  # overridden by DatabaseView
        raise AssertionError("base databases always carry identifiers")

    @property
    def lengths(self) -> np.ndarray:
        """Length of each sequence (computed once, then cached)."""
        if self._lengths is None:
            lengths = np.diff(self._offsets)
            lengths.flags.writeable = False
            self._lengths = lengths
        return self._lengths

    def __len__(self) -> int:
        return self._offsets.size - 1

    def sequence(self, index: int) -> np.ndarray:
        """Residue codes of sequence ``index`` (zero-copy view)."""
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._codes[self._offsets[index] : self._offsets[index + 1]]

    def sequence_str(self, index: int) -> str:
        """Residue string of sequence ``index``."""
        return decode(self.sequence(index))

    def identifier(self, index: int) -> str:
        return self.identifiers[index]

    def stats(self) -> DatabaseStats:
        """Compute summary statistics."""
        lengths = self.lengths
        return DatabaseStats(
            num_sequences=len(self),
            total_residues=int(self._codes.size),
            mean_length=float(lengths.mean()),
            max_length=int(lengths.max()),
            min_length=int(lengths.min()),
        )

    # -- transformations ---------------------------------------------------

    def view(self, start: int, stop: int) -> "SequenceDatabase":
        """Zero-copy view of the contiguous sequence range ``[start, stop)``.

        The view shares this database's ``codes`` storage (no residues are
        copied); only the rebased offset table is new. ``view(0, len(db))``
        returns ``self``.
        """
        if start == 0 and stop == len(self):
            return self
        return DatabaseView(self, start, stop)

    def subset(self, indices: np.ndarray) -> "SequenceDatabase":
        """Return a database containing ``indices`` in the given order.

        A contiguous ascending run of indices returns a zero-copy
        :class:`DatabaseView`; any other selection materialises a new
        packed database through one vectorised gather.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if indices.ndim != 1:
            raise SequenceError("subset indices must be 1-D")
        if indices.size == 0:
            raise SequenceError(
                "subset of zero sequences is not allowed (databases are non-empty)"
            )
        if np.any((indices < 0) | (indices >= len(self))):
            raise IndexError("subset index out of range")
        if np.all(np.diff(indices) == 1):
            return self.view(int(indices[0]), int(indices[-1]) + 1)
        # One vectorised gather: for output position p in sequence k, the
        # source index is starts[k] + (p - new_offsets[k]).
        lengths = self.lengths[indices]
        offsets = np.zeros(indices.size + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        starts = self._offsets[indices]
        gather = np.repeat(starts - offsets[:-1], lengths) + np.arange(
            offsets[-1], dtype=np.int64
        )
        ident_src = self.identifiers
        idents = [ident_src[int(i)] for i in indices]
        return SequenceDatabase(self._codes[gather], offsets, idents)

    def block_bounds(self, num_blocks: int) -> np.ndarray:
        """Residue-balanced contiguous cut points for ``num_blocks`` blocks.

        Returns ``min(num_blocks, len(self)) + 1`` sequence indices; block
        ``b`` covers sequences ``[bounds[b], bounds[b+1])``. The split
        balances total residues, not sequence counts, so per-block kernel
        time stays roughly even (the Fig. 12 schedule's assumption).
        """
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        num_blocks = min(num_blocks, len(self))
        target = self._codes.size / num_blocks
        bounds = [0]
        for b in range(1, num_blocks):
            cut = int(np.searchsorted(self._offsets, b * target))
            cut = min(max(cut, bounds[-1] + 1), len(self) - (num_blocks - b))
            bounds.append(cut)
        bounds.append(len(self))
        return np.asarray(bounds, dtype=np.int64)

    def blocks(self, num_blocks: int) -> list["SequenceDatabase"]:
        """Split into ``num_blocks`` contiguous, residue-balanced blocks.

        The CPU/GPU pipeline (Fig. 12) streams the database in blocks;
        each block is a zero-copy :class:`DatabaseView` sharing this
        database's residue storage.
        """
        bounds = self.block_bounds(num_blocks)
        return [
            self.view(int(bounds[b]), int(bounds[b + 1]))
            for b in range(bounds.size - 1)
        ]

    # -- persistence ---------------------------------------------------------

    def save(self, path, *, db_version: int | None = None) -> None:
        """Write the packed database to ``path`` in the versioned binary
        format (see :mod:`repro.io.storage`).

        The binary form (header + raw codes/offsets/identifier blob)
        reloads through ``mmap`` without re-encoding or pickling — the
        role makeblastdb's volumes play for BLAST. ``db_version`` sets
        the header's content stamp (cache-invalidation key for the
        serving layer); by default a fresh save stamps generation 1.
        """
        from repro.io import storage

        if db_version is None:
            storage.save_database(self, path)
        else:
            storage.save_database(self, path, db_version=db_version)

    @classmethod
    def load(cls, path, *, mmap: bool = True) -> "SequenceDatabase":
        """Reload a database written by :meth:`save`.

        The current binary format maps the ``codes``/``offsets`` sections
        directly from disk (read-only, no copy) when ``mmap`` is true.
        """
        from repro.io import storage

        return storage.load_database(path, mmap=mmap)


class DatabaseView(SequenceDatabase):
    """A zero-copy contiguous slice ``[start, stop)`` of a parent database.

    The view's ``codes`` are a numpy slice of the parent's storage
    (``np.shares_memory(view.codes, parent.codes)`` holds); only the
    rebased offset table — ``num_sequences + 1`` int64s — is allocated.
    Identifiers are sliced lazily on first access. Views of views collapse
    onto the root parent, so chains never deepen.
    """

    def __init__(self, parent: SequenceDatabase, start: int, stop: int) -> None:
        if isinstance(parent, DatabaseView):
            start += parent._start
            stop += parent._start
            parent = parent._parent
        if not (isinstance(start, (int, np.integer)) and isinstance(stop, (int, np.integer))):
            raise SequenceError("view bounds must be integers")
        if not 0 <= start < stop <= len(parent):
            raise SequenceError(
                f"view [{start}, {stop}) out of range for {len(parent)} sequences"
            )
        self._parent = parent
        self._start = int(start)
        self._stop = int(stop)
        base = parent._offsets[start]
        # Plain 1-D slices: the codes view shares the parent's buffer.
        self._codes = parent._codes[base : parent._offsets[stop]]
        self._offsets = parent._offsets[start : stop + 1] - base
        self._lengths = None
        self._identifiers = None

    # -- identity ----------------------------------------------------------

    @property
    def start(self) -> int:
        """First parent sequence id covered by this view."""
        return self._start

    def _build_identifiers(self) -> list[str]:
        return self._parent.identifiers[self._start : self._stop]

    def identifier(self, index: int) -> str:
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._parent.identifier(self._start + index)
