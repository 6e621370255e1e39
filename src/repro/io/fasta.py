"""Minimal, strict FASTA reader/writer.

BLAST databases arrive as FASTA; this module parses them into
:class:`FastaRecord` objects that :class:`repro.io.database.SequenceDatabase`
then packs for search. Parsing is line-based and streaming-friendly, and
deliberately strict: silent acceptance of malformed records is how sequence
bugs hide.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.alphabet import is_valid_sequence
from repro.errors import FastaFormatError


@dataclass(frozen=True)
class FastaRecord:
    """One FASTA record: identifier, free-text description, residue string."""

    identifier: str
    description: str
    sequence: str

    def __len__(self) -> int:
        return len(self.sequence)


def read_fasta(lines: Iterable[str], validate: bool = True) -> Iterator[FastaRecord]:
    """Parse FASTA records from an iterable of lines.

    Parameters
    ----------
    lines:
        Any iterable of text lines (an open file works directly).
    validate:
        When ``True`` (default), reject residue characters outside the
        protein alphabet with :class:`~repro.errors.FastaFormatError`.

    Yields
    ------
    FastaRecord
        Records in file order.
    """
    header: str | None = None
    chunks: list[str] = []
    lineno = 0

    def emit() -> FastaRecord:
        assert header is not None
        seq = "".join(chunks)
        if not seq:
            raise FastaFormatError(f"record {header!r} has an empty sequence")
        if validate and not is_valid_sequence(seq):
            bad = sorted({c for c in seq if not is_valid_sequence(c)})
            raise FastaFormatError(f"record {header!r} contains invalid residues: {bad}")
        ident, _, desc = header.partition(" ")
        return FastaRecord(identifier=ident, description=desc.strip(), sequence=seq)

    for raw in lines:
        lineno += 1
        line = raw.rstrip("\n").rstrip("\r")
        if not line:
            continue
        if line.startswith(";"):  # legacy FASTA comment lines
            continue
        if line.startswith(">"):
            if header is not None:
                yield emit()
            header = line[1:].strip()
            if not header:
                raise FastaFormatError(f"line {lineno}: empty FASTA header")
            chunks = []
        else:
            if header is None:
                raise FastaFormatError(f"line {lineno}: sequence data before any header")
            chunks.append(line.strip())
    if header is not None:
        yield emit()


def read_fasta_file(path: str | Path, validate: bool = True) -> list[FastaRecord]:
    """Read every record from a FASTA file into a list."""
    try:
        with open(path, encoding="ascii") as fh:
            return list(read_fasta(fh, validate=validate))
    except UnicodeDecodeError:
        # The decoder's own offset is relative to its read buffer, not the file.
        offset = next(i for i, byte in enumerate(Path(path).read_bytes()) if byte >= 0x80)
        raise FastaFormatError(
            f"{path}: not a FASTA file (undecodable byte at offset {offset})"
        ) from None


def write_fasta(records: Iterable[FastaRecord], path: str | Path, width: int = 60) -> None:
    """Write records to ``path`` wrapping sequence lines at ``width`` columns."""
    if width <= 0:
        raise ValueError("width must be positive")
    with open(path, "w", encoding="ascii") as fh:
        for rec in records:
            desc = f" {rec.description}" if rec.description else ""
            fh.write(f">{rec.identifier}{desc}\n")
            seq = rec.sequence
            for start in range(0, len(seq), width):
                fh.write(seq[start : start + width] + "\n")
