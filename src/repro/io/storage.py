"""Versioned on-disk database format with ``mmap`` loading.

Layout of a ``.rpdb`` file (all integers little-endian)::

    [ 0, 64)                      header (struct, zero-padded to 64 B)
    [64, 64 + (n+1)*8)            offsets   int64[n + 1]
    ...                           ident_lengths  uint32[n]   (UTF-8 bytes each)
    ...                           ident_blob     the concatenated UTF-8 names
    ...                           codes     uint8[total_residues]

The header records every section size, so readers never scan. ``codes``
and ``offsets`` are raw array dumps: :func:`load_database` maps them
straight from the file (``np.memmap``, mode ``"r"``) — a reload touches
no residue bytes until a kernel actually scans them, and the arrays come
back read-only. Nothing in the format is pickled.

Versioning: :data:`FORMAT_VERSION` is bumped on any layout change; a
reader refuses files from the future rather than misparsing them.

Separate from the *format* version, the header carries a *content*
version stamp (``db_version``): a monotonically bumped int64 that names
the database's content generation. Rebuilding or refreshing a database
bumps the stamp (``repro db stamp``, :func:`stamp_db_version`), and the
serving layer keys its result cache on it — so cached results for a
replaced database become unreachable the moment the stamp changes,
without any byte-level content hashing. The stamp lives in what was
reserved header padding, so format version 1 files written before it
read back as stamp 0.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.errors import SequenceError

if TYPE_CHECKING:
    from repro.io.database import SequenceDatabase

#: File magic of the binary database format.
MAGIC = b"RPDB"
#: Current format version (bumped on any layout change).
FORMAT_VERSION = 1

#: magic, version, flags, num_sequences, codes_len, ident_blob_len,
#: db_version (the content stamp; 0 on files written before it existed).
_HEADER = struct.Struct("<4sHHqqqq")
#: Fixed header span; offsets start here, 8-byte aligned for int64 maps.
HEADER_SIZE = 64
#: Byte offset of the ``db_version`` stamp within the header (the field
#: :func:`stamp_db_version` rewrites in place).
_STAMP_OFFSET = 32
#: ``db_version`` given to newly saved databases.
DEFAULT_DB_VERSION = 1


def _section_layout(num_sequences: int, codes_len: int, ident_blob_len: int):
    """Byte offsets of (offsets, ident_lengths, ident_blob, codes)."""
    off_offsets = HEADER_SIZE
    off_ident_lengths = off_offsets + (num_sequences + 1) * 8
    off_ident_blob = off_ident_lengths + num_sequences * 4
    off_codes = off_ident_blob + ident_blob_len
    return off_offsets, off_ident_lengths, off_ident_blob, off_codes


def save_database(db: "SequenceDatabase", path, *, db_version: int = DEFAULT_DB_VERSION) -> None:
    """Write ``db`` to ``path`` in the current binary format.

    ``db_version`` is the content stamp recorded in the header — bump it
    (or :func:`stamp_db_version` in place) when the database content is
    regenerated, so version-keyed caches stop serving stale results.
    """
    path = Path(path)
    identifiers = db.identifiers
    ident_bytes = [ident.encode("utf-8") for ident in identifiers]
    ident_lengths = np.asarray([len(b) for b in ident_bytes], dtype="<u4")
    blob = b"".join(ident_bytes)
    header = _HEADER.pack(
        MAGIC, FORMAT_VERSION, 0, len(db), int(db.codes.size), len(blob), int(db_version)
    )
    with open(path, "wb") as f:
        f.write(header.ljust(HEADER_SIZE, b"\x00"))
        f.write(np.ascontiguousarray(db.offsets, dtype="<i8").tobytes())
        f.write(ident_lengths.tobytes())
        f.write(blob)
        f.write(np.ascontiguousarray(db.codes, dtype=np.uint8).tobytes())


def read_header(path) -> dict:
    """Parse and validate a binary database header without loading data.

    Returns the header fields plus section byte offsets — what ``repro db
    inspect`` prints.
    """
    path = Path(path)
    with open(path, "rb") as f:
        raw = f.read(HEADER_SIZE)
    if len(raw) < _HEADER.size or raw[:4] != MAGIC:
        raise SequenceError(f"{path}: not a {MAGIC.decode()} database file")
    (magic, version, flags, num_sequences, codes_len, ident_blob_len, db_version) = (
        _HEADER.unpack(raw[: _HEADER.size])
    )
    if version > FORMAT_VERSION:
        raise SequenceError(
            f"{path}: format version {version} is newer than this reader "
            f"(understands <= {FORMAT_VERSION})"
        )
    if num_sequences < 1 or codes_len < num_sequences:
        raise SequenceError(f"{path}: corrupt header")
    off_offsets, off_ident_lengths, off_ident_blob, off_codes = _section_layout(
        num_sequences, codes_len, ident_blob_len
    )
    return {
        "version": version,
        "flags": flags,
        "db_version": db_version,
        "num_sequences": num_sequences,
        "codes_len": codes_len,
        "ident_blob_len": ident_blob_len,
        "off_offsets": off_offsets,
        "off_ident_lengths": off_ident_lengths,
        "off_ident_blob": off_ident_blob,
        "off_codes": off_codes,
        "file_bytes": path.stat().st_size,
    }


def read_db_version(path) -> int:
    """The content version stamp of a saved binary database.

    Files written before the stamp existed read back as ``0`` (the field
    occupies formerly reserved, zero-padded header space).
    """
    return int(read_header(path)["db_version"])


def stamp_db_version(path, db_version: int | None = None) -> int:
    """Rewrite a saved database's content stamp in place; return the new value.

    ``db_version=None`` bumps the current stamp by one. Only the 8-byte
    header field is touched — sections and mmaps of the old stamp's
    content are unaffected, which is exactly the point: the stamp names a
    content *generation* for cache invalidation, it is not a checksum.
    """
    head = read_header(path)  # validates magic/version before writing
    new_version = head["db_version"] + 1 if db_version is None else int(db_version)
    with open(path, "r+b") as f:
        f.seek(_STAMP_OFFSET)
        f.write(struct.pack("<q", new_version))
    return new_version


def sniff_format(path) -> str:
    """Classify ``path``: ``"binary"`` or ``"unknown"``."""
    try:
        with open(path, "rb") as f:
            head = f.read(4)
    except OSError:
        return "unknown"
    return "binary" if head == MAGIC else "unknown"


def load_database(path, *, mmap: bool = True) -> "SequenceDatabase":
    """Load a binary-format database.

    The ``codes``/``offsets`` sections are mapped from disk when ``mmap``
    is true (read-only, zero-copy). Any other file is a
    :class:`~repro.errors.SequenceError`.
    """
    from repro.io.database import SequenceDatabase

    if sniff_format(path) != "binary":
        raise SequenceError(f"{path}: not a database file (unknown magic)")
    path = Path(path)
    head = read_header(path)
    n = head["num_sequences"]
    expected = head["off_codes"] + head["codes_len"]
    if head["file_bytes"] < expected:
        raise SequenceError(
            f"{path}: truncated ({head['file_bytes']} bytes, need {expected})"
        )
    if mmap:
        offsets = np.memmap(
            path, dtype="<i8", mode="r", offset=head["off_offsets"], shape=(n + 1,)
        )
        codes = np.memmap(
            path,
            dtype=np.uint8,
            mode="r",
            offset=head["off_codes"],
            shape=(head["codes_len"],),
        )
    else:
        with open(path, "rb") as f:
            f.seek(head["off_offsets"])
            offsets = np.fromfile(f, dtype="<i8", count=n + 1)
            f.seek(head["off_codes"])
            codes = np.fromfile(f, dtype=np.uint8, count=head["codes_len"])
    with open(path, "rb") as f:
        f.seek(head["off_ident_lengths"])
        ident_lengths = np.fromfile(f, dtype="<u4", count=n)
        blob = f.read(head["ident_blob_len"])
    ends = np.cumsum(ident_lengths)
    identifiers = [
        blob[start:end].decode("utf-8")
        for start, end in zip(ends - ident_lengths, ends)
    ]
    return SequenceDatabase(codes, offsets, identifiers)

