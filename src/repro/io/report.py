"""Search-result rendering: BLAST-style pairwise report and tabular output.

Downstream tooling expects BLAST's two classic formats: the human-readable
pairwise report and the 12-column tabular format (``-outfmt 6``), whose
columns are::

    qseqid sseqid pident length mismatch gapopen qstart qend sstart send
    evalue bitscore

Coordinates are converted to BLAST's 1-based inclusive convention on
output (everything inside the library is 0-based).
"""

from __future__ import annotations

from typing import TextIO

from repro.core.results import Alignment, SearchResult

#: Column names of the tabular format, for documentation and tests.
TABULAR_COLUMNS = (
    "qseqid",
    "sseqid",
    "pident",
    "length",
    "mismatch",
    "gapopen",
    "qstart",
    "qend",
    "sstart",
    "send",
    "evalue",
    "bitscore",
)


def _gap_opens(alignment: Alignment) -> int:
    """Number of gap *openings* (runs of '-' in either row)."""
    opens = 0
    prev = None  # 'q', 's' or None
    for ca, cb in zip(alignment.aligned_query, alignment.aligned_subject):
        cur = "q" if ca == "-" else ("s" if cb == "-" else None)
        if cur is not None and cur != prev:
            opens += 1
        prev = cur
    return opens


def tabular_line(query_id: str, a: Alignment) -> str:
    """One outfmt-6 line for an alignment."""
    aligned_cols = a.length - a.gaps
    mismatch = aligned_cols - a.identities
    pident = 100.0 * a.identities / a.length if a.length else 0.0
    fields = (
        query_id,
        a.subject_identifier,
        f"{pident:.2f}",
        str(a.length),
        str(mismatch),
        str(_gap_opens(a)),
        str(a.query_start + 1),
        str(a.query_end + 1),
        str(a.subject_start + 1),
        str(a.subject_end + 1),
        f"{a.evalue:.2e}",
        f"{a.bit_score:.1f}",
    )
    return "\t".join(fields)


def write_tabular(
    query_id: str, result: SearchResult, out: TextIO, header: bool = False
) -> None:
    """Write the whole result in tabular format."""
    if header:
        out.write("# " + "\t".join(TABULAR_COLUMNS) + "\n")
    for a in result.alignments:
        out.write(tabular_line(query_id, a) + "\n")


def format_pairwise(
    query_id: str,
    result: SearchResult,
    line_width: int = 60,
    max_alignments: int | None = None,
) -> str:
    """The classic BLAST pairwise report as a string."""
    lines: list[str] = []
    lines.append(f"Query= {query_id}")
    lines.append(f"         ({result.query_length} letters)")
    lines.append("")
    lines.append(
        f"Database: {result.db_sequences:,} sequences; "
        f"{result.db_residues:,} total letters"
    )
    lines.append("")
    shown = result.alignments[: max_alignments or len(result.alignments)]
    if not shown:
        lines.append(" ***** No hits found ******")
        return "\n".join(lines) + "\n"

    lines.append("Sequences producing significant alignments:"
                 "                          (Bits)  Value")
    lines.append("")
    for a in shown:
        name = a.subject_identifier[:60]
        lines.append(f"{name:<66}{a.bit_score:7.1f}  {a.evalue:.0e}")
    lines.append("")

    for a in shown:
        lines.append(f">{a.subject_identifier}")
        lines.append(
            f" Score = {a.bit_score:.1f} bits ({a.score}),  "
            f"Expect = {a.evalue:.0e}"
        )
        pident = 100 * a.identities // a.length if a.length else 0
        ppos = 100 * a.positives // a.length if a.length else 0
        lines.append(
            f" Identities = {a.identities}/{a.length} ({pident}%), "
            f"Positives = {a.positives}/{a.length} ({ppos}%), "
            f"Gaps = {a.gaps}/{a.length}"
        )
        lines.append("")
        qpos, spos = a.query_start + 1, a.subject_start + 1
        for start in range(0, a.length, line_width):
            q_seg = a.aligned_query[start : start + line_width]
            m_seg = a.midline[start : start + line_width]
            s_seg = a.aligned_subject[start : start + line_width]
            q_adv = sum(1 for c in q_seg if c != "-")
            s_adv = sum(1 for c in s_seg if c != "-")
            lines.append(f"Query  {qpos:<5} {q_seg}  {qpos + q_adv - 1}")
            lines.append(f"             {m_seg}")
            lines.append(f"Sbjct  {spos:<5} {s_seg}  {spos + s_adv - 1}")
            lines.append("")
            qpos += q_adv
            spos += s_adv
    return "\n".join(lines) + "\n"
