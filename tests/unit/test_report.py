"""Unit tests for the BLAST-style output formats."""

import io

from repro.core.results import Alignment, SearchResult
from repro.io.report import (
    TABULAR_COLUMNS,
    format_pairwise,
    tabular_line,
    write_tabular,
)


def make_alignment(**overrides) -> Alignment:
    base = dict(
        seq_id=3,
        subject_identifier="sp|P12345",
        score=120,
        bit_score=50.8,
        evalue=1.5e-9,
        query_start=4,
        query_end=33,
        subject_start=10,
        subject_end=40,
        aligned_query="MKTAY-IAKQRQISFVKSHFSRQLEERLGLI",
        aligned_subject="MKTAYWIAKQRQISFVKSHFSRQLEERLGLI",
        midline="MKTAY IAKQRQISFVKSHFSRQLEERLGLI",
        identities=30,
        positives=30,
        gaps=1,
    )
    base.update(overrides)
    return Alignment(**base)


def make_result(alignments) -> SearchResult:
    return SearchResult(
        query_length=100,
        db_sequences=50,
        db_residues=10_000,
        alignments=alignments,
        num_hits=1000,
        num_seeds=50,
        num_ungapped_extensions=40,
        num_gapped_extensions=5,
        num_reported=len(alignments),
    )


class TestTabular:
    def test_field_count_and_order(self):
        line = tabular_line("q1", make_alignment())
        fields = line.split("\t")
        assert len(fields) == len(TABULAR_COLUMNS) == 12
        assert fields[0] == "q1"
        assert fields[1] == "sp|P12345"

    def test_one_based_coordinates(self):
        fields = tabular_line("q", make_alignment()).split("\t")
        assert fields[6:10] == ["5", "34", "11", "41"]

    def test_pident(self):
        a = make_alignment()
        fields = tabular_line("q", a).split("\t")
        assert fields[2] == f"{100 * a.identities / a.length:.2f}"

    def test_mismatch_excludes_gaps(self):
        a = make_alignment()
        fields = tabular_line("q", a).split("\t")
        assert int(fields[4]) == (a.length - a.gaps) - a.identities

    def test_gapopen_counts_runs(self):
        a = make_alignment(
            aligned_query="MK--TAY-I",
            aligned_subject="MKWWTAYWI",
            midline="MK  TAY I",
            gaps=3,
        )
        fields = tabular_line("q", a).split("\t")
        assert fields[5] == "2"  # one 2-gap run + one 1-gap run

    def test_write_tabular_with_header(self):
        buf = io.StringIO()
        write_tabular("q", make_result([make_alignment()]), buf, header=True)
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("# qseqid")
        assert len(lines) == 2


class TestPairwise:
    def test_contains_sections(self):
        text = format_pairwise("myquery", make_result([make_alignment()]))
        assert "Query= myquery" in text
        assert "Sequences producing significant alignments" in text
        assert ">sp|P12345" in text
        assert "Identities = 30/31" in text
        assert "Expect = 1e-09" in text  # 1.5e-9 at %.0e banker-rounds to 1e-09

    def test_no_hits(self):
        text = format_pairwise("q", make_result([]))
        assert "No hits found" in text

    def test_coordinate_lines_track_gaps(self):
        text = format_pairwise("q", make_result([make_alignment()]), line_width=10)
        # First query block: residues 5..14 (one gap consumes no query pos).
        assert "Query  5     MKTAY-IAKQ  13" in text

    def test_max_alignments(self):
        result = make_result([make_alignment(), make_alignment(seq_id=4)])
        text = format_pairwise("q", result, max_alignments=1)
        assert text.count(">sp|P12345") == 1
