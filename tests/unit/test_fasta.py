"""Unit tests for FASTA parsing and writing."""

import pytest

from repro.errors import FastaFormatError
from repro.io import FastaRecord, read_fasta, read_fasta_file, write_fasta


def parse(text: str, **kw):
    return list(read_fasta(text.splitlines(), **kw))


class TestReadFasta:
    def test_single_record(self):
        recs = parse(">id1 some description\nMKTAY\nIAKQR\n")
        assert recs == [FastaRecord("id1", "some description", "MKTAYIAKQR")]

    def test_multiple_records(self):
        recs = parse(">a\nMK\n>b\nAR\n>c\nND\n")
        assert [r.identifier for r in recs] == ["a", "b", "c"]
        assert [r.sequence for r in recs] == ["MK", "AR", "ND"]

    def test_no_description(self):
        (rec,) = parse(">seq\nMKT\n")
        assert rec.identifier == "seq"
        assert rec.description == ""

    def test_blank_lines_ignored(self):
        (rec,) = parse(">a\n\nMK\n\nTA\n")
        assert rec.sequence == "MKTA"

    def test_comment_lines_ignored(self):
        (rec,) = parse("; legacy comment\n>a\nMK\n")
        assert rec.sequence == "MK"

    def test_crlf_endings(self):
        (rec,) = parse(">a\r\nMKT\r\n")
        assert rec.sequence == "MKT"

    def test_len_matches_sequence(self):
        (rec,) = parse(">a\nMKTAY\n")
        assert len(rec) == 5

    def test_empty_sequence_rejected(self):
        with pytest.raises(FastaFormatError, match="empty sequence"):
            parse(">a\n>b\nMK\n")

    def test_empty_header_rejected(self):
        with pytest.raises(FastaFormatError, match="empty FASTA header"):
            parse(">\nMK\n")

    def test_data_before_header_rejected(self):
        with pytest.raises(FastaFormatError, match="before any header"):
            parse("MKT\n>a\nMK\n")

    def test_invalid_residues_rejected(self):
        with pytest.raises(FastaFormatError, match="invalid residues"):
            parse(">a\nMK9T\n")

    def test_validation_can_be_disabled(self):
        (rec,) = parse(">a\nMK9T\n", validate=False)
        assert rec.sequence == "MK9T"


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        records = [
            FastaRecord("s1", "first", "MKTAYIAKQRQISFVKSHFSRQ" * 5),
            FastaRecord("s2", "", "ARNDCQEGH"),
        ]
        path = tmp_path / "out.fasta"
        write_fasta(records, path, width=30)
        back = read_fasta_file(path)
        assert back == records

    def test_line_wrapping(self, tmp_path):
        path = tmp_path / "w.fasta"
        write_fasta([FastaRecord("x", "", "A" * 75)], path, width=30)
        lines = path.read_text().splitlines()
        assert lines[0] == ">x"
        assert [len(l) for l in lines[1:]] == [30, 30, 15]

    def test_invalid_width_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_fasta([], tmp_path / "z.fasta", width=0)

    def test_non_text_file_is_a_format_error(self, tmp_path):
        """Binary input is a FastaFormatError naming the path and the file
        offset of the first undecodable byte — not a raw codec error."""
        path = tmp_path / "junk.bin"
        # Past the text reader's first buffer, so a buffer-relative
        # offset would be wrong.
        path.write_bytes(b">a\n" + b"MKTAY\n" * 3000 + b"\xbd\x00\xff")
        with pytest.raises(
            FastaFormatError, match=r"junk\.bin: not a FASTA file \(undecodable byte at offset 18003\)"
        ):
            read_fasta_file(path)
