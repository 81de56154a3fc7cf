"""Tests for the report formatting helpers."""

from repro.analysis import bytes_human, format_table


class TestFormatTable:
    def test_columns_aligned(self):
        text = format_table(["A", "Blong"], [("x", 1), ("yy", 22)],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert lines[1].startswith("A")
        assert "-" in lines[2]
        # all rows share the header's column positions
        assert lines[3].index("1") == lines[1].index("Blong")

    def test_float_formatting(self):
        text = format_table(["v"], [(0.12345,), (1234.5,), (1.5,), (0,)])
        assert "0.1235" in text or "0.1234" in text
        assert "1234" in text  # large floats drop decimals
        assert "1.50" in text

    def test_handles_empty_rows(self):
        text = format_table(["A"], [])
        assert "A" in text


class TestHumanUnits:
    def test_bytes_human(self):
        assert bytes_human(500) == "500 B"
        assert bytes_human(1536) == "1.5 kB"
        assert bytes_human(5 * 1024 * 1024) == "5.0 MB"
        assert bytes_human(3 * 1024 ** 3) == "3.0 GB"
