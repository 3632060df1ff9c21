"""Tests for the text report helpers."""

from repro.bench.report import ascii_series, format_table


class TestFormatTable:
    def test_alignment_and_headers(self):
        out = format_table(
            ["name", "ms"], [["a", 1.5], ["bb", 22.0]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.500" in out
        assert "22.0" in out

    def test_none_renders_dnr(self):
        out = format_table(["x"], [[None]])
        assert "DNR" in out

    def test_large_numbers_commas(self):
        out = format_table(["n"], [[1234567.0]])
        assert "1,234,567" in out

    def test_empty_rows(self):
        out = format_table(["a", "b"], [])
        assert "a" in out


class TestAsciiSeries:
    def test_bars_scale(self):
        out = ascii_series(["x", "y"], [1.0, 2.0], width=10)
        lines = out.splitlines()
        assert lines[1].count("#") == 10
        assert lines[0].count("#") == 5

    def test_dnr(self):
        out = ascii_series(["a"], [None])
        assert "DNR" in out

    def test_title_and_unit(self):
        out = ascii_series(["a"], [3.0], unit="ms", title="Fig")
        assert out.startswith("Fig")
        assert "3ms" in out

    def test_mismatched_lengths(self):
        import pytest

        with pytest.raises(ValueError):
            ascii_series(["a"], [1.0, 2.0])
