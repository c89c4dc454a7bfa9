"""Tests for the analysis/report helpers."""

import pytest

from repro.analysis import ReportTable, geomean


class TestGeomean:
    def test_basic(self):
        assert geomean([1, 4]) == pytest.approx(2.0)

    def test_single(self):
        assert geomean([7.0]) == pytest.approx(7.0)

    def test_empty(self):
        assert geomean([]) == 0.0

    def test_ignores_non_positive(self):
        assert geomean([0.0, 4.0, -1.0]) == pytest.approx(4.0)

    def test_order_invariant(self):
        assert geomean([2, 8, 32]) == pytest.approx(geomean([32, 2, 8]))


class TestReportTable:
    def make_table(self):
        table = ReportTable("Demo", ["name", "value"])
        table.add_row("alpha", 1.5)
        table.add_row("beta", "raw")
        return table

    def test_render_contains_title_and_rows(self):
        text = self.make_table().render()
        assert "Demo" in text
        assert "alpha" in text
        assert "1.50" in text
        assert "raw" in text

    def test_row_arity_checked(self):
        table = ReportTable("Demo", ["a", "b"])
        with pytest.raises(ValueError):
            table.add_row("only-one")

    def test_small_floats_get_more_precision(self):
        table = ReportTable("Demo", ["v"])
        table.add_row(0.0042)
        assert "0.0042" in table.render()

    def test_notes_rendered(self):
        table = self.make_table()
        table.add_note("context matters")
        assert "note: context matters" in table.render()

    def test_columns_aligned(self):
        text = self.make_table().render()
        lines = text.splitlines()
        header = next(line for line in lines if "name" in line)
        separator = lines[lines.index(header) + 1]
        assert len(separator) == len(header)

    def test_save_round_trip(self, tmp_path):
        table = self.make_table()
        path = table.save(str(tmp_path), "demo")
        with open(path) as handle:
            assert "alpha" in handle.read()
