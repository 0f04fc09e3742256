import json

from hypothesis import given, strategies as st

from paps import render


def _table_reference(header, rows):
    """The fixed-width writer the prioritize table used before ``render``."""
    widths = [max(len(header[i]), *(len(r[i]) for r in rows)) if rows
              else len(header[i]) for i in range(len(header))]

    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    rule = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(header), rule] + [fmt(r) for r in rows]) + "\n"


cells = st.text(st.sampled_from("ab1. -"), max_size=6)


@st.composite
def grids(draw):
    n = draw(st.integers(1, 4))
    header = draw(st.lists(cells.filter(bool), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n), max_size=4))
    return header, rows


class TestTable:
    def test_layout(self):
        assert render.table(["id", "value"], [["R10", "0.5"], ["R2", ""]]) == (
            "id   value\n"
            "---  -----\n"
            "R10  0.5\n"
            "R2\n")

    def test_no_rows(self):
        assert render.table(["goal", "rds"], []) == "goal  rds\n----  ---\n"

    @given(grids())
    def test_matches_the_reference(self, grid):
        header, rows = grid
        assert render.table(header, rows) == _table_reference(header, rows)

    @given(grids())
    def test_prepadded_cells_with_widths(self, grid):
        header, rows = grid
        widths = [max(map(len, column)) for column in zip(header, *rows)]
        padded = [[c.ljust(w) for c, w in zip(row, widths)] for row in rows]
        assert ("".join(render.table_lines(header, iter(padded), widths))
                == render.table(header, rows))


def _joined_lines(header, rows):
    """``render.csv_lines`` joined, each chunk checked to be one line."""
    chunks = list(render.csv_lines(header, rows))
    for chunk in chunks:
        assert chunk.endswith("\n") and chunk.count("\n") == 1
    return "".join(chunks)


class TestCsv:
    # each test holds for ``render.csv`` and for its lines joined
    writers = (render.csv, _joined_lines)

    def test_layout(self):
        for csv in self.writers:
            assert csv(["goal", "R1"], [["S", "0.50"], ["G1", "0.00"]]) == (
                "goal,R1\nS,0.50\nG1,0.00\n")

    def test_no_value_columns_leaves_no_trailing_comma(self):
        for csv in self.writers:
            assert csv(["goal"], [["S"], ["G1"]]) == "goal\nS\nG1\n"

    def test_rows_may_be_a_generator(self):
        for csv in self.writers:
            assert csv(["a"], (["x"] for _ in range(2))) == "a\nx\nx\n"

    @given(grids())
    def test_lines_join_to_csv(self, grid):
        header, rows = grid
        assert _joined_lines(header, rows) == render.csv(header, rows)


class TestJsonRows:
    def test_is_indented_json_dumps(self):
        rows = [{"requirement": "R6", "rds": 0.36, "ok": True}]
        assert render.json_rows(rows) == json.dumps(rows, indent=2) + "\n"

    def test_keeps_non_ascii_text(self):
        assert render.json_rows([{"rendered": "0.36 × OV_6"}]) == (
            '[\n  {\n    "rendered": "0.36 × OV_6"\n  }\n]\n')

    def test_empty(self):
        assert render.json_rows([]) == "[]\n"
