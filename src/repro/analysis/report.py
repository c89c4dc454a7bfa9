"""Plain-text report tables for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures as an
aligned text table, printed to stdout and optionally persisted under
``benchmarks/results/`` so the reproduction record survives pytest's
output capturing.
"""

from __future__ import annotations

import math
import os
from typing import List, Sequence


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's aggregate for speedups)."""
    filtered = [v for v in values if v > 0]
    if not filtered:
        return 0.0
    return math.exp(sum(math.log(v) for v in filtered) / len(filtered))


class ReportTable:
    """An aligned text table with a title and optional footnotes."""

    def __init__(self, title: str, columns: Sequence[str]):
        self.title = title
        self.columns = list(columns)
        self.rows: List[List[str]] = []
        self.notes: List[str] = []

    def add_row(self, *cells) -> None:
        if len(cells) != len(self.columns):
            raise ValueError(
                f"row has {len(cells)} cells, table has {len(self.columns)} columns"
            )
        self.rows.append([self._render(cell) for cell in cells])

    def add_note(self, note: str) -> None:
        self.notes.append(note)

    @staticmethod
    def _render(cell) -> str:
        if isinstance(cell, float):
            if cell and abs(cell) < 0.01:
                return f"{cell:.4f}"
            return f"{cell:,.2f}"
        return str(cell)

    def render(self) -> str:
        widths = [len(name) for name in self.columns]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            name.ljust(widths[index]) for index, name in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def show(self) -> str:
        text = self.render()
        print("\n" + text + "\n")
        return text

    def save(self, directory: str, name: str) -> str:
        """Persist under ``directory/name.txt``; returns the path."""
        os.makedirs(directory, exist_ok=True)
        path = os.path.join(directory, f"{name}.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.render() + "\n")
        return path
