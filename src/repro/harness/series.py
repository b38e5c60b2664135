"""Result containers and plain-text rendering for experiments.

Every experiment in :mod:`repro.harness.experiments` returns an
:class:`ExperimentResult`: a named table of rows that renders to
aligned text (the library has no plotting dependency; the *series*
are the figures).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class ExperimentResult:
    """A labelled table: the regenerated form of one table/figure."""

    experiment: str                  # e.g. "Figure 8"
    title: str
    columns: List[str]
    rows: List[List[Any]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"expected {len(self.columns)} values, got {len(values)}")
        self.rows.append(list(values))

    def note(self, text: str) -> None:
        self.notes.append(text)

    def column(self, name: str) -> List[Any]:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def find(self, **filters: Any) -> List[List[Any]]:
        """Rows whose named columns equal the given values."""
        indices = {self.columns.index(k): v for k, v in filters.items()}
        return [row for row in self.rows
                if all(row[i] == v for i, v in indices.items())]

    def cell(self, column: str, **filters: Any) -> Any:
        """The single value of ``column`` in the row matching filters."""
        rows = self.find(**filters)
        if len(rows) != 1:
            raise KeyError(f"{len(rows)} rows match {filters}")
        return rows[0][self.columns.index(column)]

    # -- rendering ------------------------------------------------------------------

    @staticmethod
    def _format(value: Any) -> str:
        if value is None:
            return "-"
        if isinstance(value, float):
            if value == 0:
                return "0"
            if abs(value) >= 1000 or abs(value) < 0.01:
                return f"{value:.3g}"
            return f"{value:.2f}"
        return str(value)

    def render(self) -> str:
        """Aligned plain-text table with the experiment heading."""
        cells = [[self._format(v) for v in row] for row in self.rows]
        widths = [max([len(c)] + [len(row[i]) for row in cells])
                  for i, c in enumerate(self.columns)]
        def line(values):
            return "  ".join(v.rjust(w) for v, w in zip(values, widths))
        out = [f"== {self.experiment}: {self.title} ==",
               line(self.columns),
               line(["-" * w for w in widths])]
        out += [line(row) for row in cells]
        out += [f"  note: {n}" for n in self.notes]
        return "\n".join(out)
