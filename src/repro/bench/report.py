"""Table and series formatting for benchmarks.

Each benchmark prints the same rows/series its paper figure reports; these
helpers keep the formatting uniform and parseable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Sequence


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean (the paper's aggregate for per-config speedups)."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass
class Table:
    """A printable table: one row per configuration, one column per system."""

    title: str
    columns: List[str]
    rows: List[List[str]] = field(default_factory=list)

    def add_row(self, label: str, values: Sequence) -> None:
        """Append one row; floats are formatted to three decimals."""
        formatted = [label] + [
            f"{v:.3f}" if isinstance(v, float) else str(v) for v in values
        ]
        self.rows.append(formatted)

    def render(self) -> str:
        """The table as an aligned text block."""
        header = ["config"] + self.columns
        widths = [
            max(len(str(row[i])) for row in [header] + self.rows)
            for i in range(len(header))
        ]
        lines = [self.title, "-" * len(self.title)]
        lines.append("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
        for row in self.rows:
            lines.append("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
        return "\n".join(lines)

    def show(self) -> None:
        """Print the table followed by a blank line."""
        print(self.render())
        print()


@dataclass
class Series:
    """A printable (x, y) series, one per system, for line-plot figures."""

    title: str
    x_label: str
    y_label: str
    data: Dict[str, List] = field(default_factory=dict)
    x_values: List = field(default_factory=list)

    def set_x(self, values: Sequence) -> None:
        """Set the shared x axis."""
        self.x_values = list(values)

    def add(self, name: str, values: Sequence[float]) -> None:
        """Add one named series."""
        self.data[name] = list(values)

    def render(self) -> str:
        """The series block as text."""
        lines = [self.title, "-" * len(self.title)]
        lines.append(f"{self.x_label}: " + "  ".join(str(x) for x in self.x_values))
        for name, values in self.data.items():
            formatted = "  ".join(
                f"{v:.4g}" if isinstance(v, float) else str(v) for v in values
            )
            lines.append(f"{name} ({self.y_label}): {formatted}")
        return "\n".join(lines)

    def show(self) -> None:
        """Print the series followed by a blank line."""
        print(self.render())
        print()
