"""Figure-style reporting helpers.

The paper's figures plot *relative* results: power normalised to
coremark (Figures 5/6), chip temperature normalised to bodytrack
(Figure 7), raw volts for the oscilloscope figures.  These helpers turn
``{workload: value}`` mappings into normalised series and render them
as the ASCII bar charts the benchmark harness prints.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

from ..core.errors import ConfigError

__all__ = ["normalize", "figure_rows", "bar_chart"]

#: Characters in the longest bar of a chart.
_BAR_WIDTH = 48


def normalize(values: Mapping[str, float],
              reference: str) -> Dict[str, float]:
    """Divide every entry by the reference workload's value."""
    if reference not in values:
        raise ConfigError(
            f"normalisation reference {reference!r} missing from results "
            f"({sorted(values)})")
    ref = values[reference]
    if ref == 0:
        raise ConfigError(f"reference {reference!r} measured zero")
    return {name: value / ref for name, value in values.items()}


def figure_rows(values: Mapping[str, float],
                reference: str = "") -> List[Tuple[str, float]]:
    """(name, value) rows, largest value first, optionally normalised."""
    data = normalize(values, reference) if reference else dict(values)
    return sorted(data.items(), key=lambda kv: kv[1], reverse=True)


def bar_chart(rows: Sequence[Tuple[str, float]], title: str = "",
              unit: str = "") -> str:
    """Render rows as a horizontal ASCII bar chart."""
    if not rows:
        raise ConfigError("cannot chart an empty result set")
    label_width = max(len(name) for name, _ in rows)
    peak = max(value for _, value in rows)
    if peak <= 0:
        raise ConfigError("cannot chart non-positive values")
    lines = [title] if title else []
    for name, value in rows:
        bar = "#" * max(1, round(_BAR_WIDTH * value / peak))
        lines.append(f"{name.ljust(label_width)}  {value:8.3f}{unit}  {bar}")
    return "\n".join(lines)
