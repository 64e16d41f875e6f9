"""ASCII plotting helpers for figure-style experiment outputs.

The benchmark harness runs in terminals without matplotlib, so figure
experiments (singular value spectra, CDFs) are
rendered as compact ASCII charts.  These are intentionally simple — enough to
eyeball the shape the paper's figures show.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np


def sparkline(values: Sequence[float], width: int = 60) -> str:
    """Render a series as a one-line sparkline using block characters."""
    blocks = "▁▂▃▄▅▆▇█"
    values = np.asarray(list(values), dtype=np.float64)
    if values.size == 0:
        return ""
    if values.size > width:
        # Downsample by averaging consecutive chunks.
        chunks = np.array_split(values, width)
        values = np.array([chunk.mean() for chunk in chunks])
    low, high = float(values.min()), float(values.max())
    span = high - low if high > low else 1.0
    indices = ((values - low) / span * (len(blocks) - 1)).round().astype(int)
    return "".join(blocks[i] for i in indices)


def histogram(values: Sequence[float], bins: int = 10, width: int = 40,
              title: Optional[str] = None) -> str:
    """Render a histogram of ``values`` with horizontal bars."""
    values = np.asarray(list(values), dtype=np.float64)
    lines = [title] if title else []
    if values.size == 0:
        lines.append("(no data)")
        return "\n".join(lines)
    counts, edges = np.histogram(values, bins=bins)
    top = max(int(counts.max()), 1)
    for count, left, right in zip(counts, edges[:-1], edges[1:]):
        bar = "█" * int(round(count / top * width))
        lines.append(f"[{left:8.3f}, {right:8.3f}) {bar} {count}")
    return "\n".join(lines)
