"""The benchmark's declaration, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the only place that names the
workloads (and why each was chosen), the end-to-end metrics with their
bounds, the per-layer metrics and the run length; the code reads them from
there.  Every workload reports every end-to-end metric, so the three
timing slots are defined per workload by the operation a user of that
workload waits for — see README.md for the table.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: how long one run measures; fixed here, the same on every commit
RUN_SECONDS: int = SPEC["run_seconds"]
#: workload name -> why it was chosen
WHY: Dict[str, str] = {entry["name"]: entry["why"]
                       for entry in SPEC["workloads"]}
#: (name, unit, better, regression bound as a share of the parent's median)
END_TO_END: List[Tuple[str, str, str, float]] = [
    (entry["name"], entry["unit"], entry["better"], entry["bound"])
    for entry in SPEC["end_to_end"]]
#: (name, unit, better); no bounds — these explain, they do not gate
PER_LAYER: List[Tuple[str, str, str]] = [
    (entry["name"], entry["unit"], entry["better"])
    for entry in SPEC["per_layer"]]
UNITS: Dict[str, str] = {entry["name"]: entry["unit"]
                         for entry in SPEC["end_to_end"] + SPEC["per_layer"]}
