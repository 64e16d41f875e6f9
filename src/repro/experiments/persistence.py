"""Persisting experiment results to disk.

Experiment runners return plain dictionaries mixing floats, numpy arrays,
dataclasses and nested mappings.  This module serialises those results to
JSON so that benchmark runs can be archived, diffed and re-rendered without
re-training anything.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

# save_checkpoint / load_checkpoint are re-exported for e2e_bench/ladder.py,
# which imports them from here; they live in repro.models.checkpoint.
from ..models.checkpoint import (PathLike, json_sanitize, load_checkpoint,
                                 save_checkpoint)


def save_result(result: Dict[str, Any], path: PathLike,
                experiment_id: Optional[str] = None) -> Path:
    """Write a runner result to ``path`` (directories are created).

    If ``experiment_id`` is given it is recorded alongside the payload so the
    file is self-describing.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload: Dict[str, Any] = {"result": json_sanitize(result)}
    if experiment_id is not None:
        payload["experiment_id"] = experiment_id
    # Write atomically: results files may be read by other tooling while a
    # long benchmark run is still appending new ones.
    temporary = path.with_suffix(path.suffix + ".tmp")
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
    temporary.replace(path)
    return path
