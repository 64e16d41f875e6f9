#!/usr/bin/env python
"""Bench regression gate: fail CI when tracked benchmarks regress.

The committed ``BENCH_*.json`` at the repository root are the baselines of
the three engineering benches ``e2e_bench`` does not cover — the 1M-item
shard scan (``BENCH_shard.json``), fault-injection goodput and recovery
(``BENCH_resilience.json``) and the metrics-registry overhead ratio
(``BENCH_metrics_overhead.json``).  The benchmark suite never writes there:
fresh results land in the git-ignored ``benchmarks/out/`` (see
``write_bench_result`` in ``conftest.py``), so running the benches leaves
the working tree clean, and refreshing a baseline is an explicit
``cp benchmarks/out/BENCH_x.json .`` followed by a commit.  After CI re-runs
the benchmarks, this script compares the fresh files against the committed
baselines and exits non-zero when

* any **relative** throughput metric (``scan_speedup`` /
  ``goodput_speedup_raw`` — a ratio of two measurements from the *same*
  run, largely hardware-independent) dropped by more than ``--tolerance``
  (default 20%),
* any **absolute** throughput metric (``*_rps``, ``*_per_s``, ``*_per_sec``)
  dropped by more than ``--absolute-tolerance`` (default 35% — committed
  baselines come from whatever machine last refreshed them, so absolute
  numbers carry hardware variance on top of run noise; a wider band keeps
  the gate meaningful without turning CI red on a slower runner), or
* any **parity flag** (``identical_*``) flipped from true to false — a
  bit-identity guarantee breaking is a correctness bug, never noise, or
* any **lower-is-better** metric *rose* beyond its tolerance: latency
  metrics (``*_ms``) and resident-memory peaks (``*_mb``) gate at
  ``--absolute-tolerance`` — they carry the baseline machine's speed /
  page-cache behaviour just like absolute throughput — while memory
  footprints (``*_bytes_per_item``) gate at the tighter ``--tolerance``
  because a storage format's size per item is a property of the format,
  not the machine.

A tracked metric that the baseline has but the fresh run lacks is a failure
("disappeared") — unless the fresh file *declares* the omission in a
top-level ``skipped_metrics`` map of flattened key -> human-readable reason
(e.g. ``{"scan_speedup": "cpu_count=1: ..."}``, written by the shard bench
on single-core runners where a 4-vs-1 worker ratio is scheduler noise).
Declared skips are reported as notes and only excuse throughput metrics —
both a metric that *disappeared* and one that is present but regressed
(single-core runners measure some rates meaningfully enough to record but
not to gate on); parity flags can never be skipped.

**Repeated-samples mode.**  A benchmark that runs its headline measurement
several times may record the per-round values in a top-level ``samples``
map of flattened key -> list (e.g. ``{"goodput_speedup_raw": [6.4, 8.5,
6.5]}``, written by the resilience bench).  When both the baseline and the
fresh file carry >= 3 samples for a tracked throughput metric, the gate
replaces the threshold test with a one-sided Mann-Whitney U test (pure-python normal
approximation with tie and continuity corrections): the metric fails only
when the fresh samples are *statistically significantly* lower than the
baseline's at ``--alpha`` (default 0.05).  This is sharper than a fixed
tolerance — three quiet rounds beat one noisy one — and degrades cleanly:
when either side lacks samples (older baselines), the threshold test runs
as before.  The ``samples`` subtree itself is provenance, never compared.

Latency percentiles, metric values and metadata are compared for reporting
only.

Usage::

    python benchmarks/check_regression.py                 # vs `git show HEAD:`
    python benchmarks/check_regression.py --baseline-dir X  # vs a directory
    python benchmarks/check_regression.py --tolerance 0.1
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: where the benches write their fresh results (``conftest.BENCH_OUT_DIR``)
FRESH_DIR = Path(__file__).resolve().parent / "out"

#: the tracked benchmark files, in bench-suite order
TRACKED_FILES = (
    "BENCH_shard.json",
    "BENCH_resilience.json",
    "BENCH_metrics_overhead.json",
)

#: fewest per-round samples (each side) for the Mann-Whitney test to run
MIN_SAMPLES = 3

#: key-name suffixes of *absolute* throughput metrics (hardware-dependent)
ABSOLUTE_SUFFIXES = ("_rps", "_per_s", "_per_sec", "_per_second")

#: key-name suffixes of *relative* throughput metrics (same-run ratios);
#: ``speedup_raw`` is the resilience bench's unclamped goodput ratio — the
#: clamped ``min(ratio, 3.0)`` it replaced tied every sample at 3.0
RELATIVE_SUFFIXES = ("speedup", "speedup_raw")

#: key-name prefixes treated as must-not-flip parity flags
PARITY_PREFIXES = ("identical",)

#: lower-is-better suffixes gated in the opposite direction (a *rise*
#: fails): wall-clock latencies and resident-memory peaks carry hardware
#: variance like absolute throughput does ...
LOWER_ABSOLUTE_SUFFIXES = ("_ms", "_mb")

#: ... while bytes-per-item footprints are properties of the storage format
#: itself, so they gate at the tighter relative tolerance
LOWER_RELATIVE_SUFFIXES = ("_bytes_per_item",)


def _flatten(payload: Any, prefix: str = "") -> Iterator[Tuple[str, Any]]:
    if isinstance(payload, dict):
        for key in sorted(payload):
            yield from _flatten(payload[key], f"{prefix}{key}."
                                if isinstance(payload[key], dict)
                                else f"{prefix}{key}")
    else:
        yield prefix, payload


def _is_absolute_key(key: str) -> bool:
    leaf = key.rsplit(".", 1)[-1]
    return any(leaf.endswith(suffix) for suffix in ABSOLUTE_SUFFIXES)


def _is_relative_key(key: str) -> bool:
    leaf = key.rsplit(".", 1)[-1]
    return any(leaf.endswith(suffix) for suffix in RELATIVE_SUFFIXES)


def _is_throughput_key(key: str) -> bool:
    return _is_absolute_key(key) or _is_relative_key(key)


def _is_parity_key(key: str) -> bool:
    leaf = key.rsplit(".", 1)[-1]
    return any(leaf.startswith(prefix) for prefix in PARITY_PREFIXES)


def _is_lower_better_key(key: str) -> bool:
    leaf = key.rsplit(".", 1)[-1]
    return any(leaf.endswith(suffix)
               for suffix in LOWER_ABSOLUTE_SUFFIXES + LOWER_RELATIVE_SUFFIXES)


def _is_tracked_key(key: str) -> bool:
    return _is_throughput_key(key) or _is_lower_better_key(key)


def mann_whitney_drop_pvalue(baseline_samples: Sequence[float],
                             fresh_samples: Sequence[float]
                             ) -> Optional[float]:
    """One-sided Mann-Whitney U p-value for "fresh is stochastically
    *smaller* than baseline" (i.e. the metric dropped).

    Normal approximation with tie correction and a 0.5 continuity
    correction — exact enough for the 3-10 samples benches record, and
    dependency-free.  Returns ``None`` when the variance degenerates
    (every value tied), which callers must treat as "no evidence of a
    drop".
    """
    n_base = len(baseline_samples)
    n_fresh = len(fresh_samples)
    if n_base == 0 or n_fresh == 0:
        return None
    # U for the "fresh < baseline" direction; ties split the point.
    u_statistic = 0.0
    for fresh_value in fresh_samples:
        for base_value in baseline_samples:
            if fresh_value < base_value:
                u_statistic += 1.0
            elif fresh_value == base_value:
                u_statistic += 0.5
    mean_u = n_base * n_fresh / 2.0
    total = n_base + n_fresh
    tie_term = sum(count ** 3 - count
                   for count in Counter(list(baseline_samples)
                                        + list(fresh_samples)).values())
    variance = (n_base * n_fresh / 12.0) * (
        (total + 1) - tie_term / (total * (total - 1)))
    if variance <= 0.0:
        return None
    z_score = (u_statistic - mean_u - 0.5) / math.sqrt(variance)
    # P(U >= observed) under H0 — small means the drop is significant.
    return 0.5 * math.erfc(z_score / math.sqrt(2.0))


def _samples_for(payload: Dict[str, Any], key: str) -> Optional[List[float]]:
    """The per-round sample list a payload recorded for a flattened key,
    or ``None`` when absent, too short, or not purely numeric."""
    samples = payload.get("samples")
    if not isinstance(samples, dict):
        return None
    values = samples.get(key)
    if (not isinstance(values, list) or len(values) < MIN_SAMPLES
            or not all(isinstance(value, (int, float))
                       and not isinstance(value, bool) for value in values)):
        return None
    return [float(value) for value in values]


def _median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return 0.5 * (ordered[middle - 1] + ordered[middle])


def _declared_skips(fresh: Dict[str, Any]) -> Dict[str, str]:
    """Flattened-key -> reason map the fresh run declared it could not
    measure meaningfully (``skipped_metrics`` in the JSON payload)."""
    declared = fresh.get("skipped_metrics")
    if not isinstance(declared, dict):
        return {}
    return {str(key): str(reason) for key, reason in declared.items()}


def _load_fresh(name: str) -> Optional[Dict[str, Any]]:
    path = FRESH_DIR / name
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def _load_baseline(name: str, baseline_dir: Optional[Path],
                   ref: str) -> Optional[Dict[str, Any]]:
    if baseline_dir is not None:
        path = baseline_dir / name
        if not path.exists():
            return None
        return json.loads(path.read_text(encoding="utf-8"))
    completed = subprocess.run(
        ["git", "show", f"{ref}:{name}"],
        cwd=REPO_ROOT, capture_output=True, text=True,
    )
    if completed.returncode != 0:  # not committed yet (new benchmark)
        return None
    return json.loads(completed.stdout)


def compare(baseline: Dict[str, Any], fresh: Dict[str, Any],
            tolerance: float,
            absolute_tolerance: Optional[float] = None,
            alpha: float = 0.05) -> Tuple[List[str], List[str]]:
    """Return ``(failures, notes)`` for one benchmark file pair."""
    if absolute_tolerance is None:
        absolute_tolerance = tolerance
    failures: List[str] = []
    notes: List[str] = []
    baseline_flat = dict(_flatten(baseline))
    fresh_flat = dict(_flatten(fresh))
    skips = _declared_skips(fresh)

    for key, old_value in baseline_flat.items():
        if key == "skipped_metrics" or key.startswith("skipped_metrics."):
            continue  # skip declarations are provenance, not metrics
        if key == "samples" or key.startswith("samples."):
            continue  # per-round sample lists are provenance, not metrics
        if key not in fresh_flat:
            if _is_parity_key(key):
                # Parity flags are correctness guarantees; a skip
                # declaration cannot excuse one going missing.
                failures.append(
                    f"parity flag {key!r} disappeared "
                    f"(parity flags cannot be skipped)")
            elif _is_tracked_key(key):
                if key in skips:
                    notes.append(f"tracked metric {key!r} skipped by the "
                                 f"fresh run: {skips[key]}")
                else:
                    failures.append(f"tracked metric {key!r} disappeared")
            continue
        new_value = fresh_flat[key]
        if _is_parity_key(key) and isinstance(old_value, bool):
            if not isinstance(new_value, bool):
                # A parity flag degrading to null/number is the benchmark
                # failing to compute it — as bad as a flip, never a pass.
                failures.append(
                    f"parity flag {key!r} is no longer a boolean "
                    f"(got {new_value!r})")
            elif old_value and not new_value:
                failures.append(
                    f"parity flag {key!r} flipped true -> false")
            elif not old_value and new_value:
                notes.append(f"parity flag {key!r} now true (improvement)")
        elif (_is_tracked_key(key)
              and isinstance(old_value, (int, float))
              and not isinstance(old_value, bool)):
            if (not isinstance(new_value, (int, float))
                    or isinstance(new_value, bool)):
                # NaN/inf measurements serialise to JSON null; a tracked
                # metric that silently stopped being a number must fail
                # loudly, not fall through the type guards.
                failures.append(
                    f"tracked metric {key!r} is no longer numeric "
                    f"(got {new_value!r})")
                continue
            lower_better = _is_lower_better_key(key)
            baseline_samples = _samples_for(baseline, key)
            fresh_samples = _samples_for(fresh, key)
            if baseline_samples is not None and fresh_samples is not None:
                # Both sides recorded per-round samples: significance test
                # instead of a fixed threshold.  For lower-is-better
                # metrics the regression direction is a *rise*, which is
                # the same test with the sample sides swapped.
                if lower_better:
                    p_value = mann_whitney_drop_pvalue(fresh_samples,
                                                       baseline_samples)
                    regressed = (p_value is not None and p_value < alpha
                                 and _median(fresh_samples)
                                 > _median(baseline_samples))
                    direction = "above"
                else:
                    p_value = mann_whitney_drop_pvalue(baseline_samples,
                                                       fresh_samples)
                    regressed = (p_value is not None and p_value < alpha
                                 and _median(fresh_samples)
                                 < _median(baseline_samples))
                    direction = "below"
                if regressed and key in skips:
                    notes.append(
                        f"{key}: significantly {direction} baseline "
                        f"(p={p_value:.4f}) but declared skipped by the "
                        f"fresh run: {skips[key]}")
                elif regressed:
                    failures.append(
                        f"{key}: median {_median(fresh_samples):.3f} vs "
                        f"baseline median {_median(baseline_samples):.3f} "
                        f"over {len(fresh_samples)}v{len(baseline_samples)} "
                        f"samples (Mann-Whitney p={p_value:.4f} "
                        f"< alpha={alpha:g})")
                else:
                    detail = ("all samples tied" if p_value is None
                              else f"p={p_value:.4f}")
                    notes.append(
                        f"{key}: median {_median(fresh_samples):.3f} "
                        f"(baseline median {_median(baseline_samples):.3f}, "
                        f"{detail}) ok")
                continue
            if lower_better:
                leaf = key.rsplit(".", 1)[-1]
                allowed = (absolute_tolerance
                           if any(leaf.endswith(suffix)
                                  for suffix in LOWER_ABSOLUTE_SUFFIXES)
                           else tolerance)
                ceiling = old_value * (1.0 + allowed)
                if new_value > ceiling:
                    rise = (100.0 * (new_value / old_value - 1.0)
                            if old_value else 0.0)
                    if key in skips:
                        notes.append(
                            f"{key}: {new_value:.3f} vs baseline "
                            f"{old_value:.3f} (+{rise:.1f}%) but declared "
                            f"skipped by the fresh run: {skips[key]}")
                    else:
                        failures.append(
                            f"{key}: {new_value:.3f} vs baseline "
                            f"{old_value:.3f} (+{rise:.1f}%, tolerance "
                            f"{allowed:.0%}, lower is better)")
                else:
                    notes.append(f"{key}: {new_value:.3f} "
                                 f"(baseline {old_value:.3f}) ok")
                continue
            allowed = (absolute_tolerance if _is_absolute_key(key)
                       else tolerance)
            floor = old_value * (1.0 - allowed)
            if new_value < floor:
                drop = 100.0 * (1.0 - new_value / old_value) if old_value else 0.0
                if key in skips:
                    notes.append(
                        f"{key}: {new_value:.3f} vs baseline "
                        f"{old_value:.3f} (-{drop:.1f}%) but declared "
                        f"skipped by the fresh run: {skips[key]}")
                else:
                    failures.append(
                        f"{key}: {new_value:.3f} vs baseline {old_value:.3f} "
                        f"(-{drop:.1f}%, tolerance {allowed:.0%})")
            else:
                notes.append(f"{key}: {new_value:.3f} "
                             f"(baseline {old_value:.3f}) ok")
    return failures, notes


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop of relative (speedup) "
                             "metrics (default 0.20 = 20%%)")
    parser.add_argument("--absolute-tolerance", type=float, default=0.35,
                        help="allowed fractional drop of absolute throughput "
                             "metrics — wider, because committed baselines "
                             "carry the baseline machine's speed "
                             "(default 0.35 = 35%%)")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="significance level for the Mann-Whitney test "
                             "when both sides carry per-round samples "
                             "(default 0.05)")
    parser.add_argument("--baseline-dir", type=Path, default=None,
                        help="directory with baseline BENCH_*.json files "
                             "(default: read them from `git show REF:`)")
    parser.add_argument("--ref", default="HEAD",
                        help="git ref for committed baselines (default HEAD)")
    parser.add_argument("--files", nargs="*", default=list(TRACKED_FILES),
                        help="benchmark files to check")
    args = parser.parse_args(argv)
    if not 0.0 <= args.tolerance < 1.0:
        parser.error(f"--tolerance must be in [0, 1), got {args.tolerance}")
    if not 0.0 <= args.absolute_tolerance < 1.0:
        parser.error(f"--absolute-tolerance must be in [0, 1), "
                     f"got {args.absolute_tolerance}")
    if not 0.0 < args.alpha < 1.0:
        parser.error(f"--alpha must be in (0, 1), got {args.alpha}")

    exit_code = 0
    checked = 0
    for name in args.files:
        fresh = _load_fresh(name)
        baseline = _load_baseline(name, args.baseline_dir, args.ref)
        if baseline is None:
            print(f"[check_regression] {name}: no committed baseline "
                  f"(new benchmark) — skipped")
            continue
        if fresh is None:
            print(f"[check_regression] {name}: FAIL — baseline exists but "
                  f"the benchmark did not write a fresh file")
            exit_code = 1
            continue
        failures, notes = compare(baseline, fresh, args.tolerance,
                                  args.absolute_tolerance, alpha=args.alpha)
        checked += 1
        for note in notes:
            print(f"[check_regression] {name}: {note}")
        for failure in failures:
            print(f"[check_regression] {name}: FAIL — {failure}")
        if failures:
            exit_code = 1
        else:
            print(f"[check_regression] {name}: ok")
    if checked == 0 and exit_code == 0:
        print("[check_regression] nothing to check (no baselines found)")
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
