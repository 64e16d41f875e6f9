"""``python3 -m e2e_bench.repeat --sets 2``: is the benchmark steady?

Runs ``--sets`` full sets of the same code, each ``RUNS`` runs of every
workload on seeds ``--seed``, ``--seed + 1``, ...  Prints, per workload x
end-to-end metric, every set's median, the largest relative difference
between two sets' medians, each set's spread (distance between the first
and third quartile as a share of the median) and the bound.  Exits
non-zero when a difference exceeds its bound, when a spread (``setup_s``
excepted) exceeds its bound, or when a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from .metrics import END_TO_END, ROOT
from .workloads import WORKLOADS

#: runs of every workload per set, each on another seed
RUNS = 10


def run_once(workload: str, seed: int, out: Path) -> Dict[str, float]:
    done = subprocess.run(
        [sys.executable, "-m", "e2e_bench", "--workload", workload,
         "--seed", str(seed), "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited with code "
                           f"{done.returncode}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    return {name: metric["value"]
            for name, metric in result["metrics"].items()}


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m e2e_bench.repeat",
                                     description=__doc__)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=ROOT / "e2e_bench" / "out")
    args = parser.parse_args(argv)

    # samples[workload][metric][set] = one value per run
    samples: Dict[str, Dict[str, List[List[float]]]] = {
        name: {metric[0]: [[] for _ in range(args.sets)]
               for metric in END_TO_END} for name in WORKLOADS}
    for which in range(args.sets):
        for name in WORKLOADS:
            for run in range(RUNS):
                values = run_once(name, args.seed + run, args.out)
                for metric, value in values.items():
                    samples[name][metric][which].append(value)
                print(f"set {which + 1} {name} seed {args.seed + run}: "
                      + " ".join(f"{metric}={value:.4g}"
                                 for metric, value in values.items()),
                      flush=True)

    status = 0
    print("\nworkload metric medians... difference spreads... bound verdict")
    for name in WORKLOADS:
        for metric, _, better, bound in END_TO_END:
            sets = samples[name][metric]
            medians = [statistics.median(values) for values in sets]
            worse = max(medians) if better == "lower" else min(medians)
            base = min(medians) if better == "lower" else max(medians)
            difference = abs(worse - base) / base
            spreads = [spread(values) for values in sets]
            failed = difference > bound or (
                metric != "setup_s" and max(spreads) > bound)
            steady = max(spreads) <= bound / 3.0
            print(f"{name} {metric} "
                  + " ".join(f"{value:.5g}" for value in medians)
                  + f" diff={difference:.3f} spread="
                  + "/".join(f"{value:.3f}" for value in spreads)
                  + f" bound={bound:g} "
                  + ("FAIL" if failed else "ok" if steady
                     else "ok (spread above a third of the bound)"))
            status = status or int(failed)
    return status


if __name__ == "__main__":
    sys.exit(main())
