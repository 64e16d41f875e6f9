"""``python -m e2e_bench``: run one workload (or all four) and print every
metric as ``name value unit``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Exits non-zero when a correctness check fails or the run could not be
measured.  Writes only under ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from . import harness, trainjob
from .metrics import END_TO_END, PER_LAYER, ROOT, RUN_SECONDS, UNITS
from .stats import TooFewSamples, environment_stamp
from .workloads import WORKLOADS


def run_workload(name: str, seed: int, trace: bool,
                 out: Path) -> Dict[str, Any]:
    """Run one workload and return its full result (also written to
    ``<out>/result_<workload>[_trace].json``; spans to
    ``<out>/trace_<workload>.jsonl``)."""
    workload = WORKLOADS[name]
    workdir = out / f"work-{name}-{os.getpid()}"
    try:
        if trace:
            result = harness.run_traced(workload, seed, ROOT, workdir)
            if workload.offline:
                job = trainjob.run_traced(seed, ROOT, workdir)
                result["metrics"].update(job["metrics"])
                result["checks"].update(job["checks"])
                result["counts"]["attempted"] += job["attempted"]
                result["spans"] += job["spans"]
        elif workload.offline:
            result = trainjob.run_end_to_end(seed, ROOT, workdir)
        else:
            result = harness.run_end_to_end(workload, seed, ROOT, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = _wanted(trace)
    measured = result.pop("metrics")
    result["info"].update({key: value for key, value in measured.items()
                           if key not in wanted})
    result["metrics"] = {key: {"value": measured[key], "unit": UNITS[key]}
                         for key in wanted if key in measured}
    for key in wanted:
        if key not in measured:
            result["skipped"].setdefault(key, "not measured in this run")
    result.update(workload=name, seed=seed, seconds=RUN_SECONDS,
                  trace=bool(trace), why=workload.why,
                  stamp=environment_stamp(seed, ROOT))
    result["correct"] = all(result["checks"].values())

    out.mkdir(parents=True, exist_ok=True)
    spans = result.pop("spans")
    if trace:
        with open(out / f"trace_{name}.jsonl", "w") as handle:
            for span in spans:
                handle.write(json.dumps(span) + "\n")
    suffix = "_trace" if trace else ""
    with open(out / f"result_{name}{suffix}.json", "w") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return result


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines, then the one-line JSON result."""
    print(f"# {result['workload']} seed={result['seed']} "
          f"seconds={result['seconds']:g} trace={int(result['trace'])}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in sorted(result["info"].items()):
        if isinstance(value, (int, float)):
            print(f"info {name} {value:.6g}")
    counts = result["counts"]
    print(f"operations attempted {counts['attempted']} succeeded "
          f"{counts['attempted'] - counts['failed']} failed "
          f"{counts['failed']}")
    for name, reason in sorted(result["skipped"].items()):
        print(f"skipped {name}: {reason}")
    for flag in result["flags"]:
        print(f"flag: {flag}")
    for name, passed in sorted(result["checks"].items()):
        print(f"check {'ok  ' if passed else 'FAIL'} {name}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": counts["attempted"],
                      "failed": counts["failed"],
                      "metrics": result["metrics"]}))


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2e_bench",
                                     description=__doc__)
    parser.add_argument("--workload", default="all",
                        help="http_small, http_large, swap_bulk, "
                             "train_eval or all (default)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="accepted because the driver passes it; the "
                             "run length is fixed by run_seconds of "
                             f"BENCHMARK.json ({RUN_SECONDS}) and no other "
                             "value is taken")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: the separate traced run (per-layer "
                             "metrics and spans)")
    parser.add_argument("--out", type=Path, default=ROOT / "e2e_bench" / "out")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: the program under test is missing: {ROOT / 'src'} "
              f"has no repro package", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        if name not in WORKLOADS:
            print(f"error: unknown workload {name!r} (expected one of "
                  f"{', '.join(WORKLOADS)})", file=sys.stderr)
            return 2
    if args.seconds != RUN_SECONDS:
        print(f"error: the run length is set by the benchmark "
              f"(run_seconds={RUN_SECONDS} in BENCHMARK.json), the same on "
              f"every commit; --seconds {args.seconds:g} is refused",
              file=sys.stderr)
        return 2

    status = 0
    for name in names:
        try:
            result = run_workload(name, args.seed, bool(args.trace),
                                  args.out.resolve())
        except (harness.BenchmarkError, TooFewSamples) as error:
            print(f"error: {name}: {error}", file=sys.stderr)
            return 1
        missing = [key for key in _wanted(bool(args.trace))
                   if key not in result["metrics"]]
        if missing:
            print(f"error: {name}: metrics could not be measured: "
                  f"{ {key: result['skipped'].get(key) for key in missing} }",
                  file=sys.stderr)
            return 1
        report(result)
        if not result["correct"]:
            status = 1
    return status


def _wanted(trace: bool) -> List[str]:
    return [metric[0] for metric in (PER_LAYER if trace else END_TO_END)]


if __name__ == "__main__":
    sys.exit(main())
