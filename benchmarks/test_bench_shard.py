"""Benchmark: sharded scatter-gather retrieval over a worker pool.

Two halves, one JSON:

* **Exact-parity gate (small scale)** — the sharded exact path must be
  bit-identical (ids *and* scores) to the single-process scorer for every
  shard count and both execution backends.  The aligned block grid of
  :mod:`repro.shard` makes this hold by construction; this gate is where a
  violation would surface as a hard CI failure (``identical_*`` flags are
  must-not-flip keys in ``benchmarks/check_regression.py``).

* **Million-item scan throughput** — a 1M x 32 catalogue is generated
  out-of-core (:func:`repro.data.synthetic.synthetic_item_matrix_layout`,
  never materialised in this process), served by :class:`ShardPool`
  with 1 and 4 workers attached via zero-copy memmap, and scanned by a
  stream of batched exact searches.  Reported: items-scanned/s, per-request
  p50/p95 latency, the workers' summed peak RSS, and the 4-vs-1 worker
  speedup — written to ``benchmarks/out/BENCH_shard.json`` (uploaded as a
  CI artifact; gated by ``check_regression.py`` against the baseline at the
  repository root).

The int8 catalogue codec (:mod:`repro.quant`) rides both halves: the parity
gate asserts the quantized path bit-identical to the dense scorer at small
scale *and* on the 1M catalogue (``identical_quantized_topk`` — never
skippable), and the scan section adds a 1-worker int8 run whose rate over
the dense 1-worker rate is tracked as ``quantized_scan_speedup`` next to
``quantized_bytes_per_item`` / ``dense_bytes_per_item``.

The 4-worker-beats-1 assertion only runs on multi-core machines: on a
single core, four compute-bound workers time-slice one ALU and honestly
cannot win.  For the same reason ``scan_speedup`` is *omitted* from the
JSON on single-core machines — a 4-vs-1 ratio measured there is scheduler
noise, and committing it would make ``check_regression.py`` gate on noise.
The omission is declared in a ``skipped_metrics`` map (key -> reason) that
the gate reports as a note instead of a missing-metric failure, and
``cpu_count`` is recorded alongside the numbers so a baseline's provenance
is visible.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np
from conftest import run_once, write_bench_result

from repro.data.synthetic import synthetic_item_matrix_layout
from repro.shard import LocalShardClient, ShardPool

K = 10
MILLION = 1_000_000
DIM = 32
BATCH = 8
POOL_TIMEOUT = 300.0
WORKER_COUNTS = (1, 4)


def _percentile(samples, q):
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _parity_gate() -> dict:
    """Small-scale bit-identity: every shard count == the 1-shard scorer."""
    rng = np.random.default_rng(42)
    matrix = rng.standard_normal((3000, 24)).astype(np.float32)
    queries = rng.standard_normal((6, 24)).astype(np.float32)
    exclude = [[0, 7, 2999], [0], [0, 1024, 1025], [0, 512], [0], [0, 1, 2]]

    reference = LocalShardClient(matrix, 1)
    ref_ids, ref_scores = reference.search(queries, K, exclude=exclude)

    local_ok = True
    for num_shards in (2, 3, 4, 7):
        ids, scores = LocalShardClient(matrix, num_shards).search(
            queries, K, exclude=exclude)
        local_ok = (local_ok and np.array_equal(ref_ids, ids)
                    and np.array_equal(ref_scores, scores))

    with ShardPool.from_matrix(matrix, 4, timeout=POOL_TIMEOUT) as pool:
        pool_ids, pool_scores = pool.search(queries, K, exclude=exclude)
    process_ok = (np.array_equal(ref_ids, pool_ids)
                  and np.array_equal(ref_scores, pool_scores))

    return {
        "num_items": matrix.shape[0],
        "shard_counts": [1, 2, 3, 4, 7],
        "identical_topk_local": bool(local_ok),
        "identical_topk_process": bool(process_ok),
    }


def _quantized_parity_gate() -> bool:
    """Small-scale bit-identity of the int8 codec against the dense scorer,
    with adversarial rows folded in (all-zero row, duplicated rows for
    boundary ties)."""
    rng = np.random.default_rng(7)
    matrix = rng.standard_normal((5000, DIM)).astype(np.float32)
    matrix[100] = 0.0            # zero row: scale-0 guard
    matrix[2048] = matrix[2047]  # duplicate straddling a block boundary
    queries = rng.standard_normal((5, DIM)).astype(np.float32)
    exclude = [[0, 3, 4999], [0], [0, 1024], [0, 2047], []]

    ref_ids, ref_scores = LocalShardClient(matrix, 1).search(
        queries, K, exclude=exclude)
    ok = True
    for num_shards in (1, 3):
        ids, scores = LocalShardClient(matrix, num_shards,
                                       codec="int8").search(
            queries, K, exclude=exclude)
        ok = (ok and np.array_equal(ref_ids, ids)
              and np.array_equal(ref_scores, scores))
    with ShardPool.from_matrix(matrix, 2, timeout=POOL_TIMEOUT,
                               codec="int8") as pool:
        pool_ids, pool_scores = pool.search(queries, K, exclude=exclude)
    return bool(ok and np.array_equal(ref_ids, pool_ids)
                and np.array_equal(ref_scores, pool_scores))


def _million_quantized_parity(layout) -> bool:
    """Bit-identity of the int8 codec at the full 1M catalogue scale."""
    rng = np.random.default_rng(99)
    queries = rng.standard_normal((BATCH, layout.dim)).astype(np.float32)
    ref = LocalShardClient.from_layout(layout, 1).search(queries, K)
    quant = LocalShardClient.from_layout(layout, 1, codec="int8").search(
        queries, K)
    return bool(np.array_equal(ref[0], quant[0])
                and np.array_equal(ref[1], quant[1]))


def _scan_stream(pool, queries, num_requests):
    """Run the request stream; per-request latencies (ms) + total seconds."""
    latencies_ms = np.zeros(num_requests)
    started = time.perf_counter()
    for position in range(num_requests):
        request_started = time.perf_counter()
        pool.search(queries, K)
        latencies_ms[position] = (time.perf_counter() - request_started) * 1000.0
    return latencies_ms, time.perf_counter() - started


def _workers_rss_peak_mb(pids) -> float | None:
    """Summed lifetime peak RSS (``VmHWM``) of the given processes, in MiB;
    ``None`` where ``/proc`` is unreadable.  The scans run in ``ShardPool``
    workers, so this — not the parent's peak — is the scan's footprint, and
    a worker spawned for one scan has faulted in nothing else."""
    total_kb = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                total_kb += next(float(line.split()[1]) for line in handle
                                 if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            return None
    return total_kb / 1024.0


def _bench_workers(layout, num_workers, num_requests,
                   codec: str = "fp32") -> dict:
    rng = np.random.default_rng(num_workers)
    queries = rng.standard_normal((BATCH, layout.dim)).astype(np.float32)
    with ShardPool.from_layout(layout, num_workers,
                               timeout=POOL_TIMEOUT, codec=codec) as pool:
        _scan_stream(pool, queries, 2)  # warm-up: page in the memmaps
        latencies, seconds = _scan_stream(pool, queries, num_requests)
        workers_rss = _workers_rss_peak_mb(pool.stats()["pids"])
    items_scanned = layout.num_rows * BATCH * num_requests
    entry = {
        "workers": num_workers,
        "num_requests": num_requests,
        "batch": BATCH,
        "codec": codec,
        "items_scanned_per_s": items_scanned / seconds,
        "scan_p50_ms": _percentile(latencies, 50),
        "scan_p95_ms": _percentile(latencies, 95),
    }
    if workers_rss is not None:
        entry["workers_rss_peak_mb"] = round(workers_rss, 1)
    return entry


def _speedup_fields(single_rate: float, fanned_rate: float,
                    cpu_count: int | None) -> dict:
    """``scan_speedup`` fields, or an explicit skip on single-core machines.

    Four compute-bound workers time-slicing one core measure scheduler
    noise, not fan-out, so the ratio is only reported where it means
    something.  The skip is *declared* (not silent) so
    ``check_regression.py`` surfaces it as a note rather than failing on a
    disappeared tracked metric.
    """
    if (cpu_count or 1) >= 2:
        return {"scan_speedup": fanned_rate / single_rate}
    return {"skipped_metrics": {
        "scan_speedup": (
            f"cpu_count={cpu_count}: {WORKER_COUNTS[-1]}-vs-1 worker "
            f"speedup is scheduler noise on a single core"),
    }}


def run_shard_bench(scale: str = "bench") -> dict:
    num_requests = 24 if scale == "full" else 10
    parity = _parity_gate()
    quantized_parity = _quantized_parity_gate()

    directory = tempfile.mkdtemp(prefix="repro-bench-shard-")
    try:
        layout = synthetic_item_matrix_layout(directory, MILLION, DIM, seed=0)
        scans = {f"workers_{count}": _bench_workers(layout, count, num_requests)
                 for count in WORKER_COUNTS}
        # Int8 sidecar: write once (outside any timed stream), then the
        # quantized 1-worker scan and the full-scale parity spot-check.
        layout.ensure_int8_sidecar()
        scans["workers_1_int8"] = _bench_workers(layout, 1, num_requests,
                                                 codec="int8")
        quantized_parity = (quantized_parity
                            and _million_quantized_parity(layout))
        dense_bytes = layout.nbytes() / layout.num_rows
        quant_bytes = layout.int8_nbytes() / layout.num_rows
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    single = scans["workers_1"]["items_scanned_per_s"]
    fanned = scans[f"workers_{WORKER_COUNTS[-1]}"]["items_scanned_per_s"]
    parity["identical_quantized_topk"] = quantized_parity
    result = {
        "k": K,
        "num_items": MILLION,
        "dim": DIM,
        "parity": parity,
        "scans": scans,
        "dense_bytes_per_item": dense_bytes,
        "quantized_bytes_per_item": quant_bytes,
        # Same worker count, same layout, same request stream: the ratio is
        # a same-run relative metric like scan_speedup.
        "quantized_scan_speedup": (
            scans["workers_1_int8"]["items_scanned_per_s"] / single),
    }
    result.update(_speedup_fields(single, fanned, os.cpu_count()))
    for name, entry in scans.items():
        if "workers_rss_peak_mb" not in entry:
            result.setdefault("skipped_metrics", {})[
                f"scans.{name}.workers_rss_peak_mb"] = (
                "/proc/<pid>/status of the pool's workers is not readable")
    return result


def test_shard_scatter_gather(benchmark, scale):
    result = run_once(benchmark, run_shard_bench, scale=scale)
    for name, entry in result["scans"].items():
        print(
            f"\n{name}: {entry['items_scanned_per_s']:,.0f} items/s "
            f"({entry['num_requests']} requests x batch {entry['batch']} "
            f"over {result['num_items']:,} items, "
            f"p50 {entry['scan_p50_ms']:.1f}ms / "
            f"p95 {entry['scan_p95_ms']:.1f}ms)"
        )
    if "scan_speedup" in result:
        print(f"{WORKER_COUNTS[-1]}-worker speedup: "
              f"{result['scan_speedup']:.2f}x on {os.cpu_count()} "
              f"core(s)")
    else:
        print("scan_speedup skipped: "
              + result["skipped_metrics"]["scan_speedup"])
    print(f"int8 codec: {result['quantized_bytes_per_item']:.0f} vs "
          f"{result['dense_bytes_per_item']:.0f} bytes/item, "
          f"{result['quantized_scan_speedup']:.2f}x 1-worker scan rate")
    write_bench_result("shard", result)

    assert result["parity"]["identical_topk_local"], (
        "sharded exact path diverged from the single-process scorer "
        "(local backend)"
    )
    assert result["parity"]["identical_topk_process"], (
        "sharded exact path diverged from the single-process scorer "
        "(process pool)"
    )
    assert result["parity"]["identical_quantized_topk"], (
        "int8 catalogue codec diverged from the dense scorer"
    )
    assert result["quantized_scan_speedup"] >= 0.9, (
        f"int8 scan fell below 0.9x the dense 1-worker rate "
        f"({result['quantized_scan_speedup']:.2f}x)"
    )
    assert (result["quantized_bytes_per_item"]
            <= 0.3 * result["dense_bytes_per_item"]), (
        "int8 sidecar stores more than 0.3x the dense bytes per item"
    )
    if "scan_speedup" in result:
        assert result["scan_speedup"] > 1.0, (
            f"{WORKER_COUNTS[-1]} workers scanned no faster than one "
            f"({result['scan_speedup']:.2f}x) on a "
            f"{os.cpu_count()}-core machine"
        )
