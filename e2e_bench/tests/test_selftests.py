"""Fast self-tests of the benchmark's own machinery (no sockets, no
``repro`` imports, a few milliseconds each)."""

from __future__ import annotations

import json
import random

import pytest

from e2e_bench import SENDER_THREADS
from e2e_bench.__main__ import _wanted, main
from e2e_bench.harness import (STAGES, TRACE_FIXED_S,
                               layer_metrics_from_spans, separation_flags,
                               traced_spans)
from e2e_bench.inputs import (RequestStream, envelope_body, poisson_schedule,
                              single_body, sub_rng)
from e2e_bench.loadgen import (Phase, Record, find_sustainable, meets_limit)
from e2e_bench.metrics import END_TO_END, PER_LAYER, RUN_SECONDS, SPEC
from e2e_bench.stats import (Span, TooFewSamples, covered, median,
                             percentile, self_time)
from e2e_bench.workloads import CAPACITY_S, FIXED_S, WORKLOADS


# ---------------------------------------------------------------------- #
# percentiles
# ---------------------------------------------------------------------- #
def test_percentile_refuses_fewer_than_ten_samples_beyond():
    values = list(range(1, 201))  # 200 samples: p95 has exactly 10 beyond
    assert percentile(values, 95) == 190
    with pytest.raises(TooFewSamples):
        percentile(values[:199], 95)
    with pytest.raises(TooFewSamples):
        percentile(values, 99)
    with pytest.raises(TooFewSamples):
        percentile([], 50)


def test_every_fixed_rate_phase_is_long_enough_for_its_p95():
    for workload in WORKLOADS.values():
        for seconds in (FIXED_S, TRACE_FIXED_S):
            percentile(list(range(round(workload.rate * seconds))), 95)


def test_percentile_median_needs_no_tail():
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


# ---------------------------------------------------------------------- #
# seeded inputs
# ---------------------------------------------------------------------- #
def _inputs(seed: int):
    schedule = poisson_schedule(20.0, 5.0, sub_rng(seed, "arrivals"))
    stream = RequestStream(400, sub_rng(seed, "requests"))
    singles = [single_body(stream.history()) for _ in range(50)]
    envelope = envelope_body(stream.histories(16))
    return schedule, singles, envelope


def test_equal_seeds_give_equal_inputs_and_different_seeds_differ():
    assert _inputs(3) == _inputs(3)
    first, second = _inputs(3), _inputs(4)
    assert first[0] != second[0]
    assert first[1] != second[1]
    assert first[2] != second[2]


def test_schedule_has_a_fixed_count_inside_the_window():
    schedule = poisson_schedule(15.0, 20.0, random.Random(1))
    assert len(schedule) == 300
    assert schedule == sorted(schedule)
    assert 0.0 <= schedule[0] and schedule[-1] < 20.0


def test_request_stream_revisits_share_a_prefix():
    stream = RequestStream(1000, random.Random(5), users=1, revisit=1.0,
                           window=12)
    before = list(stream.slots[0])
    after = stream.history()
    assert after[:-1] == before[-(len(after) - 1):]
    assert all(1 <= item <= 1000 for item in after)
    assert len(json.loads(envelope_body(stream.histories(16)))["requests"]) == 16


# ---------------------------------------------------------------------- #
# span arithmetic
# ---------------------------------------------------------------------- #
def test_self_time_is_parent_minus_covered_child_interval():
    parent = Span("http", 10.0, 20.0)
    children = [Span("service", 12.0, 15.0), Span("service", 14.0, 17.0),
                Span("late", 19.0, 25.0), Span("outside", 1.0, 2.0)]
    # union inside the parent: [12, 17] and [19, 20] -> 6 covered
    assert covered([(c.start, c.end) for c in children], 10.0, 20.0) == 6.0
    assert self_time(parent, children) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)


# ---------------------------------------------------------------------- #
# the sustainable-rate search
# ---------------------------------------------------------------------- #
@pytest.mark.parametrize("knee", [7.0, 33.0, 44.0, 431.0, 5200.0])
def test_bracket_and_bisect_finds_a_known_knee_within_5_percent(knee):
    rate, probes = find_sustainable(lambda offered: offered <= knee,
                                    start_rate=15.0)
    assert rate <= knee
    assert (knee - rate) / knee < 0.05
    assert len(probes) <= 16


def test_search_reports_the_lowest_rate_when_nothing_passes():
    rate, probes = find_sustainable(lambda offered: False, start_rate=16.0)
    assert rate == 1.0
    assert not any(passed for _, passed in probes)


def test_probe_passes_on_share_within_limit_and_no_backlog():
    def phase(latencies_ms, backlog_s=0.0, failures=0):
        records = [Record(i, 0, 0.0, 0.0, ms / 1000.0,
                          0 if i < failures else 200, b"")
                   for i, ms in enumerate(latencies_ms)]
        return Phase(records=records, backlog_s=backlog_s)

    assert meets_limit(phase([5.0] * 95 + [150.0] * 5))
    assert not meets_limit(phase([5.0] * 94 + [150.0] * 6))
    assert not meets_limit(phase([5.0] * 100, backlog_s=0.2))
    # a failed request misses the limit however fast it came back
    assert not meets_limit(phase([5.0] * 100, failures=6))
    assert not meets_limit(phase([]))


def _traced_phase(stage_ms, total_ms, http_ms=50.0, requests=200):
    """A fake fixed-rate phase whose every response reports ``stage_ms`` for
    each of the six stages and ``total_ms`` as their total."""
    stages = dict({stage: stage_ms for stage in STAGES}, total=total_ms)
    row = {"stages_ms": stages, "batch_size": 1}
    records = [Record(i, i % 2, float(i), i + 0.001,
                      i + 0.001 + http_ms / 1000.0, 200, b"{}")
               for i in range(requests)]
    phase = Phase(records=records)
    parsed = [[row] for _ in records]
    return phase, parsed


def test_span_gap_is_taken_per_request_and_sees_unaccounted_time():
    phase, parsed = _traced_phase(stage_ms=0.5, total_ms=3.0)
    metrics = layer_metrics_from_spans(traced_spans(phase, parsed), phase,
                                       parsed)
    assert metrics["trace.span_sum_gap_share"] == pytest.approx(0.0, abs=1e-9)
    assert metrics["service.server.overhead_p50_ms"] == pytest.approx(47.0)
    assert metrics["shard.score_stage_share"] == pytest.approx(0.5 / 3.0)
    # stages that add up to 3 of a reported 13 ms leave 10 of 51 ms unowned
    phase, parsed = _traced_phase(stage_ms=0.5, total_ms=13.0)
    metrics = layer_metrics_from_spans(traced_spans(phase, parsed), phase,
                                       parsed)
    assert metrics["trace.span_sum_gap_share"] == pytest.approx(10.0 / 51.0)


def test_separation_flags_name_the_metric_outside_its_range():
    inside = {"shard.score_stage_share": 0.08,
              "service.batcher.batch_size_mean": 1.1}
    assert separation_flags(WORKLOADS["http_small"], inside) == []
    flags = separation_flags(WORKLOADS["http_large"], inside)
    assert len(flags) == 1 and "shard.score_stage_share" in flags[0]
    flags = separation_flags(WORKLOADS["swap_bulk"], inside)
    assert len(flags) == 1 and "batch_size_mean" in flags[0]


# ---------------------------------------------------------------------- #
# BENCHMARK.json is the declaration the code reads
# ---------------------------------------------------------------------- #
def test_benchmark_json_meets_the_contract_and_names_every_workload():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["e2e_bench"]
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200
               for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"}
               for m in SPEC["per_layer"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert [(m["unit"], m["better"]) for m in setup] == [("s", "lower")]
    names = ([m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
             + list(WORKLOADS))
    assert len(names) == len(set(names))
    assert len(SPEC["per_layer"]) <= 128
    assert FIXED_S + CAPACITY_S == RUN_SECONDS
    assert SENDER_THREADS == 2


def test_result_line_carries_exactly_the_declared_metrics():
    assert _wanted(False) == [m["name"] for m in SPEC["end_to_end"]]
    assert _wanted(True) == [m["name"] for m in SPEC["per_layer"]]
    assert _wanted(False) == [m[0] for m in END_TO_END]
    assert _wanted(True) == [m[0] for m in PER_LAYER]


def test_another_run_length_than_the_benchmarks_is_refused(capsys):
    assert main(["--workload", "http_small",
                 "--seconds", str(RUN_SECONDS / 2)]) == 2
    assert "run length is set by the benchmark" in capsys.readouterr().err
