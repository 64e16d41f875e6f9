"""The harness side of the serving workloads: launch the server, generate
load, check every output, and turn records into metrics."""

from __future__ import annotations

import http.client
import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import K, LATENCY_LIMIT_S
from .inputs import (RequestStream, envelope_body, poisson_schedule,
                     single_body, sub_rng)
from .loadgen import LoadGenerator, Phase, find_sustainable, meets_limit
from .stats import Span, median, now, percentile, self_time
from .workloads import (CAPACITY_S, FIXED_S, WRITER_EVENTS, WRITER_PERIOD_S,
                        Workload)

#: launcher spawns per run; ``setup_s`` is their median
SETUPS = 3
#: histories of the brute-force reference sample (also the warm-up)
REFERENCE_SAMPLE = 64
#: distinct bodies the closed-loop capacity phase cycles through
CLOSED_BODIES = 512
#: an edge overhead above this is a stall, not work
STALL_MS = 30.0
STAGES = ("validate", "queue", "encode", "score", "merge", "respond")
READY_TIMEOUT_S = 120.0
#: spans must account for the client's time to within this share of it
SPAN_GAP_LIMIT = 0.10

#: Phases of the traced run, in seconds: the fixed-rate traffic untraced,
#: again with every response parsed into spans (long enough for a p95 at
#: every workload's rate), writer cycles beside reads, and each probe of
#: the open-loop sustainable-rate search.
TRACE_PLAIN_S = 5.0
TRACE_FIXED_S = 19.0
TRACE_WRITER_S = 4.0
PROBE_S = 2.0
PROBE_BISECTIONS = 3
#: payloads of each ladder rung
LADDER_PAYLOADS = 128
#: warm-ups and timed calls of the closed-loop HTTP rung (each takes a
#: 40 ms stall today, so it is kept short)
CLOSED_WARMUPS = 8
CLOSED_CALLS = 48


class BenchmarkError(RuntimeError):
    """The benchmark could not run (as opposed to: ran and found the
    program wrong, which is reported as ``correct: false``)."""


def child_environment(root: Path, workdir: Path) -> Dict[str, str]:
    """Children import ``repro`` from the checkout and keep temporary
    files (shard layouts, checkpoints) inside the run's work directory."""
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(root)])
    environment["TMPDIR"] = str(workdir)
    return environment


class Server:
    """A launcher process and its command channel."""

    def __init__(self, process: subprocess.Popen, port: int, num_items: int,
                 timings: Dict[str, float]):
        self.process = process
        self.port = port
        self.num_items = num_items
        self.timings = timings

    @classmethod
    def launch(cls, root: Path, workdir: Path, scenario: str, seed: int,
               writer: bool) -> Tuple["Server", float]:
        """Spawn a launcher; returns it with the set-up time: spawn ->
        first 200 on ``/readyz`` **and** first OK ``/recommend`` (imports,
        data and features, whitening fit, model build, item-matrix build
        and plan compile are all inside)."""
        workdir.mkdir(parents=True, exist_ok=True)
        command = [sys.executable, "-m", "e2e_bench.launcher",
                   "--scenario", scenario, "--seed", str(seed),
                   "--workdir", str(workdir)]
        if writer:
            command.append("--writer")
        started = now()
        process = subprocess.Popen(
            command, cwd=root, env=child_environment(root, workdir),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        line = process.stdout.readline()
        if not line:
            process.wait()
            raise BenchmarkError(
                f"launcher exited with code {process.returncode} before "
                f"listening")
        hello = json.loads(line)
        server = cls(process, hello["port"], hello["num_items"],
                     hello["timings"])
        connection = http.client.HTTPConnection("127.0.0.1", server.port,
                                                timeout=READY_TIMEOUT_S)
        try:
            connection.request("GET", "/readyz")
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise BenchmarkError(f"/readyz answered {response.status}")
            connection.request("POST", "/recommend",
                               body=single_body([1, 2, 3]),
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            response.read()
            if response.status != 200:
                raise BenchmarkError(
                    f"first /recommend answered {response.status}")
        except BaseException:
            server.shutdown()
            raise
        finally:
            connection.close()
        return server, now() - started

    def command(self, **payload: Any) -> Dict[str, Any]:
        self.process.stdin.write(json.dumps(payload) + "\n")
        self.process.stdin.flush()
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError(
                f"launcher died during command {payload.get('cmd')!r}")
        return json.loads(line)

    def writer_start(self) -> None:
        """Start writer cycles; they run until :meth:`writer_stop`."""
        self.command(cmd="writer_start", period_s=WRITER_PERIOD_S)

    def writer_stop(self) -> List[Dict[str, Any]]:
        """Stop the writer after its current cycle; returns the cycles."""
        return self.command(cmd="writer_stop")["cycles"]

    def shutdown(self) -> None:
        """Stop the launcher and wait until it has ended."""
        if self.process.poll() is None:
            try:
                self.process.stdin.write('{"cmd": "shutdown"}\n')
                self.process.stdin.flush()
                self.process.stdin.close()
            except OSError:
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


class Traffic:
    """Seeded bodies for one workload, remembering the histories sent."""

    def __init__(self, workload: Workload, num_items: int, seed: int):
        self.envelope = workload.envelope
        self.stream = RequestStream(num_items, sub_rng(seed, "requests"))

    def bodies(self, count: int) -> Tuple[List[bytes], List[List[List[int]]]]:
        """``count`` request bodies and, per body, its histories."""
        sent = [self.stream.histories(self.envelope) for _ in range(count)]
        if self.envelope == 1:
            return [single_body(rows[0]) for rows in sent], sent
        return [envelope_body(rows) for rows in sent], sent


def parse_rows(status: int, body: bytes) -> Optional[List[Dict[str, Any]]]:
    """The rows of one response (one for a single request, 16 for an
    envelope), or ``None`` when it failed or is malformed."""
    if status != 200:
        return None
    try:
        payload = json.loads(body)
    except ValueError:
        return None
    rows = payload.get("responses") if "responses" in payload else [payload]
    return rows if isinstance(rows, list) else None


def wrong_rows(rows: Optional[List[Dict[str, Any]]],
               histories: List[List[int]], num_items: int) -> int:
    """How many rows of one response break an output contract: k ids in
    ``[1, n]``, no history item among them, scores non-increasing."""
    if rows is None or len(rows) != len(histories):
        return len(histories)
    wrong = 0
    for row, history in zip(rows, histories):
        items, scores = row.get("items"), row.get("scores")
        good = (isinstance(items, list) and isinstance(scores, list)
                and len(items) == K and len(scores) == K
                and all(isinstance(item, int) and 1 <= item <= num_items
                        for item in items)
                and not set(items) & set(history)
                and all(a >= b for a, b in zip(scores, scores[1:])))
        wrong += 0 if good else 1
    return wrong


def latency_ms(phase: Phase) -> List[float]:
    return [record.latency_s * 1000.0 for record in phase.records]


def warm_up(server: Server, generator: LoadGenerator, traffic: Traffic,
            checks: Dict[str, bool]) -> None:
    """Closed-loop warm-up of both connections that doubles as the
    reference sample: its responses are compared with the brute-force
    reference."""
    bodies, sent = traffic.bodies(math.ceil(REFERENCE_SAMPLE
                                            / traffic.envelope))
    histories, items, scores = [], [], []
    clean = True
    for record in generator.run_closed(bodies).records:
        rows = parse_rows(record.status, record.body)
        rows_sent = sent[record.index]
        if wrong_rows(rows, rows_sent, server.num_items):
            clean = False
            continue
        histories.extend(rows_sent)
        items.extend(row["items"] for row in rows)
        scores.extend(row["scores"] for row in rows)
    checks["warm-up outputs well-formed"] = clean
    if clean:
        verdict = server.command(cmd="reference", histories=histories,
                                 items=items, scores=scores)
        checks["sample equals brute-force reference"] = (
            verdict["mismatches"] == 0)


def fixed_rate_phase(generator: LoadGenerator, traffic: Traffic, rate: float,
                     seconds: float, seed: int, purpose: str
                     ) -> Tuple[Phase, List[List[List[int]]]]:
    offsets = poisson_schedule(rate, seconds, sub_rng(seed, purpose))
    bodies, sent = traffic.bodies(len(offsets))
    return generator.run(offsets, bodies), sent


def count_phase(phase: Phase, sent: List[List[List[int]]], num_items: int,
                counts: Dict[str, int]) -> List[Optional[List[Dict]]]:
    """Add one phase to the operation counts; returns the parsed rows.
    A non-200, a timeout and a wrong output are all failures.  (The closed
    loop cycles through its bodies, hence the modulus.)"""
    parsed = []
    for record in phase.records:
        rows = parse_rows(record.status, record.body)
        parsed.append(rows)
        counts["attempted"] += 1
        if wrong_rows(rows, sent[record.index % len(sent)], num_items):
            counts["failed"] += 1
    return parsed


def versions_ordered(phase: Phase, parsed: Sequence[Optional[List[Dict]]],
                     published: int) -> bool:
    """Versions seen are non-decreasing per connection (in send order) and
    never ahead of what the writer published."""
    last: Dict[int, int] = {}
    order = sorted(range(len(phase.records)),
                   key=lambda index: phase.records[index].sent)
    for index in order:
        record, rows = phase.records[index], parsed[index]
        if rows is None:
            continue
        low = min(row["deployment_version"] for row in rows)
        high = max(row["deployment_version"] for row in rows)
        if low < last.get(record.sender, 0) or high > published:
            return False
        last[record.sender] = high
    return True


def write_path(cycles: List[Dict[str, Any]], phase: Phase
               ) -> Dict[str, float]:
    """Stream-layer numbers of the writer cycles that ran beside
    ``phase``."""
    done = [cycle for cycle in cycles if "visible" in cycle]
    if not done:
        raise BenchmarkError("the writer completed no cycle")
    pauses = []
    for cycle in done:
        overlapping = [record.latency_s * 1000.0 for record in phase.records
                       if record.sent <= cycle["publish_end"]
                       and record.done >= cycle["publish_begin"]]
        if overlapping:
            pauses.append(max(overlapping))
    return {
        "stream.cycles": float(len(done)),
        "stream.cycles_late": float(sum(
            1 for cycle in done if cycle["late_s"] > 0.010)),
        "stream.freshness_p50_ms": median(
            (cycle["visible"] - cycle["due"]) * 1000.0 for cycle in done),
        "stream.append_events_per_s": WRITER_EVENTS / median(
            cycle["append_s"] for cycle in done),
        "stream.micro_epoch_p50_ms": median(
            cycle["train_s"] * 1000.0 for cycle in done),
        "stream.publish_p50_ms": median(
            (cycle["publish_end"] - cycle["publish_begin"]) * 1000.0
            for cycle in done),
        "stream.swap_pause_p50_ms": median(pauses) if pauses else 0.0,
        "stream.swap_pause_max_ms": max(pauses) if pauses else 0.0,
    }


def run_end_to_end(workload: Workload, seed: int, root: Path,
                   workdir: Path) -> Dict[str, Any]:
    """One untraced run of a serving workload: the fixed-rate phase gives
    the latency metrics, the capacity phase after it the throughput."""
    setups = []
    server = None
    for attempt in range(SETUPS):
        if server is not None:
            server.shutdown()
        server, setup_s = Server.launch(root, workdir / f"server{attempt}",
                                        workload.scenario, seed,
                                        workload.writer)
        setups.append(setup_s)
    metrics: Dict[str, float] = {"setup_s": median(setups)}
    info: Dict[str, Any] = {"setup_samples_s": setups,
                            "num_items": server.num_items}
    checks: Dict[str, bool] = {}
    counts = {"attempted": 0, "failed": 0}
    skipped: Dict[str, str] = {}
    flags: List[str] = []
    generator = LoadGenerator(server.port)
    try:
        traffic = Traffic(workload, server.num_items, seed)
        warm_up(server, generator, traffic, checks)

        if workload.writer:
            server.writer_start()
        phase, sent = fixed_rate_phase(generator, traffic, workload.rate,
                                       FIXED_S, seed, "arrivals")
        parsed = count_phase(phase, sent, server.num_items, counts)
        latencies = latency_ms(phase)
        metrics["latency_p50_ms"] = median(latencies)
        metrics["latency_p95_ms"] = percentile(latencies, 95)
        info["fixed_rate"] = {"rate_per_s": workload.rate,
                              "seconds": FIXED_S, "sent": len(latencies)}
        late = [record.lateness_s * 1000.0 for record in phase.records]
        info["loadgen.lateness_p95_ms"] = percentile(late, 95)
        info["loadgen.lateness_p50_ms"] = median(late)
        # The p95 includes arrivals that found both connections busy (part
        # of what two clients see); a late *median* means the generator
        # itself cannot keep the schedule.
        if median(late) > 0.10 * metrics["latency_p50_ms"]:
            flags.append(
                f"generator lateness p50 {median(late):.2f} ms exceeds 10% "
                f"of latency_p50_ms: latencies are partly the generator's")

        # Capacity: both senders as a closed loop (on swap_bulk the writer
        # keeps its schedule beside them).
        bodies, histories = traffic.bodies(CLOSED_BODIES)
        closed = generator.run_closed(bodies, CAPACITY_S)
        parsed_closed = count_phase(closed, histories, server.num_items,
                                    counts)
        span_s = (max(record.done for record in closed.records)
                  - min(record.sent for record in closed.records))
        metrics["throughput_per_s"] = (
            (len(closed.records) - closed.failed) * workload.envelope
            / span_s)
        info["capacity"] = {"seconds": span_s,
                            "completed": len(closed.records)}

        if workload.writer:
            cycles = server.writer_stop()
            info.update(write_path(cycles, phase))
            checks["every writer cycle became visible"] = all(
                "visible" in cycle for cycle in cycles)
            published = max(cycle["version"] for cycle in cycles)
            checks["versions ordered and never ahead of publishes"] = (
                versions_ordered(phase, parsed, published)
                and versions_ordered(closed, parsed_closed, published))
            checks["served top-k identical to the last checkpoint"] = (
                server.command(cmd="parity",
                               histories=sent[0])["identical"])

        peak = server.command(cmd="stats")["rss_peak_mb"]
        if peak is None:
            skipped["rss_peak_mb"] = "VmHWM of the server was unreadable"
        else:
            metrics["rss_peak_mb"] = peak
    finally:
        generator.close()
        server.shutdown()
    checks["no operation failed"] = counts["failed"] == 0
    return {"metrics": metrics, "info": info, "checks": checks,
            "counts": counts, "skipped": skipped, "flags": flags,
            "spans": []}


def stage_of(rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """The stage breakdown that bounds a response: an envelope waits for
    its slowest row, a single request has one."""
    return max((row["stages_ms"] for row in rows),
               key=lambda stages: stages["total"])


def traced_spans(phase: Phase, parsed: Sequence[Optional[List[Dict]]]
                 ) -> List[Span]:
    """client (due->read) > loadgen.wait (due->send) + http (send->read) >
    service (``stages_ms.total``) > the six stages.  The client cannot see
    *when* inside ``http`` the service ran, only for how long: the service
    span is centred in it and the stages laid end to end."""
    spans: List[Span] = []
    for record, rows in zip(phase.records, parsed):
        if rows is None:
            continue
        request = record.index
        stages = stage_of(rows)
        spans.append(Span("client", record.due, record.done, None, request))
        spans.append(Span("loadgen.wait", record.due, record.sent,
                          "client", request))
        spans.append(Span("http", record.sent, record.done, "client",
                          request))
        total = stages["total"] / 1000.0
        begin = record.sent + max(0.0, (record.done - record.sent - total) / 2)
        spans.append(Span("service", begin, begin + total, "http", request))
        for stage in STAGES:
            end = begin + stages[stage] / 1000.0
            spans.append(Span(stage, begin, end, "service", request))
            begin = end
    return spans


def layer_metrics_from_spans(spans: List[Span], phase: Phase,
                             parsed: Sequence[Optional[List[Dict]]]
                             ) -> Dict[str, float]:
    requests: Dict[int, Dict[str, Span]] = {}
    for span in spans:
        requests.setdefault(span.request_id, {})[span.name] = span
    groups = list(requests.values())
    edge = [self_time(group["http"], [group["service"]]) * 1000.0
            for group in groups]
    stage_ms = {stage: [group[stage].duration * 1000.0 for group in groups]
                for stage in STAGES}
    wait = [group["loadgen.wait"].duration * 1000.0 for group in groups]
    # Per request, what the spans beneath ``client`` add up to against
    # ``client`` itself (sums of medians would not add on a two-mode
    # distribution; one request's spans must).
    gaps = [abs(group["client"].duration * 1000.0
                - (waited + edged + sum(group[stage].duration * 1000.0
                                        for stage in STAGES)))
            / (group["client"].duration * 1000.0)
            for group, waited, edged in zip(groups, wait, edge)]
    rows = [row for group in parsed if group for row in group]
    statuses = [record.status for record in phase.records]
    return {
        "loadgen.lateness_p95_ms": percentile(wait, 95),
        "loadgen.sent": float(len(statuses)),
        "loadgen.ok": float(statuses.count(200)),
        "loadgen.failed": float(len(statuses) - statuses.count(200)),
        "loadgen.shed": float(statuses.count(429)),
        "loadgen.deadline": float(statuses.count(504)),
        "service.server.overhead_p50_ms": median(edge),
        "service.server.overhead_p95_ms": percentile(edge, 95),
        "service.server.stall_share": (
            sum(1 for value in edge if value > STALL_MS) / len(edge)),
        "service.server.response_bytes_p50": median(
            float(len(record.body)) for record in phase.records),
        "service.stages_total_p50_ms": median(
            group["service"].duration * 1000.0 for group in groups),
        "service.validate_p50_ms": median(stage_ms["validate"]),
        "service.respond_p50_ms": median(stage_ms["respond"]),
        "service.batcher.queue_p50_ms": median(stage_ms["queue"]),
        "service.batcher.queue_p95_ms": percentile(stage_ms["queue"], 95),
        "infer.encode_stage_p50_ms": median(stage_ms["encode"]),
        "shard.score_stage_p50_ms": median(stage_ms["score"]),
        "shard.score_stage_share": median(
            group["score"].duration / group["service"].duration
            for group in groups),
        "serving.merge_p50_ms": median(stage_ms["merge"]),
        "service.batcher.batch_size_mean": (
            sum(row["batch_size"] for row in rows) / len(rows)),
        "service.batcher.batches": sum(1.0 / row["batch_size"]
                                       for row in rows),
        "trace.span_sum_gap_share": median(gaps),
    }


def separation_flags(workload: Workload, metrics: Dict[str, float]
                     ) -> List[str]:
    """Does this run show that the workloads separate the layers?"""
    flags = []
    for name, (low, high) in (
            ("shard.score_stage_share", workload.score_share),
            ("service.batcher.batch_size_mean", workload.batch_rows)):
        if not low <= metrics[name] <= high:
            flags.append(f"layer separation not shown: {name} is "
                         f"{metrics[name]:.3g}, expected {low:g} to {high:g} "
                         f"on {workload.name}")
    return flags


def run_traced(workload: Workload, seed: int, root: Path,
               workdir: Path) -> Dict[str, Any]:
    """The traced run: the workload's fixed-rate traffic untraced, then
    again with every response parsed into spans, then writer cycles beside
    reads, the sustainable-rate search and the layer ladder.  (The offline
    workload serves its own catalogue here, because every traced run
    reports every per-layer metric; its training rungs come from the real
    job, see ``trainjob.run_traced``.)"""
    server, _ = Server.launch(root, workdir / "server", workload.scenario,
                              seed, workload.writer)
    metrics: Dict[str, float] = dict(server.timings)
    checks: Dict[str, bool] = {}
    counts = {"attempted": 0, "failed": 0}
    generator = LoadGenerator(server.port)
    try:
        traffic = Traffic(workload, server.num_items, seed)
        warm_up(server, generator, traffic, checks)

        if workload.writer:
            server.writer_start()
        plain, sent = fixed_rate_phase(generator, traffic, workload.rate,
                                       TRACE_PLAIN_S, seed, "arrivals-plain")
        count_phase(plain, sent, server.num_items, counts)
        traced, sent = fixed_rate_phase(generator, traffic, workload.rate,
                                        TRACE_FIXED_S, seed, "arrivals")
        parsed = count_phase(traced, sent, server.num_items, counts)
        spans = traced_spans(traced, parsed)
        metrics.update(layer_metrics_from_spans(spans, traced, parsed))
        metrics["trace.overhead_share"] = (
            median(latency_ms(traced)) / median(latency_ms(plain)) - 1.0)
        if workload.writer:
            metrics.update(write_path(server.writer_stop(), traced))
        else:
            server.writer_start()
            beside, sent = fixed_rate_phase(
                generator, traffic, workload.rate, TRACE_WRITER_S, seed,
                "arrivals-swap")
            count_phase(beside, sent, server.num_items, counts)
            metrics.update(write_path(server.writer_stop(), beside))

        # The open-loop sustainable rate: too noisy at this probe length
        # to gate on (a probe sees ~100 requests), so it is reported here
        # and the end-to-end run gates on closed-loop capacity instead.
        probe_number = itertools.count(1)

        def probe(rate: float) -> bool:
            offsets = poisson_schedule(
                rate, PROBE_S, sub_rng(seed, f"probe{next(probe_number)}"))
            bodies, rows = traffic.bodies(len(offsets))
            result = generator.run(offsets, bodies, cutoff_s=PROBE_S)
            count_phase(result, rows, server.num_items, counts)
            return meets_limit(result)

        metrics["loadgen.sustainable_rps"], probes = find_sustainable(
            probe, workload.rate, bisections=PROBE_BISECTIONS)

        ladder_stream = RequestStream(server.num_items,
                                      sub_rng(seed, "ladder"))
        histories = ladder_stream.histories(LADDER_PAYLOADS)
        closed = []
        for index, history in enumerate(histories[:CLOSED_WARMUPS]
                                        + histories[:CLOSED_CALLS]):
            begin = now()
            status, _ = generator.post(single_body(history))
            end = now()
            counts["attempted"] += 1
            counts["failed"] += 0 if status == 200 else 1
            if index >= CLOSED_WARMUPS:
                spans.append(Span("service.server.closed", begin, end,
                                  "ladder", index - CLOSED_WARMUPS))
                closed.append((end - begin) * 1000.0)
        metrics["service.server.closed_p50_ms"] = median(closed)
        ladder = server.command(cmd="ladder", histories=histories,
                                training=not workload.offline)
        metrics.update(ladder["metrics"])
        ladder_spans = ladder["spans"]
    finally:
        generator.close()
        server.shutdown()
    checks["no operation failed"] = counts["failed"] == 0
    checks["quantized scan identical to fp32"] = (
        metrics["quant.identical_topk"] == 1.0)
    checks[f"spans account for the client's time within {SPAN_GAP_LIMIT:g}"
           ] = metrics["trace.span_sum_gap_share"] <= SPAN_GAP_LIMIT
    info = {"num_items": server.num_items,
            "sustainable_search": {"probe_seconds": PROBE_S,
                                   "limit_ms": LATENCY_LIMIT_S * 1000.0,
                                   "probes": probes}}
    return {"metrics": metrics, "info": info,
            "checks": checks, "counts": counts, "skipped": {},
            "flags": separation_flags(workload, metrics),
            "spans": [span.to_dict() for span in spans] + ladder_spans}
