"""Tests for the observability stack (`repro.observability`).

Covers: the dependency-free metrics core (counters / gauges / histograms,
labeled families, Prometheus text exposition v0.0.4 — including a format
parser that checks bucket monotonicity and the `+Inf == _count` invariant),
per-request stage tracing (the canonical
validate -> queue -> encode -> score -> merge -> respond schema), the
open-loop load generator (arrival schedules, session-replay payloads, the
SLO ramp search), the service-level wiring (`stages_ms` on responses,
`GET /metrics`, the JSONL `metrics` command, retired deployments dropping
out of the exposition), scrape safety under concurrent traffic and
hot-swaps, and that `repro loadgen` is not a subcommand.
"""

from __future__ import annotations

import io
import json
import math
import re
import threading
import time
import urllib.request

import pytest

from repro.cli import main as cli_main
from repro.data import load_dataset
from repro.data.splits import leave_one_out_split
from repro.models import ModelConfig, build_model
from repro.models.checkpoint import save_checkpoint
from repro.observability import (
    BATCH_SIZE_BUCKETS,
    LATENCY_BUCKETS_MS,
    MetricsRegistry,
    RequestTrace,
    STAGES,
    quantile,
)
from repro.observability.loadgen import (
    find_max_sustainable_rps,
    poisson_offsets,
    run_open_loop,
    service_sender,
    session_requests,
)
from repro.observability.metrics import escape_label_value
from repro.service import (
    Deployment,
    METRICS_CONTENT_TYPE,
    RecommenderService,
    ServiceHTTPServer,
    ServingConfig,
    serve_jsonl,
)
from repro.serving import EmbeddingStore, Recommender
from repro.text import encode_items


@pytest.fixture(scope="module")
def obs_setup():
    """Small dataset + model factory (two seeds, for hot-swap tests)."""
    dataset = load_dataset("arts", scale="tiny", seed=3,
                           num_users=120, num_items=80, min_sequence_length=4)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=16, seed=3)

    def make_model(seed):
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             dropout=0.1, max_seq_length=12, seed=seed)
        return build_model("whitenrec", dataset.num_items,
                           feature_table=features, config=config)

    return dataset, split, features, make_model


def _recommender(split, features, model):
    return Recommender(model, store=EmbeddingStore(features),
                       train_sequences=split.train_sequences)


@pytest.fixture()
def deployment(obs_setup):
    _, split, features, make_model = obs_setup
    recommender = _recommender(split, features, make_model(0))
    return Deployment("arts", recommender, config=ServingConfig(k=5))


# --------------------------------------------------------------------- #
# Metrics core
# --------------------------------------------------------------------- #
class TestMetricsPrimitives:
    def test_quantile_interpolates(self):
        assert quantile([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5
        assert quantile([5.0], 0.99) == 5.0
        assert math.isnan(quantile([], 0.5))
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)

    def test_counter_only_goes_up(self):
        registry = MetricsRegistry()
        counter = registry.counter("c_total", "a counter")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1.0)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("g", "a gauge")
        gauge.set(10.0)
        gauge.inc(5.0)
        gauge.dec(2.0)
        assert gauge.value == 13.0

    def test_histogram_counts_sum_and_quantiles(self):
        histogram = MetricsRegistry().histogram(
            "h_ms", "a histogram", buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5.0, 50.0, 500.0):
            histogram.observe(value)
        (series,) = histogram.snapshot()["series"]
        assert series["count"] == 4
        assert series["sum"] == pytest.approx(555.5)
        # Per-bucket (non-cumulative) counts in the snapshot.
        assert series["buckets"] == {"1": 1, "10": 1, "100": 1}
        assert series["p50"] == pytest.approx(quantile(
            [0.5, 5.0, 50.0, 500.0], 0.5))

    def test_labeled_family_schema_is_enforced(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", "requests",
                                  labelnames=("deployment", "status"))
        family.labels(deployment="a", status="ok").inc()
        assert family.labels(deployment="a", status="ok").value == 1.0
        with pytest.raises(ValueError):
            family.labels(deployment="a")  # missing label
        with pytest.raises(ValueError):
            family.labels(deployment="a", status="ok", extra="x")
        with pytest.raises(ValueError):
            family.inc()  # labeled family has no anonymous child

    def test_invalid_names_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("0bad", "starts with a digit")
        with pytest.raises(ValueError):
            registry.counter("ok_total", "bad label", labelnames=("le-gal",))
        with pytest.raises(ValueError):
            registry.counter("ok2_total", "reserved", labelnames=("__name",))

    def test_get_or_create_and_conflicts(self):
        registry = MetricsRegistry()
        first = registry.counter("x_total", "x")
        assert registry.counter("x_total", "x") is first
        with pytest.raises(ValueError):
            registry.gauge("x_total", "now a gauge")
        with pytest.raises(ValueError):
            registry.counter("x_total", "x", labelnames=("other",))
        assert "x_total" in registry and len(registry) == 1

    def test_remove_series_subset_match(self):
        registry = MetricsRegistry()
        family = registry.counter("req_total", "requests",
                                  labelnames=("deployment", "status"))
        family.labels(deployment="a", status="ok").inc()
        family.labels(deployment="a", status="error").inc()
        family.labels(deployment="b", status="ok").inc()
        unlabeled = registry.gauge("uptime", "no deployment label")
        unlabeled.set(1.0)
        assert registry.remove_series(deployment="a") == 2
        assert 'deployment="a"' not in registry.render()
        assert 'deployment="b"' in registry.render()
        assert unlabeled.value == 1.0  # schema-less family untouched

    def test_label_value_escaping(self):
        assert escape_label_value('a"b\\c\nd') == 'a\\"b\\\\c\\nd'
        registry = MetricsRegistry()
        registry.gauge("g", "g", labelnames=("name",)).labels(
            name='quo"te\nline').set(1.0)
        assert 'name="quo\\"te\\nline"' in registry.render()


_SAMPLE_LINE = re.compile(
    r'^([a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*"'
    r'(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\.)*")*\})?'
    r' (-?\d+(?:\.\d+)?(?:e[+-]?\d+)?|\+Inf|-Inf|NaN)$')
_LABEL_PAIR = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)"')


def parse_exposition(text):
    """Parse Prometheus text exposition v0.0.4 strictly.

    Returns (types, samples): metric-name -> declared type, and a list of
    (name, labels-dict, float-value).  Every non-comment line must match the
    sample grammar, and every sample must follow its family's HELP/TYPE
    header — anything else is an AssertionError.
    """
    types = {}
    samples = []
    announced = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            announced = line.split()[2]
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(maxsplit=3)
            assert name == announced, f"TYPE without matching HELP: {line!r}"
            assert kind in ("counter", "gauge", "histogram")
            types[name] = kind
            continue
        match = _SAMPLE_LINE.match(line)
        assert match, f"unparseable exposition line: {line!r}"
        name, label_text, value = match.groups()
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
        assert base in types, f"sample {name!r} has no TYPE header"
        labels = dict(_LABEL_PAIR.findall(label_text or ""))
        samples.append((name, labels, float(value.replace("Inf", "inf"))))
    return types, samples


def check_histogram_invariants(types, samples):
    """Every histogram series: cumulative buckets are non-decreasing in le
    and the +Inf bucket equals its _count sample."""
    histograms = [name for name, kind in types.items() if kind == "histogram"]
    assert histograms, "no histogram families to check"
    for base in histograms:
        series = {}
        counts = {}
        for name, labels, value in samples:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            if name == f"{base}_bucket":
                bound = float(labels["le"].replace("+Inf", "inf"))
                series.setdefault(key, []).append((bound, value))
            elif name == f"{base}_count":
                counts[key] = value
        assert series, f"histogram {base} emitted no _bucket series"
        for key, buckets in series.items():
            bounds = [bound for bound, _ in buckets]
            values = [value for _, value in buckets]
            assert bounds == sorted(bounds)
            assert values == sorted(values), \
                f"{base}{dict(key)}: cumulative bucket counts decreased"
            assert bounds[-1] == float("inf")
            assert values[-1] == counts[key], \
                f"{base}{dict(key)}: +Inf bucket != _count"


class TestExpositionFormat:
    def test_render_is_strictly_parseable(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "requests.", ("deployment",)).labels(
            deployment="a").inc(3)
        histogram = registry.histogram("lat_ms", "latency.", ("deployment",),
                                       buckets=(1.0, 5.0, 25.0))
        for value in (0.2, 0.4, 3.0, 12.0, 80.0):
            histogram.labels(deployment="a").observe(value)
        registry.gauge("up", "uptime.").set(1.5)

        text = registry.render()
        assert text.endswith("\n")
        types, samples = parse_exposition(text)
        assert types == {"req_total": "counter", "lat_ms": "histogram",
                         "up": "gauge"}
        check_histogram_invariants(types, samples)
        values = {(name, labels.get("le")): value
                  for name, labels, value in samples}
        assert values[("req_total", None)] == 3.0
        assert values[("lat_ms_bucket", "1")] == 2.0   # cumulative
        assert values[("lat_ms_bucket", "5")] == 3.0
        assert values[("lat_ms_bucket", "25")] == 4.0
        assert values[("lat_ms_bucket", "+Inf")] == 5.0
        assert values[("lat_ms_count", None)] == 5.0
        assert values[("lat_ms_sum", None)] == pytest.approx(95.6)

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render() == ""


# --------------------------------------------------------------------- #
# Request tracing
# --------------------------------------------------------------------- #
class TestRequestTrace:
    def test_finish_emits_full_canonical_schema(self):
        trace = RequestTrace()
        trace.record("validate", 0.25)
        time.sleep(0.005)
        stages = trace.finish(queue=0.5, encode=0.0, score=1.0, merge=0.25)
        assert set(stages) == set(STAGES) | {"total"}
        assert stages["validate"] == 0.25
        assert stages["queue"] == 0.5
        assert stages["encode"] == 0.0  # zero-filled, key still present
        assert stages["total"] >= 5.0   # the sleep is wall-clock time
        # The unclaimed remainder lands in respond; the breakdown sums to
        # total (accounting here is complete).
        claimed = sum(stages[name] for name in STAGES)
        assert claimed == pytest.approx(stages["total"], rel=1e-6)

    def test_finish_with_nothing_recorded_is_still_canonical(self):
        stages = RequestTrace().finish()
        assert set(stages) == set(STAGES) | {"total"}
        assert stages["validate"] == 0.0
        assert all(value >= 0.0 for value in stages.values())

    def test_respond_clamps_when_reported_stages_exceed_wall(self):
        trace = RequestTrace()
        stages = trace.finish(queue=10_000.0, score=10_000.0)
        assert stages["respond"] == 0.0
        assert stages["total"] < 10_000.0

    def test_finish_is_idempotent(self):
        trace = RequestTrace()
        first = trace.finish(queue=1.0)
        second = trace.finish(queue=99.0)
        assert second is first
        assert second["queue"] == 1.0

    def test_negative_durations_are_clamped(self):
        trace = RequestTrace()
        trace.record("queue", -5.0)
        assert trace._stages["queue"] == 0.0
        stages = trace.finish(score=-3.0)
        assert stages["score"] == 0.0

    def test_record_accumulates(self):
        trace = RequestTrace()
        trace.record("encode", 1.0)
        trace.record("encode", 2.0)
        stages = trace.finish(encode=0.5, merge=1.5)
        assert stages["encode"] == pytest.approx(3.5)
        assert stages["merge"] == pytest.approx(1.5)

    @pytest.mark.parametrize("name", ["rerank", "respond", "total"])
    def test_stage_outside_the_schema_is_rejected(self, name):
        """finish() emits the canonical schema only, so a stage it would
        drop (or overwrite, like respond) cannot be recorded."""
        with pytest.raises(ValueError, match="cannot record stage"):
            RequestTrace().record(name, 2.0)

    def test_elapsed_ms_is_monotonic(self):
        trace = RequestTrace()
        first = trace.elapsed_ms()
        time.sleep(0.002)
        assert trace.elapsed_ms() > first >= 0.0


# --------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------- #
class TestArrivalSchedules:
    def test_poisson_offsets_deterministic_sorted_bounded(self):
        offsets = poisson_offsets(200.0, 1.0, seed=11)
        assert offsets == poisson_offsets(200.0, 1.0, seed=11)
        assert offsets == sorted(offsets)
        assert all(0.0 < offset < 1.0 for offset in offsets)
        # Expected count is rate * duration = 200; Poisson spread is ~±45
        # at 3 sigma, and the seed is fixed anyway.
        assert 120 < len(offsets) < 280

    def test_poisson_offsets_validates(self):
        with pytest.raises(ValueError):
            poisson_offsets(0.0, 1.0)
        with pytest.raises(ValueError):
            poisson_offsets(10.0, 0.0)

class TestSessionRequests:
    def test_revisits_extend_histories_as_sliding_windows(self):
        cap = 6
        payloads = session_requests(80, catalogue=30, num_users=8,
                                    revisit=0.7, history=cap, seed=1)
        assert len(payloads) == 80
        by_user = {}
        for payload in payloads:
            history = payload["history"]
            assert 1 <= len(history) <= cap
            assert all(1 <= item <= 30 for item in history)
            user = payload["request_id"].split("-")[0]
            previous = by_user.get(user)
            if previous is not None:
                # One new item appended, window re-capped: dropping the new
                # tail item must recover the previous window's tail.
                assert len(history) > 1
                assert history[:-1] == previous[-(len(history) - 1):]
            by_user[user] = history
        assert any(len(h) == cap for h in by_user.values())

    def test_catalogue_validated(self):
        with pytest.raises(ValueError):
            session_requests(5, catalogue=0)


class TestOpenLoop:
    def test_instant_sender_completes_everything(self):
        offsets = poisson_offsets(400.0, 0.2, seed=2)
        payloads = session_requests(len(offsets), catalogue=50, seed=2)
        report = run_open_loop(lambda payload: payload, payloads, offsets,
                               concurrency=4)
        assert report.offered == len(offsets)
        assert report.completed == len(offsets)
        assert report.errors == 0
        assert report.achieved_rps > 0.0
        assert report.p95_ms >= report.p50_ms >= 0.0
        assert len(report.latencies_ms) == len(offsets)
        payload = report.to_dict()
        assert json.dumps(payload)  # JSON-serialisable, raw latencies omitted
        assert "latencies_ms" not in payload

    def test_sender_errors_are_counted_not_raised(self):
        offsets = [0.001 * step for step in range(1, 31)]
        payloads = session_requests(len(offsets), catalogue=10, seed=0)

        def flaky(payload):
            if int(payload["request_id"].rsplit("-", 1)[1]) % 3 == 0:
                raise RuntimeError("boom")
            return payload

        report = run_open_loop(flaky, payloads, offsets, concurrency=3)
        assert report.errors == 10
        assert report.completed == 20

    def test_input_validation(self):
        with pytest.raises(ValueError, match="payloads"):
            run_open_loop(lambda p: p, [{}], [0.0, 0.1])
        with pytest.raises(ValueError, match="concurrency"):
            run_open_loop(lambda p: p, [{}], [0.0], concurrency=0)

    def test_ramp_search_sustains_fast_sender(self):
        result = find_max_sustainable_rps(
            lambda payload: payload, catalogue=20, slo_p95_ms=1000.0,
            rates=(20.0, 40.0), step_duration_s=0.2, concurrency=4, seed=3)
        assert result["sustainable_rps"] == 40.0
        assert [step["rate"] for step in result["steps"]] == [20.0, 40.0]
        assert all(step["sustained"] for step in result["steps"])

    def test_ramp_search_stops_at_first_unsustained_rate(self):
        def broken(payload):
            raise RuntimeError("down")

        result = find_max_sustainable_rps(
            broken, catalogue=20, slo_p95_ms=1000.0,
            rates=(20.0, 40.0, 80.0), step_duration_s=0.2, seed=3)
        assert result["sustainable_rps"] == 0.0
        assert len(result["steps"]) == 1  # no point queueing harder
        assert not result["steps"][0]["sustained"]
        assert result["steps"][0]["errors"] > 0

    def test_ramp_search_requires_rates(self):
        with pytest.raises(ValueError):
            find_max_sustainable_rps(lambda p: p, catalogue=10,
                                     slo_p95_ms=10.0, rates=())


# --------------------------------------------------------------------- #
# Service wiring
# --------------------------------------------------------------------- #
class TestServiceObservability:
    def test_stages_ms_covers_the_whole_lifecycle(self, deployment):
        with RecommenderService() as service:
            service.deploy(deployment)
            response = service.recommend({"history": [1, 2, 3]})
        stages = response.stages_ms
        assert set(stages) == set(STAGES) | {"total"}
        assert all(value >= 0.0 for value in stages.values())
        assert stages["total"] >= max(stages[name] for name in STAGES)
        payload = response.to_dict()
        # Serialisation rounds; the in-memory trace stays raw.
        assert payload["stages_ms"]["total"] == round(stages["total"], 3)

    def test_unbatched_path_shares_the_schema(self, deployment):
        with RecommenderService(batching=False) as service:
            service.deploy(deployment)
            plain = service.recommend({"history": [1, 2]})
        assert set(plain.stages_ms) == set(STAGES) | {"total"}

    def test_metrics_false_disables_instrumentation(self, deployment):
        with RecommenderService(metrics=False) as service:
            service.deploy(deployment)
            response = service.recommend({"history": [1, 2]})
            assert response.stages_ms == {}
            # no timing at all: stages_ms is the response's only timing
            assert not [key for key in response.to_dict()
                        if key.endswith("_ms")]
            assert service.render_metrics() is None
            assert service.metrics_snapshot() == {}
            assert service.stats()["metrics"] == {}

    def test_scrape_has_request_metrics_and_valid_format(self, deployment):
        with RecommenderService() as service:
            service.deploy(deployment)
            for _ in range(4):
                service.recommend({"history": [3, 5]})
            with pytest.raises(Exception):
                service.recommend({"history": [1], "deployment": "nope"})
            text = service.render_metrics()
        types, samples = parse_exposition(text)
        check_histogram_invariants(types, samples)
        assert types["repro_requests_total"] == "counter"
        assert types["repro_request_latency_ms"] == "histogram"
        assert types["repro_stage_latency_ms"] == "histogram"
        assert types["repro_batch_size"] == "histogram"
        assert types["repro_uptime_seconds"] == "gauge"
        by_series = {(name, tuple(sorted(labels.items()))): value
                     for name, labels, value in samples}
        assert by_series[("repro_requests_total",
                          (("deployment", "arts"), ("status", "ok")))] == 4.0
        assert by_series[("repro_requests_total",
                          (("deployment", "unknown"),
                           ("status", "error")))] == 1.0
        stage_labels = {labels["stage"] for name, labels, _ in samples
                        if name == "repro_stage_latency_ms_count"}
        assert stage_labels == {"queue", "encode", "score", "merge"}
        assert by_series[("repro_deployment_version",
                          (("deployment", "arts"),))] == 1.0

    def test_shared_registry_and_snapshot(self, deployment):
        registry = MetricsRegistry()
        with RecommenderService(metrics=registry) as service:
            service.deploy(deployment)
            service.recommend({"history": [1]})
            snapshot = service.metrics_snapshot()
        assert service.metrics is registry
        requests = snapshot["repro_requests_total"]
        assert requests["type"] == "counter"
        (series,) = [entry for entry in requests["series"]
                     if entry["labels"]["status"] == "ok"]
        assert series["value"] == 1.0
        latency = snapshot["repro_request_latency_ms"]["series"][0]
        assert latency["count"] == 1
        assert "p50" in latency  # rolling-window percentiles

    def test_jsonl_metrics_command(self, deployment):
        service = RecommenderService()
        service.deploy(deployment)
        output = io.StringIO()
        lines = [json.dumps({"history": [2, 4]}),
                 json.dumps({"cmd": "metrics"}),
                 json.dumps({"cmd": "shutdown"})]
        code = serve_jsonl(service, io.StringIO("\n".join(lines) + "\n"),
                           output)
        assert code == 0
        replies = [json.loads(line)
                   for line in output.getvalue().splitlines()]
        metrics = replies[1]["metrics"]
        assert metrics["repro_requests_total"]["type"] == "counter"
        assert replies[0]["stages_ms"]["total"] >= 0.0

    def test_retired_deployment_drops_out_of_the_exposition(self, obs_setup):
        _, split, features, make_model = obs_setup
        with RecommenderService() as service:
            service.deploy(Deployment(
                "keep", _recommender(split, features, make_model(0)),
                config=ServingConfig(k=4)))
            service.deploy(Deployment(
                "drop", _recommender(split, features, make_model(1)),
                config=ServingConfig(k=4)))
            service.recommend({"history": [1], "deployment": "keep"})
            service.recommend({"history": [1], "deployment": "drop"})
            assert 'deployment="drop"' in service.render_metrics()
            service.retire("drop")
            text = service.render_metrics()
            assert 'deployment="drop"' not in text
            assert 'deployment="keep"' in text
            # The retired name's handle cache is invalidated too: fresh
            # traffic to a re-deployed name must not resurrect stale series.
            service.recommend({"history": [2], "deployment": "keep"})

    def test_concurrent_scrapes_survive_traffic_and_hot_swaps(
            self, obs_setup, tmp_path):
        """Threads hammer /metrics-style scrapes and stats() while traffic
        flows and reload()/retire() land mid-scrape; nothing may raise, and
        retired series must be gone from the final exposition."""
        _, split, features, make_model = obs_setup
        path = save_checkpoint(make_model(1), tmp_path / "next.npz",
                               feature_table=features)
        errors = []
        stop = threading.Event()

        def guarded(target):
            def run():
                try:
                    while not stop.is_set():
                        target()
                except Exception as error:  # pragma: no cover - the bug
                    errors.append(error)
            return run

        with RecommenderService() as service:
            service.deploy(Deployment(
                "m", _recommender(split, features, make_model(0)),
                config=ServingConfig(k=4)))
            service.deploy(Deployment(
                "tmp", _recommender(split, features, make_model(1)),
                config=ServingConfig(k=4)))
            service.recommend({"history": [1], "deployment": "tmp"})

            def traffic():
                service.recommend({"history": [1, 2], "deployment": "m"})

            def scrape():
                text = service.render_metrics()
                parse_exposition(text)

            def stats():
                json.dumps(service.stats())

            threads = [threading.Thread(target=guarded(target), daemon=True)
                       for target in (traffic, traffic, scrape, stats)]
            for thread in threads:
                thread.start()
            time.sleep(0.05)
            service.reload("m", path)  # hot-swap mid-scrape
            time.sleep(0.05)
            service.retire("tmp")      # retire mid-scrape
            time.sleep(0.05)
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            assert not errors
            final = service.render_metrics()
        types, samples = parse_exposition(final)
        check_histogram_invariants(types, samples)
        assert 'deployment="tmp"' not in final
        versions = {labels["version"] for name, labels, _ in samples
                    if name == "repro_batcher_requests"}
        assert "1" not in versions  # the replaced version's batcher is gone
        assert service.registry.get("m").version == 2


class TestHTTPMetricsEndpoint:
    @pytest.fixture()
    def http_server(self, deployment):
        service = RecommenderService()
        service.deploy(deployment)
        server = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        yield server
        server.shutdown()
        server.server_close()
        service.close()
        thread.join(timeout=5)

    def test_get_metrics_returns_the_exposition(self, http_server):
        body = json.dumps({"history": [1, 2, 3]}).encode("utf-8")
        request = urllib.request.Request(
            f"http://127.0.0.1:{http_server.port}/recommend", data=body,
            headers={"Content-Type": "application/json"})
        with urllib.request.urlopen(request, timeout=10):
            pass
        with urllib.request.urlopen(
                f"http://127.0.0.1:{http_server.port}/metrics",
                timeout=10) as reply:
            assert reply.status == 200
            assert reply.headers["Content-Type"] == METRICS_CONTENT_TYPE
            text = reply.read().decode("utf-8")
        types, samples = parse_exposition(text)
        check_histogram_invariants(types, samples)
        assert "repro_requests_total" in types

    def test_metrics_disabled_is_404(self, deployment):
        service = RecommenderService(metrics=False)
        service.deploy(deployment)
        server = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://127.0.0.1:{server.port}/metrics", timeout=10)
            assert excinfo.value.code == 404
            assert "disabled" in json.loads(excinfo.value.read())["error"]
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)


# --------------------------------------------------------------------- #
# The CLI has no load generator: `python3 -m e2e_bench` is the HTTP one
# --------------------------------------------------------------------- #
class TestLoadgenCLI:
    def test_loadgen_is_not_a_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["loadgen"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'loadgen'" in capsys.readouterr().err
