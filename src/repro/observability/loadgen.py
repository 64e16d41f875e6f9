"""Open-loop load generation: offered rate, achieved rate, and the SLO line.

Every benchmark before this module was *closed-loop*: N clients issue a
request, wait for the answer, issue the next one.  Closed loops cannot see
queueing collapse — when the service slows down, the clients slow down with
it and the measured latency stays flat.  Production traffic is *open-loop*:
arrivals come on their own schedule whether or not the service keeps up, and
latency is measured **from the scheduled arrival time**, so a service
falling behind shows the queueing delay it actually inflicts.

Three pieces:

* arrival schedules — :func:`poisson_offsets` (exponential inter-arrival
  gaps at a fixed rate, the memoryless arrival model) and
  :func:`ramp_offsets` (rate climbing linearly over the run, for finding
  the knee);
* :func:`run_open_loop` — dispatch a schedule against any ``send`` callable
  (the in-process :class:`~repro.service.RecommenderService`, or HTTP via
  :func:`http_sender`) over a bounded worker pool, reporting offered vs
  achieved RPS and p50/p95/p99 latency from scheduled-arrival time;
* :func:`find_max_sustainable_rps` — step a rate ladder and report the
  highest rate whose p95 stays under the SLO while the service keeps up
  with the offered load.

Request streams come from :func:`session_requests`: a population of users
that *re-visit* — each visit appends one item to that user's history.
"""

from __future__ import annotations

import json
import math
import random
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..resilience import DeadlineExceeded, OverloadError
from ..shard import ShardTimeout
from .metrics import quantile

Sender = Callable[[Dict[str, Any]], Any]


# --------------------------------------------------------------------- #
# Arrival schedules
# --------------------------------------------------------------------- #
def poisson_offsets(rate: float, duration_s: float,
                    seed: int = 0) -> List[float]:
    """Arrival offsets (seconds from start) of a Poisson process.

    Inter-arrival gaps are exponential with mean ``1/rate``; the schedule
    covers ``duration_s`` seconds, so the expected count is
    ``rate * duration_s`` (the actual count varies, as real traffic does).
    """
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be > 0, got {duration_s}")
    rng = random.Random(seed)
    offsets: List[float] = []
    clock = rng.expovariate(rate)
    while clock < duration_s:
        offsets.append(clock)
        clock += rng.expovariate(rate)
    return offsets


def ramp_offsets(start_rate: float, end_rate: float, duration_s: float,
                 seed: int = 0) -> List[float]:
    """Poisson arrivals whose rate climbs linearly from start to end.

    Implemented by thinning a Poisson process at the peak rate: candidate
    arrivals at ``max(start, end)`` are kept with probability
    ``rate(t) / peak`` — an exact simulation of the inhomogeneous process.
    """
    if start_rate <= 0 or end_rate <= 0:
        raise ValueError("ramp rates must be > 0, got "
                         f"{start_rate} -> {end_rate}")
    peak = max(start_rate, end_rate)
    rng = random.Random(seed)
    offsets: List[float] = []
    clock = rng.expovariate(peak)
    while clock < duration_s:
        rate_now = start_rate + (end_rate - start_rate) * clock / duration_s
        if rng.random() < rate_now / peak:
            offsets.append(clock)
        clock += rng.expovariate(peak)
    return offsets


# --------------------------------------------------------------------- #
# Request streams
# --------------------------------------------------------------------- #
def session_requests(count: int, catalogue: int, num_users: int = 64,
                     revisit: float = 0.6, history: int = 12,
                     seed: int = 0,
                     deployment: Optional[str] = None,
                     deadline_ms: Optional[float] = None,
                     follow_log=None) -> List[Dict[str, Any]]:
    """``count`` request payloads from a re-visiting user population.

    Each request belongs to a user; a re-visit (probability ``revisit``)
    extends that user's history by one item and asks again, so successive
    requests from one user are strict prefix extensions.  Histories are
    capped at ``history`` items (a sliding window, like real sessions).

    ``follow_log`` optionally couples the population to live ingestion: an
    :class:`~repro.stream.InteractionLog` (or a path to one) is drained as
    payloads are generated, and each logged interaction is appended to the
    sliding window of user ``user_id % num_users`` — so replayed sessions
    carry the freshly ingested items the online loop is fine-tuning on,
    and a post-publish request stream actually exercises the new events.
    Logged items outside ``[1, catalogue]`` are skipped (the served model
    cannot encode them yet).
    """
    if catalogue < 1:
        raise ValueError(f"catalogue must be >= 1, got {catalogue}")
    if follow_log is not None and not hasattr(follow_log, "read"):
        from ..stream import InteractionLog

        follow_log = InteractionLog(follow_log, durable=False)
    rng = random.Random(seed)
    histories: List[List[int]] = []
    cursor = 0
    payloads: List[Dict[str, Any]] = []
    for position in range(count):
        if follow_log is not None:
            for event in follow_log.read(cursor):
                cursor = event.offset + 1
                if not 1 <= event.item_id <= catalogue:
                    continue
                user_index = event.user_id % num_users
                while len(histories) <= user_index:
                    histories.append([])
                histories[user_index].append(int(event.item_id))
        if histories and (rng.random() < revisit
                          or len(histories) >= num_users):
            user = rng.randrange(len(histories))
        else:
            user = len(histories)
            histories.append([])
        histories[user].append(rng.randint(1, catalogue))
        payload: Dict[str, Any] = {
            "history": list(histories[user][-history:]),
            "request_id": f"u{user}-{position}",
        }
        if deployment is not None:
            payload["deployment"] = deployment
        if deadline_ms is not None:
            payload["deadline_ms"] = float(deadline_ms)
        payloads.append(payload)
    return payloads


def http_sender(url: str, timeout: float = 30.0) -> Sender:
    """A ``send`` callable POSTing payloads to ``url`` (the /recommend
    endpoint); non-2xx responses and error envelopes raise.

    The resilience status codes come back as their typed errors — 429 as
    :class:`~repro.resilience.OverloadError` (with the server's
    ``Retry-After``), 504 as :class:`~repro.resilience.DeadlineExceeded` —
    so :func:`run_open_loop` classifies HTTP outcomes exactly like
    in-process ones.
    """
    def send(payload: Dict[str, Any]) -> Dict[str, Any]:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"})
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                answer = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            detail = ""
            try:
                detail = str(json.loads(
                    error.read().decode("utf-8")).get("error", ""))
            except Exception:  # noqa: BLE001 — diagnostics only
                pass
            if error.code == 429:
                try:
                    retry_after = float(error.headers.get("Retry-After", 1.0))
                except (TypeError, ValueError):
                    retry_after = 1.0
                raise OverloadError(detail or "shed (HTTP 429)",
                                    retry_after_s=retry_after) from None
            if error.code == 504:
                raise DeadlineExceeded(
                    detail or "deadline exceeded (HTTP 504)") from None
            raise RuntimeError(
                detail or f"HTTP {error.code}") from None
        if isinstance(answer, dict) and "error" in answer:
            raise RuntimeError(answer["error"])
        return answer
    return send


def service_sender(service, timeout: Optional[float] = None) -> Sender:
    """A ``send`` callable driving a RecommenderService in-process."""
    def send(payload: Dict[str, Any]):
        return service.recommend(payload, timeout=timeout)
    return send


# --------------------------------------------------------------------- #
# The open loop
# --------------------------------------------------------------------- #
@dataclass
class LoadReport:
    """Outcome of one open-loop run.

    Outcomes are *classified*, not lumped: ``completed`` answered OK,
    ``shed`` were refused by admission control (HTTP 429 /
    :class:`OverloadError` — the service protecting itself, not failing),
    ``deadline_expired`` ran out of budget (HTTP 504), and ``errors`` is
    everything genuinely broken.  ``goodput_rps`` counts only completed
    requests that also met the ``slo_ms`` bound passed to
    :func:`run_open_loop` (all completed requests when no bound was given)
    — the number that should stay high when overload shedding works.
    """

    profile: str
    duration_s: float
    offered: int
    completed: int
    errors: int
    offered_rps: float
    achieved_rps: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    concurrency: int
    shed: int = 0
    deadline_expired: int = 0
    goodput_rps: float = 0.0
    latencies_ms: List[float] = field(default_factory=list, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "profile": self.profile,
            "duration_s": round(self.duration_s, 3),
            "offered": self.offered,
            "completed": self.completed,
            "errors": self.errors,
            "shed": self.shed,
            "deadline_expired": self.deadline_expired,
            "offered_rps": round(self.offered_rps, 2),
            "achieved_rps": round(self.achieved_rps, 2),
            "goodput_rps": round(self.goodput_rps, 2),
            "p50_ms": round(self.p50_ms, 3),
            "p95_ms": round(self.p95_ms, 3),
            "p99_ms": round(self.p99_ms, 3),
            "max_ms": round(self.max_ms, 3),
            "concurrency": self.concurrency,
        }


def run_open_loop(send: Sender, payloads: Sequence[Dict[str, Any]],
                  offsets: Sequence[float], concurrency: int = 8,
                  profile: str = "poisson",
                  slo_ms: Optional[float] = None) -> LoadReport:
    """Dispatch ``payloads`` on the ``offsets`` schedule; measure open-loop.

    A pool of ``concurrency`` workers pulls arrivals in schedule order; each
    waits until its arrival time, then sends.  **Latency counts from the
    scheduled arrival**, so when the service (or the pool) falls behind, the
    backlog shows up as latency — the open-loop property.  ``concurrency``
    bounds the in-flight requests (an unbounded thread-per-arrival
    generator would melt before the service does); offered minus achieved
    RPS reveals when that bound, or the service, saturates.

    Each arrival's outcome is classified: ``ok``, ``shed``
    (:class:`~repro.resilience.OverloadError` — admission control refusing
    work), ``deadline`` (:class:`~repro.resilience.DeadlineExceeded` or a
    shard timeout — the budget ran out), or ``error`` (anything else).
    ``slo_ms`` additionally bounds which completed requests count toward
    ``goodput_rps``.
    """
    if len(payloads) != len(offsets):
        raise ValueError(f"{len(payloads)} payloads vs {len(offsets)} offsets")
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    total = len(offsets)
    latencies = [float("nan")] * total
    outcomes = ["error"] * total
    cursor = {"next": 0}
    gate = threading.Lock()
    start = time.perf_counter() + 0.05  # let every worker reach the loop

    def worker() -> None:
        while True:
            with gate:
                position = cursor["next"]
                if position >= total:
                    return
                cursor["next"] = position + 1
            scheduled = start + offsets[position]
            delay = scheduled - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            try:
                send(payloads[position])
            except OverloadError:
                outcomes[position] = "shed"
            except (DeadlineExceeded, ShardTimeout):
                outcomes[position] = "deadline"
            except Exception:
                outcomes[position] = "error"
            else:
                outcomes[position] = "ok"
            latencies[position] = (time.perf_counter() - scheduled) * 1000.0

    threads = [threading.Thread(target=worker, name=f"repro-loadgen-{i}",
                                daemon=True)
               for i in range(min(concurrency, max(1, total)))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    ok = [latency for latency, outcome in zip(latencies, outcomes)
          if outcome == "ok" and not math.isnan(latency)]
    errors = sum(1 for outcome in outcomes if outcome == "error")
    shed = sum(1 for outcome in outcomes if outcome == "shed")
    deadline_expired = sum(1 for outcome in outcomes
                           if outcome == "deadline")
    good = (len(ok) if slo_ms is None
            else sum(1 for latency in ok if latency <= slo_ms))
    duration = max(wall, offsets[-1] if offsets else 0.0, 1e-9)
    return LoadReport(
        profile=profile,
        duration_s=wall,
        offered=total,
        completed=len(ok),
        errors=errors,
        shed=shed,
        deadline_expired=deadline_expired,
        offered_rps=total / duration,
        achieved_rps=len(ok) / duration,
        goodput_rps=good / duration,
        p50_ms=quantile(ok, 0.50) if ok else float("nan"),
        p95_ms=quantile(ok, 0.95) if ok else float("nan"),
        p99_ms=quantile(ok, 0.99) if ok else float("nan"),
        max_ms=max(ok) if ok else float("nan"),
        concurrency=len(threads),
        latencies_ms=latencies,
    )


def find_max_sustainable_rps(send: Sender, *, catalogue: int,
                             slo_p95_ms: float,
                             rates: Sequence[float],
                             step_duration_s: float = 2.0,
                             concurrency: int = 8,
                             deployment: Optional[str] = None,
                             seed: int = 0,
                             min_achieved_fraction: float = 0.85,
                             deadline_ms: Optional[float] = None
                             ) -> Dict[str, Any]:
    """Ramp search: the highest offered rate the service sustains in-SLO.

    Steps the ascending ``rates`` ladder, running a short fixed-rate open
    loop at each.  A rate is *sustained* when its p95 latency is within
    ``slo_p95_ms`` **and** achieved throughput kept up with offered
    (``min_achieved_fraction``) with no errors.  Shed and deadline-expired
    requests are *over-SLO*, not hard failures: a rate that sheds is simply
    not sustained (the service is protecting itself there), while a rate
    that errors is broken — the two must not be conflated when admission
    control is on.  The search stops at the first unsustained rate — beyond
    the knee, higher rates only queue harder.  Returns the best sustained
    rate (0.0 if even the first step failed) and the full per-step table.
    """
    ladder = sorted(float(rate) for rate in rates)
    if not ladder:
        raise ValueError("rates must be non-empty")
    steps: List[Dict[str, Any]] = []
    sustainable = 0.0
    for position, rate in enumerate(ladder):
        offsets = poisson_offsets(rate, step_duration_s, seed=seed + position)
        if not offsets:
            continue
        payloads = session_requests(len(offsets), catalogue,
                                    seed=seed + position,
                                    deployment=deployment,
                                    deadline_ms=deadline_ms)
        report = run_open_loop(send, payloads, offsets,
                               concurrency=concurrency, profile="poisson",
                               slo_ms=slo_p95_ms)
        entry = report.to_dict()
        entry["rate"] = rate
        sustained = (not math.isnan(report.p95_ms)
                     and report.p95_ms <= slo_p95_ms
                     and report.errors == 0
                     and report.shed == 0
                     and report.deadline_expired == 0
                     and report.achieved_rps
                     >= min_achieved_fraction * report.offered_rps)
        entry["sustained"] = sustained
        steps.append(entry)
        if not sustained:
            break
        sustainable = rate
    return {
        "slo_p95_ms": slo_p95_ms,
        "sustainable_rps": sustainable,
        "step_duration_s": step_duration_s,
        "concurrency": concurrency,
        "steps": steps,
    }
