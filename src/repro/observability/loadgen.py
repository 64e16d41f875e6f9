"""Open-loop load generation: offered rate, achieved rate, and the SLO line.

Closed-loop benchmarks (N clients issue a request, wait for the answer,
issue the next one) cannot see queueing collapse — when the service slows
down, the clients slow down with it and the measured latency stays flat.
Production traffic is *open-loop*: arrivals come on their own schedule
whether or not the service keeps up, and latency is measured **from the
scheduled arrival time**, so a service falling behind shows the queueing
delay it actually inflicts.

Three pieces, driving a :class:`~repro.service.RecommenderService`
in-process through :func:`service_sender`:

* :func:`poisson_offsets` — exponential inter-arrival gaps at a fixed rate
  (the memoryless arrival model);
* :func:`run_open_loop` — dispatch a schedule against a ``send`` callable
  over a bounded worker pool, reporting offered vs achieved RPS and
  p50/p95/p99 latency from scheduled-arrival time;
* :func:`find_max_sustainable_rps` — step a rate ladder and report the
  highest rate whose p95 stays under the SLO while the service keeps up
  with the offered load.

Request streams come from :func:`session_requests`: a population of users
that *re-visit* — each visit appends one item to that user's history.

This is the library half used by ``benchmarks/test_bench_resilience.py``;
what a deployment sustains over HTTP is measured by ``python3 -m
e2e_bench``, which has its own load generator.
"""

from __future__ import annotations

import math
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..resilience import DeadlineExceeded, OverloadError
from ..shard import ShardTimeout
from .metrics import quantile

Sender = Callable[[Dict[str, Any]], Any]

# A ladder step keeps up with its offered load when it achieves this share.
MIN_ACHIEVED_FRACTION = 0.85


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


# --------------------------------------------------------------------- #
# Request streams
# --------------------------------------------------------------------- #
def session_requests(count: int, catalogue: int, num_users: int = 64,
                     revisit: float = 0.6, history: int = 12,
                     seed: int = 0) -> List[Dict[str, Any]]:
    """``count`` request payloads from a re-visiting user population.

    Each request belongs to a user; a re-visit (probability ``revisit``)
    extends that user's history by one item and asks again, so successive
    requests from one user are strict prefix extensions.  Histories are
    capped at ``history`` items (a sliding window, like real sessions).
    """
    if catalogue < 1:
        raise ValueError(f"catalogue must be >= 1, got {catalogue}")
    rng = random.Random(seed)
    histories: List[List[int]] = []
    payloads: List[Dict[str, Any]] = []
    for position in range(count):
        if histories and (rng.random() < revisit
                          or len(histories) >= num_users):
            user = rng.randrange(len(histories))
        else:
            user = len(histories)
            histories.append([])
        histories[user].append(rng.randint(1, catalogue))
        payloads.append({
            "history": list(histories[user][-history:]),
            "request_id": f"u{user}-{position}",
        })
    return payloads


def service_sender(service) -> Sender:
    """A ``send`` callable driving a RecommenderService in-process."""
    def send(payload: Dict[str, Any]):
        return service.recommend(payload)
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
                             seed: int = 0) -> Dict[str, Any]:
    """Ramp search: the highest offered rate the service sustains in-SLO.

    Steps the ascending ``rates`` ladder, running a short fixed-rate open
    loop at each.  A rate is *sustained* when its p95 latency is within
    ``slo_p95_ms`` **and** achieved throughput kept up with offered
    (``MIN_ACHIEVED_FRACTION``) with no errors.  Shed and deadline-expired
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
                                    seed=seed + position)
        report = run_open_loop(send, payloads, offsets,
                               concurrency=concurrency, slo_ms=slo_p95_ms)
        entry = report.to_dict()
        entry["rate"] = rate
        sustained = (not math.isnan(report.p95_ms)
                     and report.p95_ms <= slo_p95_ms
                     and report.errors == 0
                     and report.shed == 0
                     and report.deadline_expired == 0
                     and report.achieved_rps
                     >= MIN_ACHIEVED_FRACTION * report.offered_rps)
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
