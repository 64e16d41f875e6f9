"""Open-loop HTTP load generator and the sustainable-rate search.

``SENDER_THREADS`` threads, one persistent keep-alive ``http.client``
connection each, pull the next arrival from one shared seeded schedule.
Latency is timed from each request's **due** time, so a stall is charged to
every request queued behind it (no coordinated omission), and generator
lateness (``sent - due``) is recorded per request.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import LATENCY_LIMIT_S, SENDER_THREADS
from .stats import now

#: socket timeout of one request; a timeout counts as a failure
REQUEST_TIMEOUT_S = 10.0
#: share of the requests sent that must meet the limit for a rate to pass
PASS_SHARE = 0.95


class Record(NamedTuple):
    """One request as the client saw it (CLOCK_MONOTONIC seconds)."""

    index: int
    sender: int
    due: float
    sent: float
    done: float
    status: int  # 0 = transport failure or timeout
    body: bytes

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lateness_s(self) -> float:
        return self.sent - self.due


@dataclass
class Phase:
    """The records of one phase, in schedule order."""

    records: List[Record] = field(default_factory=list)
    #: age of the oldest due-but-unsent request when the phase was cut off
    backlog_s: float = 0.0

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if record.status != 200)


class LoadGenerator:
    """Sends ``POST /recommend`` bodies on a schedule over persistent
    connections that are kept across phases."""

    def __init__(self, port: int, senders: int = SENDER_THREADS):
        self.port = port
        self._connections: List[Optional[http.client.HTTPConnection]] = (
            [None] * senders)

    def _post(self, sender: int, body: bytes) -> Tuple[int, bytes]:
        connection = self._connections[sender]
        if connection is None:
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=REQUEST_TIMEOUT_S)
            self._connections[sender] = connection
        try:
            connection.request("POST", "/recommend", body=body,
                               headers={"Content-Type": "application/json"})
            response = connection.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            # counted as a failure by the caller; reconnect on the next use
            connection.close()
            self._connections[sender] = None
            return 0, b""

    def _run_senders(self, sender: Callable[[int], None]) -> None:
        threads = [threading.Thread(target=sender, args=(which,), daemon=True)
                   for which in range(len(self._connections))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def post(self, body: bytes) -> Tuple[int, bytes]:
        """One closed-loop request on the first connection."""
        return self._post(0, body)

    def run(self, offsets: Sequence[float], bodies: Sequence[bytes],
            cutoff_s: Optional[float] = None) -> Phase:
        """Send ``bodies[i]`` at ``start + offsets[i]``.

        With ``cutoff_s`` nothing is *sent* later than ``start + cutoff_s``:
        requests still waiting then are dropped and the age of the oldest
        one is reported as the backlog (the open loop fell behind).
        """
        slots: List[Optional[Record]] = [None] * len(offsets)
        lock = threading.Lock()
        cursor = [0]
        start = now() + 0.05
        stop = None if cutoff_s is None else start + cutoff_s

        def sender(which: int) -> None:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= len(offsets):
                    return
                due = start + offsets[index]
                current = now()
                if stop is not None and max(due, current) >= stop:
                    return
                if current < due:
                    time.sleep(due - current)
                sent = now()
                status, body = self._post(which, bodies[index])
                slots[index] = Record(index, which, due, sent, now(), status,
                                      body)

        self._run_senders(sender)
        phase = Phase(records=[slot for slot in slots if slot is not None])
        if stop is not None:
            unsent = [start + offsets[index]
                      for index, slot in enumerate(slots) if slot is None]
            if unsent:
                phase.backlog_s = max(0.0, stop - min(unsent))
        return phase

    def run_closed(self, bodies: Sequence[bytes],
                   seconds: Optional[float] = None) -> Phase:
        """Closed loop: every sender posts its next body as soon as the
        previous reply is read — for ``seconds``, cycling through
        ``bodies``, or without it until each body was sent once.
        ``due == sent``."""
        records: List[Record] = []
        lock = threading.Lock()
        cursor = [0]
        stop = None if seconds is None else now() + seconds

        def sender(which: int) -> None:
            while stop is None or now() < stop:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if stop is None and index >= len(bodies):
                    return
                sent = now()
                status, body = self._post(which, bodies[index % len(bodies)])
                record = Record(index, which, sent, sent, now(), status, body)
                with lock:
                    records.append(record)

        self._run_senders(sender)
        return Phase(records=sorted(records, key=lambda record: record.index))

    def close(self) -> None:
        for index, connection in enumerate(self._connections):
            if connection is not None:
                connection.close()
                self._connections[index] = None


def meets_limit(phase: Phase) -> bool:
    """Did this probe sustain its rate?  At least ``PASS_SHARE`` of the
    requests *sent* came back 200 within the limit of their due time (a
    failed request misses it), and the generator did not end the probe
    with a backlog older than the limit."""
    if not phase.records:
        return False
    within = sum(1 for record in phase.records
                 if record.status == 200
                 and record.latency_s <= LATENCY_LIMIT_S)
    return (within >= PASS_SHARE * len(phase.records)
            and phase.backlog_s <= LATENCY_LIMIT_S)


def find_sustainable(probe: Callable[[float], bool], start_rate: float,
                     bisections: int = 4, floor_rate: float = 1.0,
                     max_doublings: int = 12) -> Tuple[float, List[Tuple[float, bool]]]:
    """Highest probed rate that ``probe`` sustains.

    Bracket by doubling from ``start_rate`` until a probe fails (halving
    first if the start itself fails), then bisect geometrically inside the
    bracket: ``bisections=4`` resolves the knee to 2**(1/16) ~ 4.4%.  The
    ladder adapts, so a 10x faster system is not capped by it.  Returns
    ``(rate, [(probed rate, passed), ...])``; the rate is the lowest one
    probed when nothing passed.
    """
    probes: List[Tuple[float, bool]] = []

    def check(rate: float) -> bool:
        passed = probe(rate)
        probes.append((rate, passed))
        return passed

    low, high = None, None
    rate = start_rate
    if check(rate):
        low = rate
        for _ in range(max_doublings):
            rate *= 2.0
            if check(rate):
                low = rate
            else:
                high = rate
                break
    else:
        high = rate
        while rate / 2.0 >= floor_rate:
            rate /= 2.0
            if check(rate):
                low = rate
                break
            high = rate
    if low is None:
        return min(rate for rate, _ in probes), probes
    if high is not None:
        for _ in range(bisections):
            middle = math.sqrt(low * high)
            if check(middle):
                low = middle
            else:
                high = middle
    return low, probes
