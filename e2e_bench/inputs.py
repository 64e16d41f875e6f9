"""Seeded benchmark inputs: arrival schedules and the request stream.

Owned by the benchmark on purpose — nothing here imports ``repro`` (in
particular not ``repro.observability.loadgen``), so a product PR cannot
change what the benchmark sends.  Equal seeds give equal inputs.
"""

from __future__ import annotations

import json
import random
from typing import List

from . import K


def sub_rng(seed: int, purpose: str) -> random.Random:
    """An independent stream per (seed, purpose): adding a phase never
    shifts the inputs of another."""
    return random.Random(f"{seed}/{purpose}")


def poisson_schedule(rate: float, seconds: float,
                     rng: random.Random) -> List[float]:
    """Open-loop arrival offsets (seconds from phase start): a Poisson
    process of ``rate`` per second over ``seconds``, conditioned on its
    count.  Exactly ``round(rate * seconds)`` arrivals fall uniformly at
    random in the window, so gaps are exponential-like and bursty but every
    run measures the same number of requests."""
    if rate <= 0 or seconds <= 0:
        raise ValueError("rate and seconds must be positive")
    count = max(1, round(rate * seconds))
    return sorted(rng.uniform(0.0, seconds) for _ in range(count))


class RequestStream:
    """Histories from a re-visiting user population.

    ``users`` slots each hold a sliding window of at most ``window`` item
    ids.  A request comes from a returning user with probability
    ``revisit`` (their history grows by one item, so consecutive requests
    share a prefix — what a session cache can use) and otherwise from a
    new user who takes over a random slot.  Items are uniform over
    ``[1, num_items]``.
    """

    def __init__(self, num_items: int, rng: random.Random, users: int = 64,
                 revisit: float = 0.6, window: int = 12):
        self.num_items = num_items
        self.rng = rng
        self.revisit = revisit
        self.window = window
        self.slots = [self._fresh() for _ in range(users)]

    def _fresh(self) -> List[int]:
        length = self.rng.randint(3, self.window)
        return [self.rng.randint(1, self.num_items) for _ in range(length)]

    def history(self) -> List[int]:
        slot = self.rng.randrange(len(self.slots))
        if self.rng.random() < self.revisit:
            grown = self.slots[slot] + [self.rng.randint(1, self.num_items)]
            self.slots[slot] = grown[-self.window:]
        else:
            self.slots[slot] = self._fresh()
        return list(self.slots[slot])

    def histories(self, count: int) -> List[List[int]]:
        return [self.history() for _ in range(count)]


def single_body(history: List[int]) -> bytes:
    """``POST /recommend`` body of one single-history request."""
    return json.dumps({"history": history, "k": K}).encode("utf-8")


def envelope_body(histories: List[List[int]]) -> bytes:
    """``POST /recommend`` body of one bulk envelope."""
    return json.dumps({"requests": [{"history": history, "k": K}
                                    for history in histories]}).encode("utf-8")
