"""Deterministic fault injection: scripted failures, replayable bit-for-bit.

A :class:`FaultPlan` is a schedule of failures keyed by *search index* — the
0-based count of scatter-gather searches a :class:`~repro.shard.ShardPool`
has executed — so the same plan against the same request stream injects the
same faults at the same points, every run.  Three fault kinds, matching the
real failure modes the pool's typed errors cover:

* ``kill`` — SIGKILL the shard's worker process just before the scatter,
  so the send (or gather) raises :class:`~repro.shard.WorkerCrashed`, as an
  OOM-killed worker would;
* ``delay`` — occupy the worker for ``delay_s`` before it serves the
  search (the worker's serial ``sleep`` op), driving timeout handling and
  stale-reply draining;
* ``drop`` — never send the search to that shard, so the gather times out
  (:class:`~repro.shard.ShardTimeout`), as a blackholed reply would.

Plans are built explicitly (a list of :class:`FaultAction`) or generated
from a seed (:meth:`FaultPlan.seeded`).  Every *fired* action is appended
to :attr:`FaultPlan.log`; :meth:`signature` serialises that log, and two
runs of the same seeded plan over the same stream must produce byte-equal
signatures — the chaos suite's determinism contract.

This is a test/bench-only hook: a pool with no plan attached pays one
``is None`` check per search.
"""

from __future__ import annotations

import json
import random
import threading
from dataclasses import dataclass
from typing import Dict, List, Sequence

#: fault kinds a plan may schedule
FAULT_KINDS = ("kill", "delay", "drop")


@dataclass(frozen=True)
class FaultAction:
    """One scheduled fault: do ``kind`` to ``shard`` at search ``at_search``."""

    kind: str
    shard: int
    at_search: int
    delay_s: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, "
                             f"got {self.kind!r}")
        if self.shard < 0:
            raise ValueError(f"shard must be >= 0, got {self.shard}")
        if self.at_search < 0:
            raise ValueError(f"at_search must be >= 0, got {self.at_search}")
        if self.kind == "delay" and self.delay_s <= 0:
            raise ValueError(f"delay faults need delay_s > 0, "
                             f"got {self.delay_s}")


class FaultPlan:
    """A deterministic schedule of shard faults, with a replayable log."""

    def __init__(self, actions: Sequence[FaultAction] = ()):
        self._by_search: Dict[int, List[FaultAction]] = {}
        for action in actions:
            self._by_search.setdefault(action.at_search, []).append(action)
        # Same-search actions fire in (shard, kind) order regardless of the
        # order they were scheduled in — determinism over convenience.
        for scheduled in self._by_search.values():
            scheduled.sort(key=lambda a: (a.shard, a.kind))
        self._lock = threading.Lock()
        #: (search_index, shard, kind, delay_s) tuples of every fault fired
        self.log: List[tuple] = []

    @classmethod
    def seeded(cls, seed: int, num_shards: int, searches: int, *,
               kills: int = 1, delays: int = 0, drops: int = 0,
               delay_s: float = 0.5) -> "FaultPlan":
        """A pseudo-random plan: ``kills``/``delays``/``drops`` faults spread
        over ``searches`` scatter-gathers of a ``num_shards`` pool.  The same
        seed always yields the same schedule (and, over the same request
        stream, the same fired-fault log).
        """
        if num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if searches < 1:
            raise ValueError(f"searches must be >= 1, got {searches}")
        rng = random.Random(seed)
        actions: List[FaultAction] = []
        slots = [(kind, index)
                 for kind, count in (("kill", kills), ("delay", delays),
                                     ("drop", drops))
                 for index in range(count)]
        for kind, _ in slots:
            actions.append(FaultAction(
                kind=kind,
                shard=rng.randrange(num_shards),
                at_search=rng.randrange(searches),
                delay_s=delay_s if kind == "delay" else 0.0,
            ))
        return cls(actions)

    def actions_for(self, search_index: int) -> List[FaultAction]:
        """The faults scheduled for ``search_index``, recording each into
        the log (call once per search — the pool does)."""
        scheduled = self._by_search.get(search_index, [])
        if scheduled:
            with self._lock:
                for action in scheduled:
                    self.log.append((search_index, action.shard, action.kind,
                                     action.delay_s))
        return scheduled

    @property
    def pending(self) -> int:
        """Scheduled actions not yet fired."""
        with self._lock:
            fired = len(self.log)
        return sum(len(v) for v in self._by_search.values()) - fired

    def signature(self) -> str:
        """Canonical serialisation of the fired-fault log.  Two runs of the
        same plan over the same request stream must compare equal."""
        with self._lock:
            return json.dumps(self.log, sort_keys=True)

    def describe(self) -> List[Dict[str, object]]:
        return [
            {"at_search": action.at_search, "shard": action.shard,
             "kind": action.kind, "delay_s": action.delay_s}
            for scheduled in sorted(self._by_search.items())
            for action in scheduled[1]
        ]
