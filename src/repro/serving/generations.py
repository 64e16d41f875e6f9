"""The single generation-stamp mechanism behind every serving-side cache.

Serving keeps state *derived* from a deployment's model and catalogue: the
inference item matrix and its scoring cast, the int8 codes, the compiled
inference plan, per-backend ANN indexes, the whitened fallback table and the
shard client.  All of it lives in :class:`GenerationalCache` entries, so one
mechanism governs its lifetime (the
:class:`~repro.serving.store.EmbeddingStore` memoises its fitted transforms
and whitened tables in one too, for its single-flight builds; its feature
table never changes, so its clock never advances):

* :class:`GenerationClock` — a monotonically increasing stamp owned by the
  thing the caches are derived *from* (a deployment's model).  Publishing
  a model update advances the clock exactly once; nothing else is
  required.
* :class:`GenerationalCache` — a key → value memo whose entries lapse
  together the first time it is touched after the clock advanced.  Builds
  are single-flight per key, counted per key, and a build that straddles
  an advance is handed to its caller but never memoised.

The contract, relied on by :meth:`repro.stream.publish.Publisher`:
advancing a deployment's clock invalidates, on next use, every cache
derived from that deployment's model — item matrix and its cast, int8
codes, compiled plan, ANN indexes, fallback table, shard client — with no
per-cache calls and no ordering hazards.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, List, Optional, Tuple

__all__ = [
    "GenerationClock",
    "GenerationalCache",
]

_MISSING = object()


class GenerationClock:
    """A thread-safe monotonic stamp shared by every cache of one source.

    ``advance()`` is the *only* mutation; readers compare :attr:`value`
    against the generation they last built for.  Instances are cheap and
    never block readers (reading an int is atomic in CPython; the lock only
    serialises concurrent advances).
    """

    __slots__ = ("_value", "_lock")

    def __init__(self, start: int = 0):
        self._value = int(start)
        self._lock = threading.Lock()

    @property
    def value(self) -> int:
        """The current generation."""
        return self._value

    def advance(self) -> int:
        """Start a new generation; returns the new stamp."""
        with self._lock:
            self._value += 1
            return self._value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GenerationClock(value={self._value})"


class GenerationalCache:
    """A key → value memo whose entries live for exactly one generation.

    Keys keep whatever identity semantics the caller already uses (entry
    names, nested whitening/index spec tuples); the clock governs lifetime.
    The cache self-reconciles: the first access after an ``advance()`` drops
    every stale entry, so callers never issue explicit ``clear()`` calls on
    a swap.

    ``on_lapse(key, value)``, when given, is called for every entry that
    leaves the memo (a lapsed generation or :meth:`discard`), outside the
    cache lock — the place to close a resource an entry holds.
    """

    def __init__(self, clock: GenerationClock,
                 on_lapse: Optional[Callable[[Hashable, Any], None]] = None):
        self.clock = clock
        self._on_lapse = on_lapse
        self._entries: Dict[Hashable, Any] = {}
        self._generation = clock.value
        #: key → event of the build in flight for it this generation
        self._building: Dict[Hashable, threading.Event] = {}
        self._builds: Dict[Hashable, int] = {}
        self._lock = threading.Lock()

    def _reconcile_locked(self) -> List[Tuple[Hashable, Any]]:
        """Start the clock's current generation; returns the lapsed
        entries for :meth:`_release` once the lock is dropped."""
        current = self.clock.value
        if self._generation == current:
            return []
        lapsed = list(self._entries.items())
        # Entries first, stamp second: a lock-free reader that sees the new
        # stamp can only see the new generation's entries.
        self._entries = {}
        self._building = {}
        self._generation = current
        return lapsed

    def _release(self, lapsed: List[Tuple[Hashable, Any]]) -> None:
        if self._on_lapse is not None:
            for key, value in lapsed:
                self._on_lapse(key, value)

    def get_or_build(self, key: Hashable,
                     builder: Callable[[], Any]) -> Any:
        """The cached value for ``key`` in the current generation.

        A hit whose stamp matches the clock takes no lock.  A miss builds
        single-flight: one caller runs ``builder`` (outside the cache lock,
        so other keys proceed), later callers of the same key wait for its
        result.  A build that straddles an advance is returned to its
        caller but not memoised; callers waiting on it then build for the
        new generation.
        """
        if self._generation == self.clock.value:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                return value
        while True:
            with self._lock:
                lapsed = self._reconcile_locked()
                value = self._entries.get(key, _MISSING)
                pending = self._building.get(key)
                owner = value is _MISSING and pending is None
                if owner:
                    pending = self._building[key] = threading.Event()
                    generation = self._generation
                    self._builds[key] = self._builds.get(key, 0) + 1
            self._release(lapsed)
            if value is not _MISSING:
                return value
            if owner:
                break
            pending.wait()
        value = _MISSING
        try:
            value = builder()
        finally:
            with self._lock:
                lapsed = self._reconcile_locked()
                if value is not _MISSING and self._generation == generation:
                    self._entries[key] = value
                if self._building.get(key) is pending:
                    del self._building[key]
                pending.set()
            self._release(lapsed)
        return value

    def _read(self, read: Callable[[Dict[Hashable, Any]], Any]) -> Any:
        """``read(entries)`` of the current generation, under the lock."""
        with self._lock:
            lapsed = self._reconcile_locked()
            result = read(self._entries)
        self._release(lapsed)
        return result

    def get(self, key: Hashable, default: Any = None) -> Any:
        """The current generation's entry for ``key``; never builds."""
        return self._read(lambda entries: entries.get(key, default))

    def discard(self, key: Hashable) -> None:
        """Drop ``key``'s entry now (``on_lapse`` sees it); idempotent."""
        value = self._read(lambda entries: entries.pop(key, _MISSING))
        if value is not _MISSING:
            self._release([(key, value)])

    def reconcile(self) -> None:
        """Lapse a previous generation's entries now rather than on the
        next access."""
        self._read(len)

    def build_counts(self) -> Dict[Hashable, int]:
        """How many times each key was built, across every generation."""
        with self._lock:
            return dict(self._builds)

    def __len__(self) -> int:
        return self._read(len)

    def values(self) -> list:
        """The live entries of the current generation (a snapshot list)."""
        return self._read(lambda entries: list(entries.values()))
