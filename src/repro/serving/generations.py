"""The single generation-stamp mechanism behind every serving-side cache.

Serving keeps several layers of state *derived* from a deployment's model
and catalogue: the inference item matrix and its scoring cast
(``_ItemMatrixCache``), the compiled inference plan (``_EngineSlot``),
per-backend ANN indexes, whitened fallback tables, the
popularity cast, the shard pool layout, and the
:class:`~repro.serving.store.EmbeddingStore`'s whitened tables and index
memos.  Historically each of those carried its own invalidation scheme — an
integer ``generation`` on the matrix cache, an explicit ``reset()`` on the
engine slot, content-hash ``index_cache_key`` memos on the store — three
parallel mechanisms that every hot-swap had to tickle in the right order.

This module replaces them with one primitive:

* :class:`GenerationClock` — a monotonically increasing stamp owned by the
  thing the caches are derived *from* (a model's catalogue, a store's
  feature table).  Publishing a model update advances the clock exactly
  once; nothing else is required.
* :class:`GenerationFollower` — the consumer side: remembers the last
  generation it reconciled against and reports (once per advance) that its
  derived state is stale.
* :class:`GenerationalCache` — a key → value memo that empties itself the
  first time it is touched after the clock advanced.  The keys keep their
  existing identity semantics (e.g. the store's nested whitening/index
  spec keys); the *lifetime* is what the clock governs.

The contract, relied on by :meth:`repro.stream.publish.Publisher`:
advancing a deployment's clock invalidates, on next use, every cache
derived from that deployment's model — item-matrix cast, compiled plan,
ANN indexes, fallback tables, shard layout — with no per-cache calls and no
ordering hazards.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, Hashable, Optional

__all__ = [
    "GenerationClock",
    "GenerationFollower",
    "GenerationalCache",
]


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


class GenerationFollower:
    """Tracks the last generation a consumer reconciled its state against.

    ``catch_up()`` returns ``True`` exactly once per clock advance (per
    follower), which is the consumer's cue to drop whatever derived state it
    owns.  Multiple followers of one clock reconcile independently.
    """

    __slots__ = ("clock", "_seen", "_lock")

    def __init__(self, clock: GenerationClock):
        self.clock = clock
        self._seen = clock.value
        self._lock = threading.Lock()

    @property
    def generation(self) -> int:
        """The generation this follower last reconciled against."""
        return self._seen

    def out_of_date(self) -> bool:
        return self._seen != self.clock.value

    def catch_up(self) -> bool:
        """Mark the current generation as seen.

        Returns ``True`` when the clock advanced since the last call — the
        caller must then invalidate its derived state.  Thread-safe: under a
        race, exactly one caller observes ``True`` per advance.
        """
        current = self.clock.value
        with self._lock:
            if self._seen == current:
                return False
            self._seen = current
            return True


class GenerationalCache:
    """A key → value memo whose entries live for exactly one generation.

    Keys keep whatever identity semantics the caller already uses (backend
    names, nested whitening/index spec tuples); the clock governs lifetime.
    The cache self-reconciles: the first access after an ``advance()`` drops
    every stale entry, so callers never issue explicit ``clear()`` calls on
    a swap.
    """

    def __init__(self, clock: GenerationClock):
        self.clock = clock
        self._entries: Dict[Hashable, Any] = {}
        self._built_generation = clock.value
        self._lock = threading.Lock()

    def _reconcile_locked(self) -> None:
        current = self.clock.value
        if self._built_generation != current:
            self._built_generation = current
            self._entries.clear()

    def get_or_build(self, key: Hashable,
                     builder: Callable[[], Any]) -> Any:
        """The cached value for ``key`` in the current generation.

        ``builder`` runs outside the cache lock (index builds and whitening
        fits are slow); under a race the first stored value wins so every
        caller of one generation sees the same object.
        """
        with self._lock:
            self._reconcile_locked()
            if key in self._entries:
                return self._entries[key]
            generation = self._built_generation
        value = builder()
        with self._lock:
            self._reconcile_locked()
            if self._built_generation != generation:
                # The clock advanced mid-build: the value is stale, hand it
                # to the caller (their generation) but do not memoise it.
                return value
            return self._entries.setdefault(key, value)

    def get(self, key: Hashable, default: Any = None) -> Any:
        with self._lock:
            self._reconcile_locked()
            return self._entries.get(key, default)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            self._reconcile_locked()
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            self._reconcile_locked()
            return len(self._entries)

    def values(self) -> list:
        """The live entries of the current generation (a snapshot list)."""
        with self._lock:
            self._reconcile_locked()
            return list(self._entries.values())

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
