"""Atomic publication of incrementally trained models into serving.

:class:`Publisher` is the third stage of the online loop (ingest → train →
**publish**): it takes the :class:`IncrementalTrainer`'s detached snapshot,
writes a versioned checkpoint, and hot-swaps the serving deployment through
:meth:`ModelRegistry.reload` — building the replacement *outside* any
serving lock and swapping it in one atomic ``replace()``, so in-flight
requests finish on the old deployment and new ones resolve to the new.

Cache coherence rides on the single generation-stamp mechanism of
:mod:`repro.serving.generations`: a freshly built deployment starts a new
clock lineage (item matrix, compiled plan, ANN indexes and shard layout all
build against the new model), and the in-place variant
(:meth:`Publisher.refresh`) is exactly one clock advance — every derived
cache of the deployment lapses together, with no per-cache invalidation
calls and no ordering hazards.  After the swap the publisher *warms* the
fresh deployment (derives the item matrix, recompiles the inference plan,
re-shards the catalogue when sharding is configured) so the first real
request after a publish does not pay the cold path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Union

from ..models.checkpoint import Checkpoint, save_checkpoint
from .trainer import IncrementalTrainer

PathLike = Union[str, Path]

__all__ = ["PublishReport", "Publisher"]


@dataclass
class PublishReport:
    """Timings and identity of one publish cycle."""

    name: str
    version: int
    checkpoint_path: str
    save_ms: float
    reload_ms: float
    warm_ms: float

    @property
    def total_ms(self) -> float:
        return self.save_ms + self.reload_ms + self.warm_ms

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "version": self.version,
            "checkpoint_path": self.checkpoint_path,
            "save_ms": round(self.save_ms, 3),
            "reload_ms": round(self.reload_ms, 3),
            "warm_ms": round(self.warm_ms, 3),
            "total_ms": round(self.total_ms, 3),
        }


class Publisher:
    """Checkpoint + hot-swap + warm: one call per publish cycle.

    Parameters
    ----------
    registry:
        The :class:`repro.service.ModelRegistry` to swap deployments in.
    directory:
        Where versioned checkpoints are written
        (``<name>-v<version>.npz``).
    service:
        Optional :class:`repro.service.RecommenderService` wrapping the
        registry; when given, reloads go through the service so the retired
        version's micro-batcher is drained and closed.
    metrics:
        Optional :class:`repro.observability.MetricsRegistry`; exports
        ``repro_stream_publishes_total``, ``repro_stream_publish_ms`` and
        ``repro_stream_published_version``.
    warm:
        Derive the item matrix / compile the plan / re-shard right after
        the swap (default).  Disable for tests that probe the cold path.
    """

    def __init__(self, registry, directory: PathLike, *,
                 service=None, metrics=None, warm: bool = True):
        self.registry = registry
        self.service = service
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.warm = bool(warm)
        self.publishes = 0
        self.metrics = metrics
        self._counter = None
        self._histogram = None
        self._gauge_version = None
        if metrics is not None:
            self._counter = metrics.counter(
                "repro_stream_publishes_total",
                "Completed publish cycles (checkpoint + hot-swap + warm).",
                labelnames=("deployment",))
            self._histogram = metrics.histogram(
                "repro_stream_publish_ms",
                "Wall-clock of one publish cycle, milliseconds.",
                labelnames=("deployment",))
            self._gauge_version = metrics.gauge(
                "repro_stream_published_version",
                "Deployment version currently live after the last publish.",
                labelnames=("deployment",))

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #
    def publish(self, source: Union[IncrementalTrainer, Checkpoint],
                name: str, config=None, train_sequences=None,
                **from_checkpoint_kwargs) -> PublishReport:
        """Checkpoint ``source`` and hot-swap deployment ``name`` to it.

        ``source`` is an :class:`IncrementalTrainer` (its detached
        :meth:`~IncrementalTrainer.snapshot` is taken here) or an
        already-built :class:`Checkpoint`.  A first publish registers the
        deployment; later ones reload it (version + 1), draining the
        retired version's batcher when a service is attached.  The write is
        guarded: the checkpoint must share no memory with the live
        trainer's parameters (see :meth:`Checkpoint.assert_detached_from`).
        """
        trainer = source if isinstance(source, IncrementalTrainer) else None
        checkpoint = trainer.snapshot() if trainer is not None else source
        if not isinstance(checkpoint, Checkpoint):
            raise TypeError(
                f"publish() takes an IncrementalTrainer or Checkpoint, "
                f"got {type(source).__name__}"
            )

        current_version = 0
        if name in self.registry:
            current_version = self.registry.get(name).version
        version = current_version + 1
        path = self.directory / f"{name}-v{version:06d}.npz"

        started = time.perf_counter()
        save_checkpoint(
            checkpoint, path,
            detached_from=trainer.model if trainer is not None else None)
        saved = time.perf_counter()

        if current_version:
            reloader = self.service if self.service is not None else self.registry
            fresh = reloader.reload(name, checkpoint_path=path, config=config,
                                    train_sequences=train_sequences,
                                    **from_checkpoint_kwargs)
        else:
            from ..service import Deployment

            fresh = Deployment.from_checkpoint(
                name, path, config=config, train_sequences=train_sequences,
                **from_checkpoint_kwargs)
            if self.service is not None:
                self.service.deploy(fresh)
            else:
                self.registry.register(fresh)
        swapped = time.perf_counter()

        if self.warm:
            self.warm_deployment(fresh)
        warmed = time.perf_counter()

        self.publishes += 1
        report = PublishReport(
            name=name, version=fresh.version, checkpoint_path=str(path),
            save_ms=(saved - started) * 1000.0,
            reload_ms=(swapped - saved) * 1000.0,
            warm_ms=(warmed - swapped) * 1000.0,
        )
        if self._counter is not None:
            self._counter.labels(deployment=name).inc()
            self._histogram.labels(deployment=name).observe(report.total_ms)
            self._gauge_version.labels(deployment=name).set(fresh.version)
        return report

    @staticmethod
    def warm_deployment(deployment) -> None:
        """Pay the cold path before traffic does: derive the scoring-dtype
        item matrix, compile the inference plan (when the model supports
        one) and spin up the shard layout for the new catalogue
        generation."""
        recommender = deployment.recommender
        recommender.item_matrix()
        recommender.engine()
        if recommender.config.shards > 1:
            recommender.shard_client()

    def refresh(self, name: str) -> int:
        """In-place invalidation for a deployment fine-tuned without a swap.

        One :class:`~repro.serving.generations.GenerationClock` advance:
        the item matrix and its scoring cast, the compiled plan, every ANN
        index, fallback table and the shard layout of the named deployment
        lapse together and rebuild lazily.  Returns the new generation
        stamp.
        """
        deployment = self.registry.get(name)
        deployment.recommender.refresh_item_matrix()
        return deployment.recommender.generation_clock.value
