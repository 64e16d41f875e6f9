"""Named model deployments and the registry that serves them side by side.

A :class:`Deployment` is everything one servable model needs, under a name:
the :class:`~repro.serving.Recommender` (model + embedding store + popularity
prior), its default :class:`~repro.serving.ServingConfig`, and provenance
(checkpoint path, version).  A :class:`ModelRegistry` holds many deployments
— several datasets or model variants serving from one process — and supports
atomic hot-swap: :meth:`ModelRegistry.reload` builds the replacement off to
the side and swaps the name over in one assignment, so requests already
resolved to the old deployment finish on the old model while new requests
see the new one.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from ..models.checkpoint import PathLike, load_checkpoint, load_model
from ..serving import (STRUCTURAL_FIELDS, EmbeddingStore, Recommender,
                       ServingConfig)


@dataclass
class Deployment:
    """One named (model, store, serving defaults) bundle.

    Deployments are immutable in spirit: a model update is a *new* deployment
    object (version bumped) registered under the same name, never an in-place
    mutation — that is what makes hot-swap safe for in-flight requests.
    """

    name: str
    recommender: Recommender
    config: ServingConfig = field(default_factory=ServingConfig)
    version: int = 1
    source: Optional[str] = None
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"deployment name must be a non-empty string, "
                             f"got {self.name!r}")
        for name in STRUCTURAL_FIELDS:
            built = getattr(self.recommender.config, name)
            asked = getattr(self.config, name)
            if asked != built:
                raise ValueError(
                    f"deployment {self.name!r}: config asks for "
                    f"{name}={asked!r} but its recommender was built with "
                    f"{name}={built!r}; structural fields are fixed when the "
                    f"Recommender is constructed")

    @property
    def model_name(self) -> str:
        return self.recommender.model.model_name

    @property
    def num_items(self) -> int:
        return self.recommender.num_items

    def close(self) -> None:
        """Release the worker pool held by this deployment's recommender.

        Idempotent, and the deployment stays servable (a later sharded
        request rebuilds its pool).  Called by
        :meth:`ModelRegistry.close_all` and the CLI's graceful shutdown.
        """
        self.recommender.close()

    def describe(self) -> Dict[str, Any]:
        """JSON-serialisable summary for listings and the stats endpoint.

        Includes the sequence-encoding engine actually in use and, when the
        compiled engine is active, its diagnostics (arena footprint, encode
        counters), plus the recommender's generation and how many times each
        of its memo entries was built.
        """
        summary: Dict[str, Any] = {
            "name": self.name,
            "version": self.version,
            "model": self.model_name,
            "num_items": self.num_items,
            "config": self.config.to_dict(),
            "engine": self.recommender.engine_stats(),
            "generation": self.recommender.generation_clock.value,
            "builds": self.recommender.build_counts(),
        }
        if self.source is not None:
            summary["source"] = self.source
        if self.metadata:
            summary["metadata"] = dict(self.metadata)
        return summary

    @classmethod
    def from_checkpoint(cls, name: str, path: PathLike,
                        config: Optional[ServingConfig] = None,
                        train_sequences: Optional[Dict[int, Any]] = None,
                        feature_table: Optional[np.ndarray] = None,
                        version: int = 1,
                        **recommender_kwargs: Any) -> "Deployment":
        """Build a deployment from a checkpoint saved by
        :func:`repro.models.checkpoint.save_checkpoint`.

        The checkpoint is read once; its feature table (when present) seeds
        both the rebuilt model and the cold-start :class:`EmbeddingStore`.
        """
        config = config if config is not None else ServingConfig()
        checkpoint = load_checkpoint(path)
        if feature_table is None:
            feature_table = checkpoint.feature_table
        model = load_model(checkpoint, feature_table=feature_table,
                           train_sequences=train_sequences)
        store = (EmbeddingStore(feature_table)
                 if feature_table is not None else None)
        recommender = Recommender(model, store=store,
                                  train_sequences=train_sequences,
                                  config=config, **recommender_kwargs)
        return cls(name=name, recommender=recommender, config=config,
                   version=version, source=str(path),
                   metadata=checkpoint.summary())


class ModelRegistry:
    """Thread-safe name → :class:`Deployment` registry with hot-swap reload.

    The first registered deployment becomes the default (served when a
    request names no deployment) unless a later ``register``/``retire`` call
    changes it.  All mutation happens under one lock; lookups hand out the
    deployment object itself, so a request that resolved its deployment
    before a swap keeps serving on that object for its whole lifetime.
    """

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._deployments: Dict[str, Deployment] = {}
        self._default: Optional[str] = None
        # Reloads serialise per name (never against serving): two concurrent
        # reloads of one name must not both read version N and publish two
        # distinct deployments that share identity (name, N+1).
        self._reload_locks: Dict[str, threading.Lock] = {}

    def _reload_lock(self, name: str) -> threading.Lock:
        with self._lock:
            return self._reload_locks.setdefault(name, threading.Lock())

    def __len__(self) -> int:
        with self._lock:
            return len(self._deployments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._deployments

    @property
    def default_name(self) -> Optional[str]:
        with self._lock:
            return self._default

    def register(self, deployment: Deployment, default: bool = False) -> Deployment:
        """Add a new deployment; rejects duplicate names (use :meth:`reload`
        or :meth:`replace` to swap an existing one)."""
        with self._lock:
            if deployment.name in self._deployments:
                raise ValueError(
                    f"deployment {deployment.name!r} already exists; use "
                    f"reload()/replace() to swap it"
                )
            self._deployments[deployment.name] = deployment
            if default or self._default is None:
                self._default = deployment.name
            return deployment

    def replace(self, deployment: Deployment) -> Deployment:
        """Atomically swap the deployment registered under the same name.

        Returns the *old* deployment (still fully functional — in-flight
        requests that resolved before the swap keep using it).
        """
        with self._lock:
            if deployment.name not in self._deployments:
                raise KeyError(f"no deployment named {deployment.name!r}")
            old = self._deployments[deployment.name]
            self._deployments[deployment.name] = deployment
            return old

    def get(self, name: Optional[str] = None) -> Deployment:
        """Look up a deployment; ``None`` resolves to the default."""
        with self._lock:
            if name is None:
                if self._default is None:
                    raise KeyError("the registry has no deployments")
                name = self._default
            try:
                return self._deployments[name]
            except KeyError:
                known = ", ".join(sorted(self._deployments)) or "<none>"
                raise KeyError(
                    f"unknown deployment {name!r} (registered: {known})"
                ) from None

    def list(self) -> List[Deployment]:
        """Every registered deployment, sorted by name."""
        with self._lock:
            return [self._deployments[name]
                    for name in sorted(self._deployments)]

    def retire(self, name: str) -> Deployment:
        """Remove a deployment from service and return it.

        If it was the default, another deployment (alphabetically first) is
        promoted; the registry may end up with no default when it empties.
        """
        with self._lock:
            if name not in self._deployments:
                raise KeyError(f"no deployment named {name!r}")
            deployment = self._deployments.pop(name)
            if self._default == name:
                self._default = min(self._deployments) if self._deployments else None
            return deployment

    def reload(self, name: str, checkpoint_path: Optional[PathLike] = None,
               config: Optional[ServingConfig] = None,
               **from_checkpoint_kwargs: Any) -> Deployment:
        """Hot-swap ``name`` with a fresh build from a checkpoint.

        The replacement is built *outside* the registry lock (checkpoint IO
        and model reconstruction can be slow), versioned one above the
        current deployment, then swapped in atomically.  Reloads of the same
        name serialise against each other so every published deployment gets
        a unique (name, version) identity; serving lookups are never blocked.
        ``checkpoint_path`` defaults to the deployment's recorded source;
        ``config`` defaults to the old deployment's config, so a pure model
        refresh changes nothing else.
        """
        with self._reload_lock(name):
            current = self.get(name)
            if checkpoint_path is None:
                checkpoint_path = current.source
            if checkpoint_path is None:
                raise ValueError(
                    f"deployment {name!r} has no recorded checkpoint source; "
                    f"pass checkpoint_path explicitly"
                )
            fresh = Deployment.from_checkpoint(
                name, checkpoint_path,
                config=config if config is not None else current.config,
                version=current.version + 1,
                **from_checkpoint_kwargs,
            )
            self.replace(fresh)
            # The retired deployment's shard pool would otherwise live until
            # garbage collection; in-flight requests that already resolved
            # to it transparently rebuild the pool if they still need it.
            current.close()
            return fresh

    def close_all(self) -> None:
        """Close every registered deployment's worker pools (e.g. at process
        shutdown).  Deployments stay registered and servable."""
        for deployment in self.list():
            deployment.close()

    def describe(self) -> List[Dict[str, Any]]:
        """JSON-serialisable summaries of every deployment (default first)."""
        with self._lock:
            default = self._default
        summaries = []
        for deployment in self.list():
            summary = deployment.describe()
            summary["default"] = deployment.name == default
            summaries.append(summary)
        summaries.sort(key=lambda entry: (not entry["default"], entry["name"]))
        return summaries
