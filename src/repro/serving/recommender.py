"""Batched top-K recommendation serving on top of a trained model.

The serving fast path exploits two structural facts from the paper:

* whitening is pre-computed (Sec. IV-E), so the candidate item matrix ``V``
  is frozen once training ends and can be cached across requests;
* the prediction layer is a plain inner product ``V s`` (Eqn. 1), so a batch
  of user representations can be scored against the *entire* catalogue with
  one matmul, followed by ``np.argpartition`` to extract the top K without a
  full sort.

The scoring runs outside the autodiff graph (:class:`repro.nn.no_grad`) in
float32 by default, which halves memory traffic relative to the float64
training substrate.  Warm-request *sequence encoding* additionally routes
through the graph-free compiled engine of :mod:`repro.infer` — bit-identical
to the graph path at equal dtype, without Tensor wrappers or per-op
allocation; model classes no plan matches fall back to the autodiff path.

Requests whose history contains no item the sequence encoder can use (empty
histories, ids outside the model's catalogue, or only items from an explicit
cold set) fall back to content-based scoring in the whitened text-embedding
space — the same mechanism that lets text-based models recommend cold items
in the paper's Table IV setting — and, with no usable items at all, to a
popularity prior estimated from the training sequences.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..data.dataloader import pad_sequences
from ..index import ItemIndex, build_index
from ..index.base import topk_best_first
from ..infer import InferenceEngine, UnsupportedModelError
from ..nn.functional import padded_catalogue_scores
from ..resilience.deadline import expired, remaining_s
from ..resilience.errors import DeadlineExceeded
from ..shard.scoring import ann_shard_topk
from .config import SERVING_BACKENDS, STRUCTURAL_FIELDS, ServingConfig
from .generations import GenerationClock, GenerationalCache
from .store import EmbeddingStore


@dataclass
class TopKResult:
    """Outcome of one batched :meth:`Recommender.topk` call.

    Attributes
    ----------
    items:
        ``(batch, k)`` recommended item ids, best first.
    scores:
        ``(batch, k)`` scores aligned with ``items``.
    cold:
        ``(batch,)`` boolean; True where the content/popularity fallback was
        used instead of the sequence encoder.
    engine:
        Which sequence-encoding engine served the warm rows (``"compiled"``
        or ``"graph"``).
    encode_ms:
        Wall-clock milliseconds the warm-row sequence encoding took for this
        call (0 when every row was cold).
    score_ms:
        Wall-clock milliseconds of candidate scoring (the catalogue matmul,
        ANN probes, or shard scatter) beyond the encode cost.
    merge_ms:
        Wall-clock milliseconds of top-K extraction / candidate filtering /
        result assembly.  Together with ``encode_ms`` these are the
        ``encode -> score -> merge`` stages of the request lifecycle
        (:mod:`repro.observability.tracing`); they are coarse block timers
        read at path boundaries, never per-item instrumentation.
    """

    items: np.ndarray
    scores: np.ndarray
    cold: np.ndarray
    engine: str = "graph"
    encode_ms: float = 0.0
    score_ms: float = 0.0
    merge_ms: float = 0.0
    #: True when the sharded retrieval was served by the resilience layer's
    #: in-process fallback (breaker open / retries exhausted) instead of the
    #: worker pool — results are still bit-identical by the parity contract
    degraded: bool = False
    #: shard scatter-gather retries absorbed by this call
    shard_retries: int = 0

    def __len__(self) -> int:
        return self.items.shape[0]


class _StageClock:
    """The stage stopwatch of one :meth:`Recommender.topk` call: the time
    since the previous lap is booked to the named stage, so the three stages
    partition the call and can never sum past its wall-clock."""

    def __init__(self) -> None:
        self.ms = {"encode": 0.0, "score": 0.0, "merge": 0.0}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.ms[stage] += (now - self._last) * 1000.0
        self._last = now


def _close_shard_client(key, value) -> None:
    """The memo's lapse hook: a lapsed shard client releases its pool."""
    if key == "shards":
        value.close()


def _mask(scores: np.ndarray, exclude: Sequence[Sequence[int]]) -> None:
    """Masking, not filtering: excluded ids keep their candidate slot but
    score ``-inf`` (in place, one exclude list per row)."""
    for row, masked in enumerate(exclude):
        scores[row, masked] = -np.inf


def _all_ids(scores: np.ndarray) -> np.ndarray:
    """The item ids aligned with a dense ``(batch, num_items + 1)`` block."""
    return np.broadcast_to(np.arange(scores.shape[1], dtype=np.int64),
                           scores.shape)


def full_sort_topk(scores: np.ndarray, k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Brute-force top-K via a full sort (the reference the fast path must match).

    Ties are broken towards the smaller item id, matching
    :meth:`Recommender.topk`.  Each row is lexsorted on ``(-score, id)`` on
    its own, so the temporaries are one row's, not the whole block's.
    """
    scores = np.asarray(scores)
    k = min(k, scores.shape[1])
    ids = np.arange(scores.shape[1])
    order = np.empty((scores.shape[0], k), dtype=np.intp)
    for row, values in enumerate(scores):
        order[row] = np.lexsort((ids, -values))[:k]
    return order, np.take_along_axis(scores, order, axis=1)


class Recommender:
    """Cache-backed, batched top-K serving wrapper around a trained model.

    Parameters
    ----------
    model:
        A trained :class:`repro.models.base.NextItemRecommender`.
    store:
        Optional :class:`EmbeddingStore` providing whitened text embeddings
        for the cold-start fallback (and for projecting new items).  It must
        hold the features ``model`` was built from: when its table has the
        model's padded shape, it adopts the model's fitted whitenings
        (:meth:`~repro.models.base.NextItemRecommender.fitted_whitenings`)
        instead of fitting them again.
    train_sequences:
        Optional per-user training sequences; used to estimate the popularity
        prior that serves requests with no usable history at all.
    cold_items:
        Optional set of item ids whose trained representations should not be
        trusted by the sequence encoder (e.g. ``split.cold_items`` for
        ID-based models).
    config:
        A :class:`~repro.serving.config.ServingConfig` bundling the serving
        defaults (k, backend, seen-item masking) and the structural choices
        (scoring dtype, catalogue codec, shard layout) the caches are built
        for.
    index_params:
        Extra constructor kwargs for :func:`repro.index.build_index` when an
        ANN backend builds its index (e.g. ``{"n_lists": 64, "nprobe": 8}``).
    """

    def __init__(self, model, store: Optional[EmbeddingStore] = None,
                 train_sequences: Optional[Dict[int, List[int]]] = None,
                 cold_items: Optional[Iterable[int]] = None,
                 index_params: Optional[Dict] = None,
                 config: Optional[ServingConfig] = None):
        config = config if config is not None else ServingConfig()
        self.config = config
        self.model = model
        self.store = store
        self.dtype = config.np_dtype
        self.index_params = dict(index_params or {})
        self.cold_items = frozenset(int(item) for item in cold_items) if cold_items else frozenset()
        self.num_items = model.num_items
        if store is not None and store.num_items < self.num_items:
            raise ValueError(
                f"store covers {store.num_items} items but the model serves "
                f"{self.num_items}; the cold-start fallback needs an embedding "
                f"for every catalogue item"
            )
        if store is not None:
            for (method, groups, eps), (transform, table) in (
                    model.fitted_whitenings().items()):
                if table.shape == store.feature_table.shape:
                    store.adopt(transform, method, groups, eps, table=table)
        #: everything derived from the model — item matrix, its cast, int8
        #: codes, compiled engine, ANN indexes, fallback table, shard client
        #: — is an entry of this one memo on the deployment's clock
        self._memo = GenerationalCache(GenerationClock(),
                                       on_lapse=_close_shard_client)
        #: the popularity prior, in scoring precision; it never depends on
        #: the model, so no generation lapses it
        self._popularity: Optional[np.ndarray] = None
        if train_sequences is not None:
            counts = np.zeros(self.num_items + 1, dtype=np.float64)
            for sequence in train_sequences.values():
                for item in sequence:
                    if 0 < item <= self.num_items:
                        counts[item] += 1.0
            total = counts.sum()
            self._popularity = (counts / total if total > 0
                                else counts).astype(self.dtype)

    # ------------------------------------------------------------------ #
    # The generational memo: everything derived from the model
    # ------------------------------------------------------------------ #
    @property
    def generation_clock(self) -> GenerationClock:
        """The deployment-wide clock every derived cache follows.

        Advancing it (equivalently, :meth:`refresh_item_matrix`) lapses
        every entry of the memo: the item matrix, its cast and int8 codes,
        the compiled plan, the ANN indexes, the fallback table and the shard
        client.
        """
        return self._memo.clock

    def build_counts(self) -> Dict[str, int]:
        """How many times each memo entry (``"matrix"``, ``"cast"``,
        ``"codes"``, ``"engine"``, ``"index:<backend>"``, ``"fallback"``,
        ``"shards"``) was built, across every generation."""
        return self._memo.build_counts()

    def refresh_item_matrix(self) -> None:
        """Drop the cached ``V`` and everything derived from it — call after
        fine-tuning the model.  One clock advance; the shard client is
        closed now rather than on the next request."""
        self.generation_clock.advance()
        self._memo.reconcile()

    def _native_matrix(self) -> np.ndarray:
        """The model-precision candidate matrix."""
        return self._memo.get_or_build("matrix",
                                       self.model.inference_item_matrix)

    def _cast_matrix(self) -> np.ndarray:
        native = self._native_matrix()
        return native if native.dtype == self.dtype else native.astype(self.dtype)

    def item_matrix(self) -> np.ndarray:
        """The frozen candidate matrix ``V`` in scoring precision.

        The derivation and the cast are memoised per
        :meth:`refresh_item_matrix` generation.
        """
        return self._memo.get_or_build("cast", self._cast_matrix)

    def _quantize(self):
        """Int8 codes + scales over the scoring cast — float32 whenever the
        int8 codec is configured (see
        :func:`repro.quant.codec.quantize_matrix`)."""
        from ..quant.codec import quantize_matrix

        return quantize_matrix(self.item_matrix())

    def _compile(self) -> Optional[InferenceEngine]:
        try:
            return InferenceEngine(self.model)
        except UnsupportedModelError:
            return None

    def engine(self) -> Optional[InferenceEngine]:
        """The compiled graph-free engine, or ``None`` on the graph path.

        Built lazily on first use; model classes without a compiled plan
        fall back to the graph path for the generation.
        """
        return self._memo.get_or_build("engine", self._compile)

    @property
    def engine_name(self) -> str:
        """``"compiled"`` or ``"graph"`` — the engine warm rows encode on."""
        return "compiled" if self.engine() is not None else "graph"

    def engine_stats(self) -> Dict[str, object]:
        """JSON-serialisable engine diagnostics (arena size, encode
        counters); minimal on the graph path.

        Never triggers compilation: a deployment listing reports
        ``compiled: False`` until the first warm request builds the plan.
        """
        engine = self._memo.get("engine", False)
        if engine is None:
            return {"engine": "graph", "fallback": "unsupported-model"}
        if engine is False:  # not built in this generation yet
            return {"engine": "compiled", "compiled": False}
        stats = engine.stats()
        stats["compiled"] = True
        return stats

    def _build_shard_client(self):
        from ..resilience import (CircuitBreaker, ResilientShardClient,
                                  RetryPolicy)
        from ..shard import LocalShardClient, ShardPool

        config = self.config
        matrix = self.item_matrix()
        codec = config.catalogue_codec
        # The local client (and the degradation fallback) reuses the
        # memoised quantization: deterministic codes mean the pool's sidecar
        # and the local client score identical int8 artefacts, so degraded
        # results keep the bit-identity contract codec included.
        quantized = (self._memo.get_or_build("codes", self._quantize)
                     if codec == "int8" else None)

        def local_client():
            return LocalShardClient(
                matrix, config.shards, index_params=self.index_params,
                codec=codec, quantized=quantized)

        if config.shards == 1 or config.shard_backend == "local":
            return local_client()
        return ResilientShardClient(
            ShardPool.from_matrix(matrix, config.shards,
                                  index_params=self.index_params, codec=codec),
            fallback_factory=local_client,
            retry=RetryPolicy(max_retries=1, base_backoff_ms=20.0, seed=0),
            breaker=CircuitBreaker())

    def shard_client(self):
        """The :class:`repro.shard.ShardClient` behind every retrieval cell
        other than the dense fp32 single-shard scan.

        Built lazily from the scoring-precision :meth:`item_matrix`: an
        in-process :class:`~repro.shard.LocalShardClient` whenever
        ``shards == 1`` or ``shard_backend == "local"`` (one shard never
        spawns a pool — the 1-shard int8 client *is* the in-process
        quantized scan), a spawned :class:`~repro.shard.ShardPool` holding
        the matrix via zero-copy memmap otherwise.  A clock advance closes
        and drops it, so the next request re-shards the new catalogue
        generation.

        A process pool comes wrapped in a
        :class:`~repro.resilience.ResilientShardClient`: worker crashes are
        retried once (idempotent by the merge contract), sustained failure
        trips a circuit breaker, and while the pool is refused the search
        degrades to a :class:`~repro.shard.LocalShardClient` over the same
        matrix — bit-identical results, ``degraded=True`` diagnostics.
        """
        return self._memo.get_or_build("shards", self._build_shard_client)

    def shard_stats(self) -> Optional[Dict[str, object]]:
        """Health counters of the shard client, or ``None`` without one.

        Never *builds* the client (unlike :meth:`shard_client`): a metrics
        scrape must observe the pool, not spawn worker processes.
        """
        client = self._memo.get("shards")
        if client is None:
            return None
        stats = getattr(client, "stats", None)
        return stats() if callable(stats) else None

    def close(self) -> None:
        """Shut down the shard worker pool, if one was built.  Idempotent;
        the recommender stays usable (a later sharded request rebuilds it)."""
        self._memo.discard("shards")

    def item_index(self, backend: str = "ivf") -> ItemIndex:
        """The ANN index over the candidate matrix for ``backend`` (cached).

        The index covers rows ``1..num_items`` of :meth:`item_matrix` (the
        padding row is excluded) under their item ids, so search results are
        directly item ids.  Like the item matrix itself it is built once per
        generation and reused across requests.
        """
        if backend not in SERVING_BACKENDS or backend == "exact":
            raise ValueError(f"no index backs the {backend!r} backend")

        def build() -> ItemIndex:
            index = build_index(backend, **self.index_params)
            index.build(self.item_matrix()[1:],
                        ids=np.arange(1, self.num_items + 1, dtype=np.int64))
            return index

        return self._memo.get_or_build(f"index:{backend}", build)

    def _cast_fallback_table(self) -> np.ndarray:
        table = self.store.whitened("zca", 1)
        return table[: self.num_items + 1].astype(self.dtype, copy=False)

    def _fallback_table(self) -> np.ndarray:
        """The whitened fallback table in scoring precision (cast once, not
        per cold request)."""
        return self._memo.get_or_build("fallback", self._cast_fallback_table)

    # ------------------------------------------------------------------ #
    # Request classification & encoding
    # ------------------------------------------------------------------ #
    def _clean(self, sequence: Sequence[int]) -> List[int]:
        """Valid catalogue ids of a request history, order preserved."""
        return [int(i) for i in sequence if 0 < int(i) <= self.num_items]

    def _servable(self, valid: Sequence[int]) -> List[int]:
        """History items the sequence encoder may condition on."""
        if not self.cold_items:
            return list(valid)
        return [item for item in valid if item not in self.cold_items]

    def _classify(self, sequences: Sequence[Sequence[int]]):
        """Split a request batch into histories / servable items / cold flags."""
        histories = [self._clean(sequence) for sequence in sequences]
        servable = [self._servable(valid) for valid in histories]
        cold = np.array([len(items) == 0 for items in servable], dtype=bool)
        return histories, servable, cold

    def _encode_warm(self, servable: Sequence[List[int]],
                     warm_rows: np.ndarray) -> np.ndarray:
        """User representations of the warm rows, in scoring precision.

        Histories are truncated and padded to the model's full window:
        position embeddings depend on the padded width, so serving must use
        the same width as training and evaluation for the representations to
        match.  The compiled plan and the autodiff-graph fallback (see
        :meth:`engine`) both encode in model precision.
        """
        window = self.model.max_seq_length
        item_ids, lengths = pad_sequences(
            [servable[row][-window:] for row in warm_rows], window)
        engine = self.engine()
        encode = (engine.encode_sequences if engine is not None
                  else self.model.encode_sequences)
        users = encode(item_ids, lengths,
                       item_matrix=self._native_matrix())
        return np.asarray(users).astype(self.dtype, copy=False)

    @staticmethod
    def _exclude_lists(histories: Sequence[List[int]], rows: Iterable[int],
                       exclude_seen: bool) -> List[List[int]]:
        """Per-row ids that are never recommendable: the padding item and,
        under ``exclude_seen``, the row's own history."""
        return [[0] + histories[row] if exclude_seen else [0] for row in rows]

    # ------------------------------------------------------------------ #
    # Scoring
    # ------------------------------------------------------------------ #
    def score(self, sequences: Sequence[Sequence[int]],
              exclude_seen: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        """Full-catalogue scores for a batch of request histories.

        Returns ``(scores, cold)`` where ``scores`` has shape
        ``(batch, num_items + 1)`` with the padding item (and, when
        ``exclude_seen``, every history item) masked to ``-inf``, and ``cold``
        flags the rows that used the fallback path.  This is the reference
        every exact :meth:`topk` cell must reproduce bit for bit.
        """
        histories, servable, cold = self._classify(sequences)
        scores = np.empty((len(histories), self.num_items + 1),
                          dtype=self.dtype)
        warm_rows = np.flatnonzero(~cold)
        if warm_rows.size:
            # The shared kernel pads tiny batches up to MIN_SCORING_ROWS so
            # scores never depend on batch composition (the contract the
            # dynamic micro-batcher's bit-identity guarantee rests on).
            scores[warm_rows] = padded_catalogue_scores(
                self._encode_warm(servable, warm_rows),
                self.item_matrix(), self.dtype)
        cold_rows = np.flatnonzero(cold)
        if cold_rows.size:
            scores[cold_rows] = self._fallback_scores(
                [histories[row] for row in cold_rows])
        _mask(scores, self._exclude_lists(histories, range(len(histories)),
                                          exclude_seen))
        return scores, cold

    def _fallback_scores(self, histories: Sequence[Sequence[int]]) -> np.ndarray:
        """Content-based (whitened text space) or popularity fallback scores."""
        batch = len(histories)
        scores = np.zeros((batch, self.num_items + 1), dtype=self.dtype)
        table: Optional[np.ndarray] = None
        if self.store is not None:
            table = self._fallback_table()
        for row, history in enumerate(histories):
            if table is not None and history:
                profile = table[list(history)].mean(axis=0)
                scores[row] = table @ profile
            elif self._popularity is not None:
                scores[row] = self._popularity
        return scores

    # ------------------------------------------------------------------ #
    # Top-K retrieval: one pipeline
    # ------------------------------------------------------------------ #
    def _candidates(self, backend: str, users: np.ndarray, k: int,
                    exclude: Sequence[Sequence[int]],
                    deadline: Optional[float] = None
                    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Ask the candidate source for ``(ids, scores, info)`` blocks.

        The one place that decides which code scores a request — from the
        structural config and the backend, nothing else:

        * one shard, ANN backend — the cached :meth:`item_index`, over-fetched
          and filtered by :func:`~repro.shard.scoring.ann_shard_topk` (rows
          the filter leaves short keep ``-1`` / ``-inf`` padding);
        * one shard, fp32, exact — the dense single GEMM :meth:`score`
          exposes, every catalogue row a candidate (masked, not filtered);
        * everything else (int8 codes, several shards) —
          :meth:`shard_client`, with the remaining deadline budget clamping
          the pool's per-search timeout; ``info`` then carries the
          resilience layer's ``degraded`` / ``retries`` for this search.
        """
        if self.config.shards == 1 and backend != "exact":
            ids, scores = ann_shard_topk(self.item_index(backend), users, k,
                                         exclude)
            return ids, scores, {}
        if self.config.shards == 1 and self.config.catalogue_codec == "fp32":
            scores = padded_catalogue_scores(users, self.item_matrix(),
                                             self.dtype)
            _mask(scores, exclude)
            return _all_ids(scores), scores, {}
        return self.shard_client().search_ex(
            users, k, exclude=exclude, backend=backend,
            timeout=remaining_s(deadline))

    def topk(self, sequences: Sequence[Sequence[int]], k: Optional[int] = None,
             *, config: Optional[ServingConfig] = None,
             deadline: Optional[float] = None) -> TopKResult:
        """Batched top-K recommendations for a batch of request histories.

        The serving policy comes from ``config`` (a
        :class:`~repro.serving.config.ServingConfig`), defaulting to the one
        chosen at construction; ``k`` is the first-class per-call override
        and composes with either.  The structural fields
        (:data:`~repro.serving.config.STRUCTURAL_FIELDS`) describe what this
        recommender's caches were built for and cannot change per call.

        Every request runs the same pipeline:

        1. **classify** each history as warm or cold;
        2. **encode** the warm rows once (compiled plan or graph);
        3. ask the **candidate source** (:meth:`_candidates`) for the warm
           rows' candidates — exact sources mask the padding item and (under
           ``exclude_seen``) the history to ``-inf`` but keep them as
           candidates, ANN sources over-fetch by the history length and
           drop them;
        4. **re-run** the ANN rows whose filtered candidates came up short
           of ``k`` through the exact source, reusing the vectors encoded in
           step 2;
        5. score the **cold** rows in the fallback space
           (:meth:`_fallback_scores`), masked the same way;
        6. **assemble**: every candidate block goes through
           :func:`repro.index.base.topk_best_first`, the one ``(-score,
           smaller id)`` total order — ``np.argpartition`` extraction in
           O(width) that agrees with :func:`full_sort_topk` even at
           duplicate-score selection boundaries — so exact results carry the
           same ids and score bits for every codec, shard count and shard
           backend, independent of batch composition (see
           :func:`repro.nn.functional.pad_scoring_rows`).

        ``deadline`` (an absolute :func:`time.monotonic` timestamp, see
        :mod:`repro.resilience.deadline`) bounds the call: it is checked on
        entry and again after encode, and the remaining budget clamps the
        shard pool's per-search timeout, so a request whose caller has
        already given up never consumes catalogue-scan compute.  An exceeded
        deadline raises :class:`~repro.resilience.DeadlineExceeded`.
        """
        if expired(deadline):
            raise DeadlineExceeded("deadline expired before scoring began")
        config = (config if config is not None
                  else self.config).with_overrides(k=k)
        for name in STRUCTURAL_FIELDS:
            built, asked = getattr(self.config, name), getattr(config, name)
            if asked != built:
                raise ValueError(
                    f"per-call {name} overrides are not supported: this "
                    f"recommender was built with {name}={built!r}, the "
                    f"config asks for {asked!r}; build another Recommender "
                    f"instead")

        clock = _StageClock()
        histories, servable, cold = self._classify(sequences)
        k = min(config.k, self.num_items)
        items = np.full((len(histories), k), -1, dtype=np.int64)
        scores = np.full((len(histories), k), -np.inf, dtype=self.dtype)
        infos: List[Dict[str, Any]] = []

        def place(rows, candidate_ids, candidate_scores):
            clock.lap("score")
            best_ids, best_scores = topk_best_first(candidate_ids,
                                                    candidate_scores, k)
            items[rows, :best_ids.shape[1]] = best_ids
            scores[rows, :best_ids.shape[1]] = best_scores
            clock.lap("merge")

        warm_rows = np.flatnonzero(~cold)
        if warm_rows.size:
            clock.lap("score")
            users = self._encode_warm(servable, warm_rows)
            clock.lap("encode")
            if expired(deadline):
                raise DeadlineExceeded(
                    "deadline expired before the catalogue search")
            exclude = self._exclude_lists(histories, warm_rows,
                                          config.exclude_seen)
            found_ids, found_scores, info = self._candidates(
                config.backend, users, k, exclude, deadline)
            infos.append(info)
            place(warm_rows, found_ids, found_scores)
            # Only filtering (ANN) sources can leave a row short of k: masked
            # ids keep their slot.  Short rows re-run through the exact
            # source from the vectors already encoded.
            short = np.flatnonzero(items[warm_rows, -1] < 0)
            if short.size:
                found_ids, found_scores, info = self._candidates(
                    "exact", users[short], k, [exclude[i] for i in short],
                    deadline=deadline)
                infos.append(info)
                place(warm_rows[short], found_ids, found_scores)

        cold_rows = np.flatnonzero(cold)
        if cold_rows.size:
            fallback = self._fallback_scores(
                [histories[row] for row in cold_rows])
            _mask(fallback, self._exclude_lists(histories, cold_rows,
                                                config.exclude_seen))
            place(cold_rows, _all_ids(fallback), fallback)

        return TopKResult(
            items=items, scores=scores, cold=cold,
            engine=self.engine_name,
            encode_ms=round(clock.ms["encode"], 3),
            score_ms=round(clock.ms["score"], 3),
            merge_ms=round(clock.ms["merge"], 3),
            degraded=any(info.get("degraded", False) for info in infos),
            shard_retries=sum(info.get("retries", 0) for info in infos))
