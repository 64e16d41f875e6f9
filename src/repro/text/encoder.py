"""Synthetic "pre-trained" text encoder with controllable anisotropy.

The paper extracts a 768-d [CLS] embedding for every item from a frozen
BERT-base and observes two properties (Sec. III-B):

1. *Anisotropy / representation degeneration*: the average pairwise cosine
   similarity between item embeddings is ≈ 0.8 and the singular value
   spectrum decays rapidly (one dominant direction).
2. *Semantic manifold*: items with similar texts (same category, shared
   keywords, same brand) are close to each other in the embedding space.

BERT is unavailable offline, so this module reproduces both properties
analytically:

*  Each item text is tokenised and hashed into a sparse bag-of-token vector.
*  The bag-of-token vector is projected by a fixed random matrix into a
   ``semantic_dim``-dimensional *semantic code* — items sharing tokens share
   code mass, giving the manifold property.
*  The final embedding is ``bias_direction * common_strength +
   U diag(spectrum) code`` where ``spectrum`` decays as a power law and the
   common bias direction dominates.  The common direction produces the high
   average cosine similarity; the decaying spectrum produces the fast-decaying
   singular values of Fig. 2.

The encoder is deterministic given its seed, so "pre-computing" embeddings
(as the paper does) is just calling :meth:`PretrainedTextEncoder.encode`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from .tokenizer import hash_token, tokenize


@dataclass
class EncoderConfig:
    """Configuration of the synthetic pre-trained encoder.

    Attributes
    ----------
    embedding_dim:
        Output dimensionality (the paper uses BERT's 768; the scaled-down
        presets default to 64 which preserves all qualitative behaviour).
    hash_dim:
        Number of hashing buckets for bag-of-token features.
    semantic_dim:
        Dimensionality of the intermediate semantic code.
    common_strength:
        Magnitude of the shared bias direction.  Larger values increase the
        average pairwise cosine similarity (anisotropy).
    spectrum_decay:
        Exponent of the power-law decay of the singular value spectrum applied
        to the semantic directions.
    noise_scale:
        Standard deviation of per-item idiosyncratic noise, which prevents
        exact duplicates from collapsing onto a single point.
    seed:
        Seed for the fixed random projections (the "pre-training").
    """

    embedding_dim: int = 64
    hash_dim: int = 512
    semantic_dim: int = 48
    common_strength: float = 0.85
    spectrum_decay: float = 1.6
    noise_scale: float = 0.01
    seed: int = 0


class PretrainedTextEncoder:
    """Deterministic, frozen text encoder producing anisotropic embeddings."""

    def __init__(self, config: Optional[EncoderConfig] = None):
        self.config = config or EncoderConfig()
        cfg = self.config
        if cfg.semantic_dim > cfg.embedding_dim:
            raise ValueError("semantic_dim must not exceed embedding_dim")
        rng = np.random.default_rng(cfg.seed)

        # Fixed random projection from hashed bag-of-tokens to semantic codes.
        self._token_projection = rng.standard_normal((cfg.hash_dim, cfg.semantic_dim))
        self._token_projection /= np.sqrt(cfg.hash_dim)

        # Orthonormal basis for the output space; the first direction is the
        # dominant "common" direction responsible for the anisotropy.
        random_matrix = rng.standard_normal((cfg.embedding_dim, cfg.embedding_dim))
        basis, _ = np.linalg.qr(random_matrix)
        self._common_direction = basis[:, 0]
        self._semantic_basis = basis[:, 1: cfg.semantic_dim + 1]

        # Power-law singular value spectrum for the semantic directions.
        ranks = np.arange(1, cfg.semantic_dim + 1, dtype=np.float64)
        self._spectrum = ranks ** (-cfg.spectrum_decay)

        self._noise_rng_seed = cfg.seed + 1

    # ------------------------------------------------------------------ #
    # Feature extraction
    # ------------------------------------------------------------------ #
    def _bag_of_tokens(self, text: str, buckets: Dict[str, int]) -> np.ndarray:
        """Hash the tokens of ``text`` into a normalised count vector.

        ``buckets`` memoises the bucket of every token hashed so far, so a
        catalogue hashes each distinct token once.
        """
        counts = np.zeros(self.config.hash_dim)
        for token in tokenize(text):
            bucket = buckets.get(token)
            if bucket is None:
                bucket = buckets[token] = hash_token(
                    token, self.config.hash_dim, seed=self.config.seed)
            counts[bucket] += 1.0
        norm = np.linalg.norm(counts)
        if norm > 0:
            counts /= norm
        return counts

    def semantic_codes(self, texts: Sequence[str]) -> np.ndarray:
        """Return the intermediate semantic codes (before anisotropic mixing)."""
        buckets: Dict[str, int] = {}
        bags = np.stack([self._bag_of_tokens(text, buckets) for text in texts])
        codes = bags @ self._token_projection
        # Normalise code energy so the spectrum fully controls the geometry.
        norms = np.linalg.norm(codes, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        return codes / norms

    def encode(self, texts: Sequence[str]) -> np.ndarray:
        """Encode ``texts`` into a ``(len(texts), embedding_dim)`` matrix.

        The output plays the role of the frozen BERT [CLS] embedding matrix X
        in the paper (Eqn. 3 operates on its transpose).
        """
        cfg = self.config
        codes = self.semantic_codes(texts)
        semantic_part = (codes * self._spectrum) @ self._semantic_basis.T
        common_part = cfg.common_strength * self._common_direction

        noise_rng = np.random.default_rng(self._noise_rng_seed)
        noise = noise_rng.standard_normal((len(texts), cfg.embedding_dim)) * cfg.noise_scale

        return common_part[None, :] + semantic_part + noise

    # ------------------------------------------------------------------ #
    # Convenience diagnostics (used by tests and the Fig. 2 benchmark)
    # ------------------------------------------------------------------ #
    @staticmethod
    def mean_pairwise_cosine(embeddings: np.ndarray, max_pairs: int = 200_000,
                             seed: int = 0) -> float:
        """Average cosine similarity over (sampled) distinct item pairs."""
        from ..whitening.metrics import mean_pairwise_cosine

        return mean_pairwise_cosine(embeddings, max_pairs=max_pairs, seed=seed)
