"""Synthetic dataset generators standing in for Amazon Arts/Toys/Tools and Food.

The paper evaluates on three Amazon review categories (Arts, Toys, Tools) and
the Food.com recipe dataset (Table II).  These datasets are not
redistributable and unavailable offline, so this module generates synthetic
datasets with the same *structure*:

*  a catalogue with a category/brand taxonomy and textual descriptions
   (:mod:`repro.text.corpus`);
*  users with latent category preferences;
*  chronological interaction sequences generated by a category-level Markov
   chain (giving the sequential signal that SASRec-style models exploit),
   modulated by item popularity (Zipf) and exploration noise;
*  per-dataset scale knobs mirroring Table II statistics.

The generator is fully deterministic given its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..text.corpus import ItemRecord, category_index, generate_catalogue
from .interactions import InteractionTable


@dataclass
class DatasetConfig:
    """Scale and behaviour knobs of a synthetic dataset.

    Attributes
    ----------
    name:
        Dataset name ("arts", "toys", "tools", "food").
    num_users / num_items:
        Catalogue scale.
    avg_sequence_length:
        Target average user sequence length ("Avg. n" in Table II).
    k_core:
        Iterative user/item core filtering threshold applied after generation.
    coherence:
        Probability of staying within the current category chain when
        sampling the next item (higher → stronger sequential signal).
    popularity_weight:
        Interpolation between uniform (0) and popularity-proportional (1)
        item sampling inside a category.
    style_strength:
        Multiplicative boost applied to items whose style tokens match the
        user's preferred styles.  This is what makes the next item
        *text-predictable*: a model that understands item texts can infer the
        user's style from the history and rank style-matching items higher,
        even for items it never saw during training.
    title_words:
        Words per item title; Food uses short recipe-name-like titles.
    seed:
        Master seed.
    """

    name: str = "arts"
    num_users: int = 2000
    num_items: int = 800
    avg_sequence_length: float = 7.7
    min_sequence_length: int = 5
    max_sequence_length: int = 40
    k_core: int = 3
    coherence: float = 0.75
    category_stickiness: float = 0.5
    popularity_weight: float = 0.2
    zipf_exponent: float = 0.4
    style_strength: float = 4.0
    num_preferred_categories: int = 3
    num_preferred_styles: int = 3
    title_words: Optional[int] = None
    seed: int = 42


@dataclass
class SyntheticDataset:
    """A generated dataset: catalogue + interactions + config."""

    config: DatasetConfig
    items: List[ItemRecord]
    interactions: InteractionTable
    category_of_item: Dict[int, str] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def num_items(self) -> int:
        return self.interactions.num_items

    def item_texts(self) -> List[str]:
        """Concatenated title/category/brand text per item (catalogue order)."""
        return [record.text() for record in self.items]


# Scaled-down presets.  "paper" scale mirrors Table II row counts; "small" is
# the default used by tests and benchmarks so everything runs in seconds.
_PRESETS: Dict[str, Dict[str, Dict[str, float]]] = {
    "arts": {
        "small": {"num_users": 1500, "num_items": 1100, "avg_sequence_length": 7.7},
        "tiny": {"num_users": 550, "num_items": 400, "avg_sequence_length": 7.0},
        "paper": {"num_users": 45486, "num_items": 21019, "avg_sequence_length": 7.69},
    },
    "toys": {
        "small": {"num_users": 1700, "num_items": 1250, "avg_sequence_length": 7.2},
        "tiny": {"num_users": 580, "num_items": 430, "avg_sequence_length": 6.8},
        "paper": {"num_users": 85694, "num_items": 40483, "avg_sequence_length": 7.22},
    },
    "tools": {
        "small": {"num_users": 1750, "num_items": 1200, "avg_sequence_length": 6.9},
        "tiny": {"num_users": 580, "num_items": 420, "avg_sequence_length": 6.5},
        "paper": {"num_users": 90599, "num_items": 36244, "avg_sequence_length": 6.88},
    },
    "food": {
        "small": {"num_users": 1100, "num_items": 700, "avg_sequence_length": 9.5},
        "tiny": {"num_users": 430, "num_items": 280, "avg_sequence_length": 9.0},
        "paper": {"num_users": 28988, "num_items": 12910, "avg_sequence_length": 9.47},
    },
}

# The Food dataset has much weaker sequential coherence (recipes) and very
# short texts, which is why BM3 is competitive and ZCA's edge shrinks there.
_DOMAIN_BEHAVIOUR = {
    "arts": {"coherence": 0.78, "title_words": 9, "style_strength": 3.0},
    "toys": {"coherence": 0.74, "title_words": 9, "style_strength": 3.0},
    "tools": {"coherence": 0.72, "title_words": 9, "style_strength": 3.0},
    "food": {"coherence": 0.55, "title_words": 4, "style_strength": 2.0},
}


def available_presets() -> List[str]:
    return sorted(_PRESETS)


def dataset_config(name: str, scale: str = "small", seed: int = 42,
                   **overrides) -> DatasetConfig:
    """Build a :class:`DatasetConfig` from a named preset."""
    if name not in _PRESETS:
        raise ValueError(f"unknown dataset {name!r}; available: {available_presets()}")
    if scale not in _PRESETS[name]:
        raise ValueError(f"unknown scale {scale!r}; available: {sorted(_PRESETS[name])}")
    params = dict(_PRESETS[name][scale])
    behaviour = _DOMAIN_BEHAVIOUR[name]
    config = DatasetConfig(
        name=name,
        num_users=int(params["num_users"]),
        num_items=int(params["num_items"]),
        avg_sequence_length=float(params["avg_sequence_length"]),
        coherence=float(behaviour["coherence"]),
        title_words=int(behaviour["title_words"]),
        style_strength=float(behaviour["style_strength"]),
        seed=seed,
    )
    for key, value in overrides.items():
        if not hasattr(config, key):
            raise AttributeError(f"DatasetConfig has no field {key!r}")
        setattr(config, key, value)
    return config


def _sample_sequence_length(rng: np.random.Generator, config: DatasetConfig) -> int:
    """Draw a user sequence length with the configured mean and bounds."""
    mean_extra = max(config.avg_sequence_length - config.min_sequence_length, 0.5)
    extra = rng.geometric(1.0 / (mean_extra + 1.0)) - 1
    length = config.min_sequence_length + int(extra)
    return min(max(length, config.min_sequence_length), config.max_sequence_length)


def _cdf(weights: np.ndarray) -> np.ndarray:
    """The cumulative table ``Generator.choice(a, p=weights)`` draws from.

    ``choice`` returns ``a[cdf.searchsorted(rng.random(), side="right")]``
    over exactly this table, so drawing from a table built once consumes the
    same random numbers and yields the same items as calling ``choice`` with
    the same ``p`` every time.
    """
    cdf = weights.cumsum()
    cdf /= cdf[-1]
    return cdf


def generate_dataset(config: DatasetConfig) -> SyntheticDataset:
    """Generate a full synthetic dataset from ``config``."""
    rng = np.random.default_rng(config.seed)
    records = generate_catalogue(
        config.name, config.num_items, seed=config.seed,
        title_words=config.title_words,
        zipf_exponent=config.zipf_exponent,
    )
    groups = category_index(records)
    categories = sorted(groups)
    num_categories = len(categories)

    # Popularity vector aligned with 1-based item ids.
    popularity = np.zeros(config.num_items + 1)
    for record in records:
        popularity[record.item_id + 1] = record.popularity

    # Pre-compute per-category candidate arrays (1-based ids), their base
    # sampling probabilities (uniform/popularity mixture) and a binary
    # item-by-style matrix used to boost style-matching items per user.
    from ..text.corpus import STYLE_WORDS

    style_index = {word: index for index, word in enumerate(STYLE_WORDS)}
    num_styles = len(STYLE_WORDS)
    item_styles = np.zeros((config.num_items + 1, num_styles), dtype=np.float64)
    for record in records:
        for token in record.style_tokens:
            item_styles[record.item_id + 1, style_index[token]] = 1.0

    candidates: Dict[str, np.ndarray] = {}
    base_weights: Dict[str, np.ndarray] = {}
    for category, item_ids in groups.items():
        ids = np.asarray(item_ids, dtype=np.int64) + 1
        pop = popularity[ids]
        pop = pop / pop.sum() if pop.sum() > 0 else np.full(len(ids), 1.0 / len(ids))
        uniform = np.full(len(ids), 1.0 / len(ids))
        mixed = config.popularity_weight * pop + (1.0 - config.popularity_weight) * uniform
        candidates[category] = ids
        base_weights[category] = mixed / mixed.sum()

    # A global category transition matrix: staying in the current category is
    # likely (sticky diagonal) and the off-diagonal mass follows a sparse
    # Dirichlet draw, so the chain has predictable category dynamics.
    transition = rng.dirichlet(np.full(num_categories, 0.3), size=num_categories)
    transition = (
        config.category_stickiness * np.eye(num_categories)
        + (1.0 - config.category_stickiness) * transition
    )
    transition = transition / transition.sum(axis=1, keepdims=True)
    transition_cdfs = [_cdf(row) for row in transition]

    user_sequences: Dict[int, List[int]] = {}
    for user_id in range(1, config.num_users + 1):
        preferred = rng.choice(
            num_categories,
            size=min(config.num_preferred_categories, num_categories),
            replace=False,
        )
        preferred_styles = rng.choice(
            num_styles,
            size=min(config.num_preferred_styles, num_styles),
            replace=False,
        )
        style_preference = np.zeros(num_styles)
        style_preference[preferred_styles] = 1.0

        length = _sample_sequence_length(rng, config)
        current_category = int(rng.choice(preferred))
        sequence: List[int] = []
        # The item distribution depends on (user, category) only: built on
        # the user's first visit to a category, reused on every later one.
        item_cdfs: Dict[int, np.ndarray] = {}
        for _ in range(length):
            category_name = categories[current_category]
            ids = candidates[category_name]
            cdf = item_cdfs.get(current_category)
            if cdf is None:
                # Boost items whose style tokens overlap the user's
                # preferences; this makes the choice *within* a category
                # text-predictable.
                matches = item_styles[ids] @ style_preference
                weights = base_weights[category_name] * np.exp(config.style_strength * matches)
                cdf = item_cdfs[current_category] = _cdf(weights / weights.sum())
            item = int(ids[cdf.searchsorted(rng.random(), side="right")])
            sequence.append(item)
            if rng.random() < config.coherence:
                # Follow the category transition chain (sequential signal).
                current_category = int(transition_cdfs[current_category].searchsorted(
                    rng.random(), side="right"))
            else:
                # Jump back to one of the user's preferred categories.
                current_category = int(rng.choice(preferred))
        user_sequences[user_id] = sequence

    table = InteractionTable(user_sequences=user_sequences, num_items=config.num_items)
    # The paper applies 5-core filtering to the full-size Amazon datasets; at
    # the reduced synthetic scale a hard 5-core would discard most of the
    # catalogue, so the (configurable) default is a gentler item/user core.
    table = table.k_core_filter(k=min(config.k_core, config.min_sequence_length))

    category_of_item = {record.item_id + 1: record.category for record in records}
    return SyntheticDataset(
        config=config,
        items=records,
        interactions=table,
        category_of_item=category_of_item,
    )


def load_dataset(name: str, scale: str = "small", seed: int = 42,
                 **overrides) -> SyntheticDataset:
    """Convenience wrapper: preset config + generation in one call."""
    return generate_dataset(dataset_config(name, scale=scale, seed=seed, **overrides))


# ---------------------------------------------------------------------- #
# Synthetic item matrices (million-item serving catalogues)
# ---------------------------------------------------------------------- #
#: fixed generation granularity of the synthetic item matrix.  Every block
#: of rows is drawn from its own ``default_rng([seed, block_index])`` stream,
#: so the matrix content depends only on ``(seed, num_items, dim, ...)`` —
#: never on how many rows a writer materialises at a time.  That is what
#: makes the chunked out-of-core writer bit-identical to the in-RAM
#: generator for *any* chunk size, by construction.
ITEM_MATRIX_BLOCK_ROWS = 8192


def _item_matrix_block(block_index: int, num_rows: int, dim: int, seed: int,
                       centers: np.ndarray, noise: float,
                       dtype: np.dtype) -> np.ndarray:
    """Generate rows ``[block_index * BLOCK, block_index * BLOCK + num_rows)``."""
    rng = np.random.default_rng([seed, block_index])
    assignments = rng.integers(0, centers.shape[0], size=num_rows)
    block = centers[assignments] + noise * rng.standard_normal((num_rows, dim))
    # Per-row magnitude spread, so top-K score margins vary realistically.
    block *= np.exp(0.25 * rng.standard_normal((num_rows, 1)))
    block = block.astype(dtype, copy=False)
    if block_index == 0 and num_rows > 0:
        block[0] = 0.0  # row 0 is the padding item throughout the repo
    return block


def _item_matrix_centers(dim: int, seed: int, num_clusters: int) -> np.ndarray:
    # Entropy words must be non-negative; 2**33 is far above any real block
    # index, so the centres stream never collides with a block stream.
    rng = np.random.default_rng([seed, 2 ** 33])
    return rng.standard_normal((num_clusters, dim))


def synthetic_item_matrix(num_items: int, dim: int, seed: int = 0, *,
                          num_clusters: int = 64, noise: float = 0.35,
                          dtype: str = "float32") -> np.ndarray:
    """In-RAM clustered synthetic item matrix (row 0 = padding item, zeros).

    Rows are drawn around ``num_clusters`` Gaussian cluster centres with
    per-row magnitude spread — enough structure for IVF-style indexes to be
    meaningfully better than random partitions, unlike an isotropic cloud.
    The reference the out-of-core writer is tested against, bit for bit.
    """
    if num_items < 0 or dim < 1:
        raise ValueError(f"need num_items >= 0 and dim >= 1, got "
                         f"({num_items}, {dim})")
    centers = _item_matrix_centers(dim, seed, num_clusters)
    out_dtype = np.dtype(dtype)
    blocks = []
    for block_index in range(-(-num_items // ITEM_MATRIX_BLOCK_ROWS)):
        rows = min(ITEM_MATRIX_BLOCK_ROWS,
                   num_items - block_index * ITEM_MATRIX_BLOCK_ROWS)
        blocks.append(_item_matrix_block(block_index, rows, dim, seed,
                                         centers, noise, out_dtype))
    if not blocks:
        return np.empty((0, dim), dtype=out_dtype)
    return np.concatenate(blocks, axis=0)


def synthetic_item_matrix_memmap(path, num_items: int, dim: int,
                                 seed: int = 0, *,
                                 num_clusters: int = 64, noise: float = 0.35,
                                 dtype: str = "float32",
                                 chunk_rows: int = 4 * ITEM_MATRIX_BLOCK_ROWS):
    """Stream the synthetic item matrix straight to an ``.npy`` on disk.

    The matrix never exists in RAM: each chunk of ``chunk_rows`` rows is
    generated, written through a freshly opened ``np.memmap`` and unmapped
    again, so peak resident memory is bounded by one chunk regardless of
    ``num_items`` — the generator scales to 1M+ item catalogues on small
    machines.  Output is bit-identical to :func:`synthetic_item_matrix` for
    the same ``(seed, num_items, dim, ...)`` and any ``chunk_rows`` that is
    a multiple of :data:`ITEM_MATRIX_BLOCK_ROWS`.

    Returns the path of the written ``.npy`` file.
    """
    from pathlib import Path

    from numpy.lib.format import open_memmap

    if chunk_rows < ITEM_MATRIX_BLOCK_ROWS or chunk_rows % ITEM_MATRIX_BLOCK_ROWS:
        raise ValueError(
            f"chunk_rows must be a positive multiple of "
            f"{ITEM_MATRIX_BLOCK_ROWS}, got {chunk_rows}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    out_dtype = np.dtype(dtype)
    centers = _item_matrix_centers(dim, seed, num_clusters)
    temporary = path.with_suffix(path.suffix + ".tmp")
    mapped = open_memmap(temporary, mode="w+", dtype=out_dtype,
                         shape=(num_items, dim))
    del mapped  # header written; re-map per chunk to keep RSS flat
    for start in range(0, num_items, chunk_rows):
        stop = min(start + chunk_rows, num_items)
        mapped = open_memmap(temporary, mode="r+")
        for block_start in range(start, stop, ITEM_MATRIX_BLOCK_ROWS):
            block_index = block_start // ITEM_MATRIX_BLOCK_ROWS
            rows = min(ITEM_MATRIX_BLOCK_ROWS, num_items - block_start)
            mapped[block_start:block_start + rows] = _item_matrix_block(
                block_index, rows, dim, seed, centers, noise, out_dtype)
        mapped.flush()
        del mapped  # munmap: dirty pages are written back and dropped
    temporary.replace(path)
    return path


def synthetic_item_matrix_layout(directory, num_items: int, dim: int,
                                 seed: int = 0, **kwargs):
    """Out-of-core generation into a shard-servable
    :class:`repro.shard.layout.ItemMatrixLayout` directory."""
    from pathlib import Path

    from ..shard.layout import ItemMatrixLayout

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    synthetic_item_matrix_memmap(directory / "item_matrix.npy",
                                 num_items, dim, seed, **kwargs)
    return ItemMatrixLayout.adopt(directory)
