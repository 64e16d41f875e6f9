"""Synthetic item-text generation.

The paper builds each item's text as the concatenation of its *title*,
*categories* and *brand* (Sec. III-B).  Because the Amazon metadata cannot be
redistributed and is unavailable offline, this module synthesises catalogues
with the same structure: a two-level category taxonomy, a brand pool and a
templated title whose words are drawn from category-specific vocabularies.

The important property for the reproduction is that items in the same
category/brand share many tokens and therefore end up close in the text
embedding space, while items from different categories share few tokens.
That is the "semantic manifold" whose preservation WhitenRec+ is designed
around (Sec. IV-B/C).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

# Word pools for the synthetic catalogues.  They are intentionally mundane
# product-y words; the actual strings do not matter, only their sharing
# structure across items does.
_ADJECTIVES = [
    "premium", "classic", "deluxe", "compact", "portable", "durable", "soft",
    "ergonomic", "lightweight", "professional", "vintage", "modern", "mini",
    "large", "small", "handmade", "eco", "reusable", "heavy", "smooth",
    "colorful", "adjustable", "wireless", "magnetic", "waterproof", "organic",
    "fresh", "spicy", "sweet", "savory", "crunchy", "creamy",
]

_MATERIALS = [
    "wood", "steel", "cotton", "plastic", "ceramic", "glass", "bamboo",
    "leather", "silicone", "aluminum", "paper", "canvas", "rubber", "wool",
    "clay", "resin", "copper", "brass", "felt", "vinyl",
]

_GENERIC_NOUNS = [
    "set", "kit", "pack", "bundle", "collection", "series", "edition",
    "assortment", "box", "case",
]


@dataclass
class CategorySpec:
    """One leaf category of the taxonomy.

    Attributes
    ----------
    name:
        Human readable leaf category name (e.g. ``"acrylic paint"``).
    parent:
        Top-level category name (e.g. ``"painting supplies"``).
    keywords:
        Words characteristic of this category; titles sample from them.
    """

    name: str
    parent: str
    keywords: List[str] = field(default_factory=list)


@dataclass
class ItemRecord:
    """Synthetic catalogue entry for a single item."""

    item_id: int
    title: str
    category: str
    parent_category: str
    brand: str
    popularity: float
    style_tokens: List[str] = field(default_factory=list)

    def text(self) -> str:
        """Concatenate title, categories and brand, as the paper does."""
        return f"{self.title} {self.parent_category} {self.category} {self.brand}"


# Per-dataset taxonomies.  Each entry is (parent, leaf, keywords).
_TAXONOMIES: Dict[str, List[CategorySpec]] = {
    "arts": [
        CategorySpec("acrylic paint", "painting supplies", ["acrylic", "paint", "pigment", "tube", "palette"]),
        CategorySpec("watercolor", "painting supplies", ["watercolor", "wash", "brush", "paper", "pan"]),
        CategorySpec("sketch pencils", "drawing", ["sketch", "pencil", "graphite", "charcoal", "shading"]),
        CategorySpec("markers", "drawing", ["marker", "ink", "tip", "blendable", "alcohol"]),
        CategorySpec("yarn", "knitting", ["yarn", "skein", "knit", "crochet", "fiber"]),
        CategorySpec("embroidery", "needlework", ["embroidery", "thread", "hoop", "stitch", "floss"]),
        CategorySpec("beads", "jewelry making", ["bead", "charm", "wire", "clasp", "gemstone"]),
        CategorySpec("scrapbooking", "paper crafts", ["scrapbook", "sticker", "washi", "album", "stamp"]),
        CategorySpec("canvas", "painting supplies", ["canvas", "stretched", "panel", "primed", "easel"]),
        CategorySpec("sewing notions", "sewing", ["needle", "thread", "bobbin", "pin", "thimble"]),
        CategorySpec("fabric", "sewing", ["fabric", "quilting", "fat", "quarter", "print"]),
        CategorySpec("clay", "sculpting", ["clay", "polymer", "sculpt", "mold", "oven"]),
    ],
    "toys": [
        CategorySpec("building blocks", "construction toys", ["block", "brick", "build", "baseplate", "minifigure"]),
        CategorySpec("action figures", "figures", ["action", "figure", "poseable", "hero", "villain"]),
        CategorySpec("dolls", "figures", ["doll", "dress", "accessory", "hair", "playset"]),
        CategorySpec("board games", "games", ["board", "game", "dice", "card", "strategy"]),
        CategorySpec("puzzles", "games", ["puzzle", "piece", "jigsaw", "brain", "teaser"]),
        CategorySpec("plush", "stuffed animals", ["plush", "stuffed", "cuddly", "bear", "animal"]),
        CategorySpec("remote control", "vehicles", ["remote", "control", "car", "drone", "racing"]),
        CategorySpec("model trains", "vehicles", ["train", "track", "locomotive", "scale", "railway"]),
        CategorySpec("science kits", "educational", ["science", "experiment", "lab", "chemistry", "microscope"]),
        CategorySpec("art sets", "educational", ["art", "crayon", "coloring", "creative", "drawing"]),
        CategorySpec("outdoor play", "outdoor", ["outdoor", "ball", "swing", "sandbox", "slide"]),
        CategorySpec("pretend play", "pretend", ["pretend", "kitchen", "doctor", "tool", "costume"]),
    ],
    "tools": [
        CategorySpec("cordless drills", "power tools", ["drill", "cordless", "battery", "torque", "chuck"]),
        CategorySpec("saws", "power tools", ["saw", "blade", "circular", "cutting", "miter"]),
        CategorySpec("hand tools", "hand tools", ["wrench", "screwdriver", "plier", "hammer", "socket"]),
        CategorySpec("measuring", "hand tools", ["tape", "measure", "level", "caliper", "square"]),
        CategorySpec("fasteners", "hardware", ["screw", "bolt", "nut", "anchor", "washer"]),
        CategorySpec("electrical", "electrical", ["wire", "voltage", "tester", "outlet", "breaker"]),
        CategorySpec("plumbing", "plumbing", ["pipe", "fitting", "valve", "faucet", "seal"]),
        CategorySpec("safety gear", "safety", ["glove", "goggle", "respirator", "helmet", "vest"]),
        CategorySpec("paint supplies", "painting", ["roller", "brush", "tray", "tape", "primer"]),
        CategorySpec("storage", "organization", ["toolbox", "organizer", "drawer", "rack", "bin"]),
        CategorySpec("sanders", "power tools", ["sander", "orbital", "grit", "sandpaper", "polisher"]),
        CategorySpec("garden tools", "outdoor", ["pruner", "shovel", "rake", "hose", "trimmer"]),
    ],
    "food": [
        CategorySpec("pasta", "dinner", ["pasta", "spaghetti", "alfredo", "lasagna", "penne"]),
        CategorySpec("chicken", "dinner", ["chicken", "roasted", "grilled", "baked", "wings"]),
        CategorySpec("soup", "dinner", ["soup", "stew", "chowder", "broth", "chili"]),
        CategorySpec("salad", "lunch", ["salad", "greens", "vinaigrette", "caesar", "slaw"]),
        CategorySpec("sandwich", "lunch", ["sandwich", "wrap", "panini", "burger", "club"]),
        CategorySpec("cake", "dessert", ["cake", "chocolate", "frosting", "layer", "cupcake"]),
        CategorySpec("cookies", "dessert", ["cookie", "oatmeal", "chip", "sugar", "gingerbread"]),
        CategorySpec("pie", "dessert", ["pie", "apple", "pumpkin", "crust", "tart"]),
        CategorySpec("breakfast", "breakfast", ["pancake", "waffle", "omelet", "muffin", "granola"]),
        CategorySpec("bread", "baking", ["bread", "sourdough", "banana", "rolls", "focaccia"]),
        CategorySpec("seafood", "dinner", ["salmon", "shrimp", "fish", "crab", "scallop"]),
        CategorySpec("vegetarian", "dinner", ["tofu", "lentil", "veggie", "quinoa", "mushroom"]),
    ],
}

_BRAND_SYLLABLES = [
    "nova", "craft", "lux", "prime", "alpha", "zen", "eco", "pro", "max",
    "blue", "red", "star", "peak", "core", "true", "pure", "bright", "wild",
]

# Style vocabulary: every item carries a couple of "style" words in its title
# (colour / finish / theme).  Users in the synthetic interaction generator
# have style preferences, so these words make the next item *text-predictable*
# — the property that lets text-based recommenders compete with ID-based ones
# (and that the paper's whitening unlocks).
STYLE_WORDS = [
    "crimson", "azure", "emerald", "ivory", "onyx", "amber", "violet",
    "pastel", "neon", "rustic", "minimalist", "floral", "geometric",
    "striped", "glitter", "matte", "glossy", "weathered", "polished",
    "speckled", "gradient", "tropical", "nordic", "retro",
]


def _make_brands(rng: np.random.Generator, count: int) -> List[str]:
    """Generate ``count`` distinct brand names.

    Names have two syllables while the 18² two-syllable names last and three
    after that (no three-syllable name spells a two-syllable one), so every
    ``count`` up to 18² + 18³ terminates and the draws for ``count <= 18²``
    are the two-syllable draws alone.
    """
    two_syllable = len(_BRAND_SYLLABLES) ** 2
    capacity = two_syllable + len(_BRAND_SYLLABLES) ** 3
    if count > capacity:
        raise ValueError(f"at most {capacity} distinct brand names exist, "
                         f"{count} were asked for")
    brands: List[str] = []
    seen = set()
    while len(brands) < count:
        syllables = 2 if len(brands) < two_syllable else 3
        brand = "".join(rng.choice(_BRAND_SYLLABLES, size=syllables, replace=True))
        if brand not in seen:
            seen.add(brand)
            brands.append(brand)
    return brands


def available_domains() -> List[str]:
    """Names of the built-in catalogue domains."""
    return sorted(_TAXONOMIES)


def generate_catalogue(domain: str, num_items: int, seed: int = 0,
                       num_brands: Optional[int] = None,
                       title_words: Optional[int] = None,
                       zipf_exponent: float = 0.8) -> List[ItemRecord]:
    """Generate a synthetic item catalogue for ``domain``.

    Parameters
    ----------
    domain:
        One of :func:`available_domains` ("arts", "toys", "tools", "food").
    num_items:
        Number of items to generate.
    seed:
        Seed for the deterministic generator.
    num_brands:
        Size of the brand pool (default scales with the catalogue size).
    title_words:
        Approximate number of words per title.  The paper notes Amazon
        descriptions average ~20.5 words while Food recipe names average
        ~3.8, which drives the Table VI discussion; the presets follow that.
    zipf_exponent:
        Exponent of the Zipf popularity law (0 → uniform popularity).
    """
    if domain not in _TAXONOMIES:
        raise ValueError(f"unknown domain {domain!r}; available: {available_domains()}")
    rng = np.random.default_rng(seed)
    categories = _TAXONOMIES[domain]
    num_brands = num_brands or max(8, num_items // 40)
    brands = _make_brands(rng, num_brands)
    if title_words is None:
        title_words = 4 if domain == "food" else 9

    # Popularity follows a Zipf-like law, as in real e-commerce catalogues.
    ranks = np.arange(1, num_items + 1, dtype=np.float64)
    popularity = 1.0 / ranks ** zipf_exponent
    popularity /= popularity.sum()
    rng.shuffle(popularity)

    records: List[ItemRecord] = []
    for item_id in range(num_items):
        category = categories[int(rng.integers(len(categories)))]
        brand = brands[int(rng.integers(len(brands)))]
        style_tokens = [str(s) for s in rng.choice(STYLE_WORDS, size=2, replace=False)]
        title_tokens: List[str] = []
        # Category keywords and style words dominate the title: same-category
        # items overlap through keywords, while the style words make each
        # item's text predictive of which users (and which preceding items)
        # it co-occurs with.
        keyword_count = max(2, (title_words - 2) // 2)
        title_tokens.extend(rng.choice(category.keywords, size=keyword_count, replace=True))
        title_tokens.extend(style_tokens)
        filler_count = max(title_words - keyword_count - 2, 1)
        fillers = rng.choice(
            _ADJECTIVES + _MATERIALS + _GENERIC_NOUNS, size=filler_count, replace=True
        )
        title_tokens.extend(fillers)
        rng.shuffle(title_tokens)
        records.append(
            ItemRecord(
                item_id=item_id,
                title=" ".join(title_tokens),
                category=category.name,
                parent_category=category.parent,
                brand=brand,
                popularity=float(popularity[item_id]),
                style_tokens=style_tokens,
            )
        )
    return records


def item_texts(records: Sequence[ItemRecord]) -> List[str]:
    """Extract the concatenated text description of each item."""
    return [record.text() for record in records]


def category_index(records: Sequence[ItemRecord]) -> Dict[str, List[int]]:
    """Group item ids by leaf category (used by the interaction generator)."""
    groups: Dict[str, List[int]] = {}
    for record in records:
        groups.setdefault(record.category, []).append(record.item_id)
    return groups
