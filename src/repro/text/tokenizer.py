"""A small word-level tokenizer for item texts.

The paper concatenates item titles, categories and brands and feeds them to a
pre-trained BERT.  Our substitute encoder (:mod:`repro.text.encoder`) works on
bag-of-token features, so the tokenizer only needs lower-casing, punctuation
stripping and feature hashing into a fixed number of buckets.
"""

from __future__ import annotations

import re
from typing import List

_TOKEN_PATTERN = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> List[str]:
    """Lower-case and split ``text`` into alphanumeric tokens."""
    return _TOKEN_PATTERN.findall(text.lower())


def hash_token(token: str, num_buckets: int, seed: int = 0) -> int:
    """Deterministic string hash into ``num_buckets`` buckets.

    Python's builtin ``hash`` is randomised per process, so we use a small
    FNV-1a implementation to keep the synthetic text features reproducible
    across runs.
    """
    value = 2166136261 ^ seed
    for char in token:
        value ^= ord(char)
        value = (value * 16777619) & 0xFFFFFFFF
    return value % num_buckets
