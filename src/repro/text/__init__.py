"""Synthetic text substrate: item texts + a frozen anisotropic text encoder."""

from .corpus import (
    CategorySpec,
    ItemRecord,
    available_domains,
    category_index,
    generate_catalogue,
    item_texts,
)
from .encoder import EncoderConfig, PretrainedTextEncoder
from .features import PADDING_ITEM, build_feature_table, encode_items, strip_padding_row
from .tokenizer import hash_token, tokenize

__all__ = [
    "CategorySpec",
    "EncoderConfig",
    "ItemRecord",
    "PADDING_ITEM",
    "PretrainedTextEncoder",
    "available_domains",
    "build_feature_table",
    "category_index",
    "encode_items",
    "generate_catalogue",
    "hash_token",
    "item_texts",
    "strip_padding_row",
    "tokenize",
]
