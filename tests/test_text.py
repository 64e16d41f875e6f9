"""Tests for the text substrate: tokenizer, catalogue generation, encoder."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.text import encoder as encoder_module
from repro.text.corpus import (
    STYLE_WORDS,
    _make_brands,
    available_domains,
    category_index,
    generate_catalogue,
    item_texts,
)
from repro.text.encoder import EncoderConfig, PretrainedTextEncoder
from repro.text.features import build_feature_table, encode_items, strip_padding_row
from repro.text.tokenizer import hash_token, tokenize
from repro.whitening.metrics import mean_pairwise_cosine, singular_values


def encode_catalogue(texts, embedding_dim: int = 64, seed: int = 0,
                     **config_overrides) -> np.ndarray:
    """Encode item ``texts`` with default anisotropic settings."""
    config = EncoderConfig(embedding_dim=embedding_dim, seed=seed, **config_overrides)
    if "semantic_dim" not in config_overrides:
        config.semantic_dim = max(8, min(int(embedding_dim * 0.75), embedding_dim - 1))
    return PretrainedTextEncoder(config).encode(list(texts))


class TestTokenizer:
    def test_tokenize_lowercases_and_splits(self):
        assert tokenize("Premium ACRYLIC Paint-Set 12") == [
            "premium", "acrylic", "paint", "set", "12"
        ]

    def test_tokenize_empty(self):
        assert tokenize("") == []
        assert tokenize("!!! ???") == []

    def test_hash_token_deterministic_and_in_range(self):
        for token in ["paint", "drill", "yarn", ""]:
            value = hash_token(token, 64)
            assert value == hash_token(token, 64)
            assert 0 <= value < 64

    def test_hash_token_seed_changes_assignment(self):
        values_a = {hash_token(t, 1024, seed=0) for t in ["a", "b", "c", "d", "e"]}
        values_b = {hash_token(t, 1024, seed=99) for t in ["a", "b", "c", "d", "e"]}
        assert values_a != values_b


class TestCatalogue:
    def test_available_domains(self):
        assert set(available_domains()) == {"arts", "toys", "tools", "food"}

    def test_generate_catalogue_basic_structure(self):
        records = generate_catalogue("arts", 50, seed=1)
        assert len(records) == 50
        assert [r.item_id for r in records] == list(range(50))
        for record in records:
            assert record.title
            assert record.category
            assert record.brand
            assert record.popularity > 0
            assert len(record.style_tokens) == 2
            assert all(token in STYLE_WORDS for token in record.style_tokens)

    def test_generate_catalogue_deterministic(self):
        a = generate_catalogue("toys", 30, seed=5)
        b = generate_catalogue("toys", 30, seed=5)
        assert [r.title for r in a] == [r.title for r in b]

    def test_generate_catalogue_seed_changes_output(self):
        a = generate_catalogue("toys", 30, seed=5)
        b = generate_catalogue("toys", 30, seed=6)
        assert [r.title for r in a] != [r.title for r in b]

    def test_unknown_domain_raises(self):
        with pytest.raises(ValueError):
            generate_catalogue("electronics", 10)

    def test_item_text_contains_category_and_brand(self):
        records = generate_catalogue("tools", 10, seed=0)
        for record in records:
            text = record.text()
            assert record.category in text
            assert record.brand in text

    def test_food_titles_are_short(self):
        food = generate_catalogue("food", 40, seed=0, title_words=4)
        arts = generate_catalogue("arts", 40, seed=0, title_words=9)
        food_words = np.mean([len(r.title.split()) for r in food])
        arts_words = np.mean([len(r.title.split()) for r in arts])
        assert food_words < arts_words

    def test_category_index_partitions_items(self):
        records = generate_catalogue("arts", 60, seed=2)
        groups = category_index(records)
        all_ids = sorted(i for ids in groups.values() for i in ids)
        assert all_ids == list(range(60))

    def test_popularity_normalised(self):
        records = generate_catalogue("arts", 80, seed=3)
        total = sum(r.popularity for r in records)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_zipf_exponent_controls_skew(self):
        skewed = generate_catalogue("arts", 100, seed=0, zipf_exponent=1.2)
        flat = generate_catalogue("arts", 100, seed=0, zipf_exponent=0.0)
        assert max(r.popularity for r in skewed) > max(r.popularity for r in flat)

    def test_item_texts_helper(self):
        records = generate_catalogue("arts", 5, seed=0)
        texts = item_texts(records)
        assert len(texts) == 5
        assert texts[0] == records[0].text()

    @pytest.mark.timeout(60)
    def test_brands_beyond_the_two_syllable_names_terminate(self):
        # 18 syllables spell 324 two-syllable names; the paper presets ask
        # for up to 1,012 brands.  A fresh interpreter with a deadline, so a
        # generator that never returns fails here and stops spinning.
        code = ("import json, numpy as np\n"
                "from repro.text.corpus import _make_brands\n"
                "print(json.dumps(_make_brands(np.random.default_rng(0), 325)))")
        completed = subprocess.run([sys.executable, "-c", code],
                                   capture_output=True, text=True, timeout=30,
                                   check=True)
        brands = json.loads(completed.stdout)
        assert len(set(brands)) == 325
        # the first 324 are every two-syllable name, drawn as before
        assert brands[:324] == _make_brands(np.random.default_rng(0), 324)

    @pytest.mark.timeout(60)
    def test_brands_past_every_three_syllable_name_are_refused(self):
        with pytest.raises(ValueError, match="distinct brand names"):
            _make_brands(np.random.default_rng(0), 18 ** 2 + 18 ** 3 + 1)


class TestPretrainedEncoder:
    def _texts(self, n: int = 120):
        return item_texts(generate_catalogue("arts", n, seed=4))

    def test_output_shape(self):
        config = EncoderConfig(embedding_dim=24, semantic_dim=16, seed=0)
        embeddings = PretrainedTextEncoder(config).encode(self._texts(50))
        assert embeddings.shape == (50, 24)

    def test_each_distinct_token_is_hashed_once(self, monkeypatch):
        texts = self._texts(60)
        config = EncoderConfig(embedding_dim=24, semantic_dim=16, seed=0)
        encoder = PretrainedTextEncoder(config)
        unmemoised = PretrainedTextEncoder._bag_of_tokens
        # a fresh memo per text hashes every token occurrence
        monkeypatch.setattr(PretrainedTextEncoder, "_bag_of_tokens",
                            lambda self, text, buckets: unmemoised(self, text, {}))
        want = encoder.encode(texts)
        monkeypatch.undo()
        hashed = []
        monkeypatch.setattr(encoder_module, "hash_token",
                            lambda token, *args, **kwargs: hashed.append(token)
                            or hash_token(token, *args, **kwargs))
        got = encoder.encode(texts)
        assert np.array_equal(got, want)
        assert sorted(hashed) == sorted({t for text in texts for t in tokenize(text)})

    def test_deterministic(self):
        texts = self._texts(40)
        config = EncoderConfig(embedding_dim=24, semantic_dim=16, seed=0)
        a = PretrainedTextEncoder(config).encode(texts)
        b = PretrainedTextEncoder(config).encode(texts)
        np.testing.assert_allclose(a, b)

    def test_embeddings_are_anisotropic(self):
        """The defining property: high average pairwise cosine similarity."""
        embeddings = encode_catalogue(self._texts(), embedding_dim=32, seed=0)
        assert mean_pairwise_cosine(embeddings) > 0.6

    def test_spectrum_decays(self):
        embeddings = encode_catalogue(self._texts(), embedding_dim=32, seed=0)
        values = singular_values(embeddings, center=True, normalize=True)
        # Fast decay: the 10th singular value is well below the first.
        assert values[9] < 0.5 * values[0]

    def test_common_strength_increases_cosine(self):
        texts = self._texts()
        low = encode_catalogue(texts, embedding_dim=32, seed=0, common_strength=0.2)
        high = encode_catalogue(texts, embedding_dim=32, seed=0, common_strength=2.0)
        assert mean_pairwise_cosine(high) > mean_pairwise_cosine(low)

    def test_semantically_similar_items_are_closer(self):
        """Items in the same category must be closer than cross-category pairs."""
        records = generate_catalogue("arts", 150, seed=4)
        embeddings = encode_catalogue(item_texts(records), embedding_dim=32, seed=0)
        centered = embeddings - embeddings.mean(axis=0)
        normalized = centered / np.linalg.norm(centered, axis=1, keepdims=True)
        categories = [record.category for record in records]

        same, different = [], []
        rng = np.random.default_rng(0)
        for _ in range(4000):
            i, j = rng.integers(0, len(records), size=2)
            if i == j:
                continue
            similarity = float(normalized[i] @ normalized[j])
            (same if categories[i] == categories[j] else different).append(similarity)
        assert np.mean(same) > np.mean(different)

    def test_semantic_dim_validation(self):
        with pytest.raises(ValueError):
            PretrainedTextEncoder(EncoderConfig(embedding_dim=8, semantic_dim=16))

    def test_identical_texts_do_not_collapse(self):
        embeddings = PretrainedTextEncoder(
            EncoderConfig(embedding_dim=16, semantic_dim=8, seed=0)
        ).encode(["same text here"] * 5)
        distances = np.linalg.norm(embeddings[0] - embeddings[1:], axis=1)
        assert (distances > 0).all()


class TestFeatureTables:
    def test_build_feature_table_adds_padding_row(self):
        embeddings = np.random.default_rng(0).standard_normal((10, 4))
        table = build_feature_table(embeddings)
        assert table.shape == (11, 4)
        np.testing.assert_allclose(table[0], np.zeros(4))
        np.testing.assert_allclose(table[1:], embeddings)

    def test_strip_padding_row_inverse(self):
        embeddings = np.random.default_rng(0).standard_normal((10, 4))
        np.testing.assert_allclose(
            strip_padding_row(build_feature_table(embeddings)), embeddings
        )

    def test_build_feature_table_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            build_feature_table(np.zeros(5))

    def test_encode_items_aligned_with_catalogue(self):
        records = generate_catalogue("arts", 30, seed=1)
        table = encode_items(records, embedding_dim=16, seed=1)
        assert table.shape == (31, 16)
        np.testing.assert_allclose(table[0], np.zeros(16))


@settings(max_examples=15, deadline=None)
@given(num_buckets=st.integers(min_value=2, max_value=4096),
       token=st.text(min_size=0, max_size=20))
def test_property_hash_token_in_range(num_buckets, token):
    assert 0 <= hash_token(token, num_buckets) < num_buckets
