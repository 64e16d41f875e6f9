"""Tests for the memory-lean representations (`repro.quant`).

Covers: the int8 codec round trip and its error bound, exact-parity of the
shortlist-then-re-rank scorer against the dense shard scorer (including
ties, sub-ranges, zero rows and degenerate shapes), the shard client / layout
sidecar wiring, the serving-config validation surface, and Recommender
parity and re-quantization coherence under the generation clock.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.splits import leave_one_out_split
from repro.models import ModelConfig, build_model
from repro.quant import (
    QuantizedMatrix,
    quantize_matrix,
    quantized_topk,
)
from repro.serving import (
    CATALOGUE_CODECS,
    EmbeddingStore,
    Recommender,
    ServingConfig,
)
from repro.shard import ItemMatrixLayout, LocalShardClient
from repro.shard.scoring import exact_shard_topk
from repro.text import encode_items

from oracles import dequantize

K = 8


@pytest.fixture(scope="module")
def catalogue():
    """A float32 catalogue with adversarial rows baked in."""
    rng = np.random.default_rng(11)
    matrix = rng.standard_normal((3000, 24)).astype(np.float32)
    matrix[7] = 0.0                 # all-zero row: scale-0 guard
    matrix[1024] = matrix[1023]     # duplicate straddling the block grid
    matrix[50] = matrix[51]         # duplicate inside one block (tie)
    matrix[200] *= 1e-4             # tiny-magnitude row
    return matrix


@pytest.fixture(scope="module")
def queries(catalogue):
    rng = np.random.default_rng(5)
    return rng.standard_normal((6, catalogue.shape[1])).astype(np.float32)


@pytest.fixture(scope="module")
def serving_setup():
    dataset = load_dataset("arts", scale="tiny", seed=3,
                           num_users=150, num_items=90, min_sequence_length=4)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=16, seed=3)
    config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                         dropout=0.1, max_seq_length=12, seed=0)
    model = build_model("whitenrec", dataset.num_items,
                        feature_table=features, config=config)
    return dataset, split, features, model


class TestCodec:
    def test_round_trip_error_within_half_step(self, catalogue):
        quantized = quantize_matrix(catalogue)
        approx = dequantize(quantized)
        step = quantized.scales[:, None]
        # Half a quantization step per element, by construction.
        assert np.all(np.abs(catalogue - approx) <= 0.5001 * step + 1e-12)

    def test_zero_rows_quantize_to_zero_scale_and_codes(self, catalogue):
        quantized = quantize_matrix(catalogue)
        assert quantized.scales[7] == 0.0
        assert not quantized.codes[7].any()
        assert quantized.scaled_norms[7] == 0.0

    def test_all_zero_matrix(self):
        quantized = quantize_matrix(np.zeros((5, 4), dtype=np.float32))
        assert not quantized.codes.any()
        assert not quantized.scales.any()

    def test_bytes_per_item_is_dim_plus_scale(self, catalogue):
        quantized = quantize_matrix(catalogue)
        assert quantized.bytes_per_item == catalogue.shape[1] + 4
        assert quantized.stored_nbytes < catalogue.nbytes / 3

    def test_float64_matrix_rejected(self):
        with pytest.raises(ValueError, match="float32"):
            quantize_matrix(np.zeros((2, 3), dtype=np.float64))

    def test_non_finite_matrix_rejected(self):
        bad = np.zeros((2, 3), dtype=np.float32)
        bad[1, 1] = np.inf
        with pytest.raises(ValueError, match="finite"):
            quantize_matrix(bad)

    def test_from_parts_rederives_identical_norms(self, catalogue):
        quantized = quantize_matrix(catalogue)
        rebuilt = QuantizedMatrix.from_parts(quantized.codes,
                                             quantized.scales)
        assert np.array_equal(rebuilt.code_norms, quantized.code_norms)
        assert np.array_equal(rebuilt.scaled_norms, quantized.scaled_norms)


class TestScorerParity:
    def _both(self, queries, matrix, quantized, lo, hi, k, exclude=None):
        dense = exact_shard_topk(queries, matrix, lo, hi, k, exclude=exclude)
        quant = quantized_topk(queries, matrix, quantized, lo, hi, k,
                               exclude=exclude)
        return dense, quant

    def test_bit_identical_full_range(self, catalogue, queries):
        quantized = quantize_matrix(catalogue)
        exclude = [[0, 3], [0], [0, 50, 51], [0, 1023], [0], [0, 2999]]
        dense, quant = self._both(queries, catalogue, quantized,
                                  0, catalogue.shape[0], K, exclude)
        assert np.array_equal(dense[0], quant[0])
        assert np.array_equal(dense[1], quant[1])

    def test_bit_identical_sub_range(self, catalogue, queries):
        quantized = quantize_matrix(catalogue)
        dense, quant = self._both(queries, catalogue, quantized,
                                  1024, 2500, K)
        assert np.array_equal(dense[0], quant[0])
        assert np.array_equal(dense[1], quant[1])

    def test_single_item_catalogue(self):
        matrix = np.asarray([[0.5, -1.0, 2.0]], dtype=np.float32)
        quantized = quantize_matrix(matrix)
        query = np.asarray([[1.0, 1.0, 1.0]], dtype=np.float32)
        dense, quant = self._both(query, matrix, quantized, 0, 1, K)
        assert np.array_equal(dense[0], quant[0])
        assert np.array_equal(dense[1], quant[1])
        assert quant[0].shape == (1, 1)

    def test_all_zero_catalogue(self, queries):
        matrix = np.zeros((40, queries.shape[1]), dtype=np.float32)
        quantized = quantize_matrix(matrix)
        dense, quant = self._both(queries, matrix, quantized, 0, 40, K)
        assert np.array_equal(dense[0], quant[0])
        assert np.array_equal(dense[1], quant[1])

    def test_empty_batch_and_k_zero(self, catalogue):
        quantized = quantize_matrix(catalogue)
        empty = np.empty((0, catalogue.shape[1]), dtype=np.float32)
        ids, scores = quantized_topk(empty, catalogue, quantized,
                                     0, catalogue.shape[0], K)
        assert ids.shape == (0, K)
        ids, scores = quantized_topk(
            np.zeros((2, catalogue.shape[1]), dtype=np.float32),
            catalogue, quantized, 0, catalogue.shape[0], 0)
        assert ids.shape == (2, 0) and scores.shape == (2, 0)

    def test_float64_queries_handled_like_dense_path(self, catalogue):
        rng = np.random.default_rng(8)
        wide = rng.standard_normal((4, catalogue.shape[1]))
        assert wide.dtype == np.float64
        quantized = quantize_matrix(catalogue)
        dense, quant = self._both(wide, catalogue, quantized,
                                  0, catalogue.shape[0], K)
        assert np.array_equal(dense[0], quant[0])
        assert np.array_equal(dense[1], quant[1])

    def test_float64_matrix_rejected(self, catalogue):
        quantized = quantize_matrix(catalogue)
        with pytest.raises(ValueError, match="float32"):
            quantized_topk(np.zeros((1, catalogue.shape[1])),
                           catalogue.astype(np.float64), quantized,
                           0, catalogue.shape[0], K)

    def test_shape_mismatch_rejected(self, catalogue):
        quantized = quantize_matrix(catalogue[:100])
        with pytest.raises(ValueError, match="does not match"):
            quantized_topk(np.zeros((1, catalogue.shape[1]),
                                    dtype=np.float32),
                           catalogue, quantized, 0, catalogue.shape[0], K)

    def test_misaligned_partition_rejected(self, catalogue):
        quantized = quantize_matrix(catalogue)
        with pytest.raises(ValueError, match="aligned"):
            quantized_topk(np.zeros((1, catalogue.shape[1]),
                                    dtype=np.float32),
                           catalogue, quantized, 100, 2000, K)

    def test_small_chunks_stay_identical(self, catalogue, queries):
        """Chunking is a scan implementation detail, never a score input."""
        quantized = quantize_matrix(catalogue)
        dense = exact_shard_topk(queries, catalogue, 0, catalogue.shape[0], K)
        quant = quantized_topk(queries, catalogue, quantized,
                               0, catalogue.shape[0], K, chunk_rows=257)
        assert np.array_equal(dense[0], quant[0])
        assert np.array_equal(dense[1], quant[1])


class TestShardCodec:
    def test_local_client_int8_parity(self, catalogue, queries):
        exclude = [[0], [0, 7], [0], [0, 1024], [0], []]
        ref = LocalShardClient(catalogue, 1).search(queries, K,
                                                    exclude=exclude)
        for num_shards in (1, 3):
            got = LocalShardClient(catalogue, num_shards,
                                   codec="int8").search(queries, K,
                                                        exclude=exclude)
            assert np.array_equal(ref[0], got[0])
            assert np.array_equal(ref[1], got[1])

    def test_stats_report_codec(self, catalogue):
        assert LocalShardClient(catalogue, 2,
                                codec="int8").stats()["codec"] == "int8"
        assert LocalShardClient(catalogue, 2).stats()["codec"] == "fp32"

    def test_unknown_codec_rejected(self, catalogue):
        with pytest.raises(ValueError, match="codec"):
            LocalShardClient(catalogue, 1, codec="int4")

    def test_layout_sidecar_round_trip(self, catalogue, queries, tmp_path):
        layout = ItemMatrixLayout.write(catalogue, tmp_path / "layout")
        assert not layout.has_int8_sidecar()
        with pytest.raises(FileNotFoundError):
            layout.quantized()
        layout.ensure_int8_sidecar()
        assert layout.has_int8_sidecar()
        assert layout.int8_nbytes() == catalogue.shape[0] * (
            catalogue.shape[1] + 4)

        before = layout.codes_path.stat().st_mtime_ns
        layout.ensure_int8_sidecar()  # idempotent: no rewrite
        assert layout.codes_path.stat().st_mtime_ns == before

        attached = layout.quantized()
        fresh = quantize_matrix(catalogue)
        assert np.array_equal(np.asarray(attached.codes), fresh.codes)
        assert np.array_equal(attached.scales, fresh.scales)
        assert np.array_equal(attached.code_norms, fresh.code_norms)

        ref = LocalShardClient.from_layout(layout, 1).search(queries, K)
        got = LocalShardClient.from_layout(layout, 2,
                                           codec="int8").search(queries, K)
        assert np.array_equal(ref[0], got[0])
        assert np.array_equal(ref[1], got[1])


class TestServingConfigSurface:
    def test_codec_and_storage_enumerations(self):
        assert CATALOGUE_CODECS == ("fp32", "int8")
        with pytest.raises(ValueError, match="catalogue_codec"):
            ServingConfig(catalogue_codec="int4")

    def test_int8_requires_float32_scoring(self):
        with pytest.raises(ValueError, match="score_dtype"):
            ServingConfig(catalogue_codec="int8", score_dtype="float64")
        config = ServingConfig(catalogue_codec="int8")
        assert config.score_dtype == "float32"

    def test_round_trips_through_dict(self):
        config = ServingConfig(catalogue_codec="int8")
        assert ServingConfig.from_dict(config.to_dict()) == config


class TestRecommenderCodec:
    def _pair(self, serving_setup):
        dataset, split, features, model = serving_setup
        store = EmbeddingStore(features)
        dense = Recommender(model, store=store,
                            train_sequences=split.train_sequences,
                            config=ServingConfig(k=K))
        quant = Recommender(model, store=store,
                            train_sequences=split.train_sequences,
                            config=ServingConfig(k=K,
                                                 catalogue_codec="int8"))
        histories = [case.history for case in split.test[:20]]
        histories.append([])            # cold: popularity/content fallback
        histories.append([10 ** 6])     # cold: out-of-catalogue id
        return dense, quant, histories

    def test_topk_bit_identical_to_dense(self, serving_setup):
        dense, quant, histories = self._pair(serving_setup)
        expected = dense.topk(histories)
        got = quant.topk(histories)
        assert np.array_equal(expected.items, got.items)
        assert np.array_equal(expected.scores, got.scores)

    def test_per_call_codec_override_rejected(self, serving_setup):
        dense, quant, histories = self._pair(serving_setup)
        with pytest.raises(ValueError, match="catalogue_codec"):
            quant.topk(histories[:2],
                       config=ServingConfig(k=K, catalogue_codec="fp32"))

    def test_quantization_memoised_per_generation(self, serving_setup):
        dense, quant, histories = self._pair(serving_setup)
        def quantizations():
            return quant.build_counts().get("codes", 0)

        before = quantizations()
        first = quant.topk(histories)
        assert quantizations() == before + 1
        quant.topk(histories)  # memo hit: no re-quantization
        assert quantizations() == before + 1

        # One clock advance lapses codes and scales coherently with the
        # matrix they were derived from.
        quant.refresh_item_matrix()
        again = quant.topk(histories)
        assert quantizations() == before + 2
        assert np.array_equal(first.items, again.items)
        assert np.array_equal(first.scores, again.scores)

    def test_shard_client_carries_codec(self, serving_setup):
        dataset, split, features, model = serving_setup
        sharded = Recommender(
            model, store=EmbeddingStore(features),
            train_sequences=split.train_sequences,
            config=ServingConfig(k=K, catalogue_codec="int8",
                                 shards=2, shard_backend="local"))
        assert sharded.shard_client().stats()["codec"] == "int8"
        histories = [case.history for case in split.test[:8]]
        dense, quant, _ = self._pair(serving_setup)
        expected = dense.topk(histories)
        got = sharded.topk(histories)
        assert np.array_equal(expected.items, got.items)
        assert np.array_equal(expected.scores, got.scores)
