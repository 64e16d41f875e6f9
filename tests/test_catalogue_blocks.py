"""Full-catalogue derivations evaluated in row blocks.

The whitened feature table (:meth:`WhiteningTransform.transform_padded`),
the inference item matrix (:meth:`SequentialRecommender.inference_item_matrix`)
and the brute-force top-k (:func:`repro.serving.full_sort_topk`) fill one
preallocated output block by block.  The oracles here are the whole-table
computations they replace; the memory bounds are :mod:`tracemalloc` byte
counts (numpy reports its buffers to it), so no clock is read.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro import nn
from repro.data.splits import leave_one_out_split
from repro.data.synthetic import load_dataset
from repro.models import ModelConfig, available_models, build_model
from repro.nn import functional as F
from repro.nn.functional import CATALOGUE_BLOCK_ROWS, MIN_SCORING_ROWS
from repro.serving import EmbeddingStore, Recommender, full_sort_topk
from repro.text.features import encode_items
from repro.whitening import build_whitening

PRECISIONS = ("float64", "float32")


def _whole_table_item_matrix(model) -> np.ndarray:
    """The item encoder evaluated once over the whole table."""
    model.eval()
    with nn.no_grad():
        return np.array(model.item_representations().numpy())


def _whole_table_whitening(features, method, num_groups) -> np.ndarray:
    """Fit on the item rows, transform them all at once, pad with zeros."""
    features = np.asarray(features, dtype=np.float64)
    table = np.zeros_like(features)
    table[1:] = build_whitening(method, num_groups, 1e-5).fit_transform(
        features[1:])
    return table


def _broadcast_lexsort_topk(scores, k):
    """The whole-block ``(-score, id)`` lexsort ``full_sort_topk`` replaced."""
    k = min(k, scores.shape[1])
    ids = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    order = np.lexsort((ids, -scores), axis=1)[:, :k]
    return order, np.take_along_axis(scores, order, axis=1)


class TestRowBlocks:
    @pytest.mark.parametrize("num_rows", [
        0, 1, 3, 4, CATALOGUE_BLOCK_ROWS, CATALOGUE_BLOCK_ROWS + 1,
        CATALOGUE_BLOCK_ROWS + 3, CATALOGUE_BLOCK_ROWS + 4,
        3 * CATALOGUE_BLOCK_ROWS + 2])
    def test_blocks_partition_the_rows(self, num_rows):
        blocks = list(F.catalogue_row_blocks(num_rows))
        covered = [row for block in blocks
                   for row in range(block.start, block.stop)]
        assert covered == list(range(num_rows))
        if num_rows >= MIN_SCORING_ROWS:
            assert min(b.stop - b.start for b in blocks) >= MIN_SCORING_ROWS
        assert max((b.stop - b.start for b in blocks), default=0) < (
            CATALOGUE_BLOCK_ROWS + MIN_SCORING_ROWS)


# ---------------------------------------------------------------------- #
# Item matrix: every family, blocked == whole table
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_domains():
    """``name -> (num_items, features, train_sequences)``, built once."""
    domains = {}
    for name in ("arts", "food"):
        dataset = load_dataset(name, "tiny", seed=0)
        split = leave_one_out_split(dataset.interactions)
        domains[name] = (dataset.num_items,
                         encode_items(dataset.items, embedding_dim=16, seed=0),
                         split.train_sequences)
    return domains


def _tiny_model(family, domain, tiny_domains, features=None):
    num_items, own_features, train_sequences = tiny_domains[domain]
    config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                         dropout=0.1, max_seq_length=8, seed=0)
    return build_model(family, num_items,
                       feature_table=own_features if features is None else features,
                       train_sequences=train_sequences, config=config)


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("family,domain", [
    (family, domain) for family in available_models()
    for domain in ("arts", "food")])
def test_blocked_item_matrix_is_bit_identical(family, domain, precision,
                                              tiny_domains, monkeypatch):
    # a tiny catalogue is one real block; 64-row blocks give six and a tail
    monkeypatch.setattr(F, "CATALOGUE_BLOCK_ROWS", 64)
    with nn.autocast(precision):
        model = _tiny_model(family, domain, tiny_domains)
    assert len(list(F.catalogue_row_blocks(model.num_items + 1))) > 1
    matrix = model.inference_item_matrix()
    assert matrix.dtype == np.dtype(precision)
    np.testing.assert_array_equal(matrix, _whole_table_item_matrix(model))


@pytest.mark.parametrize("family", available_models())
def test_caller_mutating_its_features_changes_no_item_matrix(family,
                                                            tiny_domains):
    features = np.array(tiny_domains["arts"][1])
    model = _tiny_model(family, "arts", tiny_domains, features=features)
    before = model.inference_item_matrix()
    features *= -3.0
    features[1:5] = 0.0
    np.testing.assert_array_equal(model.inference_item_matrix(), before)


def test_item_matrix_is_never_a_trainable_table(tiny_domains):
    model = _tiny_model("sasrec_id", "arts", tiny_domains)
    matrix = model.inference_item_matrix()
    assert not np.shares_memory(matrix, model.item_embedding.weight.data)


# ---------------------------------------------------------------------- #
# Catalogues over several real blocks, with 1-4-row tails
# ---------------------------------------------------------------------- #
WHITENINGS = [("zca", 1), ("pca", 1), ("cholesky", 1), ("zca", 4)]


def _catalogue(tail: int, dim: int = 16) -> np.ndarray:
    rng = np.random.default_rng(tail)
    mixing = rng.standard_normal((dim, dim))
    return rng.standard_normal((2 * CATALOGUE_BLOCK_ROWS + tail + 1, dim)) @ mixing


@pytest.mark.parametrize("precision", PRECISIONS)
@pytest.mark.parametrize("tail", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("family,kwargs", [
    ("whitenrec", {}),
    ("whitenrec_id", {}),
    ("whitenrec_plus", {}),
    ("whitenrec_plus", {"ensemble": "concat", "relaxed_groups": 2}),
    ("whitenrec_plus_id", {"projection": "linear"}),
])
def test_whitenrec_across_blocks_is_bit_identical(family, kwargs, tail,
                                                  precision):
    features = _catalogue(tail)
    num_items = features.shape[0] - 1
    config = ModelConfig(hidden_dim=32, num_layers=1, num_heads=2, seed=tail)
    with nn.autocast(precision):
        model = build_model(family, num_items, feature_table=features,
                            config=config, **kwargs)
    if family == "whitenrec":
        expected = _whole_table_whitening(features, "zca", 1)
        np.testing.assert_array_equal(model.features.all_embeddings().data,
                                      expected.astype(precision))
    np.testing.assert_array_equal(model.inference_item_matrix(),
                                  _whole_table_item_matrix(model))


@pytest.mark.parametrize("tail", [1, 3])
@pytest.mark.parametrize("method,num_groups", WHITENINGS)
def test_whitened_tables_across_blocks_are_bit_identical(method, num_groups,
                                                         tail):
    """The model and the store whiten into the whole-table bytes."""
    features = _catalogue(tail).astype(np.float32)
    expected = _whole_table_whitening(features, method, num_groups)
    store = EmbeddingStore(features)
    np.testing.assert_array_equal(store.whitened(method, num_groups), expected)
    for precision in PRECISIONS:
        with nn.autocast(precision):
            model = build_model("whitenrec", features.shape[0] - 1,
                                feature_table=features,
                                whitening_method=method, num_groups=num_groups,
                                config=ModelConfig(hidden_dim=16, num_layers=1,
                                                   num_heads=2))
        np.testing.assert_array_equal(model.features.all_embeddings().data,
                                      expected.astype(precision))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_store_keeps_a_private_read_only_copy(dtype):
    features = _catalogue(2).astype(dtype)
    store = EmbeddingStore(features)
    table = store.feature_table
    assert table.dtype == dtype and not table.flags.writeable
    features[1:] = 0.0
    assert np.all(table[1:] != 0.0)


# ---------------------------------------------------------------------- #
# Brute-force top-k: one row at a time == the broadcast lexsort
# ---------------------------------------------------------------------- #
def _tie_heavy(rng, shape):
    return rng.integers(0, 4, size=shape).astype(np.float32)


def _with_infinities(rng, shape):
    scores = rng.standard_normal(shape).astype(np.float32)
    scores[:, ::5] = np.inf
    scores[:, 1::7] = -np.inf
    scores[0] = -np.inf
    return scores


@pytest.mark.parametrize("make", [_tie_heavy, _with_infinities])
@pytest.mark.parametrize("k", [1, 7, 300, 301, 1000])
def test_full_sort_topk_matches_broadcast_lexsort(make, k):
    scores = make(np.random.default_rng(k), (9, 301))
    ids, top = full_sort_topk(scores, k)
    want_ids, want_top = _broadcast_lexsort_topk(scores, k)
    np.testing.assert_array_equal(ids, want_ids)
    np.testing.assert_array_equal(top, want_top)
    assert ids.dtype == want_ids.dtype


def test_full_sort_topk_of_no_rows():
    ids, top = full_sort_topk(np.zeros((0, 5), dtype=np.float32), 3)
    assert ids.shape == top.shape == (0, 3)


# ---------------------------------------------------------------------- #
# Memory: the outputs and a few blocks, never a catalogue-sized temporary
# ---------------------------------------------------------------------- #
NUM_ITEMS = 50_000
DIM = 32
#: temporaries allowed beside the outputs, in blocks of ``DIM`` float64s
SLACK_BLOCKS = 5


def _traced_peak(run):
    """``(result, peak bytes allocated while run() ran)``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak


def test_whitenrec_build_and_item_matrix_hold_one_table_each():
    features = np.random.default_rng(0).standard_normal((NUM_ITEMS + 1, DIM))
    config = ModelConfig(hidden_dim=DIM, num_layers=1, num_heads=2, seed=0)

    def build_and_derive():
        model = build_model("whitenrec", NUM_ITEMS, feature_table=features,
                            config=config)
        return model, model.inference_item_matrix()

    (model, matrix), peak = _traced_peak(build_and_derive)
    outputs = model.features.all_embeddings().data.nbytes + matrix.nbytes
    block = CATALOGUE_BLOCK_ROWS * DIM * 8
    assert peak <= outputs + SLACK_BLOCKS * block, (
        f"peak {peak / 2**20:.1f} MiB for {outputs / 2**20:.1f} MiB of output")


def test_store_and_cold_request_hold_no_second_whitened_table():
    """A store over float32 features keeps them in float32, and adopts the
    whitened table and transform of the model it serves: a cold request
    adds only the fallback's scoring cast, where a float64 copy of the
    features and a refitted whitened table used to be held."""
    features = np.random.default_rng(0).standard_normal(
        (NUM_ITEMS + 1, DIM)).astype(np.float32)
    model = build_model("whitenrec", NUM_ITEMS, feature_table=features,
                        config=ModelConfig(hidden_dim=DIM, num_layers=1,
                                           num_heads=2, seed=0))

    def deploy_and_serve_cold():
        recommender = Recommender(model, store=EmbeddingStore(features),
                                  cold_items=[1, 2])
        return recommender, recommender.topk([[1, 2]], k=10)

    (_, result), peak = _traced_peak(deploy_and_serve_cold)
    assert result.cold.all()
    float64_table = (NUM_ITEMS + 1) * DIM * 8
    assert peak < 2 * float64_table, (
        f"peak {peak / 2**20:.1f} MiB, the float64 copy plus the whitened "
        f"table are {2 * float64_table / 2**20:.1f} MiB")


def test_full_sort_topk_sorts_one_row_at_a_time():
    scores = np.random.default_rng(1).standard_normal(
        (64, NUM_ITEMS)).astype(np.float32)
    (ids, top), peak = _traced_peak(lambda: full_sort_topk(scores, 10))
    assert ids.shape == top.shape == (64, 10)
    # a row's negation, its lexsort permutation and the sort's scratch
    row = NUM_ITEMS * 8
    assert peak <= ids.nbytes + top.nbytes + 4 * row, (
        f"peak {peak / 2**20:.1f} MiB for a (64, {NUM_ITEMS}) block")
