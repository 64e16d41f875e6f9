"""Tests for the recommendation models: construction, forward/backward, variants."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro import nn
from repro.data.dataloader import make_batch
from repro.data.splits import leave_one_out_split, training_examples
from repro.data.synthetic import load_dataset
from repro.models import (
    BM3,
    CL4SRec,
    FDSA,
    GRCN,
    GRU4Rec,
    ModelConfig,
    S3Rec,
    SASRecID,
    SASRecText,
    SASRecTextID,
    UniSRec,
    VQRec,
    WhitenRec,
    WhitenRecPlus,
    available_models,
    build_model,
    canonical_name,
    display_label,
    product_quantize,
    requires_text_features,
)
from repro.models.cl4srec import crop_sequence, mask_sequence, reorder_sequence
from repro.nn.functional import MIN_SCORING_ROWS
from repro.text.features import encode_items
from repro.whitening.metrics import covariance_condition_number


@pytest.fixture(scope="module")
def config() -> ModelConfig:
    return ModelConfig(hidden_dim=16, num_layers=1, num_heads=2, dropout=0.1,
                       max_seq_length=8, seed=0)


@pytest.fixture(scope="module")
def num_items() -> int:
    return 40


@pytest.fixture(scope="module")
def features(num_items) -> np.ndarray:
    rng = np.random.default_rng(0)
    table = np.zeros((num_items + 1, 12))
    table[1:] = rng.standard_normal((num_items, 12)) + 2.0
    return table


@pytest.fixture(scope="module")
def batch():
    examples = [
        (1, [1, 2, 3], 4),
        (2, [5, 6], 7),
        (3, [8, 9, 10, 11, 12], 13),
        (4, [2], 3),
    ]
    return make_batch(examples, max_length=8)


def assert_trains_one_step(model, batch):
    """Shared check: loss is finite and backprop reaches some parameters."""
    loss = model.loss(batch)
    assert np.isfinite(loss.item())
    loss.backward()
    grads = [p.grad for p in model.parameters() if p.grad is not None]
    assert grads, "no gradients reached any parameter"
    assert any(np.abs(g).sum() > 0 for g in grads)


class TestSASRecVariants:
    def test_sasrec_id_shapes(self, config, num_items, batch):
        model = SASRecID(num_items, config)
        scores = model.score_all_items(batch)
        assert scores.shape == (len(batch), num_items + 1)
        assert model.item_representations().shape == (num_items + 1, config.hidden_dim)

    def test_sasrec_id_trains(self, config, num_items, batch):
        assert_trains_one_step(SASRecID(num_items, config), batch)

    def test_sasrec_text_frozen_features(self, config, num_items, features, batch):
        model = SASRecText(num_items, features, config)
        # Only the projection head, position table and transformer are trainable:
        # the text feature table itself contributes no parameters.
        names = [name for name, _ in model.named_parameters()]
        assert not any("features" in name for name in names)
        assert_trains_one_step(model, batch)

    def test_sasrec_text_validates_table_shape(self, config, num_items):
        with pytest.raises(ValueError):
            SASRecText(num_items, np.zeros((3, 8)), config)

    def test_sasrec_text_id_combines_sources(self, config, num_items, features, batch):
        model = SASRecTextID(num_items, features, config)
        assert_trains_one_step(model, batch)
        assert model.num_parameters() > SASRecText(num_items, features, config).num_parameters()

    def test_predict_scores_masks_padding_item(self, config, num_items, batch):
        model = SASRecID(num_items, config)
        scores = model.predict_scores(batch)
        assert np.isneginf(scores[:, 0]).all()

    def test_encode_sequence_rejects_too_long(self, config, num_items):
        model = SASRecID(num_items, config)
        too_long = make_batch([(1, list(range(1, 20)), 2)], max_length=20)
        with pytest.raises(ValueError):
            model.encode_sequence(too_long)

    def test_encoder_computes_only_the_positions_that_hold_an_item(
            self, config, num_items, batch):
        """Block 0's feed-forward sees one row per history item, not B x L."""
        model = SASRecID(num_items, ModelConfig(
            hidden_dim=16, num_layers=2, num_heads=2, dropout=0.1,
            max_seq_length=8, seed=0))
        fc1 = model.encoder.blocks[0].feed_forward.fc1
        seen = []
        forward = fc1.forward
        fc1.forward = lambda x: seen.append(x.size // x.shape[-1]) or forward(x)
        model.loss(batch).backward()
        filled = np.minimum(batch.lengths, batch.item_ids.shape[1]).sum()
        assert seen == [max(filled, MIN_SCORING_ROWS)]
        assert seen[0] < batch.item_ids.size

    def test_eval_mode_is_deterministic(self, config, num_items, features, batch):
        model = SASRecText(num_items, features, config)
        model.eval()
        a = model.score_all_items(batch).numpy()
        b = model.score_all_items(batch).numpy()
        np.testing.assert_allclose(a, b)

    def test_train_mode_dropout_is_stochastic(self, config, num_items, batch):
        model = SASRecID(num_items, config)
        model.train()
        a = model.score_all_items(batch).numpy()
        b = model.score_all_items(batch).numpy()
        assert not np.allclose(a, b)


class TestWhitenRec:
    def test_whitening_improves_item_matrix_conditioning(self, config, num_items, features):
        raw_model = SASRecText(num_items, features, config)
        white_model = WhitenRec(num_items, features, config)
        raw_features = raw_model.features.all_embeddings().numpy()[1:]
        white_features = white_model.features.all_embeddings().numpy()[1:]
        assert covariance_condition_number(white_features) < covariance_condition_number(raw_features)

    def test_whitenrec_trains(self, config, num_items, features, batch):
        assert_trains_one_step(WhitenRec(num_items, features, config), batch)

    def test_whitenrec_no_extra_parameters_vs_sasrec_t(self, config, num_items, features):
        """Whitening is a pre-processing step: no additional trainable parameters."""
        assert (WhitenRec(num_items, features, config).num_parameters()
                == SASRecText(num_items, features, config).num_parameters())

    def test_whitenrec_group_variants(self, config, num_items, features, batch):
        for groups in (1, 4, "raw"):
            model = WhitenRec(num_items, features, config, num_groups=groups)
            assert_trains_one_step(model, batch)

    def test_whitenrec_methods(self, config, num_items, features, batch):
        for method in ("zca", "pca", "cholesky", "batchnorm", "bert_flow"):
            model = WhitenRec(num_items, features, config, whitening_method=method)
            assert np.isfinite(model.loss(batch).item())

    def test_whitenrec_with_id_embeddings(self, config, num_items, features, batch):
        model = WhitenRec(num_items, features, config, use_id_embeddings=True)
        assert model.num_parameters() > WhitenRec(num_items, features, config).num_parameters()
        assert_trains_one_step(model, batch)

    def test_padding_row_stays_zero_after_whitening(self, config, num_items, features):
        model = WhitenRec(num_items, features, config)
        np.testing.assert_allclose(
            model.features.all_embeddings().numpy()[0], np.zeros(features.shape[1])
        )


class TestWhitenRecPlus:
    def test_default_construction_trains(self, config, num_items, features, batch):
        assert_trains_one_step(WhitenRecPlus(num_items, features, config), batch)

    def test_branches_differ(self, config, num_items, features):
        model = WhitenRecPlus(num_items, features, config, relaxed_groups=4)
        full = model.features_full.all_embeddings().numpy()
        relaxed = model.features_relaxed.all_embeddings().numpy()
        assert not np.allclose(full, relaxed)

    def test_ensemble_modes(self, config, num_items, features, batch):
        for ensemble in ("sum", "concat", "attn"):
            model = WhitenRecPlus(num_items, features, config, ensemble=ensemble)
            assert model.item_representations().shape == (41, config.hidden_dim)
            assert_trains_one_step(model, batch)

    def test_invalid_ensemble_rejected(self, config, num_items, features):
        with pytest.raises(ValueError):
            WhitenRecPlus(num_items, features, config, ensemble="mean")

    def test_projection_head_variants(self, config, num_items, features, batch):
        for head in ("linear", "mlp-1", "mlp", "mlp-3", "moe"):
            model = WhitenRecPlus(num_items, features, config, projection=head)
            assert np.isfinite(model.loss(batch).item())
        with pytest.raises(ValueError):
            WhitenRecPlus(num_items, features, config, projection="transformer")

    def test_shared_projection_head(self, config, num_items, features):
        """Both branches must go through the *same* projection head (Eqn. 6)."""
        model = WhitenRecPlus(num_items, features, config)
        sasrec_t = SASRecText(num_items, features, config)
        # Shared head => parameter count equals the single-branch text model's.
        assert model.num_parameters() == sasrec_t.num_parameters()

    def test_parametric_whitening_branch(self, config, num_items, features, batch):
        model = WhitenRecPlus(num_items, features, config, whitening_method="pw")
        assert model.use_parametric_whitening
        assert model.num_parameters() > WhitenRecPlus(num_items, features, config).num_parameters()
        assert_trains_one_step(model, batch)

    def test_relaxed_raw_branch(self, config, num_items, features, batch):
        model = WhitenRecPlus(num_items, features, config, relaxed_groups="raw")
        np.testing.assert_allclose(
            model.features_relaxed.all_embeddings().numpy()[1:], features[1:]
        )
        assert_trains_one_step(model, batch)

    def test_with_id_embeddings(self, config, num_items, features, batch):
        model = WhitenRecPlus(num_items, features, config, use_id_embeddings=True)
        assert_trains_one_step(model, batch)


class TestBaselines:
    def test_unisrec_variants(self, config, num_items, features, batch):
        inductive = UniSRec(num_items, features, config)
        transductive = UniSRec(num_items, features, config, use_id_embeddings=True)
        assert_trains_one_step(inductive, batch)
        assert_trains_one_step(transductive, batch)
        assert transductive.num_parameters() > inductive.num_parameters()

    def test_unisrec_contrastive_can_be_disabled(self, config, num_items, features, batch):
        model = UniSRec(num_items, features, config, contrastive_weight=0.0)
        assert np.isfinite(model.loss(batch).item())

    def test_cl4srec_augmentations(self):
        rng = np.random.default_rng(0)
        sequence = list(range(1, 11))
        cropped = crop_sequence(sequence, rng, ratio=0.5)
        assert 1 <= len(cropped) <= len(sequence)
        masked = mask_sequence(sequence, rng, ratio=0.3)
        assert len(masked) == len(sequence)
        assert masked.count(0) >= 1
        reordered = reorder_sequence(sequence, rng, ratio=0.4)
        assert sorted(reordered) == sorted(sequence)
        # Degenerate inputs do not crash.
        assert crop_sequence([5], rng) == [5]
        assert reorder_sequence([5, 6], rng) == [5, 6]
        assert mask_sequence([], rng) == []

    def test_cl4srec_trains_with_contrastive_loss(self, config, num_items, batch):
        model = CL4SRec(num_items, config, contrastive_weight=0.2)
        loss_with = model.loss(batch).item()
        model_plain = CL4SRec(num_items, config, contrastive_weight=0.0)
        loss_without = model_plain.loss(batch).item()
        assert np.isfinite(loss_with) and np.isfinite(loss_without)
        assert_trains_one_step(model, batch)

    def test_fdsa_two_streams(self, config, num_items, features, batch):
        model = FDSA(num_items, features, config)
        assert_trains_one_step(model, batch)

    def test_s3rec_auxiliary_loss(self, config, num_items, features, batch):
        model = S3Rec(num_items, features, config, auxiliary_weight=0.5)
        plain = S3Rec(num_items, features, config, auxiliary_weight=0.0)
        assert model.loss(batch).item() != plain.loss(batch).item()
        assert_trains_one_step(model, batch)

    def test_vqrec_codes(self, config, num_items, features, batch):
        model = VQRec(num_items, features, config, num_code_groups=4, codebook_size=8)
        codes = model.codes()
        assert codes.shape == (num_items + 1, 4)
        assert (codes[0] == 0).all()          # padding item uses reserved code 0
        assert (codes[1:] >= 1).all()
        assert codes[1:].max() <= 8
        assert_trains_one_step(model, batch)

    def test_product_quantize_shapes(self, features):
        codes = product_quantize(features[1:], num_groups=3, codebook_size=5, seed=0)
        assert codes.shape == (features.shape[0] - 1, 3)
        assert codes.max() < 5

    def test_gru4rec(self, config, num_items, batch):
        model = GRU4Rec(num_items, config)
        assert_trains_one_step(model, batch)

    def test_gru4rec_padding_invariance(self, config, num_items):
        """Padded positions must not change the encoded user representation."""
        model = GRU4Rec(num_items, config)
        model.eval()
        short = make_batch([(1, [3, 4, 5], 6)], max_length=5)
        long = make_batch([(1, [3, 4, 5], 6)], max_length=8)
        user_short = model.encode_sequence(short).numpy()
        user_long = model.encode_sequence(long).numpy()
        np.testing.assert_allclose(user_short, user_long, atol=1e-10)

    def test_grcn_graph_refinement(self, config, num_items, features, batch):
        train_sequences = {1: [1, 2, 3], 2: [2, 3, 4], 3: [1, 4, 5]}
        model = GRCN(num_items, features, train_sequences=train_sequences, config=config)
        assert_trains_one_step(model, batch)

    def test_grcn_without_graph(self, config, num_items, features, batch):
        model = GRCN(num_items, features, train_sequences=None, config=config)
        assert np.isfinite(model.loss(batch).item())

    def test_bm3_bootstrap_loss(self, config, num_items, features, batch):
        model = BM3(num_items, features, config, bootstrap_weight=0.3)
        assert_trains_one_step(model, batch)

    def test_general_models_ignore_order(self, config, num_items, features):
        """BM3 pools the history order-free: permuting items must not change scores."""
        model = BM3(num_items, features, config)
        model.eval()
        forward = make_batch([(1, [1, 2, 3, 4], 5)], max_length=6)
        backward = make_batch([(1, [4, 3, 2, 1], 5)], max_length=6)
        np.testing.assert_allclose(
            model.predict_scores(forward), model.predict_scores(backward), atol=1e-10
        )

    def test_sequential_models_use_order(self, config, num_items, features):
        model = SASRecText(num_items, features, config)
        model.eval()
        forward = make_batch([(1, [1, 2, 3, 4], 5)], max_length=6)
        backward = make_batch([(1, [4, 3, 2, 1], 5)], max_length=6)
        assert not np.allclose(model.predict_scores(forward), model.predict_scores(backward))


class TestRegistryAPI:
    def test_every_registered_model_builds_and_scores(self, config, num_items, features, batch):
        train_sequences = {1: [1, 2, 3, 4], 2: [5, 6, 7]}
        for name in available_models():
            model = build_model(name, num_items, feature_table=features,
                                train_sequences=train_sequences, config=config)
            scores = model.predict_scores(batch)
            assert scores.shape == (len(batch), num_items + 1)

    def test_canonical_names_and_aliases(self):
        assert canonical_name("WhitenRec+") == "whitenrec_plus"
        assert canonical_name("SASRec(T+ID)") == "sasrec_t_id"
        assert canonical_name("UniSRec (T)") == "unisrec_t"
        with pytest.raises(KeyError):
            canonical_name("bert4rec")

    def test_requires_text_features(self):
        assert requires_text_features("whitenrec")
        assert not requires_text_features("sasrec_id")

    def test_text_model_without_features_raises(self, config, num_items):
        with pytest.raises(ValueError):
            build_model("whitenrec", num_items, feature_table=None, config=config)

    def test_display_labels(self):
        assert display_label("whitenrec_plus") == "WhitenRec+ (T)"
        assert display_label("sasrec_id") == "SASRec (ID)"

    def test_kwargs_forwarding(self, config, num_items, features):
        model = build_model("whitenrec_plus", num_items, feature_table=features,
                            config=config, ensemble="concat", relaxed_groups=2)
        assert model.ensemble == "concat"


# ---------------------------------------------------------------------- #
# Every family x {arts, food} tiny: one parametrised smoke grid
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def tiny_domains():
    """``name -> (num_items, features, train_sequences, batch)``, built once."""
    domains = {}
    for name in ("arts", "food"):
        dataset = load_dataset(name, "tiny", seed=0)
        split = leave_one_out_split(dataset.interactions)
        batch = make_batch(training_examples(split, 8)[:64], max_length=8)
        domains[name] = (dataset.num_items,
                         encode_items(dataset.items, embedding_dim=16, seed=0),
                         split.train_sequences, batch)
    return domains


@pytest.mark.parametrize("family,domain", [
    (family, domain) for family in available_models()
    for domain in ("arts", "food")])
class TestFamilySmoke:
    @staticmethod
    def _build(family, domain, tiny_domains):
        num_items, features, train_sequences, batch = tiny_domains[domain]
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             dropout=0.1, max_seq_length=8, seed=0)
        model = build_model(family, num_items, feature_table=features,
                            train_sequences=train_sequences, config=config)
        model.train()
        return model, batch

    def test_ten_adam_steps_lower_the_loss(self, family, domain, tiny_domains):
        model, batch = self._build(family, domain, tiny_domains)
        optimizer = nn.Adam(model.parameters(), lr=1e-2)
        losses = []
        for _ in range(10):
            optimizer.zero_grad()
            loss = model.loss(batch)
            assert np.isfinite(loss.item())
            loss.backward()
            optimizer.step()
            losses.append(loss.item())
        assert model.loss(batch).item() < losses[0]

    def test_every_parameter_gets_a_gradient(self, family, domain, tiny_domains):
        model, batch = self._build(family, domain, tiny_domains)
        model.loss(batch).backward()
        missing = [name for name, param in model.named_parameters()
                   if param.grad is None]
        assert not missing, f"{family}: no gradient for {missing}"
        assert all(np.isfinite(param.grad).all()
                   for param in model.parameters())


# ---------------------------------------------------------------------- #
# Construction-time weights of every family, pinned by digest
# ---------------------------------------------------------------------- #
#: sha256 of each family's ``state_dict()`` straight after construction with
#: the module's tiny ``config`` (seed 0), 40 items and 12-d features.  The
#: thirteen Transformer families draw the sequence-encoder weights first and
#: then their own; GRU4Rec, GRCN and BM3 build no Transformer and draw only
#: their own weights.
INITIAL_STATE_DIGESTS = {
    "bm3": "6597feaec17d94e0d549687daac9722c1ca079831c3d1dc8d70c468ec9f4a784",
    "cl4srec": "6b4b5c90abd67b1fde9fb6752b311aa1176db6365bd74bc26ba159622d4d5907",
    "fdsa": "393220d91f99511a0ef0981d2c135dddf9c8003dd2d62d7ece16de2c55a914d9",
    "grcn": "3b8622ab885f052840b181615312c8c3ac8fea54c4791f3670cd5d3a4bd1ae3c",
    "gru4rec": "8824452194a02e55206ddfc32261be5251317a43bcc849846e3e2fe6a5fa42cf",
    "s3rec": "85a4d01c0f472fae160970aef3bbfb102112945fa07e36150013f84882c17775",
    "sasrec_id": "6b4b5c90abd67b1fde9fb6752b311aa1176db6365bd74bc26ba159622d4d5907",
    "sasrec_t": "572dc9d32c5cf025b9869a912f2d76c477a7fdaa158919eb98a881f409c5e836",
    "sasrec_t_id": "2b3bab4b7b4473d32a5f5ce4e77a4942010a98f2049774871ba1a2ccf90942f0",
    "unisrec_t": "41aca08b7708c3de1d2250484f06ce339743e2ec8eb200a2be46e06a8278bece",
    "unisrec_t_id": "f662e9162a5d09a4000fcb74582f7924d93b211bc99a9f302f31eed121b8e6ae",
    "vqrec": "5248c8c5b57f05702cf09ea5e616b9e30a3b4431a837ebc3268cb8e92ff9a94d",
    "whitenrec": "572dc9d32c5cf025b9869a912f2d76c477a7fdaa158919eb98a881f409c5e836",
    "whitenrec_id": "2b3bab4b7b4473d32a5f5ce4e77a4942010a98f2049774871ba1a2ccf90942f0",
    "whitenrec_plus": "2f05620cd62fcb2ee2c4268385099593ced492b7058b1e454a157c35f976c0b2",
    "whitenrec_plus_id": "1c735413aa1d9064d4b0643a02f02bd7e0f9d12beef89d2b33546937c25b1d62",
}


def state_digest(model) -> str:
    digest = hashlib.sha256()
    for name, array in sorted(model.state_dict().items()):
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("family", available_models())
def test_initial_weights_are_pinned(family, config, num_items, features):
    model = build_model(family, num_items, feature_table=features,
                        train_sequences={}, config=config)
    assert state_digest(model) == INITIAL_STATE_DIGESTS[family]
