"""WhitenRec and WhitenRec+ — the paper's proposed models.

WhitenRec (Fig. 1c) is SASRec_T with a whitening transformation applied to
the frozen pre-trained text embeddings before the projection head.  The
whitening is pre-computed (Sec. IV-E) and adds no trainable parameters.

WhitenRec+ (Fig. 1d) applies two whitening transformations with different
decorrelation strengths — fully whitened (G=1) and relaxed / group-whitened
(G>1) — feeds both through a *shared* projection head, and combines the
outputs (element-wise sum by default; Table VII also evaluates concatenation
and an attention combiner).  Table VIII's ``T+ID`` variant adds an ID
embedding by element-wise summation.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..nn import functional as F
from ..nn.tensor import Tensor, concatenate, stack
from ..whitening import WhiteningTransform, build_whitening
from ..whitening.group import GroupSpec
from ..whitening.parametric import ParametricWhitening
from .base import (FittedWhitening, ModelConfig, SequentialRecommender,
                   WhiteningSpec)


def _whitened_features(feature_table: np.ndarray, method: str,
                       num_groups: GroupSpec, eps: float
                       ) -> Tuple[WhiteningTransform, nn.FrozenEmbedding]:
    """Fit a whitening on the item rows of a padded feature table and hold
    the whitened table (see
    :meth:`~repro.whitening.WhiteningTransform.transform_padded`) in the
    default dtype.

    The padding row (index 0) is excluded from the statistics and zero in
    the output, so the padding item never leaks into the whitening.  The
    statistics are float64 whatever the default dtype is.  The fitted
    transform is returned too: it is what whitens a row the way the model
    did, and what a serving store adopts instead of refitting.
    """
    transform = build_whitening(method, num_groups, eps)
    transform.fit(feature_table[1:])
    table = transform.transform_padded(feature_table, nn.get_default_dtype())
    return transform, nn.FrozenEmbedding.adopt(table, padding_idx=0)


class WhitenRec(SequentialRecommender):
    """Text-only SASRec over whitened pre-trained text embeddings.

    Parameters
    ----------
    num_items:
        Catalogue size (item ids 1..num_items; 0 is padding).
    feature_table:
        Padded ``(num_items + 1, d_t)`` matrix of pre-trained text embeddings.
    num_groups:
        Whitening group count G.  ``1`` (default) is full ZCA whitening;
        larger values are the relaxed whitening of Eqn. (5); ``"raw"``
        disables whitening (recovering SASRec_T behaviour).
    whitening_method:
        Which whitening family to use when ``num_groups == 1``: ``"zca"``
        (default), ``"pca"``, ``"cholesky"``/``"cd"``, ``"batchnorm"``/``"bn"``
        or ``"bert_flow"``.
    """

    model_name = "whitenrec"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None,
                 num_groups: GroupSpec = 1,
                 whitening_method: str = "zca",
                 whitening_eps: float = 1e-5,
                 use_id_embeddings: bool = False):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        self.feature_dim = feature_table.shape[1]
        self.num_groups = num_groups
        self.whitening_method = whitening_method
        self.whitening_eps = whitening_eps

        self.whitening, self.features = _whitened_features(
            feature_table, whitening_method, num_groups, whitening_eps)
        self.projection = nn.MLPProjectionHead(
            in_dim=self.feature_dim,
            out_dim=self.hidden_dim,
            num_hidden_layers=self.config.projection_hidden_layers,
            rng=self._rng,
        )
        self.use_id_embeddings = use_id_embeddings
        if use_id_embeddings:
            self.item_embedding = nn.Embedding(
                num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
            )

    def fitted_whitenings(self) -> Dict[WhiteningSpec, FittedWhitening]:
        return {(self.whitening_method, self.num_groups, self.whitening_eps):
                (self.whitening, self.features.all_embeddings().data)}

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        representation = self.projection(self.features.all_embeddings(rows))
        if self.use_id_embeddings:
            representation = representation + self.item_embedding.all_embeddings(rows)
        return representation


class AttentionCombiner(nn.Module):
    """Attention-based ensemble combiner (the "Attn" column of Table VII).

    Each branch representation is scored by a small learned query vector; the
    branch outputs are averaged with the resulting softmax weights.
    """

    def __init__(self, hidden_dim: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.score = nn.Linear(hidden_dim, 1, rng=rng)

    def forward(self, branches: Sequence[Tensor]) -> Tensor:
        stacked = stack(list(branches), axis=0)  # (num_branches, items, dim)
        logits = self.score(stacked)  # (num_branches, items, 1)
        weights = F.softmax(logits, axis=0)
        weighted = stacked * weights
        return weighted.sum(axis=0)


class WhitenRecPlus(SequentialRecommender):
    """Ensemble of fully whitened and relaxed whitened item representations.

    Parameters
    ----------
    relaxed_groups:
        G of the relaxed branch (``"raw"`` keeps the original features,
        mirroring the rightmost point of Fig. 8).  The default of 4 follows
        the paper's observation that smaller G works best on the Amazon
        datasets.
    ensemble:
        ``"sum"`` (default), ``"concat"`` or ``"attn"`` (Table VII).
    projection:
        ``"mlp"`` (default, 2 hidden layers), ``"linear"``, ``"mlp-1"``,
        ``"mlp-3"`` or ``"moe"`` (Table V).
    whitening_method:
        Whitening family applied to both branches (Table VI).  ``"pw"``
        replaces the pre-computed whitening with a trainable parametric
        whitening layer shared by both branches (the UniSRec-style baseline).
    use_id_embeddings:
        Add a trainable ID embedding via element-wise sum (Table VIII).
    """

    model_name = "whitenrec_plus"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None,
                 full_groups: GroupSpec = 1,
                 relaxed_groups: GroupSpec = 4,
                 ensemble: str = "sum",
                 projection: str = "mlp",
                 whitening_method: str = "zca",
                 whitening_eps: float = 1e-5,
                 use_id_embeddings: bool = False):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        if ensemble not in {"sum", "concat", "attn"}:
            raise ValueError("ensemble must be one of 'sum', 'concat', 'attn'")
        self.feature_dim = feature_table.shape[1]
        self.ensemble = ensemble
        self.whitening_method = whitening_method
        self.whitening_eps = whitening_eps
        self.full_groups = full_groups
        self.relaxed_groups = relaxed_groups
        self.use_parametric_whitening = whitening_method == "pw"

        if self.use_parametric_whitening:
            # PW is trainable, so both branches read the raw features and the
            # whitening happens inside the graph.
            self.features_full = nn.FrozenEmbedding(feature_table, padding_idx=0)
            self.features_relaxed = nn.FrozenEmbedding(feature_table, padding_idx=0)
            self.parametric_whitening = ParametricWhitening(
                self.feature_dim, self.feature_dim, rng=self._rng
            )
        else:
            self.whitening_full, self.features_full = _whitened_features(
                feature_table, whitening_method, full_groups, whitening_eps)
            self.whitening_relaxed, self.features_relaxed = _whitened_features(
                feature_table, whitening_method, relaxed_groups, whitening_eps)

        self.projection_kind = projection
        self.projection_head = self._build_projection(projection)

        if ensemble == "concat":
            # Concatenated branch outputs need to be mapped back to hidden_dim.
            self.concat_projection = nn.Linear(
                2 * self.hidden_dim, self.hidden_dim, rng=self._rng
            )
        elif ensemble == "attn":
            self.attention_combiner = AttentionCombiner(self.hidden_dim, rng=self._rng)

        self.use_id_embeddings = use_id_embeddings
        if use_id_embeddings:
            self.item_embedding = nn.Embedding(
                num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
            )

    # ------------------------------------------------------------------ #
    # Projection head variants (Table V)
    # ------------------------------------------------------------------ #
    def _build_projection(self, projection: str) -> nn.Module:
        if projection == "moe":
            return nn.MoEProjectionHead(
                in_dim=self.feature_dim, out_dim=self.hidden_dim,
                num_experts=4, rng=self._rng,
            )
        hidden_layers = {
            "linear": 0,
            "mlp-1": 1,
            "mlp": self.config.projection_hidden_layers,
            "mlp-2": 2,
            "mlp-3": 3,
        }.get(projection)
        if hidden_layers is None:
            raise ValueError(f"unknown projection head {projection!r}")
        return nn.MLPProjectionHead(
            in_dim=self.feature_dim,
            out_dim=self.hidden_dim,
            num_hidden_layers=hidden_layers,
            rng=self._rng,
        )

    def fitted_whitenings(self) -> Dict[WhiteningSpec, FittedWhitening]:
        if self.use_parametric_whitening:
            return {}
        return {(self.whitening_method, groups, self.whitening_eps):
                (transform, features.all_embeddings().data)
                for groups, transform, features in (
                    (self.full_groups, self.whitening_full, self.features_full),
                    (self.relaxed_groups, self.whitening_relaxed,
                     self.features_relaxed))}

    # ------------------------------------------------------------------ #
    # Item encoder (Eqn. 6)
    # ------------------------------------------------------------------ #
    def _branch_inputs(self, rows: Optional[slice]) -> List[Tensor]:
        full = self.features_full.all_embeddings(rows)
        relaxed = self.features_relaxed.all_embeddings(rows)
        if self.use_parametric_whitening:
            full = self.parametric_whitening(full)
            relaxed = self.parametric_whitening(relaxed)
        return [full, relaxed]

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        branch_outputs = [self.projection_head(branch)
                          for branch in self._branch_inputs(rows)]
        if self.ensemble == "sum":
            combined = branch_outputs[0] + branch_outputs[1]
        elif self.ensemble == "concat":
            combined = self.concat_projection(concatenate(branch_outputs, axis=-1))
        else:  # "attn"
            combined = self.attention_combiner(branch_outputs)
        if self.use_id_embeddings:
            combined = combined + self.item_embedding.all_embeddings(rows)
        return combined
