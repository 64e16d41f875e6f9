"""Paper tables and figures as views over one grid of trained cells.

A *cell* is one trained model: the ``(dataset, scale, cold_start, seed)`` of
a :func:`~repro.experiments.presets.prepare_experiment` setup, the canonical
model name, its constructor kwargs and its training overrides.
:func:`train_model` fits each cell once per process, so artefacts that read
the same model share one training run (Table III's thirteen default cells
contain Table I's, Fig. 6's and Fig. 7's).  Each ``run_*`` function is a view
that regenerates the rows or series of one artefact of the paper's evaluation
section and returns structured data (plus a human-readable ASCII rendering
where appropriate).  The benchmark harness in ``benchmarks/`` simply calls
these runners and prints the result.

The runners accept a ``scale`` argument ("bench" | "full") so the same code
serves both fast regression benchmarks and longer, closer-to-paper runs.
"""

from __future__ import annotations

import copy
import dataclasses
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.alignment import alignment_and_uniformity
from ..analysis.anisotropy import (
    analyze_embeddings,
    cosine_cdf_by_group,
    singular_value_spectrum,
)
from ..analysis.conditioning import ConditioningTrace, trace_from_result
from ..analysis.reporting import format_metric_table, format_table, relative_improvement
from ..analysis.tsne import pca_projection, tsne
from ..data.statistics import dataset_statistics
from ..models.registry import build_model, canonical_name, constructor_defaults, display_label
from ..text.features import strip_padding_row
from ..training.trainer import Trainer, TrainingResult
from .presets import _CELL_CACHE, ExperimentSetup, prepare_experiment, setup_key

#: datasets in the paper's order
PAPER_DATASETS: Tuple[str, ...] = ("arts", "toys", "tools", "food")

#: three Amazon datasets used by Table I and Fig. 5
AMAZON_DATASETS: Tuple[str, ...] = ("arts", "toys", "tools")

#: ``(label, model name, constructor kwargs)``: one cell of a view
Variant = Tuple[object, str, Dict]


# ---------------------------------------------------------------------- #
# Cells and the helpers the views share
# ---------------------------------------------------------------------- #
@dataclass
class ModelRunRecord:
    """A single trained model's metrics and bookkeeping."""

    model_name: str
    dataset: str
    test_metrics: Dict[str, float]
    validation_metrics: Dict[str, float] = field(default_factory=dict)
    num_parameters: int = 0
    seconds_per_epoch: float = 0.0
    result: Optional[TrainingResult] = None
    model: Optional[object] = None


def train_model(setup: ExperimentSetup, model_name: str,
                model_kwargs: Optional[Dict] = None,
                training_overrides: Optional[Dict] = None) -> ModelRunRecord:
    """The cell ``(setup, model, kwargs, overrides)``, trained and tested.

    The first call fits the cell; later calls in the same process read it
    back (:func:`~repro.experiments.presets.clear_setup_cache` drops it).  A
    kwarg equal to the constructor's default and an override equal to the
    setup's ``TrainingConfig`` value are dropped before keying, so
    ``{"num_groups": 1}`` and ``{}`` name the same WhitenRec cell.  The
    record keeps the final model and the :class:`TrainingResult`; its metric
    dicts are copies, so no caller can change another's numbers.
    """
    name = canonical_name(model_name)
    defaults = constructor_defaults(name)
    model_kwargs = {key: value for key, value in (model_kwargs or {}).items()
                    if key not in defaults or defaults[key] != value}
    training_overrides = {key: value for key, value in (training_overrides or {}).items()
                          if getattr(setup.training_config, key) != value}
    # repr, not the items: a kwarg or override value may be a list
    key = (setup_key(setup), name, repr(sorted(model_kwargs.items())),
           repr(sorted(training_overrides.items())))
    if key not in _CELL_CACHE:
        model = build_model(
            name,
            num_items=setup.num_items,
            feature_table=setup.feature_table,
            train_sequences=setup.split.train_sequences,
            config=copy.deepcopy(setup.model_config),
            **model_kwargs,
        )
        training_config = dataclasses.replace(setup.training_config, **training_overrides)
        result = Trainer(model, setup.split, training_config).fit()
        _CELL_CACHE[key] = ModelRunRecord(
            model_name=name,
            dataset=setup.dataset.name,
            test_metrics=result.test_metrics,
            validation_metrics=result.best_validation,
            num_parameters=result.num_parameters,
            seconds_per_epoch=result.seconds_per_epoch,
            result=result,
            model=model,
        )
    cell = _CELL_CACHE[key]
    return dataclasses.replace(cell, model_name=model_name,
                               test_metrics=dict(cell.test_metrics),
                               validation_metrics=dict(cell.validation_metrics))


def _epoch_overrides(epochs):
    """A view's ``epochs`` argument as training overrides (None: the setup's)."""
    return {} if epochs is None else {"num_epochs": int(epochs)}


def _sweep(setup: ExperimentSetup, variants: Iterable[Variant],
           epochs: Optional[int] = None) -> Dict:
    """Test metrics of each variant's cell on ``setup``, keyed by label."""
    overrides = _epoch_overrides(epochs)
    return {
        label: train_model(setup, model_name, model_kwargs=kwargs,
                           training_overrides=overrides).test_metrics
        for label, model_name, kwargs in variants
    }


def _labelled(models: Sequence[str]) -> List[Variant]:
    """Each model at its default kwargs, labelled as in the paper's tables."""
    return [(display_label(model_name), model_name, {}) for model_name in models]


def _metric_sweep(dataset: str, scale: str, title: str,
                  variants: Iterable[Variant], epochs: Optional[int]) -> Dict:
    """One dataset's R@20 / N@20 table over the variants' cells."""
    results = _sweep(prepare_experiment(dataset, scale=scale), variants, epochs)
    table = format_metric_table(results, metric_order=["recall@20", "ndcg@20"],
                                title=f"{title} ({dataset})")
    return {"dataset": dataset, "results": results, "table": table}


def _per_dataset(datasets: Sequence[str], scale: str, title: str,
                 variants: Sequence[Variant], metrics: Sequence[str],
                 epochs: Optional[int] = None, cold_start: bool = False) -> Dict:
    """One metric table per dataset over the same variants' cells."""
    results = {
        dataset: _sweep(prepare_experiment(dataset, scale=scale, cold_start=cold_start),
                        variants, epochs)
        for dataset in datasets
    }
    tables = {
        dataset: format_metric_table(per_model, metric_order=list(metrics),
                                     title=f"{title} ({dataset})")
        for dataset, per_model in results.items()
    }
    return {"results": results, "tables": tables}


# ---------------------------------------------------------------------- #
# Fig. 2 — singular value spectrum of the pre-trained text embeddings
# ---------------------------------------------------------------------- #
def run_fig2_singular_values(dataset: str = "arts", scale: str = "bench") -> Dict:
    """Normalised singular values of the raw item text embeddings (Fig. 2)."""
    setup = prepare_experiment(dataset, scale=scale)
    embeddings = strip_padding_row(setup.feature_table)
    spectrum = singular_value_spectrum(embeddings, normalize=True)
    report = analyze_embeddings(embeddings)
    return {
        "dataset": dataset,
        "singular_values": spectrum,
        "mean_pairwise_cosine": report.mean_cosine,
        "top1_spectral_energy": report.top1_spectral_energy,
    }


# ---------------------------------------------------------------------- #
# Table I — SASRec_ID vs SASRec_T vs WhitenRec
# ---------------------------------------------------------------------- #
def run_table1_whitening_gain(datasets: Sequence[str] = AMAZON_DATASETS,
                              scale: str = "bench") -> Dict:
    """Table I: whitening the text features beats both ID- and text-only SASRec."""
    metrics = ("recall@20", "ndcg@20")
    rows: List[List] = []
    records: Dict[str, Dict[str, ModelRunRecord]] = {}
    for dataset in datasets:
        setup = prepare_experiment(dataset, scale=scale)
        per_model: Dict[str, ModelRunRecord] = {}
        for model_name in ("sasrec_id", "sasrec_t", "whitenrec"):
            per_model[model_name] = train_model(setup, model_name)
        records[dataset] = per_model
        best_baseline_recall = max(
            per_model["sasrec_id"].test_metrics["recall@20"],
            per_model["sasrec_t"].test_metrics["recall@20"],
        )
        improvement = relative_improvement(
            per_model["whitenrec"].test_metrics["recall@20"], best_baseline_recall
        )
        for metric in metrics:
            rows.append(
                [
                    dataset,
                    metric,
                    per_model["sasrec_id"].test_metrics[metric],
                    per_model["sasrec_t"].test_metrics[metric],
                    per_model["whitenrec"].test_metrics[metric],
                    improvement if metric == "recall@20" else
                    relative_improvement(
                        per_model["whitenrec"].test_metrics[metric],
                        max(per_model["sasrec_id"].test_metrics[metric],
                            per_model["sasrec_t"].test_metrics[metric]),
                    ),
                ]
            )
    table = format_table(
        ["dataset", "metric", "SASRec_ID", "SASRec_T", "WhitenRec", "%Improv"],
        rows,
        title="Table I — effect of whitening (test metrics)",
    )
    return {"rows": rows, "records": records, "table": table}


# ---------------------------------------------------------------------- #
# Fig. 3 — t-SNE of raw vs whitened embeddings
# ---------------------------------------------------------------------- #
def run_fig3_tsne(dataset: str = "arts", scale: str = "bench",
                  groups: Sequence = ("raw", 1, 4, 32),
                  max_points: int = 300, use_tsne: bool = True) -> Dict:
    """Fig. 3: 2-D projections of item embeddings for raw / G=1 / G=4 / G=32."""
    from ..whitening.group import whiten_with_groups

    setup = prepare_experiment(dataset, scale=scale)
    embeddings = strip_padding_row(setup.feature_table)
    rng = np.random.default_rng(0)
    if embeddings.shape[0] > max_points:
        sample = rng.choice(embeddings.shape[0], size=max_points, replace=False)
        embeddings = embeddings[sample]

    projections: Dict[str, np.ndarray] = {}
    spreads: Dict[str, float] = {}
    for group in groups:
        label = "Raw" if group in ("raw", None) else f"G={int(group)}"
        transformed = (
            embeddings if label == "Raw" else whiten_with_groups(embeddings, int(group))
        )
        if use_tsne:
            coords = tsne(transformed, num_iterations=150, perplexity=20.0, seed=0,
                          initial=pca_projection(transformed, 2) * 1e-3)
        else:
            coords = pca_projection(transformed, 2)
        projections[label] = coords
        # "Spread uniformity": ratio of the two principal std devs of the 2-D
        # cloud; ≈1 for the spherical whitened cloud, ≪1 for the raw cone.
        stds = np.std(coords, axis=0)
        spreads[label] = float(stds.min() / max(stds.max(), 1e-12))
    return {"dataset": dataset, "projections": projections, "spread_ratio": spreads}


# ---------------------------------------------------------------------- #
# Fig. 4 — CDF of pairwise cosine similarity per whitening strength
# ---------------------------------------------------------------------- #
def run_fig4_cosine_cdf(dataset: str = "arts", scale: str = "bench",
                        groups: Sequence = ("raw", 1, 4, 8, 16, 32, 64)) -> Dict:
    """Fig. 4: cosine-similarity CDF for raw features and G ∈ {1,...}."""
    setup = prepare_experiment(dataset, scale=scale)
    embeddings = strip_padding_row(setup.feature_table)
    usable_groups = [g for g in groups if g in ("raw", None) or int(g) <= embeddings.shape[1]]
    cdfs = cosine_cdf_by_group(embeddings, usable_groups)
    return {"dataset": dataset, "cdfs": cdfs}


# ---------------------------------------------------------------------- #
# Fig. 5 — WhitenRec performance vs number of groups
# ---------------------------------------------------------------------- #
def run_fig5_group_sweep(dataset: str = "arts", scale: str = "bench",
                         groups: Sequence[int] = (1, 4, 8, 16, 32),
                         epochs: Optional[int] = None) -> Dict:
    """Fig. 5: WhitenRec R@20 / N@20 as the whitening group count G varies."""
    setup = prepare_experiment(dataset, scale=scale)
    feature_dim = setup.feature_table.shape[1]
    series = _sweep(setup, [(group, "whitenrec", {"num_groups": group})
                            for group in groups if group <= feature_dim], epochs)
    rows = [
        [group, metrics["recall@20"], metrics["ndcg@20"]]
        for group, metrics in series.items()
    ]
    table = format_table(
        ["G", "R@20", "N@20"], rows,
        title=f"Fig. 5 — WhitenRec group sweep ({dataset})",
    )
    return {"dataset": dataset, "series": series, "table": table}


# ---------------------------------------------------------------------- #
# Fig. 6 — alignment / uniformity
# ---------------------------------------------------------------------- #
FIG6_MODELS: Tuple[str, ...] = (
    "sasrec_id", "sasrec_t", "unisrec_t", "unisrec_t_id", "whitenrec", "whitenrec_plus",
)


def run_fig6_alignment_uniformity(datasets: Sequence[str] = ("arts",),
                                  models: Sequence[str] = FIG6_MODELS,
                                  scale: str = "bench") -> Dict:
    """Fig. 6: alignment vs user/item uniformity of converged models."""
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset in datasets:
        setup = prepare_experiment(dataset, scale=scale)
        per_model: Dict[str, Dict[str, float]] = {}
        for model_name in models:
            # The trainer leaves the best weights loaded in the cell's model,
            # so the analysis reflects the converged run (the star markers of
            # Fig. 6).
            record = train_model(setup, model_name)
            stats = alignment_and_uniformity(
                record.model, setup.split.validation,
                max_sequence_length=setup.training_config.max_sequence_length,
            )
            per_model[display_label(model_name)] = {
                "alignment": stats["alignment"],
                "user_uniformity": stats["user_uniformity"],
                "item_uniformity": stats["item_uniformity"],
                "ndcg@20": record.test_metrics.get("ndcg@20", float("nan")),
            }
        results[dataset] = per_model
    tables = {
        dataset: format_metric_table(
            per_model,
            metric_order=["alignment", "user_uniformity", "item_uniformity", "ndcg@20"],
            title=f"Fig. 6 — alignment/uniformity ({dataset})",
        )
        for dataset, per_model in results.items()
    }
    return {"results": results, "tables": tables}


# ---------------------------------------------------------------------- #
# Fig. 7 — conditioning and training loss trajectories
# ---------------------------------------------------------------------- #
def run_fig7_conditioning(datasets: Sequence[str] = ("arts",),
                          models: Sequence[str] = FIG6_MODELS,
                          scale: str = "bench") -> Dict:
    """Fig. 7: condition number of the item matrix and loss per epoch."""
    traces: Dict[str, Dict[str, ConditioningTrace]] = {}
    for dataset in datasets:
        setup = prepare_experiment(dataset, scale=scale)
        per_model: Dict[str, ConditioningTrace] = {}
        for model_name in models:
            # Every cell tracks the condition number (see prepare_experiment).
            record = train_model(setup, model_name)
            per_model[display_label(model_name)] = trace_from_result(
                display_label(model_name), record.result
            )
        traces[dataset] = per_model
    rows = []
    for dataset, per_model in traces.items():
        for name, trace in per_model.items():
            rows.append(
                [
                    dataset,
                    name,
                    trace.final_condition_number or float("nan"),
                    trace.final_loss or float("nan"),
                ]
            )
    table = format_table(
        ["dataset", "model", "final condition number", "final training loss"],
        rows, title="Fig. 7 — conditioning summary",
    )
    return {"traces": traces, "table": table}


# ---------------------------------------------------------------------- #
# Table II — dataset statistics
# ---------------------------------------------------------------------- #
def run_table2_dataset_statistics(datasets: Sequence[str] = PAPER_DATASETS,
                                  scale: str = "bench") -> Dict:
    """Table II: #users / #items / #interactions / Avg.n / Avg.i per dataset."""
    rows = []
    stats = {}
    for dataset in datasets:
        setup = prepare_experiment(dataset, scale=scale)
        statistics = dataset_statistics(setup.dataset)
        stats[dataset] = statistics
        record = statistics.as_dict()
        rows.append([record[key] for key in ("dataset", "#Users", "#Items", "#Inter.", "Avg. n", "Avg. i")])
    table = format_table(
        ["Dataset", "#Users", "#Items", "#Inter.", "Avg. n", "Avg. i"],
        rows, precision=2, title="Table II — dataset statistics (synthetic, scaled down)",
    )
    return {"statistics": stats, "rows": rows, "table": table}


# ---------------------------------------------------------------------- #
# Table III — warm-start comparison
# ---------------------------------------------------------------------- #
TABLE3_MODELS: Tuple[str, ...] = (
    "grcn", "bm3", "sasrec_id", "cl4srec", "sasrec_t", "sasrec_t_id",
    "s3rec", "fdsa", "unisrec_t", "unisrec_t_id", "vqrec",
    "whitenrec", "whitenrec_plus",
)


def run_table3_warm_start(datasets: Sequence[str] = ("arts",),
                          models: Sequence[str] = TABLE3_MODELS,
                          scale: str = "bench") -> Dict:
    """Table III: warm-start comparison of all methods (R/N @20/@50)."""
    return _per_dataset(datasets, scale, "Table III — warm-start comparison",
                        _labelled(models), ("recall@20", "recall@50", "ndcg@20", "ndcg@50"))


# ---------------------------------------------------------------------- #
# Table IV — cold-start comparison
# ---------------------------------------------------------------------- #
TABLE4_MODELS: Tuple[Tuple[str, str, Dict], ...] = (
    ("SASRec (T)", "sasrec_t", {}),
    ("UniSRec (T)", "unisrec_t", {}),
    ("WhitenRec G=1 (T)", "whitenrec", {"num_groups": 1}),
    ("WhitenRec G>1 (T)", "whitenrec", {"num_groups": 4}),
    ("WhitenRec+ (T)", "whitenrec_plus", {}),
)


def run_table4_cold_start(datasets: Sequence[str] = ("arts",),
                          scale: str = "bench",
                          epochs: Optional[int] = None) -> Dict:
    """Table IV: cold-start comparison of the text-only methods."""
    return _per_dataset(datasets, scale, "Table IV — cold-start comparison",
                        TABLE4_MODELS, ("recall@20", "ndcg@20"), epochs, cold_start=True)


# ---------------------------------------------------------------------- #
# Fig. 8 — WhitenRec+ relaxed-branch group sweep
# ---------------------------------------------------------------------- #
def run_fig8_whitenrec_plus_groups(dataset: str = "arts", scale: str = "bench",
                                   groups: Sequence = (4, 8, 16, 32, "raw"),
                                   epochs: Optional[int] = None) -> Dict:
    """Fig. 8: WhitenRec+ R@20 as the relaxed branch's G varies (plus WhitenRec)."""
    setup = prepare_experiment(dataset, scale=scale)
    feature_dim = setup.feature_table.shape[1]
    reference = train_model(setup, "whitenrec",
                            training_overrides=_epoch_overrides(epochs)).test_metrics
    series = _sweep(setup, [
        ("Raw" if group in ("raw", None) else str(int(group)),
         "whitenrec_plus", {"relaxed_groups": group})
        for group in groups
        if group in ("raw", None) or int(group) <= feature_dim
    ], epochs)
    rows = [[label, metrics["recall@20"], metrics["ndcg@20"]] for label, metrics in series.items()]
    rows.append(["WhitenRec (ref)", reference["recall@20"], reference["ndcg@20"]])
    table = format_table(
        ["relaxed G", "R@20", "N@20"], rows,
        title=f"Fig. 8 — WhitenRec+ relaxed-group sweep ({dataset})",
    )
    return {
        "dataset": dataset,
        "series": series,
        "whitenrec_reference": reference,
        "table": table,
    }


# ---------------------------------------------------------------------- #
# Table V — projection head ablation
# ---------------------------------------------------------------------- #
TABLE5_HEADS: Tuple[str, ...] = ("linear", "mlp-1", "mlp-2", "mlp-3", "moe")


def run_table5_projection_head(dataset: str = "arts", scale: str = "bench",
                               heads: Sequence[str] = TABLE5_HEADS,
                               epochs: Optional[int] = None) -> Dict:
    """Table V: WhitenRec+ with Linear / MLP-1 / MLP-2 / MLP-3 / MoE heads."""
    return _metric_sweep(dataset, scale, "Table V — projection head ablation", [
        (head.upper() if head != "moe" else "MoE", "whitenrec_plus", {"projection": head})
        for head in heads
    ], epochs)


# ---------------------------------------------------------------------- #
# Table VI — whitening method ablation
# ---------------------------------------------------------------------- #
TABLE6_METHODS: Tuple[str, ...] = ("pw", "bert_flow", "pca", "batchnorm", "cholesky", "zca")

_METHOD_LABELS = {
    "pw": "PW", "bert_flow": "BERT-flow", "pca": "PCA",
    "batchnorm": "BN", "cholesky": "CD", "zca": "ZCA",
}


def run_table6_whitening_methods(dataset: str = "arts", scale: str = "bench",
                                 methods: Sequence[str] = TABLE6_METHODS,
                                 epochs: Optional[int] = None) -> Dict:
    """Table VI: WhitenRec+ with different whitening transformations."""
    return _metric_sweep(dataset, scale, "Table VI — whitening method ablation", [
        (_METHOD_LABELS.get(method, method), "whitenrec_plus", {"whitening_method": method})
        for method in methods
    ], epochs)


# ---------------------------------------------------------------------- #
# Table VII — ensemble method ablation
# ---------------------------------------------------------------------- #
def run_table7_ensemble_methods(dataset: str = "arts", scale: str = "bench",
                                ensembles: Sequence[str] = ("sum", "concat", "attn"),
                                epochs: Optional[int] = None) -> Dict:
    """Table VII: Sum vs Concat vs Attn combination of the two whitened branches."""
    return _metric_sweep(dataset, scale, "Table VII — ensemble method ablation", [
        (ensemble.capitalize(), "whitenrec_plus", {"ensemble": ensemble})
        for ensemble in ensembles
    ], epochs)


# ---------------------------------------------------------------------- #
# Table VIII — adding ID embeddings
# ---------------------------------------------------------------------- #
def run_table8_id_embeddings(datasets: Sequence[str] = ("arts",),
                             scale: str = "bench",
                             epochs: Optional[int] = None) -> Dict:
    """Table VIII: WhitenRec / WhitenRec+ with text-only vs text+ID item encoders."""
    variants = _labelled(("whitenrec", "whitenrec_id", "whitenrec_plus", "whitenrec_plus_id"))
    return _per_dataset(datasets, scale, "Table VIII — effect of ID embeddings",
                        variants, ("recall@20", "ndcg@20"), epochs)


# ---------------------------------------------------------------------- #
# Table IX — efficiency comparison
# ---------------------------------------------------------------------- #
def run_table9_efficiency(dataset: str = "tools", scale: str = "bench") -> Dict:
    """Table IX: parameter counts and seconds/epoch for UniSRec vs WhitenRec(+)."""
    variants = _labelled(("unisrec_t", "unisrec_t_id", "whitenrec", "whitenrec_id",
                          "whitenrec_plus", "whitenrec_plus_id"))
    setup = prepare_experiment(dataset, scale=scale)
    rows = []
    results: Dict[str, Dict[str, float]] = {}
    for label, model_name, kwargs in variants:
        record = train_model(
            setup, model_name, model_kwargs=kwargs,
            training_overrides={"num_epochs": 2, "early_stopping_patience": 2},
        )
        results[label] = {
            "#params": float(record.num_parameters),
            "s/epoch": record.seconds_per_epoch,
        }
        rows.append([label, record.num_parameters, round(record.seconds_per_epoch, 3)])
    table = format_table(
        ["model", "#Params", "s/Epoch"], rows, precision=3,
        title=f"Table IX — efficiency ({dataset})",
    )
    return {"dataset": dataset, "results": results, "table": table}


# ---------------------------------------------------------------------- #
# Extra ablation — ZCA epsilon sensitivity (beyond the paper)
# ---------------------------------------------------------------------- #
def run_ablation_zca_epsilon(dataset: str = "arts", scale: str = "bench",
                             epsilons: Sequence[float] = (1e-2, 1e-4, 1e-6),
                             epochs: Optional[int] = None) -> Dict:
    """Sensitivity of WhitenRec to the covariance ridge used by ZCA."""
    return _metric_sweep(dataset, scale, "Ablation — ZCA epsilon sensitivity", [
        (f"eps={eps:g}", "whitenrec", {"whitening_eps": eps}) for eps in epsilons
    ], epochs)
