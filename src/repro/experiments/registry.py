"""Experiment registry: every paper table/figure mapped to its runner.

Each entry knows which artefact of the paper it reproduces, a one-line
description, the runner function that regenerates it and the benchmark file
that calls that runner; ``repro list`` prints them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from . import runners


@dataclass(frozen=True)
class ExperimentSpec:
    """Metadata of one reproducible experiment."""

    experiment_id: str
    artefact: str
    kind: str  # "table" or "figure"
    description: str
    runner: Callable
    benchmark: str


_EXPERIMENTS: Dict[str, ExperimentSpec] = {}


def _register(experiment_id: str, artefact: str, kind: str, description: str,
              runner: Callable, benchmark: str) -> None:
    _EXPERIMENTS[experiment_id] = ExperimentSpec(
        experiment_id=experiment_id,
        artefact=artefact,
        kind=kind,
        description=description,
        runner=runner,
        benchmark=benchmark,
    )


_register(
    "fig2", "Figure 2", "figure",
    "Singular value spectrum of the pre-trained text embeddings (anisotropy).",
    runners.run_fig2_singular_values,
    "benchmarks/test_bench_fig2_singular_values.py",
)
_register(
    "tab1", "Table I", "table",
    "SASRec_ID vs SASRec_T vs WhitenRec: whitening the text features wins.",
    runners.run_table1_whitening_gain,
    "benchmarks/test_bench_table1_whitening_gain.py",
)
_register(
    "fig3", "Figure 3", "figure",
    "t-SNE projections of item embeddings: raw vs whitened (G=1, 4, 32).",
    runners.run_fig3_tsne,
    "benchmarks/test_bench_fig3_tsne.py",
)
_register(
    "fig4", "Figure 4", "figure",
    "CDF of pairwise cosine similarity for different whitening strengths.",
    runners.run_fig4_cosine_cdf,
    "benchmarks/test_bench_fig4_cosine_cdf.py",
)
_register(
    "fig5", "Figure 5", "figure",
    "WhitenRec performance as the number of whitening groups G varies.",
    runners.run_fig5_group_sweep,
    "benchmarks/test_bench_fig5_group_sweep.py",
)
_register(
    "fig6", "Figure 6", "figure",
    "Alignment / uniformity of user and item representations per model.",
    runners.run_fig6_alignment_uniformity,
    "benchmarks/test_bench_fig6_alignment_uniformity.py",
)
_register(
    "fig7", "Figure 7", "figure",
    "Condition number of the item matrix and training loss per epoch.",
    runners.run_fig7_conditioning,
    "benchmarks/test_bench_fig7_conditioning.py",
)
_register(
    "tab2", "Table II", "table",
    "Dataset statistics of the (synthetic) Arts/Toys/Tools/Food datasets.",
    runners.run_table2_dataset_statistics,
    "benchmarks/test_bench_table2_dataset_stats.py",
)
_register(
    "tab3", "Table III", "table",
    "Warm-start comparison of all thirteen methods.",
    runners.run_table3_warm_start,
    "benchmarks/test_bench_table3_warm_start.py",
)
_register(
    "tab4", "Table IV", "table",
    "Cold-start comparison of the text-only methods.",
    runners.run_table4_cold_start,
    "benchmarks/test_bench_table4_cold_start.py",
)
_register(
    "fig8", "Figure 8", "figure",
    "WhitenRec+ performance as the relaxed branch's group count varies.",
    runners.run_fig8_whitenrec_plus_groups,
    "benchmarks/test_bench_fig8_whitenrec_plus_groups.py",
)
_register(
    "tab5", "Table V", "table",
    "Projection head ablation (Linear / MLP-1 / MLP-2 / MLP-3 / MoE).",
    runners.run_table5_projection_head,
    "benchmarks/test_bench_table5_projection_head.py",
)
_register(
    "tab6", "Table VI", "table",
    "Whitening method ablation (PW / BERT-flow / PCA / BN / CD / ZCA).",
    runners.run_table6_whitening_methods,
    "benchmarks/test_bench_table6_whitening_methods.py",
)
_register(
    "tab7", "Table VII", "table",
    "Ensemble method ablation (Sum / Concat / Attn).",
    runners.run_table7_ensemble_methods,
    "benchmarks/test_bench_table7_ensemble.py",
)
_register(
    "tab8", "Table VIII", "table",
    "Effect of adding ID embeddings to WhitenRec / WhitenRec+.",
    runners.run_table8_id_embeddings,
    "benchmarks/test_bench_table8_id_embeddings.py",
)
_register(
    "tab9", "Table IX", "table",
    "Efficiency comparison: parameter counts and seconds per epoch.",
    runners.run_table9_efficiency,
    "benchmarks/test_bench_table9_efficiency.py",
)
_register(
    "ablation_zca_eps", "Extra ablation", "table",
    "Sensitivity of WhitenRec to the ZCA covariance ridge epsilon.",
    runners.run_ablation_zca_epsilon,
    "benchmarks/test_bench_ablation_zca_eps.py",
)


def list_experiments() -> List[ExperimentSpec]:
    """All registered experiments, ordered by id."""
    return [spec for _, spec in sorted(_EXPERIMENTS.items())]


def get_experiment(experiment_id: str) -> ExperimentSpec:
    if experiment_id not in _EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; available: {sorted(_EXPERIMENTS)}"
        )
    return _EXPERIMENTS[experiment_id]


def run_experiment(experiment_id: str, **kwargs):
    """Run an experiment by id, forwarding keyword arguments to its runner."""
    return get_experiment(experiment_id).runner(**kwargs)
