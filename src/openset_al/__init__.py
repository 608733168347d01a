"""Evidential active learning on open-set unlabeled pools.

The package trains a dual-head MLP with a Dirichlet-evidence objective,
decomposes predictive uncertainty into expected entropy and mutual
information, scores head disagreement, and runs multi-cycle pool-based
query experiments against classical baselines, entirely in numpy/scipy.
"""

from .datasets import BlobSpec, DatasetSplit, IdxFormatError, load_idx, make_blobs
from .evidential import (
    data_uncertainty,
    digamma,
    discrepancy_score,
    distribution_uncertainty,
    entropy,
    evidence_from_logits,
    expected_probs,
    jsd,
    kl_dirichlet_to_uniform,
    log_gamma,
)
from .harness import (
    STRATEGIES,
    CycleMetrics,
    evaluate_accuracy,
    oracle_label,
    run_experiment,
    write_manifest,
    write_metrics_csv,
)
from .model import (
    ModelParams,
    TrainConfig,
    close_loss,
    cross_entropy_loss,
    dis_loss,
    edl_loss,
    forward,
    init_model,
    learning_rate_at,
    load_checkpoint,
    save_checkpoint,
    sgd_step,
    train_cycle,
)
from .selection import (
    GmmModel,
    PoolScores,
    baseline_select,
    coarse_select,
    coarse_to_fine_select,
    fine_select,
    gmm_fit,
    score_pool,
)

__version__ = "0.1.0"

__all__ = [
    "BlobSpec",
    "CycleMetrics",
    "DatasetSplit",
    "GmmModel",
    "IdxFormatError",
    "ModelParams",
    "PoolScores",
    "STRATEGIES",
    "TrainConfig",
    "baseline_select",
    "close_loss",
    "coarse_select",
    "coarse_to_fine_select",
    "cross_entropy_loss",
    "data_uncertainty",
    "digamma",
    "dis_loss",
    "discrepancy_score",
    "distribution_uncertainty",
    "edl_loss",
    "entropy",
    "evaluate_accuracy",
    "evidence_from_logits",
    "expected_probs",
    "fine_select",
    "forward",
    "gmm_fit",
    "init_model",
    "jsd",
    "kl_dirichlet_to_uniform",
    "learning_rate_at",
    "load_checkpoint",
    "load_idx",
    "log_gamma",
    "make_blobs",
    "oracle_label",
    "run_experiment",
    "save_checkpoint",
    "score_pool",
    "sgd_step",
    "train_cycle",
    "write_manifest",
    "write_metrics_csv",
]
