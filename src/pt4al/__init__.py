"""Pretext-loss-driven batch-mode active learning at desk scale."""

__version__ = "0.1.0"

from .data import DatasetSpec, Pool, gen_synthetic, load_idx, rotate, split_train_test
from .diagnostics import CorrelationReport, correlation_report, normalized_rank, spearman_rho
from .learner import (
    ConvSpec,
    LearnerConfig,
    LearnerState,
    init_learner,
    per_sample_loss,
    predict_proba,
    train,
)
from .loop import (
    ALConfig,
    ColdStartSummary,
    IterationReport,
    cold_start_experiment,
    run_ablation,
    run_al,
)
from .pretext import LossArrays, LossRecord, PretextReport, extract_losses, train_pretext
from .sampler import (
    BatchPlan,
    QueryResult,
    build_batch_plan,
    entropy_sample,
    random_sample,
    uncertainty_sample,
    uniform_first_sample,
)

__all__ = [
    "__version__",
    "ALConfig", "BatchPlan", "ColdStartSummary", "ConvSpec", "CorrelationReport",
    "DatasetSpec", "IterationReport", "LearnerConfig", "LearnerState",
    "LossArrays", "LossRecord", "Pool", "PretextReport", "QueryResult",
    "build_batch_plan", "cold_start_experiment", "correlation_report",
    "entropy_sample", "extract_losses", "gen_synthetic", "init_learner",
    "load_idx", "normalized_rank", "per_sample_loss", "predict_proba",
    "random_sample", "rotate", "run_ablation", "run_al", "spearman_rho",
    "split_train_test", "train", "train_pretext", "uncertainty_sample",
    "uniform_first_sample",
]
