"""rankloss: differentiable AUROC losses, exact AUROC metrics, and a
Monte Carlo harness for comparing training losses on ranking quality.

The package has three layers:

* metrics/losses: exact AUROC (pairwise and rank-sum) and the logistic
  surrogate losses with analytic gradients plus a finite-difference checker.
* network: a small deterministic MLP, plain SGD, and a stratified batch
  sampler that keeps every class in every batch.
* harness/data/cli: repeated random 60/20/20 splits, paired arm training,
  95% CIs and t-tests, synthetic data generation, and a CLI that writes
  reproducible JSON manifests.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    CsvError,
    DegenerateVarianceError,
    EmptyClassError,
    EmptyFileError,
    FieldError,
    InfeasibleBatchError,
    MissingColumnError,
    NonFiniteError,
    NonNumericCellError,
    RanklossError,
    TooSmallError,
    TrialError,
)
from .metrics import (
    AurocValue,
    MacroAuroc,
    PredictionBatch,
    auroc_multiclass_ovr,
    auroc_pairwise,
    auroc_rank,
    auroc_rank_scores,
)
from .losses import (
    DEFAULT_SURROGATE,
    LOSS_KINDS,
    GradCheckReport,
    LossOutput,
    SurrogateParams,
    binary_auc_loss,
    cross_entropy_loss,
    finite_diff_check,
    logistic,
    loss_function,
    multiclass_auc_loss,
    softmax,
)
from .network import (
    MLPModel,
    MLPStack,
    StackedTraining,
    TrainConfig,
    evaluate_auroc_stacked,
    forward,
    init_model,
    stratified_batches,
    train,
    train_stacked,
)
from .harness import (
    AggregateReport,
    ArmConfig,
    ArmResult,
    Comparison,
    ExperimentConfig,
    SplitSpec,
    TrialSeeds,
    mean_ci,
    monte_carlo_split,
    run_experiment,
    t_test,
    trial_blocks,
    trial_seeds,
)
from .data import Dataset, SyntheticSpec, generate_synthetic, load_csv, load_scores_csv, save_csv

__all__ = [
    "__version__",
    # errors
    "RanklossError", "EmptyClassError", "InfeasibleBatchError", "TooSmallError",
    "NonFiniteError", "DegenerateVarianceError", "TrialError", "CsvError",
    "MissingColumnError", "NonNumericCellError", "EmptyFileError", "ConfigError", "FieldError",
    # metrics
    "PredictionBatch", "AurocValue", "MacroAuroc", "auroc_pairwise",
    "auroc_rank_scores", "auroc_rank", "auroc_multiclass_ovr",
    # losses
    "SurrogateParams", "DEFAULT_SURROGATE", "LossOutput", "GradCheckReport",
    "LOSS_KINDS", "logistic", "softmax", "binary_auc_loss", "multiclass_auc_loss",
    "cross_entropy_loss", "loss_function", "finite_diff_check",
    # network
    "MLPModel", "TrainConfig", "init_model", "forward", "stratified_batches", "train",
    "MLPStack", "StackedTraining", "train_stacked", "evaluate_auroc_stacked",
    # harness
    "SplitSpec", "ArmConfig", "ExperimentConfig", "TrialSeeds", "ArmResult",
    "Comparison", "AggregateReport", "trial_seeds", "monte_carlo_split",
    "trial_blocks", "run_experiment", "mean_ci", "t_test",
    # data
    "Dataset", "SyntheticSpec", "generate_synthetic", "load_csv", "load_scores_csv", "save_csv",
]
