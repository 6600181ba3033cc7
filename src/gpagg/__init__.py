"""Distributed Gaussian-process regression with dependency-aware expert aggregation.

Train local GP experts on partitions of a dataset, then combine their
predictions with product-of-experts rules (PoE, GPoE, BCM, RBCM, GRBCM),
nested pointwise aggregation over dependent experts (NPAE), or an
EM-fitted Gaussian graphical model over the joint of latent target and
expert means (EMGGM).
"""

__version__ = "0.1.0"

from .errors import DimensionError, FitError, GPAggError, NumericalError
from .gp import (
    Dataset,
    FitOptions,
    Hyperparameters,
    TrainedExpert,
    fit_shared_hyperparameters,
    kernel_matrix,
    lml_gradient,
    log_marginal_likelihood,
    predict,
    train_expert,
)
from .partition import Partitioning, kmeans_partition, random_partition
from .baselines import (
    ExpertPredictions,
    bcm,
    collect_predictions,
    gpoe,
    grbcm_aggregate,
    poe,
    poe_family_aggregate,
    rbcm,
)
from .npae import npae_aggregate
from .glasso import PrecisionEstimate, effective_covariance, glasso_objective, glasso_solve
from .emggm import (
    EmggmConfig,
    e_step,
    emggm_aggregate,
    init_latent,
    joint_sample_covariance,
    m_step,
)
from .bench import (
    BenchmarkConfig,
    BenchmarkRow,
    NormalizationState,
    generate_synthetic,
    latent_function,
    load_dataset_csv,
    metrics,
    normalize,
    run_benchmark,
)

__all__ = [
    "BenchmarkConfig",
    "BenchmarkRow",
    "Dataset",
    "DimensionError",
    "EmggmConfig",
    "ExpertPredictions",
    "FitError",
    "FitOptions",
    "GPAggError",
    "Hyperparameters",
    "NormalizationState",
    "NumericalError",
    "Partitioning",
    "PrecisionEstimate",
    "TrainedExpert",
    "bcm",
    "collect_predictions",
    "e_step",
    "effective_covariance",
    "emggm_aggregate",
    "fit_shared_hyperparameters",
    "generate_synthetic",
    "glasso_objective",
    "glasso_solve",
    "gpoe",
    "grbcm_aggregate",
    "init_latent",
    "joint_sample_covariance",
    "kernel_matrix",
    "kmeans_partition",
    "latent_function",
    "lml_gradient",
    "load_dataset_csv",
    "log_marginal_likelihood",
    "m_step",
    "metrics",
    "normalize",
    "npae_aggregate",
    "poe",
    "poe_family_aggregate",
    "predict",
    "random_partition",
    "rbcm",
    "run_benchmark",
    "train_expert",
]
