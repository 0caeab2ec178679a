"""Causal disentanglement of linearly mixed variables via variance sparsity.

Pipeline: sample latent variables from a structural causal model under
hard interventions (`scm`, `envs`), mix them linearly into observations
(`data`), learn an unmixing matrix by minimizing a variance-sparsity
objective (`unmixing`), and score the result against the ground truth
(`metrics`), with an independent-component-analysis baseline (`ica`) and a
seeded benchmark harness plus command line on top (`experiments`, `cli`).
"""

from .data import EnvDataset, MixingMatrix, generate, sample_mixing
from .envs import (
    CoverageReport,
    EnvironmentSet,
    InterventionRegime,
    check_sufficient_coverage,
    coverage_from_supports,
    leave_one_out_design,
    separating_design,
)
from .experiments import ExperimentConfig, ResultRow, SummaryRow, reproduce, run_experiment
from .ica import IcaModel, fit_fastica
from .metrics import (
    DisentanglementReport,
    MccResult,
    PooledMoments,
    disentanglement_check,
    mcc,
    mcc_between,
    moments_pearson,
    pearson,
    pooled_moments,
)
from .scm import (
    DagAdjacency,
    Scm,
    builtin_nonlinear_scm,
    chain_example_scm,
    sample,
    sample_er_dag,
    sample_linear_scm,
)
from .unmixing import (
    LossBreakdown,
    NumericalError,
    TrainConfig,
    TrainReport,
    TrainingAborted,
    UnmixingModel,
    covariances,
    load_checkpoint,
    objective,
    save_checkpoint,
    train,
    variance_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "CoverageReport",
    "DagAdjacency",
    "DisentanglementReport",
    "EnvDataset",
    "EnvironmentSet",
    "ExperimentConfig",
    "IcaModel",
    "InterventionRegime",
    "LossBreakdown",
    "MccResult",
    "MixingMatrix",
    "NumericalError",
    "PooledMoments",
    "ResultRow",
    "Scm",
    "SummaryRow",
    "TrainConfig",
    "TrainReport",
    "TrainingAborted",
    "UnmixingModel",
    "builtin_nonlinear_scm",
    "chain_example_scm",
    "check_sufficient_coverage",
    "covariances",
    "coverage_from_supports",
    "disentanglement_check",
    "fit_fastica",
    "generate",
    "leave_one_out_design",
    "load_checkpoint",
    "mcc",
    "mcc_between",
    "moments_pearson",
    "objective",
    "pearson",
    "pooled_moments",
    "reproduce",
    "run_experiment",
    "sample",
    "sample_er_dag",
    "sample_linear_scm",
    "sample_mixing",
    "save_checkpoint",
    "separating_design",
    "train",
    "variance_matrix",
    "__version__",
]
