"""kernelshot: few-shot prototype classification in kernel feature spaces.

The library provides, through the kernel trick, or through the explicit
feature vector of a linear or polynomial class mean over more points than
the feature dimension:

* kernel families (linear / polynomial / Gaussian) and linear algebra on
  feature-space points (:mod:`kernelshot.kernels`);
* seeded samplers for the supported data domains
  (:mod:`kernelshot.distributions`);
* Monte-Carlo estimators of feature-space ball/cap pre-image volume ratios
  and orthogonality statistics, plus the closed forms known for specific
  kernels (:mod:`kernelshot.geometry`);
* empirical probability functions and numerical evaluation of the few-shot
  success bounds (:mod:`kernelshot.bounds`);
* the prototype classifier with ROC/AUROC evaluation and feature table
  normalisation (:mod:`kernelshot.classifier`);
* feature CSV ingestion, experiment configs, and the CLI
  (:mod:`kernelshot.ingest`, :mod:`kernelshot.experiments`,
  :mod:`kernelshot.cli`).
"""

__version__ = "0.1.0"

from .errors import ConfigError, DataError, KernelshotError, NumericError
from .kernels import (
    KernelSpec,
    linear_kernel,
    polynomial_kernel,
    gaussian_kernel,
    FeatureCombination,
    CentredProbe,
    mean_combination,
    singleton_combination,
    eval_kernel,
    kernel_matrix,
    gram_matrix,
    inner_with_combo,
    centered_sq_norm,
    centered_sq_norms,
    centered_inner,
    centered_inners,
    centered_gram,
    combo_inner,
    combo_pair_stats,
    PairStats,
    poly_feature_dim,
    multi_index_basis,
    poly_coefficient,
    poly_feature_map,
)
from .distributions import (
    DomainSpec,
    Sample,
    sample_unit_ball,
    sample_cube,
    sample_domain,
    cube_moments,
    spawn_seeds,
)
from .geometry import (
    VolumeRatioEstimate,
    OrthogonalityStats,
    MeanNormLimits,
    wilson_interval,
    enclosing_radius,
    ball_ratio_mc,
    cap_ratio_mc,
    ball_ratio_sweep,
    cap_ratio_sweep,
    orthogonality_stats,
    linear_ball_ratio,
    quadratic_ball_ratio_bound,
    gaussian_preimage_radius_sq,
    gaussian_ball_preimage_volume,
    gaussian_mean_norm_limits,
    transition_width,
)
from .bounds import (
    StepCdf,
    ProbabilityFunctions,
    empirical_probability_functions,
    new_class_margin,
    old_class_margin,
    TradeoffParams,
    BoundReport,
    BoundGrid,
    ClassBounds,
    ProbabilityBracket,
    few_shot_success_bounds,
    mean_concentration_bounds,
    GeometricBrackets,
    combined_success_bounds,
)
from .classifier import (
    NEW_LABEL,
    FewShotModel,
    fit_few_shot,
    decision_value,
    decision_values,
    classify,
    RocCurve,
    roc_curve,
    auroc,
    FeatureTransform,
    normalize_feature_table,
)
from .ingest import FeatureTable, ingest_feature_csv, write_feature_csv

__all__ = [
    "__version__",
    "KernelshotError",
    "ConfigError",
    "DataError",
    "NumericError",
    "KernelSpec",
    "linear_kernel",
    "polynomial_kernel",
    "gaussian_kernel",
    "FeatureCombination",
    "CentredProbe",
    "mean_combination",
    "singleton_combination",
    "eval_kernel",
    "kernel_matrix",
    "gram_matrix",
    "inner_with_combo",
    "centered_sq_norm",
    "centered_sq_norms",
    "centered_inner",
    "centered_inners",
    "centered_gram",
    "combo_inner",
    "combo_pair_stats",
    "PairStats",
    "poly_feature_dim",
    "multi_index_basis",
    "poly_coefficient",
    "poly_feature_map",
    "DomainSpec",
    "Sample",
    "sample_unit_ball",
    "sample_cube",
    "sample_domain",
    "cube_moments",
    "spawn_seeds",
    "VolumeRatioEstimate",
    "OrthogonalityStats",
    "MeanNormLimits",
    "wilson_interval",
    "enclosing_radius",
    "ball_ratio_mc",
    "cap_ratio_mc",
    "ball_ratio_sweep",
    "cap_ratio_sweep",
    "orthogonality_stats",
    "linear_ball_ratio",
    "quadratic_ball_ratio_bound",
    "gaussian_preimage_radius_sq",
    "gaussian_ball_preimage_volume",
    "gaussian_mean_norm_limits",
    "transition_width",
    "StepCdf",
    "ProbabilityFunctions",
    "empirical_probability_functions",
    "new_class_margin",
    "old_class_margin",
    "TradeoffParams",
    "BoundReport",
    "BoundGrid",
    "ClassBounds",
    "ProbabilityBracket",
    "few_shot_success_bounds",
    "mean_concentration_bounds",
    "GeometricBrackets",
    "combined_success_bounds",
    "NEW_LABEL",
    "FewShotModel",
    "fit_few_shot",
    "decision_value",
    "decision_values",
    "classify",
    "RocCurve",
    "roc_curve",
    "auroc",
    "FeatureTransform",
    "normalize_feature_table",
    "FeatureTable",
    "ingest_feature_csv",
    "write_feature_csv",
]
