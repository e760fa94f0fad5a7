"""Finely stratified rerandomized experiments: design, estimation, inference."""

__version__ = "0.1.0"

from .core import (
    ConfigError,
    CovariateTable,
    EstimationError,
    ExperimentFrame,
    FinestratError,
    GroupPartition,
    LoadError,
    RngSpec,
    SingularityError,
    horvitz_thompson_weights,
    load_covariates,
    write_covariates,
)
from .stratify import (MatchConfig, coarse_strata, design_partition, match_k_tuples,
                       pair_groups_by_centroid)
from .randomize import AssignmentDraw, draw_complete, draw_stratified
from .rerandomize import (
    FullSpaceRegion,
    GmmRegion,
    ImbalanceStat,
    MahalanobisRegion,
    PolarRegion,
    PropensityRegion,
    calibrate_threshold,
    chi2_threshold,
    gmm_imbalance,
    mahalanobis_stat,
    pilot_wald_region,
    polar_penalty,
    propensity_stat,
    region_from_dict,
    rerandomize,
    within_tuple_demean,
)
from .gmm import (
    EstimandSpec,
    GmmFit,
    assignment_component,
    estimand_by_name,
    score_cate_blp,
    score_clate,
    score_late,
    score_sate,
    solve_gmm,
)
from .adjust import (
    AdjustmentFit,
    double_robustness_decomposition,
    fit_adjustment,
    one_step_cate_adjust,
    two_step_adjust,
)
from .inference import (
    InferenceReport,
    VarianceComponents,
    confidence_intervals,
    finite_pop_bound,
    superpop_variance,
    variance_components,
)
from .simulate import (
    DesignSpec,
    DgpDraw,
    DgpSpec,
    MonteCarloResult,
    assign_design,
    finite_pop_estimand,
    generate_dgp,
    oracle_limit_sampler,
    population_variances,
    run_monte_carlo,
    benchmark_designs,
)
