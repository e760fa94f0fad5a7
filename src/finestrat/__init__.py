"""Finely stratified rerandomized experiments: design, estimation, inference.

The public names load lazily (PEP 562): ``import finestrat`` imports no
submodule and so neither NumPy nor SciPy, which lets ``finestrat.cli`` set
the BLAS thread count before NumPy loads.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("ConfigError", "CovariateTable", "EstimationError", "ExperimentFrame",
             "FinestratError", "GroupPartition", "LoadError", "RngSpec",
             "SingularityError", "horvitz_thompson_weights", "load_covariates",
             "within_tuple_demean", "write_covariates"),
    "stratify": ("MatchConfig", "coarse_strata", "design_partition", "match_k_tuples",
                 "pair_groups_by_centroid"),
    "randomize": ("AssignmentDraw", "draw_complete", "draw_stratified"),
    "rerandomize": ("FullSpaceRegion", "GmmRegion", "ImbalanceStat", "MahalanobisRegion",
                    "PolarRegion", "PropensityRegion", "calibrate_threshold",
                    "chi2_threshold", "gmm_imbalance", "mahalanobis_stat",
                    "pilot_wald_region", "polar_penalty", "propensity_stat",
                    "region_from_dict", "rerandomize"),
    "gmm": ("EstimandSpec", "GmmFit", "assignment_component", "estimand_by_name",
            "score_cate_blp", "score_clate", "score_late", "score_sate", "solve_gmm"),
    "adjust": ("AdjustmentFit", "double_robustness_decomposition", "fit_adjustment",
               "one_step_cate_adjust", "two_step_adjust"),
    "inference": ("InferenceReport", "VarianceComponents", "confidence_intervals",
                  "finite_pop_bound", "superpop_variance", "variance_components"),
    "simulate": ("DesignSpec", "DgpDraw", "DgpSpec", "MonteCarloResult", "assign_design",
                 "finite_pop_estimand", "generate_dgp", "oracle_limit_sampler",
                 "population_variances", "run_monte_carlo", "benchmark_designs"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _EXPORTS:  # a submodule not imported yet
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_EXPORTS))


class _Package(types.ModuleType):
    """``rerandomize`` names both a submodule and its main function. The
    import system binds the submodule to the package when it loads; this
    data descriptor outranks that binding, so the name stays the function."""

    @property
    def rerandomize(self):
        return importlib.import_module(".rerandomize", __name__).rerandomize

    @rerandomize.setter
    def rerandomize(self, module):
        pass


sys.modules[__name__].__class__ = _Package
