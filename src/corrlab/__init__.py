"""Correlation-estimator toolkit.

Pearson, Spearman, and Kendall estimation with tie-aware ranking, the
exact finite-sample theory of the Pearson coefficient under bivariate
normality, deterministic seeded simulation of normal and copula-coupled
non-normal populations, outlier-influence maps, finite-population
resampling studies, and eigenvalue-stability analysis of resampled
correlation matrices.  The ``corrlab`` command line produces all study
artifacts as deterministic CSV/JSON files.
"""

from .errors import (CorrlabError, DegenerateSampleError, InfeasibleError,
                     InputError, NumericError, UsageError)
from .estimators import (CoefficientEstimate, PairedSample, correlation_matrix,
                         distinct_spearman_values, kendall, pearson, spearman)
from .exact import (DensityCurve, density_curve, expected_pearson, expected_spearman,
                    fisher_interval, fisher_z, hyp2f1_half_half, kendall_from_pearson,
                    pearson_density, pearson_from_kendall, spearman_from_kendall,
                    spearman_from_pearson, spearman_interval)
from .randgen import (MarginalSpec, PopulationSpec, RngStream, calibrate_copula,
                      sample_bivariate_normal, sample_population)
from .simulate import SimulationPlan, SummaryStats, logspace_sizes, run_plan
from .influence import (AxisSpec, InfluenceGrid, delta_width, exceedance_fraction,
                        scan_double, scan_single)
from .resample import (MomentProfile, PairSummary, PopulationDataset, StudyResult,
                       asvab_like_population, dbq_like_population, ingest_csv,
                       moment_profile, run_study, scale_sums)
from .eigen import EigenSummary, eigen_study, symmetric_eigenvalues

__version__ = "0.1.0"

__all__ = [
    "CorrlabError", "DegenerateSampleError", "InfeasibleError", "InputError",
    "NumericError", "UsageError",
    "CoefficientEstimate", "PairedSample", "correlation_matrix",
    "distinct_spearman_values", "kendall", "pearson", "spearman",
    "DensityCurve", "density_curve", "expected_pearson", "expected_spearman",
    "fisher_interval", "fisher_z", "hyp2f1_half_half", "kendall_from_pearson",
    "pearson_density", "pearson_from_kendall",
    "spearman_from_kendall", "spearman_from_pearson", "spearman_interval",
    "MarginalSpec", "PopulationSpec", "RngStream", "calibrate_copula",
    "sample_bivariate_normal", "sample_population",
    "SimulationPlan", "SummaryStats", "logspace_sizes", "run_plan",
    "AxisSpec", "InfluenceGrid", "delta_width", "exceedance_fraction",
    "scan_double", "scan_single",
    "MomentProfile", "PairSummary", "PopulationDataset", "StudyResult",
    "asvab_like_population", "dbq_like_population", "ingest_csv",
    "moment_profile", "run_study", "scale_sums",
    "EigenSummary", "eigen_study", "symmetric_eigenvalues",
    "__version__",
]
