"""Outlier-robust moment estimation with sum-of-squares certificates.

The package splits into a polynomial/tensor core (`polycore`), a dense SDP
solver (`sdp`), the certificate engine (`sosengine`), subgaussianity
certification (`subgauss`), corruption models and lower-bound laws
(`corruption`), the moment estimator itself (`estimators`), ICA/GMM
applications (`applications`), and the experiment harness (`harness`).
The names below are the supported surface; everything else is internal.
"""

from .applications import AppConfig, robust_gmm, robust_ica
from .corruption import (
    CovInflate,
    MeanShiftCluster,
    ModelSpec,
    PointMass,
    ReplaceWithSpec,
    SymmetricPointMass,
    corrupt,
    lower_bound_gap,
    lower_bound_pair,
    population_moments,
    sample_clean,
)
from .estimators import (
    EstimationInfeasible,
    EstimatorConfig,
    MomentEstimate,
    estimate_moments,
    identifiability_oracle,
    truncate_preprocess,
)
from .harness import ExperimentSpec, SweepReport, run_sweep
from .polycore import (
    EmpiricalMoments,
    Polynomial,
    SymmetricTensor,
    empirical_moments,
)
from .sosengine import (
    SosCertificate,
    build_toolkit_certificate,
    find_sos_combination,
    sos_norm,
    verify_certificate,
)
from .subgauss import SubgaussParams, certify, certify_from_moments, minimal_C

__version__ = "0.1.0"

__all__ = [
    "AppConfig",
    "CovInflate",
    "EmpiricalMoments",
    "EstimationInfeasible",
    "EstimatorConfig",
    "ExperimentSpec",
    "MeanShiftCluster",
    "ModelSpec",
    "MomentEstimate",
    "PointMass",
    "Polynomial",
    "ReplaceWithSpec",
    "SosCertificate",
    "SubgaussParams",
    "SweepReport",
    "SymmetricPointMass",
    "SymmetricTensor",
    "build_toolkit_certificate",
    "certify",
    "certify_from_moments",
    "corrupt",
    "empirical_moments",
    "estimate_moments",
    "find_sos_combination",
    "identifiability_oracle",
    "lower_bound_gap",
    "lower_bound_pair",
    "minimal_C",
    "population_moments",
    "robust_gmm",
    "robust_ica",
    "run_sweep",
    "sample_clean",
    "sos_norm",
    "truncate_preprocess",
    "verify_certificate",
    "__version__",
]
