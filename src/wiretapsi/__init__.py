"""Rate and equivocation toolkit for wiretap channels with two-sided state.

The model: a sender sees the main-channel state sequence ahead of time, the
eavesdropper's channel depends on a second, hidden state component, and the
two state components are drawn jointly.  The package computes achievable
secrecy-rate / distortion trade-offs for finite-alphabet models, closed-form
and numeric rate curves for the additive Gaussian family, and Monte Carlo
estimates from an explicit random-binning code.

Environment: WIRETAPSI_THREADS, when set, is exported to the BLAS thread
variables (unless they are set already) before the first import below loads
numpy; unset means machine default.
"""

import os as _os

if _os.environ.get("WIRETAPSI_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["WIRETAPSI_THREADS"])

from .discrete import (
    AuxiliaryPolicy,
    DiscreteWiretapModel,
    RateTriplet,
    RegionPoint,
    RegionPointSet,
    SearchConfig,
    achievable_points,
    main_channel_capacity,
    rate_triplet,
    search_summary,
    secrecy_rate,
    secrecy_upper_bound,
)
from .errors import (
    DegenerateGeometryError,
    InfeasibleRateError,
    ToolkitError,
    UsageError,
    ValidationError,
)
from .gaussian import (
    CaseRegion,
    GaussianWiretapParams,
    LeakageProfile,
    admissible_power,
    alpha_star,
    alpha_star_closed_form,
    case1_region,
    case1_thresholds,
    case2_region,
    case2_thresholds,
    joint_covariance,
    leakage,
    leakage_roots,
    main_capacity,
    oracle_mi,
    r_alpha,
    rz_alpha,
    scan_leakage,
)
from .probability import (
    JointPmf,
    Pmf,
    TransitionKernel,
    compose,
    conditional_mutual_information,
    entropy,
    joint_entropy,
    marginalize,
    mutual_information,
)
from .simulator import (
    Codebook,
    SimConfig,
    SimulationReport,
    build_codebook,
    decode,
    eavesdropper_posterior,
    encode,
    run_experiment,
)

__version__ = "0.1.0"

__all__ = [
    "AuxiliaryPolicy",
    "CaseRegion",
    "Codebook",
    "DegenerateGeometryError",
    "DiscreteWiretapModel",
    "GaussianWiretapParams",
    "InfeasibleRateError",
    "JointPmf",
    "LeakageProfile",
    "Pmf",
    "RateTriplet",
    "RegionPoint",
    "RegionPointSet",
    "SearchConfig",
    "SimConfig",
    "SimulationReport",
    "ToolkitError",
    "TransitionKernel",
    "UsageError",
    "ValidationError",
    "achievable_points",
    "admissible_power",
    "alpha_star",
    "alpha_star_closed_form",
    "build_codebook",
    "case1_region",
    "case1_thresholds",
    "case2_region",
    "case2_thresholds",
    "compose",
    "conditional_mutual_information",
    "decode",
    "eavesdropper_posterior",
    "encode",
    "entropy",
    "joint_covariance",
    "joint_entropy",
    "leakage",
    "leakage_roots",
    "main_capacity",
    "main_channel_capacity",
    "marginalize",
    "mutual_information",
    "oracle_mi",
    "r_alpha",
    "rate_triplet",
    "run_experiment",
    "rz_alpha",
    "scan_leakage",
    "search_summary",
    "secrecy_rate",
    "secrecy_upper_bound",
]
