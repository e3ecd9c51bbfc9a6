"""Rate and equivocation toolkit for wiretap channels with two-sided state.

The model: a sender sees the main-channel state sequence ahead of time, the
eavesdropper's channel depends on a second, hidden state component, and the
two state components are drawn jointly.  The package computes achievable
secrecy-rate / distortion trade-offs for finite-alphabet models, closed-form
and numeric rate curves for the additive Gaussian family, and Monte Carlo
estimates from an explicit random-binning code.

Importing the package loads only the error classes.  Every other public name
is resolved on first use (PEP 562): ``wiretapsi.leakage`` imports
``wiretapsi.gaussian`` and no other layer, so a caller of one layer pays for
compiling that layer alone.

Environment: WIRETAPSI_THREADS, when set, is exported to the BLAS thread
variables (unless they are set already) before anything below loads numpy;
unset means machine default.
"""

import os as _os

if _os.environ.get("WIRETAPSI_THREADS"):
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        _os.environ.setdefault(_var, _os.environ["WIRETAPSI_THREADS"])

import importlib as _importlib

from .errors import (
    DegenerateGeometryError,
    InfeasibleRateError,
    ToolkitError,
    UsageError,
    ValidationError,
)

# public name -> the module that defines it, imported on first access
_HOMES = {name: module for module, names in {
    "discrete": (
        "AuxiliaryPolicy",
        "DiscreteWiretapModel",
        "RateTriplet",
        "RegionPoint",
        "RegionPointSet",
        "SearchConfig",
        "achievable_points",
        "main_channel_capacity",
        "rate_triplet",
        "search_summary",
        "secrecy_rate",
        "secrecy_upper_bound",
    ),
    "gaussian": (
        "CaseRegion",
        "GaussianWiretapParams",
        "admissible_power",
        "alpha_star",
        "alpha_star_closed_form",
        "case1_region",
        "case1_thresholds",
        "case2_region",
        "case2_thresholds",
        "joint_covariance",
        "leakage",
        "leakage_roots",
        "main_capacity",
        "oracle_mi",
        "r_alpha",
        "rz_alpha",
    ),
    "probability": (
        "JointPmf",
        "Pmf",
        "TransitionKernel",
        "compose",
        "entropy",
        "joint_entropy",
        "marginalize",
        "mutual_information",
    ),
    "simulator": (
        "Codebook",
        "SimConfig",
        "SimulationReport",
        "build_codebook",
        "decode",
        "eavesdropper_posterior",
        "encode",
        "run_experiment",
    ),
}.items() for name in names}


def __getattr__(name: str):
    """A public name from its home module, which this first access imports.
    The value is not cached here, so it is always the home module's."""
    module = _HOMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOMES))


__version__ = "0.1.0"

__all__ = sorted(["DegenerateGeometryError", "InfeasibleRateError", "ToolkitError",
                  "UsageError", "ValidationError", *_HOMES])
