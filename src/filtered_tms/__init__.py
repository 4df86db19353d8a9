"""Entanglement, squeezing, purity and Wigner-CHSH non-locality of
spectrally filtered two-mode squeezed Gaussian states."""

from .bell import (
    BellMaxConfig,
    BellResult,
    DisplacementSettings,
    bell_max,
    bell_max_stack,
    bell_value,
)
from .fieldsim import EmpiricalBlocks, SimConfig, simulate
from .filters import (
    FilterSpec,
    OverlapFactors,
    overlap_closed_form,
)
from .gaussian import (
    CovarianceBlocks,
    CovarianceMatrix,
    apply_loss,
    build_covariance,
    log_negativity,
    optimal_weight_ratio,
    optimized_squeezing,
    purity,
    squeezing_angle,
)
from .thermal import CriticalPoints, ThermalParams
from .tmsv import TmsvParams

__version__ = "0.1.0"

__all__ = [
    "BellMaxConfig",
    "BellResult",
    "CriticalPoints",
    "CovarianceBlocks",
    "CovarianceMatrix",
    "DisplacementSettings",
    "EmpiricalBlocks",
    "FilterSpec",
    "OverlapFactors",
    "SimConfig",
    "ThermalParams",
    "TmsvParams",
    "apply_loss",
    "bell_max",
    "bell_max_stack",
    "bell_value",
    "build_covariance",
    "log_negativity",
    "optimal_weight_ratio",
    "optimized_squeezing",
    "overlap_closed_form",
    "purity",
    "simulate",
    "squeezing_angle",
]
