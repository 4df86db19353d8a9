"""Entanglement, squeezing, purity and Wigner-CHSH non-locality of
spectrally filtered two-mode squeezed Gaussian states."""

from .bell import (
    BellMaxConfig,
    BellResult,
    DisplacementSettings,
    bell_grid_max,
    bell_max,
    bell_max_stack,
    bell_value,
)
from .fieldsim import EmpiricalBlocks, SimConfig, simulate
from .filters import (
    FilterFamily,
    FilterSpec,
    OverlapFactors,
    eval_freq,
    orthonormal_frequencies,
    overlap_closed_form,
    overlap_numeric,
)
from .gaussian import (
    CovarianceBlocks,
    CovarianceMatrix,
    EntanglementResult,
    QuadratureSpec,
    apply_loss,
    build_covariance,
    log_negativity,
    optimal_weight_ratio,
    optimized_squeezing,
    purity,
    quadrature_variance,
    squeezing_angle,
    wigner,
)
from .thermal import ThermalCriticalPoints, ThermalParams
from .tmsv import TmsvCriticalPoints, TmsvParams

__version__ = "0.1.0"

__all__ = [
    "BellMaxConfig",
    "BellResult",
    "CovarianceBlocks",
    "CovarianceMatrix",
    "DisplacementSettings",
    "EmpiricalBlocks",
    "EntanglementResult",
    "FilterFamily",
    "FilterSpec",
    "OverlapFactors",
    "QuadratureSpec",
    "SimConfig",
    "ThermalCriticalPoints",
    "ThermalParams",
    "TmsvCriticalPoints",
    "TmsvParams",
    "apply_loss",
    "bell_grid_max",
    "bell_max",
    "bell_max_stack",
    "bell_value",
    "build_covariance",
    "eval_freq",
    "log_negativity",
    "optimal_weight_ratio",
    "optimized_squeezing",
    "orthonormal_frequencies",
    "overlap_closed_form",
    "overlap_numeric",
    "purity",
    "quadrature_variance",
    "simulate",
    "squeezing_angle",
    "wigner",
]
