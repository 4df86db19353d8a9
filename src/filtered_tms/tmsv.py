"""Filtered two-mode squeezed vacuum: parameters and covariance blocks.

A two-mode squeezed vacuum of squeezing amplitude r, detected with optical
quantum efficiencies (eta_i, eta_s) in [0, 1] through a filter pair of
overlap K_f, has the steady-state covariance blocks

    D_I = 1 + 2 eta_i sinh^2 r,      D_S = 1 + 2 eta_s sinh^2 r,
    C11 = sqrt(eta_i eta_s) K_f sinh 2r,   C12 = 0,

and, with s = sinh r, the invariant D_I D_S - C11^2 as a sum of
non-negative terms,

    D_x = 1 + 2 s^2 [eta_i (1 - eta_s) + eta_s (1 - eta_i) + 2 eta_i eta_s (1 - K_f^2)]
            + 4 eta_i eta_s (1 - K_f^2) s^4.

The landmarks are those of ``thermal.landmarks`` at vacuum input (A = 1,
B = 0), where the entanglement window is 0 < tanh r < K_f at every
efficiency; the optimized squeezing and weight ratio come from the blocks
(``gaussian``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import IDENTICAL_FILTERS, OverlapFactors
from .gaussian import CovarianceBlocks, _at, _each, _reject


@dataclass(frozen=True)
class TmsvParams:
    """Squeezing amplitude, detection efficiencies and filter overlap.

    The vacuum input makes C12 independent of L_f, so only K_f enters the
    covariance; the overlap's l_f is carried along but has no effect.  Fields
    may be equal-shape arrays, a grid of states.
    """

    r: float
    eta_i: float = 1.0
    eta_s: float = 1.0
    overlap: OverlapFactors = IDENTICAL_FILTERS

    def __post_init__(self):
        _reject(~(np.isfinite(self.r) & (self.r >= 0.0)), lambda i: ValueError(
            f"squeezing amplitude must be finite and >= 0, got {_at(self.r, i)}"))
        for name, eta in (("eta_i", self.eta_i), ("eta_s", self.eta_s)):
            _reject(np.logical_not((0.0 <= eta) & (eta <= 1.0)), lambda i: ValueError(
                f"{name} must lie in [0, 1], got {_at(eta, i)}"))


def covariance(p: TmsvParams) -> CovarianceBlocks:
    """Steady-state covariance blocks of the lossy filtered TMSV."""
    ei, es, kf = p.eta_i, p.eta_s, p.overlap.k_f
    s2 = _each(lambda r: math.sinh(r) ** 2, p.r)
    g = ei * es * (1.0 - kf) * (1.0 + kf)
    with np.errstate(over="ignore", invalid="ignore"):
        # s^4 overflows near r = 178; the blocks reject the non-finite D_x
        d_x = 1.0 + 2.0 * s2 * (ei * (1.0 - es) + es * (1.0 - ei) + 2.0 * g) + 4.0 * g * (s2 * s2)
    return CovarianceBlocks(
        d_i=1.0 + 2.0 * ei * s2,
        d_s=1.0 + 2.0 * es * s2,
        c11=np.sqrt(ei * es) * kf * _each(lambda r: math.sinh(2.0 * r), p.r),
        c12=0.0 * s2,
        d_x=d_x,
    )

