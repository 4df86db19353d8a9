"""The filtered two-mode squeezed vacuum: the state model of ``thermal`` at
zero thermal occupation.

A two-mode squeezed vacuum of squeezing amplitude r, detected with optical
quantum efficiencies (eta_i, eta_s) in [0, 1] through a filter pair of
overlap K_f, has the steady-state covariance blocks

    D_I = 1 + 2 eta_i sinh^2 r,      D_S = 1 + 2 eta_s sinh^2 r,
    C11 = sqrt(eta_i eta_s) K_f sinh 2r,   C12 = 0,

and, with s = sinh r, the invariant D_I D_S - C11^2 as a sum of
non-negative terms,

    D_x = 1 + 2 s^2 [eta_i (1 - eta_s) + eta_s (1 - eta_i) + 2 eta_i eta_s (1 - K_f^2)]
            + 4 eta_i eta_s (1 - K_f^2) s^4.

``thermal.covariance`` at n_i = n_s = 0 (A = 1, B = 0) performs exactly
these operations, so ``covariance`` is that function and the blocks are
the vacuum formulas' bit for bit; L_f enters only through B and has no
effect.  ``thermal.landmarks`` of a ``TmsvParams`` are its landmarks, whose
entanglement window is 0 < tanh r < K_f at every efficiency.
"""

from __future__ import annotations

from .filters import IDENTICAL_FILTERS, OverlapFactors
from .thermal import ThermalParams, covariance

__all__ = ["TmsvParams", "covariance"]


def TmsvParams(r: float, eta_i: float = 1.0, eta_s: float = 1.0,  # noqa: N802 (a state type)
               overlap: OverlapFactors = IDENTICAL_FILTERS) -> ThermalParams:
    """The vacuum-input ``ThermalParams``: squeezing amplitude, detection
    efficiencies and filter overlap, each a float or an equal-shape array."""
    return ThermalParams(r, overlap=overlap, eta_i=eta_i, eta_s=eta_s)
