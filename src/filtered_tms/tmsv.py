"""Filtered two-mode squeezed vacuum: covariance and closed-form landmarks.

A two-mode squeezed vacuum of squeezing amplitude r, detected with optical
quantum efficiencies (eta_i, eta_s) in [0, 1] through a filter pair of
overlap K_f, has the steady-state covariance blocks

    D_I = 1 + 2 eta_i sinh^2 r,      D_S = 1 + 2 eta_s sinh^2 r,
    C11 = sqrt(eta_i eta_s) K_f sinh 2r,   C12 = 0.

The entanglement window, its maximum, and the optimized two-mode squeezing
all have closed forms collected here; each is verified against numerical
extremization in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

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


@dataclass(frozen=True)
class TmsvCriticalPoints:
    """Squeezing-amplitude landmarks of the entanglement and squeezing curves.

    r_ucf_en: upper cutoff of entanglement, tanh(r) = K_f (eta-independent).
    r_max_en: argmax of E_N(r), also the argmin of the optimized variance.
    r_max_sq: argmin of the equal-weight quadrature variance,
              tanh(2r) = 2 sqrt(eta_i eta_s) K_f / (eta_i + eta_s).
    r_ucf_sq: SQL crossing of the equal-weight variance, = 2 r_max_sq.

    K_f = 1 landmarks that diverge are reported as math.inf.  Fields are
    floats from ``critical_points`` and arrays from ``landmarks``.
    """

    r_ucf_en: float
    r_max_en: float
    r_max_sq: float
    r_ucf_sq: float


def covariance(p: TmsvParams) -> CovarianceBlocks:
    """Steady-state covariance blocks of the lossy filtered TMSV."""
    s2 = _each(lambda r: math.sinh(r) ** 2, p.r)
    return CovarianceBlocks(
        d_i=1.0 + 2.0 * p.eta_i * s2,
        d_s=1.0 + 2.0 * p.eta_s * s2,
        c11=np.sqrt(p.eta_i * p.eta_s) * p.overlap.k_f * _each(lambda r: math.sinh(2.0 * r), p.r),
        c12=0.0 * s2,
    )


def critical_points(p: TmsvParams) -> TmsvCriticalPoints:
    """Closed-form entanglement/squeezing landmarks for 0 < K_f <= 1 and
    eta_i eta_s > 0, as Python floats."""
    kf, ei, es = p.overlap.k_f, p.eta_i, p.eta_s
    if not 0.0 < kf <= 1.0:
        raise ValueError(f"critical points require K_f in (0, 1], got {kf}")
    if ei * es == 0.0:
        # full loss on either side leaves a product state: no window to bound
        raise ValueError(f"critical points require eta_i eta_s > 0, got {ei} * {es}")
    return TmsvCriticalPoints(*(x.item() for x in astuple(landmarks(kf, ei, es))))


def landmarks(kf, ei, es) -> TmsvCriticalPoints:
    """``critical_points`` over equal-shape arrays of K_f and the two
    efficiencies; nan where a point has no landmark (K_f outside (0, 1] or
    eta_i eta_s = 0)."""
    kf, ei, es = (np.asarray(x, dtype=float) for x in (kf, ei, es))
    exists = (0.0 < kf) & (kf <= 1.0) & (ei * es != 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        # unbounded landmarks at K_f = 1 branch on the exact value so rounding
        # can never turn them into large finite floats
        r_ucf_en = np.where(kf < 1.0, np.arctanh(kf), math.inf)

        # argmax of E_N(r); E_N = 2r grows without bound for matched filters
        g = np.sqrt((1.0 - kf**2) * ei * es)
        w = 2.0 * ei * es + (ei + es) * g
        t = np.sqrt(4.0 * ei * es * kf**2 * (w - ei * es * kf**2)) / w
        r_max_en = np.where((kf < 1.0) & (t < 1.0), 0.5 * np.arctanh(t), math.inf)

        t_sq = 2.0 * np.sqrt(ei * es) * kf / (ei + es)
        r_max_sq = np.where(((kf < 1.0) | (ei != es)) & (t_sq < 1.0),
                            0.5 * np.arctanh(t_sq), math.inf)

    r_ucf_en, r_max_en, r_max_sq = (np.where(exists, x, math.nan)
                                    for x in (r_ucf_en, r_max_en, r_max_sq))
    return TmsvCriticalPoints(r_ucf_en, r_max_en, r_max_sq, r_ucf_sq=2.0 * r_max_sq)


def weight_ratio(p: TmsvParams) -> float:
    """Optimal weight ratio mu_i/mu_s of the hybrid quadrature.

    Evaluates to sqrt(eta_s/eta_i) at the entanglement cutoff tanh r = K_f.
    """
    if p.r <= 0.0:
        raise ValueError("weight ratio undefined at r = 0 (uncorrelated state)")
    kf = p.overlap.k_f
    if kf <= 0.0:
        raise ValueError(f"weight ratio requires K_f > 0, got {kf}")
    ei, es = p.eta_i, p.eta_s
    if ei * es == 0.0:
        raise ValueError(f"weight ratio requires eta_i eta_s > 0, got {ei} * {es}")
    th = math.tanh(p.r)
    num = math.sqrt(4.0 * ei * es * kf**2 + (ei - es) ** 2 * th**2) + (es - ei) * th
    return num / (2.0 * kf * math.sqrt(ei * es))


def optimized_squeezing_closed(p: TmsvParams) -> float:
    """Minimal hybrid-quadrature variance at the optimal phase and weights.

    1 + (eta_i + eta_s) sinh^2 r
      - sinh r * sqrt(4 eta_i eta_s K_f^2 cosh^2 r + (eta_i - eta_s)^2 sinh^2 r);
    drops below 1 exactly on 0 < r < r_ucf_en.
    """
    ei, es, kf = p.eta_i, p.eta_s, p.overlap.k_f
    s, c = math.sinh(p.r), math.cosh(p.r)
    return 1.0 + (ei + es) * s**2 - s * math.sqrt(
        4.0 * ei * es * kf**2 * c**2 + (ei - es) ** 2 * s**2
    )
