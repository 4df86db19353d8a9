"""Filtered two-mode squeezed thermal light seen by lossy detectors: the
one state model, and the landmarks of every state.

With mean thermal occupations (n_i, n_s) feeding the squeezer, detection
efficiencies (eta_i, eta_s) in [0, 1], A = n_i + n_s + 1, B = n_i - n_s and
s = sinh r, the covariance blocks are

    D_I = 1 + 2 eta_i (n_i + A s^2),      D_S = 1 + 2 eta_s (n_s + A s^2),
    C11 = sqrt(eta_i eta_s) A K_f sinh 2r,  C12 = -sqrt(eta_i eta_s) B L_f sinh 2r,

and D_x = D_I D_S - C11^2 - C12^2 as a sum of non-negative terms,

    D_x = (1 + 2 eta_i n_i)(1 + 2 eta_s n_s)
          + 2 s^2 [A (eta_i (1 - eta_s) + eta_s (1 - eta_i)) + 2 g] + 4 g s^4,
    g = eta_i eta_s [A^2 (1 - K_f^2) - B^2 L_f^2],

with g >= 0 inside the Cauchy-Schwarz disc (|B| < A, K_f^2 + L_f^2 <= 1).
The two-mode squeezed vacuum (``tmsv``) is n_i = n_s = 0, where these
forms repeat the vacuum formulas operation for operation.

Thermal population opens a lower entanglement cutoff in addition to the
filter-induced upper one; both cutoffs coincide with the SQL crossings of
the weight-optimized hybrid quadrature.  The cutoffs and maxima are closed
forms of the state, ``landmarks``, at any efficiencies; the squeezing
angle, weight ratio and optimized squeezing come from the blocks
(``gaussian``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import IDENTICAL_FILTERS, OverlapFactors
from .gaussian import CovarianceBlocks, _at, _each, _reject


@dataclass(frozen=True)
class ThermalParams:
    """Squeezing amplitude, thermal occupations, filter overlap and detection
    efficiencies; fields may be equal-shape arrays, a grid of states."""

    r: float
    n_i: float = 0.0
    n_s: float = 0.0
    overlap: OverlapFactors = IDENTICAL_FILTERS
    eta_i: float = 1.0
    eta_s: float = 1.0

    def __post_init__(self):
        _reject(~(np.isfinite(self.r) & (self.r >= 0.0)), lambda i: ValueError(
            f"squeezing amplitude must be finite and >= 0, got {_at(self.r, i)}"))
        for name, n in (("n_i", self.n_i), ("n_s", self.n_s)):
            _reject(~(np.isfinite(n) & (n >= 0.0)), lambda i: ValueError(
                f"{name} must be finite and >= 0, got {_at(n, i)}"))
        for name, eta in (("eta_i", self.eta_i), ("eta_s", self.eta_s)):
            _reject(np.logical_not((0.0 <= eta) & (eta <= 1.0)), lambda i: ValueError(
                f"{name} must lie in [0, 1], got {_at(eta, i)}"))

    @property
    def a(self) -> float:
        return self.n_i + self.n_s + 1.0

    @property
    def b(self) -> float:
        return self.n_i - self.n_s


@dataclass(frozen=True)
class CriticalPoints:
    """Squeezing-amplitude landmarks of the entanglement and squeezing curves.

    r_lcf_en, r_ucf_en: the window E_N > 0, which is also the sub-SQL
    window of the weight-optimized quadrature; r_max_en: argmax of E_N(r),
    the argmin of that quadrature's variance.  r_lcf_sq, r_ucf_sq: the
    sub-SQL window of the *equal-weight* quadrature at the optimal phase;
    r_max_sq: argmin of its variance.  Every field is nan where the state has
    no entanglement window (the equal-weight cutoffs also where that
    quadrature never dips below the SQL), and inf where a landmark diverges.
    Fields are arrays from ``landmarks``, one element per state.
    """

    r_lcf_en: float
    r_ucf_en: float
    r_max_en: float
    r_lcf_sq: float
    r_ucf_sq: float
    r_max_sq: float


def covariance(p: ThermalParams) -> CovarianceBlocks:
    """Steady-state covariance blocks; at n = 0 those of the vacuum bit for bit."""
    ei, es, n_i, n_s, a, b = p.eta_i, p.eta_s, p.n_i, p.n_s, p.a, p.b
    kf, lf, ee = p.overlap.k_f, p.overlap.l_f, ei * es
    e = np.sqrt(ee)
    s2 = _each(lambda r: math.sinh(r) ** 2, p.r)
    sh = _each(lambda r: math.sinh(2.0 * r), p.r)
    with np.errstate(over="ignore", invalid="ignore"):
        # s^4 overflows near r = 178; the blocks reject the non-finite D_x.
        # g is grouped so that at B = 0 it takes the vacuum formula's steps
        g = ee * (a * a * (1.0 - kf)) * (1.0 + kf) - ee * (b * b * lf * lf)
        d_x = ((1.0 + 2.0 * ei * n_i) * (1.0 + 2.0 * es * n_s)
               + 2.0 * s2 * (a * (ei * (1.0 - es) + es * (1.0 - ei)) + 2.0 * g)
               + 4.0 * g * (s2 * s2))
        return CovarianceBlocks(
            d_i=1.0 + 2.0 * ei * (n_i + a * s2),
            d_s=1.0 + 2.0 * es * (n_s + a * s2),
            c11=e * a * kf * sh,
            c12=0.0 - e * b * lf * sh,  # +0.0 at B = 0, as the vacuum has it
            d_x=d_x,
        )


def landmarks(state: ThermalParams) -> CriticalPoints:
    """Closed-form windows and maxima of a state, or of each state of a grid,
    in its occupations, overlap and efficiencies (the squeezing amplitude
    is not read).  Every field is nan where K_f lies outside (0, 1] or an
    efficiency is 0.

    Loss maps D - 1 to eta (D - 1) and C^2 to eta_i eta_s C^2, so Simon's
    E_N > 0 iff (D_I - 1)(D_S - 1) < C^2 does not depend on eta.  With
    y = cosh 2r - 1 = 2 sinh^2 r, Q = A^2 K_f^2 + B^2 L_f^2 and
    den = A^2 - Q >= 0 it reads den y^2 - 2 (A - den) y + 4 n_i n_s < 0,
    so without population the lower cutoff is exactly 0.  E_N peaks at the
    "+" root of
    (gamma^2 + kappa) x^2 + 2 gamma delta x + (A^2 delta^2 - alpha^2 Q) / den
    in x = y + 1, with alpha = (eta_i + eta_s) A, gamma = (eta_i - eta_s) A,
    delta = (eta_i + eta_s) B - (eta_i - eta_s) and kappa = 4 eta_i eta_s Q;
    it is solved in y, with u = (gamma + delta) / 2 and v = (delta - gamma) / 2.
    With t = tanh r, the equal-weight variance is below the SQL where
    lead t^2 - 2p t + con < 0, lead = eta_i (1 + n_s) + eta_s (1 + n_i),
    con = eta_i n_i + eta_s n_s and p = sqrt(eta_i eta_s Q), and least at
    tanh 2r = p / (c A), c = (eta_i + eta_s) / 2.  Identical filters
    (den = 0) put r_ucf_en and r_max_en at inf; r_ucf_sq and
    r_max_sq are inf exactly where c A = p.
    """
    n_i, n_s, kf, lf, ei, es = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (
        state.n_i, state.n_s, state.overlap.k_f, state.overlap.l_f, state.eta_i, state.eta_s)))
    a, b = n_i + n_s + 1.0, n_i - n_s
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _reject(~np.isfinite(a**2), lambda i: OverflowError(34, "Numerical result out of range"))
        q = a**2 * kf**2 + b**2 * lf**2
        den = a**2 * (1.0 - kf) * (1.0 + kf) - b**2 * lf**2
        limit = den <= 0.0
        # the window's roots in y, rationalized so that no term cancels
        m = q - a * (n_i + n_s)  # A - den
        w = m + np.sqrt(m**2 - 4.0 * den * n_i * n_s)
        r_lcf = np.arcsinh(np.sqrt(2.0 * n_i * n_s / w))
        r_ucf = np.where(limit, math.inf, np.arcsinh(np.sqrt(w / (2.0 * den))))

        # the peak's quadratic in y: lead y^2 + 2h y + f1 = 0
        u, v = ei * n_i - es * n_s, es * (1.0 + n_i) - ei * (1.0 + n_s)
        kappa = 4.0 * ei * es * q
        lead, h = (u - v) ** 2 + kappa, 2.0 * u * (u - v) + kappa
        f1 = 4.0 * u**2 + q * (4.0 * u * v - kappa) / den
        disc = np.sqrt(h**2 - lead * f1)
        y = np.where(h > 0.0, -f1 / (h + disc), (disc - h) / lead)
        r_max_en = np.where(limit, math.inf, np.arcsinh(np.sqrt(np.maximum(y, 0.0) / 2.0)))

        # equal weights: lead t^2 - 2p t + con < 0, t = tanh r; the window's
        # top and the minimum at tanh 2r = p / (c A) diverge where the gap
        # c A - p, a sum of non-negative terms over c A + p, is 0; both are
        # logs of 1 + x, by log1p so that they keep their digits as K_f -> 0
        p, ca = np.sqrt(ei * es * q), 0.5 * (ei + es) * a
        gap = ((0.5 * (ei - es) * a) ** 2 + ei * es * den) / (ca + p)
        lead, con = ei * (1.0 + n_s) + es * (1.0 + n_i), ei * n_i + es * n_s
        disc = np.sqrt(p**2 - lead * con)  # nan: the variance never dips below the SQL
        r_lcf_sq = np.arctanh(con / (p + disc))
        r_ucf_sq = 0.5 * np.log1p((p - con + disc) / gap)
        r_max_sq = 0.25 * np.log1p(2.0 * p / gap)

    # a complex root or w <= 0 (no root above r = 0) leaves no window
    window = (0.0 < kf) & (kf <= 1.0) & (ei != 0.0) & (es != 0.0) & (limit | (w > 0.0))
    return CriticalPoints(*(np.where(window, x, math.nan)
                            for x in (r_lcf, r_ucf, r_max_en, r_lcf_sq, r_ucf_sq, r_max_sq)))
