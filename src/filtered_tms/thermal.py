"""Filtered two-mode squeezed thermal light at unit detection efficiency.

With mean thermal occupations (n_i, n_s) feeding the squeezer, the
covariance blocks depend on A = n_i + n_s + 1 and B = n_i - n_s:

    D_I = B + A cosh 2r,          D_S = -B + A cosh 2r,
    C11 = A K_f sinh 2r,          C12 = -B L_f sinh 2r,

and D_x = D_I D_S - C11^2 - C12^2 = A^2 - B^2 + sinh^2 2r [A^2 (1 - K_f^2) - B^2 L_f^2],
whose terms are non-negative inside the Cauchy-Schwarz disc (|B| < A).

Thermal population opens a lower entanglement cutoff in addition to the
filter-induced upper one; both cutoffs coincide with the SQL crossings of
the weight-optimized hybrid quadrature.  The cutoffs and maxima are closed
forms here; the squeezing angle, weight ratio and optimized squeezing come
from the blocks (``gaussian``).  Detection efficiencies are fixed at 1
here; lossy thermal states can be explored numerically by composing
``covariance`` with ``gaussian.apply_loss`` (no closed-form landmarks then).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import IDENTICAL_FILTERS, OverlapFactors
from .gaussian import CovarianceBlocks, _at, _each, _half_turn, _reject

_DEN_LIMIT = 1e-12


@dataclass(frozen=True)
class ThermalParams:
    """Squeezing amplitude, thermal occupations and filter overlap (or arrays)."""

    r: float
    n_i: float = 0.0
    n_s: float = 0.0
    overlap: OverlapFactors = IDENTICAL_FILTERS

    def __post_init__(self):
        _reject(~(np.isfinite(self.r) & (self.r >= 0.0)), lambda i: ValueError(
            f"squeezing amplitude must be finite and >= 0, got {_at(self.r, i)}"))
        for name, n in (("n_i", self.n_i), ("n_s", self.n_s)):
            _reject(~(np.isfinite(n) & (n >= 0.0)), lambda i: ValueError(
                f"{name} must be finite and >= 0, got {_at(n, i)}"))

    @property
    def a(self) -> float:
        return self.n_i + self.n_s + 1.0

    @property
    def b(self) -> float:
        return self.n_i - self.n_s


@dataclass(frozen=True)
class ThermalCriticalPoints:
    """Entanglement window, squeezing window and maxima for thermal input.

    The entanglement fields delimit E_N > 0; the squeezing fields delimit
    the sub-SQL region of the *equal-weight* composite quadrature at the
    optimal phase (the weight-optimized quadrature shares the entanglement
    window instead).  ``has_window`` is False when no r is entangled, in
    which case the window fields are nan.  zeta is the squeezing angle.
    Fields are arrays from ``landmarks``, one element per state.
    """

    r_lcf_en: float
    r_ucf_en: float
    r_max_en: float
    r_lcf_sq: float
    r_ucf_sq: float
    r_max_sq: float
    zeta: float
    has_window: bool = True


def covariance(p: ThermalParams) -> CovarianceBlocks:
    """Steady-state covariance blocks; reduces to the TMSV blocks at n = 0."""
    a, b, kf, lf = p.a, p.b, p.overlap.k_f, p.overlap.l_f
    ch = _each(lambda r: math.cosh(2.0 * r), p.r)
    sh = _each(lambda r: math.sinh(2.0 * r), p.r)
    with np.errstate(over="ignore", invalid="ignore"):
        # sinh^2 2r overflows near r = 178; the blocks reject the non-finite D_x
        d_x = (a - b) * (a + b) + (sh * sh) * (a * a * (1.0 - kf) * (1.0 + kf) - b * b * lf * lf)
    return CovarianceBlocks(
        d_i=b + a * ch,
        d_s=-b + a * ch,
        c11=a * kf * sh,
        c12=-b * lf * sh,
        d_x=d_x,
    )


def landmarks(a, b, kf, lf) -> ThermalCriticalPoints:
    """Closed-form windows and maxima over equal-shape arrays of A, B, K_f
    and L_f, with the identical-filter limit branch; the window fields are
    nan where a point has no window or K_f lies outside (0, 1].

    The entanglement cutoffs solve cosh(2r) = (A -+ sqrt(rad)) / den with
    den = A^2 (1 - K_f^2) - B^2 L_f^2 and rad = A^2 - den (Q - B^2 + 1),
    Q = A^2 K_f^2 + B^2 L_f^2.  The lower cutoff is evaluated in the
    rationalized form (Q - B^2 + 1) / (A + sqrt(rad)), which is exact for
    every den and passes smoothly into the identical-filter limit
    cosh(2 r_lcf) = (A^2 - B^2 + 1) / (2A), where r_ucf diverges.
    A negative rad means no entanglement window at any r.
    """
    a, b, kf, lf = (np.asarray(x, dtype=float) for x in (a, b, kf, lf))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _reject(~np.isfinite(a**2), lambda i: OverflowError(34, "Numerical result out of range"))
        q = a**2 * kf**2 + b**2 * lf**2
        den = a**2 * (1.0 - kf**2) - b**2 * lf**2
        g = q - b**2 + 1.0
        zeta = _half_turn(b * lf, a * kf)

        # identical filters (den < _DEN_LIMIT): the upper cutoff diverges and
        # the lower one stays finite
        limit = den < _DEN_LIMIT
        rad = a**2 - den * g
        root = np.sqrt(rad)
        ch_l = np.where(limit, g / (2.0 * a), g / (a + root))
        ch_u = (a + root) / den
        r_lcf = 0.5 * np.arccosh(np.maximum(ch_l, 1.0))
        r_ucf = np.where(limit, math.inf, 0.5 * np.arccosh(ch_u))

        # maximum of E_N(r), shared by the weight-optimized variance; a
        # non-empty window guarantees Q > B^2, the nan arm is defensive
        num = a**2 * (q - b**2)
        r_max_en = np.where(limit, math.inf, np.where(
            num > 0.0, 0.5 * np.arccosh(np.maximum(np.sqrt(num / (q * den)), 1.0)), math.nan))

        t_sq = np.sqrt(q) / a
        r_max_sq = np.where(~limit & (t_sq < 1.0), 0.5 * np.arctanh(t_sq), math.inf)
        r_lcf_sq, r_ucf_sq = _sq_window(a, q)

    # a negative rad or ch_u < 1 leaves no entanglement window at any r
    window = (0.0 < kf) & (kf <= 1.0) & (limit | ~((rad < 0.0) | (ch_u < 1.0)))
    fields = (np.where(window, x, math.nan)
              for x in (r_lcf, r_ucf, r_max_en, r_lcf_sq, r_ucf_sq, r_max_sq))
    return ThermalCriticalPoints(*fields, zeta, has_window=window)


def _sq_window(a, q):
    """SQL crossings of the equal-weight composite quadrature.

    tanh(r) = (sqrt(Q) -+ sqrt(Q - A^2 + 1)) / (A + 1); empty (nan, nan)
    when the variance never dips below the SQL.
    """
    disc = q - a**2 + 1.0
    root_q, root_d = np.sqrt(q), np.sqrt(disc)
    t_l = (root_q - root_d) / (a + 1.0)
    t_u = (root_q + root_d) / (a + 1.0)
    r_l = np.where(t_l < 1.0, np.arctanh(np.minimum(np.maximum(t_l, 0.0), 1.0)), math.inf)
    r_u = np.where(t_u < 1.0, np.arctanh(t_u), math.inf)
    empty = disc < 0.0
    return np.where(empty, math.nan, r_l), np.where(empty, math.nan, r_u)
