"""Filtered two-mode squeezed thermal light at unit detection efficiency.

With mean thermal occupations (n_i, n_s) feeding the squeezer, the
covariance blocks depend on A = n_i + n_s + 1 and B = n_i - n_s:

    D_I = B + A cosh 2r,          D_S = -B + A cosh 2r,
    C11 = A K_f sinh 2r,          C12 = -B L_f sinh 2r.

Thermal population opens a lower entanglement cutoff in addition to the
filter-induced upper one; both cutoffs coincide with the SQL crossings of
the weight-optimized hybrid quadrature.  Detection efficiencies are fixed
at 1 here; lossy thermal states can be explored numerically by composing
``covariance`` with ``gaussian.apply_loss`` (no closed-form landmarks then).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass

import numpy as np

from .filters import IDENTICAL_FILTERS, OverlapFactors
from .gaussian import CovarianceBlocks, _at, _each, _reject

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
    Fields are floats from ``critical_points`` and arrays from ``landmarks``.
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
    a, b = p.a, p.b
    ch = _each(lambda r: math.cosh(2.0 * r), p.r)
    sh = _each(lambda r: math.sinh(2.0 * r), p.r)
    return CovarianceBlocks(
        d_i=b + a * ch,
        d_s=-b + a * ch,
        c11=a * p.overlap.k_f * sh,
        c12=-b * p.overlap.l_f * sh,
    )


def squeezing_angle(p: ThermalParams) -> float:
    """zeta = arctan(B L_f / (A K_f)); zero for matched populations or L_f = 0."""
    return math.atan2(p.b * p.overlap.l_f, p.a * p.overlap.k_f)


def critical_points(p: ThermalParams) -> ThermalCriticalPoints:
    """Closed-form windows and maxima, with the identical-filter limit branch,
    as Python floats.

    The entanglement cutoffs solve cosh(2r) = (A -+ sqrt(rad)) / den with
    den = A^2 (1 - K_f^2) - B^2 L_f^2 and rad = A^2 - den (Q - B^2 + 1),
    Q = A^2 K_f^2 + B^2 L_f^2.  The lower cutoff is evaluated in the
    rationalized form (Q - B^2 + 1) / (A + sqrt(rad)), which is exact for
    every den and passes smoothly into the identical-filter limit
    cosh(2 r_lcf) = (A^2 - B^2 + 1) / (2A), where r_ucf diverges.
    A negative rad means no entanglement window at any r.
    """
    kf = p.overlap.k_f
    if not 0.0 < kf <= 1.0:
        raise ValueError(f"critical points require K_f in (0, 1], got {kf}")
    cp = landmarks(p.a, p.b, kf, p.overlap.l_f)
    return ThermalCriticalPoints(*(x.item() for x in astuple(cp)))


def landmarks(a, b, kf, lf) -> ThermalCriticalPoints:
    """``critical_points`` over equal-shape arrays of A, B, K_f and L_f; the
    window fields are nan where a point has no window or K_f lies outside
    (0, 1]."""
    a, b, kf, lf = (np.asarray(x, dtype=float) for x in (a, b, kf, lf))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        _reject(~np.isfinite(a**2), lambda i: OverflowError(34, "Numerical result out of range"))
        q = a**2 * kf**2 + b**2 * lf**2
        den = a**2 * (1.0 - kf**2) - b**2 * lf**2
        g = q - b**2 + 1.0
        zeta = np.arctan2(b * lf, a * kf)

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


def weight_ratio(p: ThermalParams) -> float:
    """Optimal weight ratio mu_i/mu_s; approaches 1 as r grows or as B -> 0.

    (sqrt(sinh^2 2r (A^2 K_f^2 + B^2 L_f^2) + B^2) - B)
        / (sinh 2r sqrt(A^2 K_f^2 + B^2 L_f^2))
    """
    if p.r <= 0.0:
        raise ValueError("weight ratio undefined at r = 0 (uncorrelated state)")
    a, b = p.a, p.b
    q = a**2 * p.overlap.k_f**2 + b**2 * p.overlap.l_f**2
    if q <= 0.0:
        raise ValueError("weight ratio requires a non-vanishing overlap")
    sh = math.sinh(2.0 * p.r)
    return (math.sqrt(sh**2 * q + b**2) - b) / (sh * math.sqrt(q))


def optimized_squeezing_closed(p: ThermalParams) -> float:
    """Minimal hybrid-quadrature variance over phases and weights.

    A cosh 2r - sqrt(sinh^2 2r (A^2 K_f^2 + B^2 L_f^2) + B^2); dips below
    the SQL exactly on the entanglement window (r_lcf_en, r_ucf_en).
    """
    a, b = p.a, p.b
    q = a**2 * p.overlap.k_f**2 + b**2 * p.overlap.l_f**2
    sh = math.sinh(2.0 * p.r)
    return a * math.cosh(2.0 * p.r) - math.sqrt(sh**2 * q + b**2)
