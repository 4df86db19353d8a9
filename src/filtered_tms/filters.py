"""Temporal mode filters and their pair-overlap kernels.

Two families of causal, unit-norm filter functions select spectral modes
from a continuous output field:

* step:         h(t) = (Theta(t) - Theta(t - tau)) / sqrt(tau) * exp(-i Omega t)
* exponential:  h(t) = sqrt(2/tau) * exp(-(1/tau + i Omega) t) * Theta(t)

The joint statistics of two filtered modes depend on the filters only
through the overlap integral of their mode functions,

    K_f + i L_f = integral  conj(h_K)(t) h_L(t) dt.

Each filter is c exp(-(g + i Omega) t) on [0, T], so every pair of families
shares one closed form, c_K c_L (1 - exp(-a T)) / a with
a = g_K + g_L - i (Omega_K - Omega_L) and T the earlier end; ``point`` and
``sweep`` report it as the outputs ``k_f`` and ``l_f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .gaussian import _at, _reject


class FilterFamily(Enum):
    STEP = "step"
    EXPONENTIAL = "exponential"


@dataclass(frozen=True)
class FilterSpec:
    """One temporal filter: family, center frequency and time constant.

    ``omega`` is the center (carrier) frequency in rad per time unit and
    ``tau`` the window length (step) or decay time (exponential).  They may
    be equal-shape arrays, a grid of filters of one family.
    """

    family: FilterFamily
    omega: float
    tau: float

    def __post_init__(self):
        _reject(~(np.isfinite(self.omega) & np.isfinite(self.tau)),
                lambda i: ValueError("filter parameters must be finite"))
        _reject(self.tau <= 0, lambda i: ValueError(f"tau must be positive, got {_at(self.tau, i)}"))


@dataclass(frozen=True)
class OverlapFactors:
    """Real and imaginary part of the two-filter overlap integral.

    Identical filters give (1, 0); Cauchy-Schwarz bounds
    k_f**2 + l_f**2 by 1 for unit-norm filters.  Fields may be arrays.
    """

    k_f: float
    l_f: float

    def __post_init__(self):
        _reject(~(np.isfinite(self.k_f) & np.isfinite(self.l_f)),
                lambda i: ValueError("overlap factors must be finite"))
        _reject(self.k_f**2 + self.l_f**2 > 1.0 + 1e-12, lambda i: ValueError(
            f"overlap ({_at(self.k_f, i)}, {_at(self.l_f, i)}) violates the Cauchy-Schwarz bound"))


IDENTICAL_FILTERS = OverlapFactors(1.0, 0.0)


def sample_time(f: FilterSpec, ts: "np.ndarray") -> "np.ndarray":
    """Vectorized h(t) over an array of times: the kernel is evaluated only
    on its support, and is exactly zero off it."""
    ts = np.asarray(ts, dtype=float)
    # a closed step support, [0, tau]: a quadrature meets no jump at its end
    inside = (ts >= 0.0) & (ts <= f.tau) if f.family is FilterFamily.STEP else ts >= 0.0
    t = ts[inside]
    h = np.zeros(ts.shape, dtype=complex)
    if f.family is FilterFamily.STEP:
        h[inside] = np.exp(-1j * f.omega * t) / math.sqrt(f.tau)
    else:
        h[inside] = math.sqrt(2.0 / f.tau) * np.exp(-(1.0 / f.tau + 1j * f.omega) * t)
    return h


def overlap_closed_form(fi: FilterSpec, fs: FilterSpec) -> OverlapFactors:
    """Closed-form (K_f, L_f) of a filter pair of any two families, or of arrays of pairs.

    Filter j is h_j(t) = c_j exp(-(g_j + i Omega_j) t) on [0, T_j]: a step
    filter has g = 0, T = tau and c = 1/sqrt(tau), an exponential g = 1/tau,
    T = inf and c = sqrt(2/tau).  Every pair overlaps by

        K_f + i L_f = c_i c_s (1 - exp(-a T)) / a,   T = min(T_i, T_s),
        a = g_i + g_s - i (Omega_i - Omega_s),

    which is T where a = 0 and 1/a where a T is infinite: two exponentials,
    or a phase past the float range, whose overlap lies within 2 c_i c_s / |a|
    of 0.  It is evaluated in units of t = min(tau_i, tau_s), where every rate
    and every sqrt(t / tau) is at most one, so nothing finite overflows.
    """
    # floats, so that integer inputs cannot wrap around in the products below
    wi, ti, ws, ts = (np.asarray(x, dtype=float) for x in (fi.omega, fi.tau, fs.omega, fs.tau))
    t = np.minimum(ti, ts)
    exps = [f.family is FilterFamily.EXPONENTIAL for f in (fi, fs)]
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # each filter's rate g t, end T / t and norm c sqrt(t) without its sqrt(2),
        # as sqrt(t) / sqrt(tau): the ratio t / tau may underflow
        root = np.sqrt(t)
        (gi, end_i, ci), (gs, end_s, cs) = (
            (t / tau if e else 0.0, np.inf if e else tau / t, root / np.sqrt(tau))
            for e, tau in zip(exps, (ti, ts)))
        # the detuning times t, halved first so that two finite centers cannot overflow it
        d = (wi / 2 - ws / 2) * t * 2
        # set part by part: -1j * d would have a nan real part where d is infinite
        a = np.zeros(d.shape, complex)
        a.real, a.imag = gi + gs, -d
        end = np.minimum(end_i, end_s)
        x = a * end
        # -expm1 keeps 1 - exp(-a T) exact as a T -> 0; where a T is not finite, exp(-a T) is 0
        f = np.where(a == 0, end, np.where(np.isfinite(x), -np.expm1(-x), 1.0) / a)
    # the exponentials' sqrt(2)s in one constant: sqrt(2) sqrt(2) is not 2
    ov = (1.0, math.sqrt(2.0), 2.0)[sum(exps)] * ci * cs * f
    return OverlapFactors(ov.real[()], ov.imag[()])
