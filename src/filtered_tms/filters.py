"""Temporal mode filters and their pair-overlap kernels.

Every filter is one causal, unit-norm shape, a gated exponential,
h(t) = c exp(-(g + i Omega) t) on [0, T] with c = sqrt(2g / (1 - exp(-2gT))).
The paper's step filter is (g, T) = (0, tau), c = 1/sqrt(tau), and its
exponential filter (1/tau, inf), c = sqrt(2/tau).  The joint statistics of
two filtered modes depend on the filters only through the overlap integral
of their mode functions, K_f + i L_f = integral conj(h_K)(t) h_L(t) dt:
one closed form for every pair, reported by ``point`` and ``sweep`` as the
outputs ``k_f`` and ``l_f``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gaussian import _at, _reject


@dataclass(frozen=True)
class FilterSpec:
    """One filter: center frequency omega (rad per time unit), decay time
    1/g (held rather than g, which overflows for a decay time under 5.6e-309)
    and gate end T, either time inf but not both; ``scale``, the shorter
    time, is either family's tau.  Fields may be arrays, a grid of filters."""

    omega: float
    decay: float
    end: float
    scale: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scale = np.minimum(self.decay, self.end)[()]
        object.__setattr__(self, "scale", scale)
        _reject(~(np.isfinite(self.omega) & np.isfinite(scale)),
                lambda i: ValueError("filter parameters must be finite"))
        _reject(scale <= 0, lambda i: ValueError(f"tau must be positive, got {_at(scale, i)}"))

    @classmethod
    def step(cls, omega, tau) -> FilterSpec:
        return cls(omega, math.inf, tau)

    @classmethod
    def exponential(cls, omega, tau) -> FilterSpec:
        return cls(omega, tau, math.inf)


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


def _decay_integral(rate, end):
    """The integral of exp(-rate t) over [0, end], -expm1 keeping it exact as rate end -> 0: end
    where rate = 0, 1/rate where rate end is not finite (callers ignore the float errors)."""
    x = rate * end
    return np.where(rate == 0, end, np.where(np.isfinite(x), -np.expm1(-x), 1.0) / rate)


def sample_time(f: FilterSpec, ts: "np.ndarray") -> "np.ndarray":
    """Vectorized h(t) over an array of times: the kernel is evaluated only
    on its closed support [0, T] (a quadrature meets no jump at its end),
    and is exactly zero off it."""
    ts = np.asarray(ts, dtype=float)
    inside = (ts >= 0.0) & (ts <= f.end)
    t = ts[inside]
    # the integral of |h / c|^2 in units of the time scale
    with np.errstate(divide="ignore", invalid="ignore"):
        norm = _decay_integral(2.0 * (f.scale / f.decay), f.end / f.scale)
    h = np.zeros(ts.shape, dtype=complex)
    h[inside] = np.exp(-(1.0 / f.decay + 1j * f.omega) * t) * (
        1.0 / (math.sqrt(f.scale) * math.sqrt(norm)))
    return h


def overlap_closed_form(fi: FilterSpec, fs: FilterSpec) -> OverlapFactors:
    """Closed-form (K_f, L_f) of a filter pair, or of arrays of pairs:

        K_f + i L_f = c_i c_s (1 - exp(-a T)) / a,   T = min(T_i, T_s),
        a = g_i + g_s - i (Omega_i - Omega_s),

    which is c_i c_s T where a = 0 and c_i c_s / a where a T is infinite:
    two endless decays, or a phase past the float range, whose overlap lies
    within 2 c_i c_s / |a| of 0.  It is evaluated in units of t, the shorter
    time scale, where every rate and every sqrt(t / scale) is at most one,
    and each norm integral in its own filter's scale, where it lies in
    [(1 - e^-2) / 2, 1], so nothing finite overflows.  The norms are one
    constant, so identical filters give (1, 0) exactly.
    """
    # floats, so that integer inputs cannot wrap around in the products below
    wi, di, ei, ws, ds, es = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (
        fi.omega, fi.decay, fi.end, fs.omega, fs.decay, fs.end)))
    decays, ends = np.array([di, ds]), np.array([ei, es])
    m = np.minimum(decays, ends)  # each filter's time scale
    t = m.min(axis=0)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # rates and ends of the two norm integrals and of the pair's, one
        # stack through one formula, so that an identical pair repeats its norm
        rates = np.zeros((3,) + t.shape, complex)
        rates.real[:2], rates.real[2] = 2.0 * (m / decays), t / di + t / ds
        # the detuning times t, halved first so that two finite centers cannot overflow it
        rates.imag[2] = -(wi / 2 - ws / 2) * t * 2
        norm_i, norm_s, ov = _decay_integral(rates, [*(ends / m), np.minimum(ei, es) / t])
        # sqrt(t / m) as sqrt(t) / sqrt(m): the ratio may underflow
        roots = np.sqrt(t) / np.sqrt(m)
        ov = ov * (roots[0] * roots[1])
        norms = np.sqrt(norm_i.real * norm_s.real)
    # part by part: a complex quotient would multiply by a rounded 1 / norms
    return OverlapFactors((ov.real / norms)[()], (ov.imag / norms)[()])
