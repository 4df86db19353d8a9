"""Temporal mode filters and their pair-overlap kernels.

Two families of causal, unit-norm filter functions select spectral modes
from a continuous output field:

* step:         h(t) = (Theta(t) - Theta(t - tau)) / sqrt(tau) * exp(-i Omega t)
* exponential:  h(t) = sqrt(2/tau) * exp(-(1/tau + i Omega) t) * Theta(t)

The joint statistics of two filtered modes depend on the filters only
through the overlap integral of their mode functions,

    K_f + i L_f = integral  conj(h_K)(t) h_L(t) dt,

for which both families admit closed forms.  An adaptive-quadrature
evaluation of the same integral is provided as an independent oracle.
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
    """Vectorized h(t) over an array of times."""
    ts = np.asarray(ts, dtype=float)
    if f.family is FilterFamily.STEP:
        inside = (ts >= 0.0) & (ts < f.tau)
        return np.where(inside, np.exp(-1j * f.omega * ts) / math.sqrt(f.tau), 0.0)
    inside = ts >= 0.0
    amp = math.sqrt(2.0 / f.tau) * np.exp(-(1.0 / f.tau + 1j * f.omega) * np.where(inside, ts, 0.0))
    return np.where(inside, amp, 0.0)


def eval_freq(f: FilterSpec, omega):
    """Fourier transform h~(omega) over a float or an array of frequencies,
    with the unitary convention
    h~(omega) = (2 pi)**-1/2 * integral h(t) exp(i omega t) dt.
    """
    d = np.asarray(omega, dtype=float) - f.omega
    if f.family is FilterFamily.STEP:
        x = d * f.tau / 2.0
        with np.errstate(divide="ignore", invalid="ignore"):
            sinc = np.where(np.abs(x) < 1e-4, 1.0 - x * x / 6.0 * (1.0 - x * x / 20.0),
                            np.sin(x) / x)
        return math.sqrt(f.tau / (2.0 * math.pi)) * np.exp(1j * x) * sinc
    return math.sqrt(f.tau / math.pi) / (1.0 - 1j * f.tau * d)


def orthonormal_frequencies(f: FilterSpec, n_range: int) -> list[float]:
    """Center-frequency grid Omega + n * 2 pi / tau for n in [-n_range, n_range].

    Consecutive step filters on this grid are mutually orthogonal; the
    exponential family shares the same grid spacing.
    """
    if n_range < 0:
        raise ValueError("n_range must be non-negative")
    spacing = 2.0 * math.pi / f.tau
    return [f.omega + n * spacing for n in range(-n_range, n_range + 1)]


def overlap_closed_form(fi: FilterSpec, fs: FilterSpec) -> OverlapFactors:
    """Closed-form (K_f, L_f) for a same-family filter pair, or for equal-shape
    arrays of such pairs.

    Step filters integrate over the shorter window tau = min(tau_i, tau_s);
    the small-detuning branch avoids the 0/0 at matched frequencies.
    """
    if fi.family is not fs.family:
        raise ValueError(
            "no closed-form overlap for mixed filter families; use overlap_numeric"
        )
    # floats, so that integer inputs cannot wrap around in the powers below
    wi, ti, ws, ts = (np.asarray(x, dtype=float) for x in (fi.omega, fi.tau, fs.omega, fs.tau))
    delta = wi - ws
    root = np.sqrt(ti * ts)
    if fi.family is FilterFamily.STEP:
        tau = np.minimum(ti, ts)
        x = tau * delta
        small = np.abs(delta) * np.maximum(ti, ts) < 1e-8
        with np.errstate(divide="ignore", invalid="ignore"):
            k = np.where(small, (tau / root) * (1.0 - x * x / 6.0), np.sin(x) / (root * delta))
            l = np.where(small, (tau / root) * (x / 2.0) * (1.0 - x * x / 12.0),
                         (1.0 - np.cos(x)) / (root * delta))
        return OverlapFactors(k[()], l[()])
    den = ti**2 * ts**2 * delta**2 + (ti + ts) ** 2
    k = 2.0 * root * (ti + ts) / den
    l = 2.0 * root**3 * delta / den
    return OverlapFactors(k[()], l[()])


def overlap_numeric(fi: FilterSpec, fs: FilterSpec, tol: float = 1e-10) -> OverlapFactors:
    """Adaptive-quadrature overlap integral; independent of the closed forms.

    Step supports are finite; exponential tails are truncated where the
    decaying envelope bound drops below tol/10.
    """
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError(f"tol must lie in [1e-12, 1e-3], got {tol}")
    upper = math.inf
    if fi.family is FilterFamily.STEP:
        upper = min(upper, fi.tau)
    if fs.family is FilterFamily.STEP:
        upper = min(upper, fs.tau)
    if math.isinf(upper):
        tmax = max(fi.tau, fs.tau)
        upper = tmax * math.log(4.0 * tmax / tol)

    def integrand(ts: np.ndarray) -> np.ndarray:
        return np.conj(sample_time(fi, ts)) * sample_time(fs, ts)

    # seed roughly two panels per beat of the oscillatory kernel
    beats = abs(fi.omega - fs.omega) * upper / math.pi
    n0 = int(min(8192, max(16, 2 * math.ceil(beats))))
    val = _adaptive_simpson(integrand, 0.0, upper, tol, n0=n0)
    return OverlapFactors(val.real, val.imag)


def _adaptive_simpson(f, a: float, b: float, tol: float, n0: int = 16,
                      budget: int = 500000) -> complex:
    """Adaptive Simpson quadrature for a vectorized complex integrand.

    All panels of a refinement level are evaluated in one batched call;
    each panel bisects until its |S2 - S1|/15 estimate meets its share of
    the tolerance.  Raises on budget exhaustion, with the achieved error
    estimate in the message.
    """
    edges = np.linspace(a, b, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    flo, fhi = f(lo), f(hi)
    fmid = f(0.5 * (lo + hi))
    etol = np.full(n0, tol / n0)
    used = 2 * n0 + 1
    total = 0.0 + 0.0j
    err_acc = 0.0
    min_width = 1e-14 * (b - a)

    while lo.size:
        mid = 0.5 * (lo + hi)
        flm = f(0.5 * (lo + mid))
        frm = f(0.5 * (mid + hi))
        used += 2 * lo.size
        s1 = (hi - lo) / 6.0 * (flo + 4.0 * fmid + fhi)
        s_l = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        s_r = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = np.abs(s_l + s_r - s1)
        done = (err < 15.0 * etol) | ((hi - lo) < min_width)
        total += np.sum(s_l[done] + s_r[done] + (s_l[done] + s_r[done] - s1[done]) / 15.0)
        err_acc += float(np.sum(err[done])) / 15.0
        if np.all(done):
            break
        if used > budget:
            raise ArithmeticError(
                f"adaptive quadrature did not converge within {budget} evaluations; "
                f"achieved error estimate {err_acc + float(np.sum(err[~done])):g}"
            )
        keep = ~done
        lo_k, hi_k, mid_k = lo[keep], hi[keep], mid[keep]
        lo = np.concatenate([lo_k, mid_k])
        hi = np.concatenate([mid_k, hi_k])
        flo = np.concatenate([flo[keep], fmid[keep]])
        fhi = np.concatenate([fmid[keep], fhi[keep]])
        fmid = np.concatenate([flm[keep], frm[keep]])
        etol = np.concatenate([etol[keep] / 2.0, etol[keep] / 2.0])
    return complex(total)
