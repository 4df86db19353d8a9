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
a = g_K + g_L - i (Omega_K - Omega_L) and T the earlier end.  An
adaptive-quadrature evaluation of the same integral is provided as an
independent oracle; the ``overlap`` command reports both.
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


@dataclass(frozen=True)
class NumericOverlap(OverlapFactors):
    """A quadrature overlap with what it cost: the summed |S2 - S1|/15 error
    estimate of the accepted Simpson panels, and their number."""

    error_estimate: float
    panels: int


def sample_time(f: FilterSpec, ts: "np.ndarray") -> "np.ndarray":
    """Vectorized h(t) over an array of times: the kernel is evaluated only
    on its support, and is exactly zero off it."""
    ts = np.asarray(ts, dtype=float)
    # a closed step support, [0, tau]: the quadrature meets no jump at its end
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


def overlap_numeric(fi: FilterSpec, fs: FilterSpec, tol: float = 1e-10) -> NumericOverlap:
    """Adaptive-quadrature overlap integral; independent of the closed forms.

    Step supports are finite.  Two exponential kernels are integrated up to
    their own decay time T = ln(10/tol) / (1/tau_i + 1/tau_s): the integral
    of |h_i h_s| past T is 2 sqrt(tau_i tau_s)/(tau_i + tau_s)
    exp(-T (1/tau_i + 1/tau_s)) <= tol/10, at any time scale.
    """
    if not 1e-12 <= tol <= 1e-3:
        raise ValueError(f"tol must lie in [1e-12, 1e-3], got {tol}")
    upper = math.inf
    if fi.family is FilterFamily.STEP:
        upper = min(upper, fi.tau)
    if fs.family is FilterFamily.STEP:
        upper = min(upper, fs.tau)
    if math.isinf(upper):
        upper = math.log(10.0 / tol) / (1.0 / fi.tau + 1.0 / fs.tau)
        if not 0.0 < upper < math.inf:
            raise ValueError(f"the truncation window ln(10/tol) / (1/tau_i + 1/tau_s) is "
                             f"{upper!r} for tau_i={fi.tau!r}, tau_s={fs.tau!r} and tol={tol!r}")

    def integrand(ts: np.ndarray) -> np.ndarray:
        return np.conj(sample_time(fi, ts)) * sample_time(fs, ts)

    # seed roughly two panels per beat of the oscillatory kernel
    beats = min(4096.0, abs(fi.omega - fs.omega) * upper / math.pi)
    n0 = max(16, 2 * math.ceil(beats))
    val, err, panels = _adaptive_simpson(integrand, 0.0, upper, tol, n0=n0)
    return NumericOverlap(val.real, val.imag, err, panels)


def _adaptive_simpson(f, a: float, b: float, tol: float, n0: int = 16,
                      budget: int = 500000) -> tuple[complex, float, int]:
    """Adaptive Simpson quadrature for a vectorized complex integrand.

    All panels of a refinement level are evaluated in one batched call;
    each panel bisects until its |S2 - S1|/15 estimate meets its share of
    the tolerance.  Returns the integral, the summed error estimate and the
    number of accepted panels.  Raises on budget exhaustion, with the
    achieved error estimate in the message.
    """
    edges = np.linspace(a, b, n0 + 1)
    lo, hi = edges[:-1], edges[1:]
    flo, fhi = f(lo), f(hi)
    fmid = f(0.5 * (lo + hi))
    etol = np.full(n0, tol / n0)
    used = 2 * n0 + 1
    total = 0.0 + 0.0j
    err_acc = 0.0
    panels = 0
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
        panels += int(np.count_nonzero(done))
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
    return complex(total), err_acc, panels
