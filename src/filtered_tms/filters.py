"""Temporal mode filters and their pair-overlap kernels.

Two families of causal, unit-norm filter functions select spectral modes
from a continuous output field:

* step:         h(t) = (Theta(t) - Theta(t - tau)) / sqrt(tau) * exp(-i Omega t)
* exponential:  h(t) = sqrt(2/tau) * exp(-(1/tau + i Omega) t) * Theta(t)

The joint statistics of two filtered modes depend on the filters only
through the overlap integral of their mode functions,

    K_f + i L_f = integral  conj(h_K)(t) h_L(t) dt,

for which every pair of families admits a closed form.  An adaptive-quadrature
evaluation of the same integral is provided as an independent oracle; the
``overlap`` command reports both.
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


def _root(x, y):
    """sqrt(x y) at any x, y > 0: each factor is scaled by an even power of
    two into [0.5, 2), so the product can neither overflow nor underflow,
    and where x y is a normal float its root has sqrt(x * y)'s bits."""
    ex, ey = np.frexp(x)[1] // 2, np.frexp(y)[1] // 2
    return np.ldexp(np.sqrt(np.ldexp(x, -2 * ex) * np.ldexp(y, -2 * ey)), ex + ey)


# below this time constant, two exponentials' rate sum 1/tau_i + 1/tau_s could
# overflow, alone or under hypot with the detuning
_SHORTEST_RATE_TIME = 1e-300


def overlap_closed_form(fi: FilterSpec, fs: FilterSpec) -> OverlapFactors:
    """Closed-form (K_f, L_f) for a filter pair of any two families, or for
    equal-shape arrays of such pairs.

    Step filters integrate over the shorter window tau = min(tau_i, tau_s);
    the small-detuning branch avoids the 0/0 at matched frequencies.  A mixed
    pair, in either order, integrates the exponential envelope over the step
    window: sqrt(2/(tau_i tau_s)) (1 - exp(-a tau_step)) / a with
    a = 1/tau_exp - i(Omega_i - Omega_s).  Two exponentials, in the rates
    g = 1/tau, give 2 sqrt(g_i g_s) / (g_i + g_s - i(Omega_i - Omega_s)).

    Extreme time constants give finite factors with no numpy warning: a step
    pair whose tau (Omega_i - Omega_s) overflows gives (0, 0), and two
    exponentials with a time constant below ``_SHORTEST_RATE_TIME`` take
    their rates in units of 1/min(tau_i, tau_s).
    """
    # floats, so that integer inputs cannot wrap around in the products below
    wi, ti, ws, ts = (np.asarray(x, dtype=float) for x in (fi.omega, fi.tau, fs.omega, fs.tau))
    delta = wi - ws
    if fi.family is not fs.family:
        t_step, t_exp = (ti, ts) if fi.family is FilterFamily.STEP else (ts, ti)
        a = 1.0 / t_exp - 1j * delta
        # -expm1 keeps 1 - exp(-a tau_step) exact where a tau_step -> 0
        ov = math.sqrt(2.0) / _root(ti, ts) * -np.expm1(-a * t_step) / a
        return OverlapFactors(ov.real[()], ov.imag[()])
    if fi.family is FilterFamily.STEP:
        root = _root(ti, ts)
        tau = np.minimum(ti, ts)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            x = tau * delta
            small = np.abs(delta) * np.maximum(ti, ts) < 1e-8
            k = np.where(small, (tau / root) * (1.0 - x * x / 6.0), np.sin(x) / (root * delta))
            l = np.where(small, (tau / root) * (x / 2.0) * (1.0 - x * x / 12.0),
                         (1.0 - np.cos(x)) / (root * delta))
        # where tau delta overflows from a finite delta, |K_f + i L_f| <= 2 / (root |delta|)
        # <= 2 / |tau delta| lies below 1.2e-308: 0 to within that
        beyond = np.isinf(x) & np.isfinite(delta)
        return OverlapFactors(np.where(beyond, 0.0, k)[()], np.where(beyond, 0.0, l)[()])
    # the rates and delta, in units of 1/min(tau_i, tau_s) where that rate would
    # near the end of the float range: the overlap does not depend on the unit
    t_min = np.minimum(ti, ts)
    rescale = t_min < _SHORTEST_RATE_TIME
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gi = np.where(rescale, t_min / ti, 1.0 / ti)
        gs = np.where(rescale, t_min / ts, 1.0 / ts)
        delta = np.where(rescale, delta * t_min, delta)
        # sqrt(g_i g_s), in those units sqrt(t_min / t_max): a ratio that may underflow
        root = np.where(rescale, np.sqrt(t_min) / np.sqrt(np.maximum(ti, ts)), _root(gi, gs))
    # both parts over |g_i + g_s - i delta| twice, not its square: nothing finite overflows
    m = np.hypot(gi + gs, delta)
    scale = 2.0 * root / m
    return OverlapFactors((scale * ((gi + gs) / m))[()], (scale * (delta / m))[()])


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
