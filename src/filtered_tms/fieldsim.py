"""Time-domain Monte Carlo oracle for the filtered steady-state covariance.

Simulates the chain white-noise input -> two-mode squeezer -> optical loss
-> temporal filter, and estimates the covariance blocks from symmetrized
products at the end of the simulated horizon.  Because every tracked
quantity is a symmetrized second moment of a Gaussian process, classical
Gaussian sampling reproduces the quantum covariances exactly; the oracle is
therefore independent of the covariance algebra it validates.  The model
is a ``ThermalParams``: each input quadrature carries noise power n + 1/2
(1/2 for the vacuum, n = 0), and an efficiency below one mixes in a vacuum
pair for its party.

The squeezer mixes the +r and -r Bogoliubov branches into the filtered
quadratures: the X output of each party filters the pair
(X(+r), Y(-r)) through [Re h, -Im h] and the Y output filters
(X(-r), Y(+r)) through [Im h, Re h].  This pairing is what couples the
cross block to the difference-frequency overlap kernel (K_f, L_f); feeding
a single Bogoliubov branch through both kernel rows would instead produce
sum-frequency integrals that vanish for matched filters.

The estimator only ever reads four numbers per realization, the filtered
output quadratures o = (xk, yk, xl, yl), and they are a fixed linear map of
the noise.  Each series enters through its projection onto the four
width-scaled kernel columns P: with P = Q R (Householder QR), a unit-normal
series has the projection law N(0, R^T R), that of w R for w ~ N(0, I_4).
Mixing those projections through the squeezer and loss gives the outputs
as w A, w the 4-per-series normals of all series; with A = Q_A R_A, the
outputs have the law of z R_A for z ~ N(0, I_4), exactly, even when
identical filters make A rank-deficient.  The covariance sampled is still
the Riemann-sum Gram of the sampled kernels, never the closed-form overlap.

Each block sample is a quadratic form o M_k o^T, so the mean over n
realizations reads the draws only through S = R_A^T W R_A / n, where W, the
sum of z^T z, is Wishart(n, I_4).  Bartlett's decomposition draws W exactly
with ten variates at any n: W = L L^T, L lower-triangular with
L_jj^2 ~ chi^2(n - j) for j = 0..3 and N(0, 1) entries below the diagonal
(Bartlett 1933; Anderson, An Introduction to Multivariate Statistical
Analysis, 7.2).  The block estimates are the blocks of S, as the
estimator's exact expectation at a given dt is the blocks of R_A^T R_A,
from which the discretization bias is estimated without sampling noise.
The standard errors are exact as well: by Isserlis' theorem a sample
o M_k o^T has variance 2 ||R_A M_k R_A^T||_F^2.  Neither time nor memory
grows with the number of realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterFamily, FilterSpec, sample_time
from .gaussian import CovarianceBlocks, _check_seed
from .thermal import ThermalParams

# M_k of the block samples o M_k o^T, o = (xk, yk, xl, yl):
# xk^2 + yk^2, xl^2 + yl^2, xk xl - yk yl and xk yl + yk xl
_FORMS = np.zeros((4, 4, 4))
_FORMS[0, [0, 1], [0, 1]] = 1.0
_FORMS[1, [2, 3], [2, 3]] = 1.0
_FORMS[2, [0, 2, 1, 3], [2, 0, 3, 1]] = [0.5, 0.5, -0.5, -0.5]
_FORMS[3, [0, 3, 1, 2], [3, 0, 2, 1]] = 0.5


@dataclass(frozen=True)
class SimConfig:
    """Model, filter pair and discretization of one Monte Carlo run.

    dt must resolve the filter kernels (<= min(tau)/50); the horizon must
    cover the step windows with margin (>= 3 max(tau)) and the exponential
    tails (>= 10 tau).  The realizations' second moments are drawn at once
    from SeedSequence((seed, 0)), so a seed gives the same estimates bit
    for bit on every run.
    """

    model: ThermalParams
    filter_i: FilterSpec
    filter_s: FilterSpec
    dt: float
    horizon: float
    n_realizations: int
    seed: int = 0

    def __post_init__(self):
        taus = (self.filter_i.tau, self.filter_s.tau)
        if not 0.0 < self.dt <= min(taus) / 50.0:
            raise ValueError(f"dt must lie in (0, min(tau)/50 = {min(taus) / 50.0:g}]")
        if not 3.0 * max(taus) <= self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and >= 3 max(tau) = {3.0 * max(taus):g}")
        for f in (self.filter_i, self.filter_s):
            if f.family is FilterFamily.EXPONENTIAL and self.horizon < 10.0 * f.tau:
                raise ValueError("horizon must be >= 10 tau for exponential filters")
        if not isinstance(self.n_realizations, (int, np.integer)):
            raise ValueError(f"n_realizations must be an integer, got {self.n_realizations!r}")
        if self.n_realizations < 1000:
            raise ValueError("need at least 1000 realizations")
        _check_seed(self.seed)


@dataclass(frozen=True)
class EmpiricalBlocks:
    """Block estimates with standard errors of the mean and a bias flag.

    The standard errors are the exact standard deviations of the means of
    n independent block samples, sqrt(2/n) ||R_A M_k R_A^T||_F (see the
    module docstring), floored at 1e-300 so that a form that vanishes on
    rank-deficient outputs still gives a finite z.  bias_estimate is the
    half-dt Richardson estimate of the discretization bias, computed from
    the estimator's exact expectations at dt and dt/2 (no sampling noise),
    and bias_warning is set when it exceeds the statistical error on any
    block.  richardson_limit, the expectation at dt less that bias,
    extrapolates the estimator to dt -> 0, again without sampling noise.
    lag_cells counts the kernel cells at dt and normal_draws the variates
    drawn: four chi-squares and six normals, at any number of realizations.
    """

    blocks: CovarianceBlocks
    std_errors: tuple[float, float, float, float]
    bias_estimate: tuple[float, float, float, float]
    bias_warning: bool
    richardson_limit: tuple[float, float, float, float]
    lag_cells: int
    normal_draws: int


def _noise_powers(model: ThermalParams) -> list[float]:
    """Power of each noise series, in draw order: xi, yi, xs, ys, then the
    vacuum pair of each lossy party (idler first)."""
    p_i, p_s = model.n_i + 0.5, model.n_s + 0.5
    lossy = int(model.eta_i < 1.0) + int(model.eta_s < 1.0)
    return [p_i, p_i, p_s, p_s] + [0.5, 0.5] * lossy


def _lag_grid(support: float, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """Midpoints and widths of the lag cells covering [0, support]."""
    m = int(math.floor(support / dt + 1e-9))
    widths = np.full(m, dt)
    rem = support - m * dt
    if rem > 1e-9 * dt:
        widths = np.append(widths, rem)
    edges = np.concatenate(([0.0], np.cumsum(widths)))
    mids = 0.5 * (edges[:-1] + edges[1:])
    return mids, widths


def _refine_grid(mids: np.ndarray, widths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split every lag cell in two (for the half-dt bias reference)."""
    w2 = np.repeat(widths, 2) / 2.0
    lows = np.repeat(mids - widths / 2.0, 2)
    lows[1::2] += w2[1::2]
    return lows + w2 / 2.0, w2


def _kernels(cfg: SimConfig, mids: np.ndarray, widths: np.ndarray):
    """(Re h_k, Im h_k, Re h_l, Im h_l) at cell midpoints, pre-multiplied by
    the cell widths."""
    rows = []
    for f in (cfg.filter_i, cfg.filter_s):
        h = sample_time(f, mids)
        rows += [h.real * widths, h.imag * widths]
    return tuple(rows)


def _kernel_factor(noise_widths, kernels) -> np.ndarray:
    """R of P = Q R, P the four kernel columns over sqrt(widths).

    Householder QR, not a Cholesky of P^T P: identical filters repeat
    columns and leave the Gram singular.
    """
    proj = np.column_stack(kernels) / np.sqrt(noise_widths)[:, None]
    return np.linalg.qr(proj, mode="r")


def _mix(cfg: SimConfig, proj):
    """Filtered outputs (xk, yk, xl, yl) of the noise series projections.

    proj lists each series' projections in draw order (see _noise_powers),
    with a last axis over the kernel columns (rk, ik, rl, il).  The
    squeezer mixes the series into Bogoliubov branches at +-r; each
    quadrature's loss mixes in one shared vacuum series for both branches
    (one beamsplitter port).
    """
    r, eta_i, eta_s = cfg.model.r, cfg.model.eta_i, cfg.model.eta_s
    c, s = math.cosh(r), math.sinh(r)
    rei, res = math.sqrt(eta_i), math.sqrt(eta_s)
    ri, rs = math.sqrt(1.0 - eta_i), math.sqrt(1.0 - eta_s)
    xi, yi, xs, ys, *vac = proj

    xi_p, xi_m = c * xi + s * xs, c * xi - s * xs
    yi_p, yi_m = c * yi - s * ys, c * yi + s * ys
    xs_p, xs_m = s * xi + c * xs, -s * xi + c * xs
    ys_p, ys_m = -s * yi + c * ys, s * yi + c * ys
    if eta_i < 1.0:
        xv, yv = vac[:2]
        xi_p, xi_m = rei * xi_p + ri * xv, rei * xi_m + ri * xv
        yi_p, yi_m = rei * yi_p + ri * yv, rei * yi_m + ri * yv
    if eta_s < 1.0:
        xv, yv = vac[-2:]
        xs_p, xs_m = res * xs_p + rs * xv, res * xs_m + rs * xv
        ys_p, ys_m = res * ys_p + rs * yv, res * ys_m + rs * yv

    xk = xi_p[..., 0] - yi_m[..., 1]
    yk = xi_m[..., 1] + yi_p[..., 0]
    xl = xs_p[..., 2] - ys_m[..., 3]
    yl = xs_m[..., 3] + ys_p[..., 2]
    return xk, yk, xl, yl


def _output_map(cfg: SimConfig, noise_widths, kernels) -> np.ndarray:
    """A, the (4 * series, 4) map from unit normals to (xk, yk, xl, yl).

    Row 4s + j is the j-th projection normal of series s, scaled by its
    noise power and mapped through the kernel factor R, then mixed.
    """
    tri = _kernel_factor(noise_widths, kernels)
    powers = _noise_powers(cfg.model)
    e = np.eye(4 * len(powers)).reshape(-1, len(powers), 4)
    return np.column_stack(
        _mix(cfg, [math.sqrt(p) * (e[:, i] @ tri) for i, p in enumerate(powers)])
    )


def _output_factor(cfg: SimConfig, noise_widths, kernels) -> np.ndarray:
    """R_A of A = Q_A R_A (see the module docstring); z R_A has the law of
    the four outputs for z ~ N(0, I_4)."""
    return np.linalg.qr(_output_map(cfg, noise_widths, kernels), mode="r")


def _blocks(g: np.ndarray) -> np.ndarray:
    """(D_I, D_S, C11, C12) of a 4x4 second-moment matrix g of the outputs:
    the sums of M_k * g."""
    return np.tensordot(_FORMS, g)


def _expected_blocks(factor: np.ndarray) -> np.ndarray:
    """Exact expectation of the block estimates drawn through factor: the
    blocks of the output covariance R_A^T R_A."""
    return _blocks(factor.T @ factor)


def _wishart(rng: np.random.Generator, n: int) -> np.ndarray:
    """W ~ Wishart(n, I_4), the sum of z^T z over n draws z ~ N(0, I_4), by
    Bartlett's decomposition W = L L^T: L lower-triangular with
    L_jj = sqrt(chi^2(n - j)) and N(0, 1) entries below the diagonal."""
    # float degrees of freedom: n may exceed the int64 range
    low = np.diag(np.sqrt(rng.chisquare(n - np.arange(4.0))))
    low[np.tril_indices(4, -1)] = rng.standard_normal(6)
    return low @ low.T


def simulate(cfg: SimConfig) -> EmpiricalBlocks:
    """Monte Carlo estimate of the covariance blocks at t = horizon.

    The lag window spans the full kernel support of both filters, so the
    estimate is already stationary; the horizon margin enforced by
    SimConfig guarantees the support fits in the simulated interval.
    """
    supports = [
        f.tau if f.family is FilterFamily.STEP else cfg.horizon
        for f in (cfg.filter_i, cfg.filter_s)
    ]
    mids, widths = _lag_grid(max(supports), cfg.dt)
    factor = _output_factor(cfg, widths, _kernels(cfg, mids, widths))

    n = cfg.n_realizations
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0)))
    est = _blocks(factor.T @ _wishart(rng, n) @ factor / n)
    # Isserlis: a sample o M o^T has variance 2 tr((M R_A^T R_A)^2)
    forms = factor @ _FORMS @ factor.T
    se = np.maximum(math.sqrt(2.0 / n) * np.linalg.norm(forms, axis=(1, 2)), 1e-300)

    expected = _expected_blocks(factor)
    bias = _richardson_bias(cfg, mids, widths, expected)
    return EmpiricalBlocks(
        blocks=CovarianceBlocks(*est),
        std_errors=tuple(float(x) for x in se),
        bias_estimate=tuple(float(x) for x in bias),
        bias_warning=bool(np.any(np.abs(bias) > se)),
        richardson_limit=tuple(float(x) for x in expected - bias),
        lag_cells=len(widths),
        normal_draws=10,  # 4 chi-squares and 6 normals (see _wishart)
    )


def _richardson_bias(cfg: SimConfig, mids, widths, expected) -> np.ndarray:
    """Half-dt Richardson estimate of the discretization bias per block.

    The estimator's expectation at a given dt is exact and free of sampling
    noise: the blocks of R_A^T R_A for that dt's kernels.  Its midpoint
    kernel sums carry an O(dt^2) error, so (E_dt - E_dt/2) * 4/3 estimates
    E_dt - E_0, where the dt/2 grid splits every lag cell in two; expected
    is E_dt.
    """
    mids_f, widths_f = _refine_grid(mids, widths)
    fine = _output_factor(cfg, widths_f, _kernels(cfg, mids_f, widths_f))
    return (expected - _expected_blocks(fine)) * (4.0 / 3.0)
