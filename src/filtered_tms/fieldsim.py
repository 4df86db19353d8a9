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
output quadratures o = (xk, yk, xl, yl), a fixed linear map of the noise,
so they are Gaussian with a 4x4 covariance Sigma.  A unit-normal series
enters only through its projection onto the four width-scaled kernel
columns P, of law N(0, G) for the kernel Gram G = P^T P, the Riemann sum of
the sampled kernels' products.  The squeezer and loss mix the projections
of series s into the outputs through a 4x4 table C_s in cosh r, sinh r,
sqrt(eta) and sqrt(1 - eta), scaled by the series' noise amplitude, so
Sigma = sum_s C_s^T G C_s.  Sigma is still the Riemann-sum Gram of the
sampled kernels, never the closed-form overlap.

Each block sample is a quadratic form o M_k o^T.  With Sigma = V diag(l) V^T
and F = diag(sqrt(max(l, 0))) V^T, F^T F = Sigma, so the outputs have the
law of z F for z ~ N(0, I_4); unlike a Cholesky factor, F exists for any
positive semi-definite Sigma, and the clamp absorbs eigenvalues that round
below zero.  So the mean over n realizations reads the draws only through
S = F^T W F / n, where W, the sum of z^T z, is Wishart(n, I_4).
Bartlett's decomposition draws W exactly with ten variates at any n:
W = L L^T, L lower-triangular with L_jj^2 ~ chi^2(n - j) for j = 0..3 and
N(0, 1) entries below the diagonal (Bartlett 1933; Anderson, An
Introduction to Multivariate Statistical Analysis, 7.2).  The block
estimates are the blocks of S, as the estimator's exact expectation at a
given dt is the blocks of Sigma, from which the discretization bias is
estimated without sampling noise.  The standard errors are exact as well:
by Isserlis' theorem a sample o M_k o^T has variance 2 tr(M_k Sigma M_k Sigma).
Neither time nor memory grows with the number of realizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .filters import FilterSpec, sample_time
from .gaussian import CovarianceBlocks, _check_seed
from .thermal import ThermalParams

# M_k of the block samples o M_k o^T, o = (xk, yk, xl, yl):
# xk^2 + yk^2, xl^2 + yl^2, xk xl - yk yl and xk yl + yk xl
_FORMS = np.zeros((4, 4, 4))
_FORMS[0, [0, 1], [0, 1]] = 1.0
_FORMS[1, [2, 3], [2, 3]] = 1.0
_FORMS[2, [0, 2, 1, 3], [2, 0, 3, 1]] = [0.5, 0.5, -0.5, -0.5]
_FORMS[3, [0, 3, 1, 2], [3, 0, 2, 1]] = 0.5
# the six entries of a 4x4 matrix below its diagonal
_BELOW = np.tril_indices(4, -1)

# The 2x2 pattern each noise series leaves in the idler block, kernel
# columns (rk, ik) -> outputs (xk, yk), and in the signal block, (rl, il) ->
# (xl, yl).  Series in draw order: xi, yi, xs, ys, then the vacuum x and y
# of the idler's loss and of the signal's.  X(+-r) feeds the X output's
# Re h and the Y output's Im h, Y(+-r) the other two (the Bogoliubov
# pairing above), and each loss port adds one vacuum series to both
# branches of its quadrature.
_I2, _O2 = np.eye(2), np.zeros((2, 2))
_J2 = np.array([[0.0, 1.0], [-1.0, 0.0]])
_Z2 = np.diag([1.0, -1.0])
_X2 = np.array([[0.0, 1.0], [1.0, 0.0]])
_PATTERNS = np.array([[_I2, _Z2], [_J2, -_X2], [_Z2, _I2], [-_X2, _J2],
                      [_I2, _O2], [_J2, _O2], [_O2, _I2], [_O2, _J2]])


@dataclass(frozen=True)
class SimConfig:
    """Model, filter pair and discretization of one Monte Carlo run.

    For the filters' time scales tau (``FilterSpec.scale``), dt <= min(tau)/50
    and horizon >= 3 max(tau); each filter is held gated, end -> min(end, horizon).
    The realizations' second moments are drawn at once from
    SeedSequence((seed, 0)), so a seed gives the same estimates bit for bit
    on every run.
    """

    model: ThermalParams
    filter_i: FilterSpec
    filter_s: FilterSpec
    dt: float
    horizon: float
    n_realizations: int
    seed: int = 0

    def __post_init__(self):
        taus = (self.filter_i.scale, self.filter_s.scale)
        if not 0.0 < self.dt <= min(taus) / 50.0:
            raise ValueError(f"dt must lie in (0, min(tau)/50 = {min(taus) / 50.0:g}]")
        if not 3.0 * max(taus) <= self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and >= 3 max(tau) = {3.0 * max(taus):g}")
        for name, f in (("filter_i", self.filter_i), ("filter_s", self.filter_s)):
            object.__setattr__(self, name, FilterSpec(f.omega, f.decay, min(f.end, self.horizon)))
        if not isinstance(self.n_realizations, (int, np.integer)):
            raise ValueError(f"n_realizations must be an integer, got {self.n_realizations!r}")
        if self.n_realizations < 1000:
            raise ValueError("need at least 1000 realizations")
        _check_seed(self.seed)


@dataclass(frozen=True)
class EmpiricalBlocks:
    """Block estimates with standard errors of the mean and a bias flag.

    The standard errors are the exact standard deviations of the means of
    n independent block samples, sqrt(2/n tr(M_k Sigma M_k Sigma)) for the
    output covariance Sigma (see the module docstring), floored at 1e-300
    so that a form that vanishes on rank-deficient outputs still gives a
    finite z.  bias_estimate is the half-dt Richardson estimate of the
    discretization bias, computed from the estimator's exact expectations,
    the blocks of Sigma at dt and dt/2 (no sampling noise), and
    bias_warning is set when it exceeds the statistical error on any block.
    richardson_limit, the expectation at dt less that bias, extrapolates the
    estimator to dt -> 0, again without sampling noise.  lag_cells counts
    the kernel cells at dt and normal_draws the variates drawn: four
    chi-squares and six normals, at any number of realizations.
    """

    blocks: CovarianceBlocks
    std_errors: tuple[float, float, float, float]
    bias_estimate: tuple[float, float, float, float]
    bias_warning: bool
    richardson_limit: tuple[float, float, float, float]
    lag_cells: int
    normal_draws: int


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


def _kernel_grams(cfg: SimConfig) -> tuple[np.ndarray, int]:
    """G = P^T P on the lag grid at dt and on its dt/2 refinement, stacked
    (2, 4, 4) over the kernel columns (Re h_k, Im h_k, Re h_l, Im h_l), and
    the number of cells at dt.

    The lag window spans both (gated) kernels' supports, so the estimate is stationary.
    """
    support = max(cfg.filter_i.end, cfg.filter_s.end)
    mids, widths = _lag_grid(support, cfg.dt)
    mids_f, widths_f = _refine_grid(mids, widths)
    m = len(widths)
    h = [sample_time(f, np.concatenate((mids, mids_f))) for f in (cfg.filter_i, cfg.filter_s)]
    cols = np.array([h[0].real, h[0].imag, h[1].real, h[1].imag])
    weighted = cols * np.concatenate((widths, widths_f))
    return np.stack([weighted[:, :m] @ cols[:, :m].T, weighted[:, m:] @ cols[:, m:].T]), m


def _mixing(model: ThermalParams) -> np.ndarray:
    """C, (8, 4, 4): C[s] maps noise series s's projections on the kernel
    columns (rk, ik, rl, il) to the outputs (xk, yk, xl, yl), scaled by the
    series' noise amplitude sqrt(n + 1/2) (see _PATTERNS for the order).
    The vacuum series of a lossless party carry coefficient zero."""
    c, s = math.cosh(model.r), math.sinh(model.r)
    ei, es = math.sqrt(model.eta_i), math.sqrt(model.eta_s)
    ai, as_, av = math.sqrt(model.n_i + 0.5), math.sqrt(model.n_s + 0.5), math.sqrt(0.5)
    vi, vs = av * math.sqrt(1.0 - model.eta_i), av * math.sqrt(1.0 - model.eta_s)
    coef = np.array([[ai * c * ei, ai * s * es]] * 2 + [[as_ * s * ei, as_ * c * es]] * 2
                    + [[vi, 0.0]] * 2 + [[0.0, vs]] * 2)
    blocks = coef[:, :, None, None] * _PATTERNS
    table = np.zeros((8, 4, 4))
    table[:, :2, :2], table[:, 2:, 2:] = blocks[:, 0], blocks[:, 1]
    return table


def _output_covariances(cfg: SimConfig) -> tuple[np.ndarray, int]:
    """Sigma = sum_s C_s^T G C_s at dt and at dt/2, stacked (2, 4, 4), and
    the number of lag cells at dt."""
    grams, cells = _kernel_grams(cfg)
    mixing = _mixing(cfg.model)
    return (np.swapaxes(mixing, 1, 2) @ grams[:, None] @ mixing).sum(axis=1), cells


def _wishart_factor(sigma: np.ndarray) -> np.ndarray:
    """F = diag(sqrt(max(l, 0))) V^T of Sigma = V diag(l) V^T: F^T F = Sigma,
    and z F has the outputs' law for z ~ N(0, I_4).  Defined for singular
    Sigma too, whose zero eigenvalues may round below zero."""
    lam, vec = np.linalg.eigh(sigma)
    return np.sqrt(np.maximum(lam, 0.0))[:, None] * vec.T


def _blocks(g: np.ndarray) -> np.ndarray:
    """(D_I, D_S, C11, C12) of a 4x4 second-moment matrix g of the outputs,
    or of a stack of them: the sums of M_k * g."""
    return np.einsum("kij,...ij->...k", _FORMS, g)


def _wishart(rng: np.random.Generator, n: int) -> np.ndarray:
    """W ~ Wishart(n, I_4), the sum of z^T z over n draws z ~ N(0, I_4), by
    Bartlett's decomposition W = L L^T: L lower-triangular with
    L_jj = sqrt(chi^2(n - j)) and N(0, 1) entries below the diagonal."""
    # float degrees of freedom: n may exceed the int64 range
    low = np.diag(np.sqrt(rng.chisquare(n - np.arange(4.0))))
    low[_BELOW] = rng.standard_normal(6)
    return low @ low.T


def simulate(cfg: SimConfig) -> EmpiricalBlocks:
    """Monte Carlo estimate of the covariance blocks at t = horizon.

    The expectations at dt and dt/2 are exact and free of sampling noise:
    the blocks of Sigma on either grid.  The midpoint kernel sums carry an
    O(dt^2) error, so (E_dt - E_dt/2) * 4/3 estimates the discretization
    bias E_dt - E_0, where the dt/2 grid splits every lag cell in two.
    """
    sigmas, cells = _output_covariances(cfg)
    factor = _wishart_factor(sigmas[0])

    n = cfg.n_realizations
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0)))
    est = _blocks(factor.T @ _wishart(rng, n) @ factor / n)
    # Isserlis: a sample o M o^T has variance 2 tr((M Sigma)^2), which the
    # clamp keeps from rounding below zero where a form vanishes
    forms = _FORMS @ sigmas[0]
    var = np.maximum(np.einsum("kij,kji->k", forms, forms), 0.0)
    se = np.maximum(np.sqrt(2.0 / n * var), 1e-300)

    expected, fine = _blocks(sigmas)
    bias = (expected - fine) * (4.0 / 3.0)
    return EmpiricalBlocks(
        blocks=CovarianceBlocks(*est),
        std_errors=tuple(float(x) for x in se),
        bias_estimate=tuple(float(x) for x in bias),
        bias_warning=bool(np.any(np.abs(bias) > se)),
        richardson_limit=tuple(float(x) for x in expected - bias),
        lag_cells=cells,
        normal_draws=10,  # 4 chi-squares and 6 normals (see _wishart)
    )
