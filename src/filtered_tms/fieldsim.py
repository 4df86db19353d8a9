"""Time-domain Monte Carlo oracle for the filtered steady-state covariance.

Simulates the chain white-noise input -> two-mode squeezer -> optical loss
-> temporal filter, and estimates the covariance blocks from symmetrized
products at the end of the simulated horizon.  Because every tracked
quantity is a symmetrized second moment of a Gaussian process, classical
Gaussian sampling reproduces the quantum covariances exactly; the oracle is
therefore independent of the covariance algebra it validates.

The squeezer mixes the +r and -r Bogoliubov branches into the filtered
quadratures: the X output of each party filters the pair
(X(+r), Y(-r)) through [Re h, -Im h] and the Y output filters
(X(-r), Y(+r)) through [Im h, Re h].  This pairing is what couples the
cross block to the difference-frequency overlap kernel (K_f, L_f); feeding
a single Bogoliubov branch through both kernel rows would instead produce
sum-frequency integrals that vanish for matched filters.

The estimator is linear in the noise and only ever sees each series through
its projection onto the k width-scaled kernel columns P.  Those projections
are drawn directly: with P = Q R (Householder QR), a unit-normal series z
has z P ~ N(0, P^T P) = N(0, R^T R), the law of w R for w ~ N(0, I_k).  That
is exact in distribution, costs k draws per series instead of one per lag
cell, and the covariance sampled is still the Riemann-sum Gram of the
sampled kernels, never the closed-form overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .filters import FilterFamily, FilterSpec, sample_time
from .gaussian import CovarianceBlocks
from .thermal import ThermalParams
from .tmsv import TmsvParams

_BATCH = 2048
_PILOT_REALIZATIONS = 2000


@dataclass(frozen=True)
class SimConfig:
    """Model, filter pair and discretization of one Monte Carlo run.

    dt must resolve the filter kernels (<= min(tau)/50); the horizon must
    cover the step windows with margin (>= 3 max(tau)) and the exponential
    tails (>= 10 tau).  Realizations are batched in fixed-size chunks whose
    substreams derive from (seed, batch index), so estimates do not depend
    on scheduling.
    """

    model: Union[TmsvParams, ThermalParams]
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
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")


@dataclass(frozen=True)
class EmpiricalBlocks:
    """Block estimates with standard errors of the mean and a bias flag.

    The realizations are independent, so each standard error is the sample
    standard deviation over sqrt(n).  bias_warning is set when the half-dt
    Richardson estimate of the discretization bias exceeds the statistical
    error on any block.  lag_cells counts the kernel cells at dt,
    pilot_realizations the realizations of the bias pilot and normal_draws
    the unit normals drawn by the main run and the pilot together.
    """

    blocks: CovarianceBlocks
    std_errors: tuple[float, float, float, float]
    bias_estimate: tuple[float, float, float, float]
    bias_warning: bool
    lag_cells: int
    pilot_realizations: int
    normal_draws: int


def _model_numbers(model) -> tuple[float, float, float, float, float]:
    """(r, noise power I, noise power S, eta_i, eta_s) for either model."""
    if isinstance(model, TmsvParams):
        return model.r, 0.5, 0.5, model.eta_i, model.eta_s
    if isinstance(model, ThermalParams):
        return model.r, model.n_i + 0.5, model.n_s + 0.5, 1.0, 1.0
    raise TypeError(f"unsupported model type {type(model).__name__}")


def _noise_powers(model) -> list[float]:
    """Power of each drawn noise series, in draw order: xi, yi, xs, ys, then
    the vacuum pair of each lossy party (idler first)."""
    _, p_i, p_s, eta_i, eta_s = _model_numbers(model)
    return [p_i, p_i, p_s, p_s] + [0.5, 0.5] * ((eta_i < 1.0) + (eta_s < 1.0))


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
    """Split every lag cell in two (for the coupled half-dt pilot)."""
    w2 = np.repeat(widths, 2) / 2.0
    lows = np.repeat(mids - widths / 2.0, 2)
    lows[1::2] += w2[1::2]
    return lows + w2 / 2.0, w2


def _kernel_rows(f: FilterSpec, mids: np.ndarray, widths: np.ndarray):
    """(Re h, Im h) at cell midpoints, pre-multiplied by the cell widths."""
    h = sample_time(f, mids)
    return h.real * widths, h.imag * widths


def _kernel_factor(noise_widths, kernel_sets) -> np.ndarray:
    """R of P = Q R, P the columns of all kernel sets over sqrt(widths).

    Householder QR, not a Cholesky of P^T P: identical filters repeat
    columns and leave the Gram singular.
    """
    proj = np.column_stack([row for k in kernel_sets for row in k])
    proj /= np.sqrt(noise_widths)[:, None]
    return np.linalg.qr(proj, mode="r")


def _contract(cfg: SimConfig, noise_widths, kernel_sets, n_total, stream_tag):
    """Per-realization samples of (D_I, D_S, C11, C12) for every kernel set.

    Each set is (rk, ik, rl, il), width-weighted and aligned with the noise
    grid; the result has shape (len(kernel_sets), n_total, 4).  Each noise
    series is drawn as its projections w R onto the columns of all sets (see
    the module docstring), so every set sees the same draws.  The stream is
    fully determined by (cfg.seed, stream_tag, batch index) and the fixed
    draw order; the squeezer and loss then mix the projections.
    """
    r, _, _, eta_i, eta_s = _model_numbers(cfg.model)
    c, s = math.cosh(r), math.sinh(r)
    rei, res = math.sqrt(eta_i), math.sqrt(eta_s)
    ri, rs = math.sqrt(1.0 - eta_i), math.sqrt(1.0 - eta_s)
    tri = _kernel_factor(noise_widths, kernel_sets)
    powers = _noise_powers(cfg.model)

    out = np.empty((len(kernel_sets), n_total, 4))
    for start in range(0, n_total, _BATCH):
        nb = min(_BATCH, n_total - start)
        batch = start // _BATCH
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=(cfg.seed, stream_tag, batch))
        )
        # draw order: xi, yi, xs, ys, idler vacuum pair, signal vacuum pair;
        # projections have shape (nb, set, kernel column)
        xi, yi, xs, ys, *vac = [
            math.sqrt(p) * (rng.standard_normal((nb, len(tri))) @ tri).reshape(nb, -1, 4)
            for p in powers
        ]

        # Bogoliubov branches at +-r; each quadrature's loss mixes in one
        # shared vacuum series for both branches (one beamsplitter port).
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

        rows = out[:, start:start + nb]
        rows[..., 0] = (xk * xk + yk * yk).T
        rows[..., 1] = (xl * xl + yl * yl).T
        rows[..., 2] = (xk * xl - yk * yl).T
        rows[..., 3] = (xk * yl + yk * xl).T
    return out


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
    kernels = _kernel_rows(cfg.filter_i, mids, widths) + _kernel_rows(
        cfg.filter_s, mids, widths
    )

    samples = _contract(cfg, widths, [kernels], cfg.n_realizations, stream_tag=0)[0]
    est = samples.mean(axis=0)
    se = np.maximum(samples.std(axis=0, ddof=1) / math.sqrt(cfg.n_realizations), 1e-300)

    n_pilot = min(_PILOT_REALIZATIONS, cfg.n_realizations)
    bias = _richardson_bias(cfg, mids, widths, kernels, n_pilot)
    return EmpiricalBlocks(
        blocks=CovarianceBlocks(*est),
        std_errors=tuple(float(x) for x in se),
        bias_estimate=tuple(float(x) for x in bias),
        bias_warning=bool(np.any(np.abs(bias) > se)),
        lag_cells=len(widths),
        pilot_realizations=n_pilot,
        # one normal per kernel column and series: 4 columns in the main
        # run, 8 (fine and lifted coarse) in the pilot
        normal_draws=len(_noise_powers(cfg.model)) * 4 * (cfg.n_realizations + 2 * n_pilot),
    )


def _richardson_bias(cfg: SimConfig, mids, widths, coarse_rows, n_pilot) -> np.ndarray:
    """Half-dt Richardson estimate of the discretization bias per block.

    The pilot couples the coarse and fine kernels through the same Brownian
    increments: a coarse cell weight is spread over its two fine half-cells,
    which makes the coarse contraction see exactly the pair-averaged fine
    noise.  The coupled difference isolates the O(dt^2) kernel-sampling
    bias instead of statistical noise.  Both kernel sets are columns of one
    factor, so a single draw of their eight projections keeps that coupling
    exactly in distribution.
    """
    mids_f, widths_f = _refine_grid(mids, widths)
    fine_kernels = _kernel_rows(cfg.filter_i, mids_f, widths_f) + _kernel_rows(
        cfg.filter_s, mids_f, widths_f
    )
    lifted = tuple(np.repeat(row, 2) / 2.0 for row in coarse_rows)

    fine, coarse = _contract(cfg, widths_f, [fine_kernels, lifted], n_pilot, stream_tag=1)
    return (coarse.mean(axis=0) - fine.mean(axis=0)) * (4.0 / 3.0)
