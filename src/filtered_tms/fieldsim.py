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
output quadratures (xk, yk, xl, yl), and they are a fixed linear map of the
noise.  Each series enters through its projection onto the four
width-scaled kernel columns P: with P = Q R (Householder QR), a unit-normal
series has the projection law N(0, R^T R), that of w R for w ~ N(0, I_4).
Mixing those projections through the squeezer and loss gives the outputs
as w A, w the 4-per-series normals of all series; with A = Q_A R_A, the
outputs are drawn as z R_A for z ~ N(0, I_4), which has their exact law
A^T A even when identical filters make A rank-deficient.  That costs four
draws per realization instead of one per lag cell and series, and the
covariance sampled is still the Riemann-sum Gram of the sampled kernels,
never the closed-form overlap.  The same factor gives the estimator's
exact expectation at a given dt, the blocks of R_A^T R_A, from which the
discretization bias is estimated without sampling noise.  The samples are
never stored: each batch of _BATCH = 4096 realizations is reduced, in one
(4, nb) array overwritten in place, to its mean and sum of squared
deviations, which are merged into running moments, so memory does not grow
with the number of realizations.  Batches are drawn on every CPU the
process may use, in threads, and merged in batch order: each batch has its
own random stream, so the estimate is the same bit for bit whatever the
number of threads.  Batch b covers realizations b * _BATCH on, so the
estimate for a seed changes with _BATCH, within its standard error.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .filters import FilterFamily, FilterSpec, sample_time
from .gaussian import CovarianceBlocks
from .thermal import ThermalParams

# realizations per batch: seeding a batch's generator and dispatching it
# hold the interpreter lock, a fixed cost per batch; 4096 measured faster
# than 2048, and larger batches no faster, with more memory in flight
_BATCH = 4096
# batches per worker thread per round (see _all_moments)
_ROUND = 32


@dataclass(frozen=True)
class SimConfig:
    """Model, filter pair and discretization of one Monte Carlo run.

    dt must resolve the filter kernels (<= min(tau)/50); the horizon must
    cover the step windows with margin (>= 3 max(tau)) and the exponential
    tails (>= 10 tau).  Realizations are batched in fixed-size chunks whose
    substreams derive from (seed, batch index), and the batch moments are
    merged in index order, so estimates do not depend on scheduling: the
    batches run in parallel threads, and the result is bit for bit the same
    for any number of them.
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
        seed = self.seed
        if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True)
class EmpiricalBlocks:
    """Block estimates with standard errors of the mean and a bias flag.

    The realizations are independent, so each standard error is the sample
    standard deviation over sqrt(n).  bias_estimate is the half-dt
    Richardson estimate of the discretization bias, computed from the
    estimator's exact expectations at dt and dt/2 (no sampling noise), and
    bias_warning is set when it exceeds the statistical error on any block.
    richardson_limit, the expectation at dt less that bias, extrapolates the
    estimator to dt -> 0, again without sampling noise.  lag_cells counts
    the kernel cells at dt and normal_draws the unit normals drawn, four per
    realization.
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


def _expected_blocks(factor: np.ndarray) -> np.ndarray:
    """Exact expectation of the (D_I, D_S, C11, C12) samples drawn through
    factor: the blocks of the output covariance R_A^T R_A."""
    g = factor.T @ factor
    return np.array([g[0, 0] + g[1, 1], g[2, 2] + g[3, 3],
                     g[0, 2] - g[1, 3], g[0, 3] + g[1, 2]])


def _batch(cfg: SimConfig, factor: np.ndarray, index: int) -> np.ndarray:
    """Samples of (D_I, D_S, C11, C12) of one batch, a fresh (4, nb) array
    of the nb <= _BATCH realizations from index * _BATCH on.

    The batch draws z ~ N(0, I_4) per realization from a generator seeded
    by SeedSequence((cfg.seed, 0, index)), so its stream does not depend
    on which thread draws it or when, and forms the outputs z R_A.  The
    rows xk*xk + yk*yk, xl*xl + yl*yl, xk*xl - yk*yl and xk*yl + yk*xl are
    written in place, rounding exactly as those expressions.
    """
    nb = min(_BATCH, cfg.n_realizations - index * _BATCH)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0, index)))
    xk, yk, xl, yl = (rng.standard_normal((nb, 4)) @ factor).T
    x, tmp = np.empty((4, nb)), np.empty(nb)
    for row, (a, b, c, d, combine) in zip(x, ((xk, xk, yk, yk, np.add),
                                              (xl, xl, yl, yl, np.add),
                                              (xk, xl, yk, yl, np.subtract),
                                              (xk, yl, yk, xl, np.add))):
        np.multiply(a, b, out=row)
        np.multiply(c, d, out=tmp)
        combine(row, tmp, out=row)
    return x


def _moments(cfg: SimConfig, factor: np.ndarray, index: int):
    """(nb, mean, M2) of one batch: its size, the mean of each block sample
    and the summed squared deviations from that mean.

    Bit for bit, the mean is x.mean(axis=1) and M2 is
    np.square(x - mean[:, None]).sum(axis=1) of the samples x; the
    deviations overwrite the samples.
    """
    x = _batch(cfg, factor, index)
    nb = x.shape[1]
    mean = np.add.reduce(x, axis=1) / nb
    x -= mean[:, None]
    np.square(x, out=x)
    return nb, mean, np.add.reduce(x, axis=1)


def _cpus() -> int:
    """Number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _round_moments(cfg: SimConfig, factor: np.ndarray, ids: range, workers: int) -> list:
    """Moments of the batches ids, in order, from workers strided shares.

    Share w takes ids[w::workers]; the caller computes share 0 and one
    thread each the others, all of which have ended when this returns.
    The cost is native code that releases the interpreter lock (the draw,
    the product with R_A and the block loops), so the shares run on
    separate CPUs.  The first error of any share stops the others after
    their current batch and is raised here, before any moment is used.
    """
    table = [None] * len(ids)
    errors = []

    def work(w):
        try:
            for j in range(w, len(ids), workers):
                if errors:
                    return
                table[j] = _moments(cfg, factor, ids[j])
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    try:
        for thread in threads:
            thread.start()
        work(0)
    except BaseException as exc:  # a thread that could not start
        errors.append(exc)
    finally:
        for thread in threads:
            if thread.is_alive():
                thread.join()
    if errors:
        raise errors[0]
    return table


def _all_moments(cfg: SimConfig, factor: np.ndarray):
    """Yield the moments of every batch in index order.

    Batches run in rounds of _ROUND per worker, one worker per available
    CPU (at most one per batch), and each round's moments are yielded once
    its threads have ended.  At most one batch per worker is in flight and
    one round of moments is held, so memory does not grow with the number
    of realizations; on one CPU every batch runs in the caller.
    """
    n_batches = -(-cfg.n_realizations // _BATCH)
    workers = min(_cpus(), n_batches)
    size = _ROUND * workers
    for first in range(0, n_batches, size):
        ids = range(first, min(first + size, n_batches))
        yield from _round_moments(cfg, factor, ids, min(workers, len(ids)))


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

    # running mean and M2 (summed squared deviations from the mean), merged
    # batch by batch as in Chan, Golub & LeVeque: every term of M2 is
    # non-negative, so it never forms the cancelling sum(x^2) - n mean^2
    n, est, m2 = 0, np.zeros(4), np.zeros(4)
    for nb, mean_b, m2_b in _all_moments(cfg, factor):
        delta = mean_b - est
        n += nb
        est = est + delta * (nb / n)
        m2 = m2 + m2_b + delta**2 * ((n - nb) * nb / n)
    se = np.maximum(np.sqrt(m2 / (n - 1)) / math.sqrt(n), 1e-300)

    expected = _expected_blocks(factor)
    bias = _richardson_bias(cfg, mids, widths, expected)
    return EmpiricalBlocks(
        blocks=CovarianceBlocks(*est),
        std_errors=tuple(float(x) for x in se),
        bias_estimate=tuple(float(x) for x in bias),
        bias_warning=bool(np.any(np.abs(bias) > se)),
        richardson_limit=tuple(float(x) for x in expected - bias),
        lag_cells=len(widths),
        normal_draws=4 * cfg.n_realizations,
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
