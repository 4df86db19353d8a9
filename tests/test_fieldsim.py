"""Monte Carlo oracle: consistency with the closed-form blocks, seed
determinism, convergence order, Bartlett's law of the drawn second moments,
the estimates and exact standard errors against the full-series
contraction, the calibration of z, constant cost in the number of
realizations, the discretization bias and configuration validation."""

import dataclasses
import functools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from filtered_tms import fieldsim, thermal, tmsv
from filtered_tms.fieldsim import SimConfig, simulate
from filtered_tms.filters import (
    FilterSpec,
    OverlapFactors,
    overlap_closed_form,
    sample_time,
)
from oracles import MIX_BATCH, mix_outputs, mix_then_contract, noise_stream


def step_pair(omega_k=1.0, omega_l=1.0, tau=2.0):
    return FilterSpec.step(omega_k, tau), FilterSpec.step(omega_l, tau)


def assert_within_5_se(est: fieldsim.EmpiricalBlocks, analytic):
    names = ("d_i", "d_s", "c11", "c12")
    for i, name in enumerate(names):
        a, e, se = getattr(analytic, name), getattr(est.blocks, name), est.std_errors[i]
        assert abs(e - a) <= 5.0 * se, f"{name}: |{e} - {a}| > 5 * {se}"


class TestConsistency:
    def test_vacuum_input(self):
        fi, fs = step_pair()
        model = tmsv.TmsvParams(r=0.0)
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=6.0, n_realizations=50000, seed=2)
        est = simulate(cfg)
        assert_within_5_se(est, tmsv.covariance(model))
        assert not est.bias_warning

    def test_ideal_tmsv_identical_step_filters(self):
        fi, fs = step_pair()
        model = tmsv.TmsvParams(r=1.0)
        cfg = SimConfig(model, fi, fs, dt=0.01, horizon=6.0, n_realizations=50000, seed=3)
        est = simulate(cfg)
        want = tmsv.covariance(model)
        assert want.d_i == pytest.approx(math.cosh(2.0))
        assert_within_5_se(est, want)

    def test_thermal_detuned_step_filters(self):
        fi, fs = step_pair(omega_k=1.0, omega_l=0.0)
        ov = overlap_closed_form(fi, fs)
        assert ov.k_f == pytest.approx(0.454649, abs=1e-6)
        assert ov.l_f == pytest.approx(0.708073, abs=1e-6)
        model = thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.01, horizon=6.0, n_realizations=50000, seed=5)
        assert_within_5_se(simulate(cfg), thermal.covariance(model))

    def test_lossy_tmsv(self):
        fi, fs = step_pair(omega_k=1.0, omega_l=0.0)
        ov = overlap_closed_form(fi, fs)
        model = tmsv.TmsvParams(r=0.8, eta_i=0.7, eta_s=0.9, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.01, horizon=6.0, n_realizations=50000, seed=7)
        assert_within_5_se(simulate(cfg), tmsv.covariance(model))

    def test_exponential_filter_pair(self):
        fi = FilterSpec.exponential(1.0, 1.0)
        fs = FilterSpec.exponential(0.5, 1.0)
        ov = overlap_closed_form(fi, fs)
        model = tmsv.TmsvParams(r=0.6, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=10.0, n_realizations=40000, seed=11)
        assert_within_5_se(simulate(cfg), tmsv.covariance(model))

    def test_thermal_exponential_filters(self):
        # C12 = -B L_f sinh 2r needs unequal populations and L_f > 0
        fi = FilterSpec.exponential(1.0, 1.0)
        fs = FilterSpec.exponential(0.3, 1.0)
        ov = overlap_closed_form(fi, fs)
        assert ov.l_f != 0.0
        model = thermal.ThermalParams(r=0.5, n_i=0.1, n_s=0.9, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=10.0, n_realizations=40000, seed=17)
        assert_within_5_se(simulate(cfg), thermal.covariance(model))

    def test_mixed_family_pair(self):
        # the Monte Carlo checks the mixed-family closed form end to end
        fi = FilterSpec.step(1.0, 2.0)
        fs = FilterSpec.exponential(0.8, 1.0)
        ov = overlap_closed_form(fi, fs)
        model = thermal.ThermalParams(r=0.6, n_i=0.5, n_s=0.1, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.01, horizon=10.0, n_realizations=40000, seed=19)
        assert_within_5_se(simulate(cfg), thermal.covariance(model))

    def test_mismatched_windows(self):
        fi = FilterSpec.step(1.0, 2.0)
        fs = FilterSpec.step(1.0, 3.0)
        ov = overlap_closed_form(fi, fs)
        assert ov.k_f == pytest.approx(2.0 / math.sqrt(6.0), rel=1e-12)
        model = tmsv.TmsvParams(r=0.7, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.01, horizon=9.0, n_realizations=50000, seed=13)
        assert_within_5_se(simulate(cfg), tmsv.covariance(model))


class TestDeterminism:
    def test_identical_seeds_bitwise_identical(self):
        fi, fs = step_pair(omega_k=1.0, omega_l=0.5)
        model = thermal.ThermalParams(r=0.4, n_i=0.2, n_s=0.1,
                                      overlap=overlap_closed_form(fi, fs))
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=6.0, n_realizations=4000, seed=21)
        a, b = simulate(cfg), simulate(cfg)
        assert a.blocks == b.blocks
        assert a.std_errors == b.std_errors
        assert a.bias_estimate == b.bias_estimate

    def test_different_seeds_differ(self):
        fi, fs = step_pair()
        model = tmsv.TmsvParams(r=0.4)
        a = simulate(SimConfig(model, fi, fs, 0.02, 6.0, 4000, seed=1))
        b = simulate(SimConfig(model, fi, fs, 0.02, 6.0, 4000, seed=2))
        assert a.blocks != b.blocks


class TestConvergence:
    def test_error_scales_as_inverse_root_n(self):
        # the error against the expectation at dt: the discretization bias
        # sets no floor, so the rate holds out to 1e7 realizations
        fi, fs = step_pair(omega_k=1.0, omega_l=0.3, tau=1.0)
        model = tmsv.TmsvParams(r=0.5, overlap=overlap_closed_form(fi, fs))
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=3.0, n_realizations=1000)
        want = oracle_expectation(cfg)
        ns = [10**k for k in range(3, 8)]
        rms_errors = []
        for n in ns:
            errs = [block_array(simulate(dataclasses.replace(
                        cfg, n_realizations=n, seed=1000 + seed)).blocks) - want
                    for seed in range(40)]
            rms_errors.append(np.sqrt(np.mean(np.square(errs))))
        slope = np.polyfit(np.log(ns), np.log(rms_errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.05)


def block_array(blocks):
    return np.array([blocks.d_i, blocks.d_s, blocks.c11, blocks.c12])


def kernel_grid(cfg):
    """Lag-cell widths and the width-scaled kernels (rk, ik, rl, il), sampled
    here from the filters on the grid simulate uses."""
    support = max(cfg.filter_i.end, cfg.filter_s.end)
    mids, widths = fieldsim._lag_grid(support, cfg.dt)
    kernels = []
    for f in (cfg.filter_i, cfg.filter_s):
        h = sample_time(f, mids)
        kernels += [h.real * widths, h.imag * widths]
    return widths, tuple(kernels)


def series_count(model):
    """The oracle's noise series: four input quadratures, then a vacuum pair
    per lossy party."""
    return 4 + 2 * (model.eta_i < 1.0) + 2 * (model.eta_s < 1.0)


def basis_noise(n_series, cells):
    """Full-series noise whose realization j is the j-th unit vector of all
    series' cells: row j of the outputs is the chain's response to it."""
    def noise(batch, nb):
        j = batch * MIX_BATCH + np.arange(nb)
        for s in range(n_series):
            series = np.zeros((nb, cells))
            hit = j // cells == s
            series[hit, j[hit] % cells] = 1.0
            yield series
    return noise


def response_map(cfg, widths, kernels):
    """A, (series x cells, 4): the outputs (xk, yk, xl, yl) of mix_outputs
    for every unit noise vector, so that full unit-normal series w give the
    outputs w A, of covariance A^T A."""
    n_series = series_count(cfg.model)
    return mix_outputs(cfg, widths, kernels, n_series * len(widths),
                       basis_noise(n_series, len(widths)))


@functools.cache
def full_map(cfg):
    """response_map on the grid and kernels simulate uses."""
    return response_map(cfg, *kernel_grid(cfg))


def block_samples(outputs):
    """Per-realization (D_I, D_S, C11, C12) samples of outputs (xk, yk, xl, yl),
    written out rather than read from fieldsim._FORMS."""
    xk, yk, xl, yl = outputs.T
    return np.column_stack([xk * xk + yk * yk, xl * xl + yl * yl,
                            xk * xl - yk * yl, xk * yl + yk * xl])


def oracle_expectation(cfg):
    """(D_I, D_S, C11, C12) expected at cfg.dt from the full-series oracle:
    summed over the unit noise vectors, the block samples give the
    quadratic estimator's exact expectation."""
    return block_samples(full_map(cfg)).sum(axis=0)


def output_covariance(cfg):
    """simulate's Sigma at cfg.dt."""
    return fieldsim._output_covariances(cfg)[0][0]


def output_factor(cfg):
    """simulate's F, whose z F the draws z ~ N(0, I_4) turn into outputs."""
    return fieldsim._wishart_factor(output_covariance(cfg))


def unit_draws(cfg):
    """cfg.n_realizations draws z ~ N(0, I_4), batch by batch from
    noise_stream(cfg.seed, 0, 4)."""
    draws, n = noise_stream(cfg.seed, 0, 4), cfg.n_realizations
    return np.concatenate([next(draws(b, min(MIX_BATCH, n - b * MIX_BATCH)))
                           for b in range(-(-n // MIX_BATCH))])


def drawn_samples(cfg):
    """Block samples of z F for the unit_draws z: per-realization samples
    with the law whose mean simulate draws."""
    return block_samples(unit_draws(cfg) @ output_factor(cfg))


def lifted_noise(cfg):
    """The unit_draws z, lifted to full series.

    With the full map A and Q = A F^-1, the series w = z Q^T give the
    outputs w A = z F^-T A^T A, which are z F exactly when A^T A = F^T F
    (and Q then has orthonormal columns, so w is unit-normal).
    """
    a = full_map(cfg)
    q = np.linalg.solve(output_factor(cfg).T, a.T).T.reshape(series_count(cfg.model), -1, 4)
    draws = noise_stream(cfg.seed, 0, 4)

    def noise(batch, nb):
        z = next(draws(batch, nb))
        for series in q:
            yield z @ series.T
    return noise


@functools.cache
def full_series_draws(cfg):
    """Block samples of the full-series oracle on its own stream: an
    independent sample of cfg.n_realizations realizations."""
    widths, kernels = kernel_grid(cfg)
    return mix_then_contract(cfg, widths, kernels, cfg.n_realizations,
                             noise_stream(cfg.seed, 9, len(widths)))


def assert_same_samples(got, want):
    # relative to each block's scale: single C11/C12 products cross zero
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-12 * scale)


# lossy TMSV through mixed filters (both vacuum pairs), signal-only loss, and
# a thermal state
PROJECTION_CONFIGS = [
    SimConfig(tmsv.TmsvParams(r=0.6, eta_i=0.9, eta_s=0.8), FilterSpec.step(1.0, 2.0),
              FilterSpec.exponential(1.0, 1.0), dt=0.02, horizon=10.0, n_realizations=5000,
              seed=12),
    SimConfig(tmsv.TmsvParams(r=0.9, eta_s=0.6), *step_pair(omega_l=0.5),
              dt=0.02, horizon=6.0, n_realizations=5000, seed=4),
    SimConfig(thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8), *step_pair(omega_l=0.0),
              dt=0.02, horizon=6.0, n_realizations=5000, seed=5),
]
PROJECTION_IDS = ["lossy-mixed", "signal-loss", "thermal"]
# identical filters repeat two of the four kernel columns: the kernel Gram
# G is rank 2 (Sigma is not: the Bogoliubov pairing mixes both columns)
IDENTICAL = SimConfig(tmsv.TmsvParams(r=0.5, eta_i=0.7), *step_pair(), dt=0.02, horizon=6.0,
                      n_realizations=5000, seed=6)
# thermal input in every loss case, unequal occupations and efficiencies
LOSS_MODELS = {
    "lossless": thermal.ThermalParams(r=0.7, n_i=0.2, n_s=0.6),
    "idler-lossy": thermal.ThermalParams(r=0.7, n_i=0.2, n_s=0.6, eta_i=0.6),
    "signal-lossy": thermal.ThermalParams(r=0.7, n_i=0.2, n_s=0.6, eta_s=0.5),
    "both-lossy": thermal.ThermalParams(r=0.7, n_i=0.2, n_s=0.6, eta_i=0.6, eta_s=0.5),
}


def assert_close_to_scale(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


class TestProjectedContraction:
    """The four outputs have the law of z F, z ~ N(0, I_4): Sigma must be
    the Gram of the full noise series mixed through the chain in the direct
    mix-then-contract order of oracles.py, with that order's mixing, F^T F
    must reproduce that Gram, the same draws lifted to full series must give
    the same samples in that order, and the blocks of Sigma must be that
    order's exact expectation."""

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_samples_match_mix_then_contract(self, cfg):
        widths, kernels = kernel_grid(cfg)
        assert_same_samples(drawn_samples(cfg), mix_then_contract(
            cfg, widths, kernels, cfg.n_realizations, lifted_noise(cfg)))

    @pytest.mark.parametrize("cfg", [IDENTICAL, PROJECTION_CONFIGS[0]],
                             ids=["identical-filters", "lossy-mixed"])
    def test_factor_reproduces_the_gram(self, cfg):
        a = full_map(cfg)
        gram = a.T @ a
        factor = output_factor(cfg)
        assert factor.shape == (4, 4)
        assert_close_to_scale(factor.T @ factor, gram)

    def test_factor_of_a_singular_sigma(self):
        # a rank-2 Sigma: its two zero eigenvalues may round either way
        rng = np.random.default_rng(3)
        for _ in range(100):
            half = rng.standard_normal((2, 4))
            sigma = half.T @ half
            factor = fieldsim._wishart_factor(sigma)
            assert np.all(np.isfinite(factor))
            assert_close_to_scale(factor.T @ factor, sigma)

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_sigma_is_the_full_series_gram(self, cfg):
        # the outputs of every series' full kernel columns: series s, cell c
        # is row (s, c) of the full map
        a = full_map(cfg)
        assert_close_to_scale(output_covariance(cfg), a.T @ a)

    @pytest.mark.parametrize("model", LOSS_MODELS.values(), ids=LOSS_MODELS.keys())
    def test_mixing_table_is_the_oracle_mixing(self, model):
        # unit-width cells whose kernel columns are the unit vectors: the
        # response to series s, cell a is row a of that series' table
        n_series = series_count(model)
        got = response_map(SimpleNamespace(model=model), np.ones(4), tuple(np.eye(4)))
        table = fieldsim._mixing(model)
        present = list(range(4)) + [4, 5] * (model.eta_i < 1.0) + [6, 7] * (model.eta_s < 1.0)
        assert_close_to_scale(table[present], got.reshape(n_series, 4, 4), rel=1e-14)
        assert not np.any(np.delete(table, present, axis=0))

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_expected_blocks_match_the_full_series_oracle(self, cfg):
        got = fieldsim._blocks(output_covariance(cfg))
        assert_close_to_scale(got, oracle_expectation(cfg))

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_block_means_match_full_series_draws(self, cfg):
        # two independent samples: the full-series oracle on its own stream
        cfg = dataclasses.replace(cfg, n_realizations=40000)
        samples = full_series_draws(cfg)
        want_se = samples.std(axis=0, ddof=1) / math.sqrt(cfg.n_realizations)
        est = simulate(cfg)
        diff = block_array(est.blocks) - samples.mean(axis=0)
        assert np.all(np.abs(diff) <= 5.0 * np.hypot(est.std_errors, want_se))

    def test_analytic_standard_error_matches_bootstrap(self):
        # 200 resamples scatter the bootstrap error by about 5 % per block
        fi, fs = step_pair(omega_k=1.0, omega_l=0.0)
        model = thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8, overlap=overlap_closed_form(fi, fs))
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=6.0, n_realizations=20000, seed=9)
        n = cfg.n_realizations
        samples = drawn_samples(cfg)
        boot_rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 91)))
        boot = np.array([samples[boot_rng.integers(0, n, size=n)].mean(axis=0)
                         for _ in range(200)])
        ratio = np.array(simulate(cfg).std_errors) / boot.std(axis=0, ddof=1)
        assert np.all(np.abs(ratio - 1.0) <= 0.2), ratio


class TestWishartEstimator:
    """simulate reads the draws only through W, the sum of z^T z: fed the W
    of explicit draws, it must return the means of their block samples."""

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_estimates_are_the_means_of_the_block_samples(self, cfg, monkeypatch):
        z = unit_draws(cfg)
        asked = []

        def explicit_wishart(rng, n):
            asked.append(n)
            return z.T @ z

        monkeypatch.setattr(fieldsim, "_wishart", explicit_wishart)
        samples = drawn_samples(cfg)
        got = block_array(simulate(cfg).blocks)
        assert asked == [cfg.n_realizations]
        # relative to each block's sample scale: C11/C12 means may be near zero
        scale = np.max(np.abs(samples), axis=0)
        assert np.all(np.abs(got - samples.mean(axis=0)) <= 1e-12 * scale)


class TestBartlett:
    @pytest.mark.parametrize("n", [4, 40])
    def test_draws_have_the_wishart_moments(self, n):
        # W = sum of n outer products z^T z: E[W] = n I, Var(W_jj) = 2n and
        # Var(W_jk) = n; 40000 draws pin each variance to about 1 %, and
        # n = 4 leaves the last diagonal entry a single chi-square degree
        draws = 40000
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(23, 1)))
        w = np.array([fieldsim._wishart(rng, n) for _ in range(draws)])
        assert np.all(w == np.swapaxes(w, 1, 2))
        var = n * (1.0 + np.eye(4))
        assert np.all(np.abs(w.mean(axis=0) - n * np.eye(4)) <= 5.0 * np.sqrt(var / draws))
        np.testing.assert_allclose(w.var(axis=0, ddof=1), var, rtol=0.05)


class TestAgainstFullSeries:
    """The exact standard error against an independent sample: the
    full-series oracle on its own stream, block samples kept."""

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_standard_error_matches_full_series_draws(self, cfg):
        cfg = dataclasses.replace(cfg, n_realizations=40000)
        samples = full_series_draws(cfg)
        want_se = samples.std(axis=0, ddof=1) / math.sqrt(cfg.n_realizations)
        se = np.array(simulate(cfg).std_errors)
        assert np.all(np.abs(se / want_se - 1.0) <= 0.05), se / want_se


class TestCalibration:
    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS, ids=PROJECTION_IDS)
    def test_z_has_zero_mean_and_unit_spread(self, cfg):
        # z against the expectation at dt, so the bias does not enter; the
        # sd of 400 z values scatters by about 0.035
        cfg = dataclasses.replace(cfg, n_realizations=2000)
        want = oracle_expectation(cfg)
        z = []
        for seed in range(400):
            est = simulate(dataclasses.replace(cfg, seed=seed))
            z.append((block_array(est.blocks) - want) / np.array(est.std_errors))
        z = np.array(z)
        assert np.all(np.abs(z.mean(axis=0)) <= 0.25), z.mean(axis=0)
        sd = z.std(axis=0, ddof=1)
        assert np.all((0.9 <= sd) & (sd <= 1.1)), sd

    @pytest.mark.parametrize("model", [
        tmsv.TmsvParams(r=1.0), tmsv.TmsvParams(r=0.5, eta_i=0.7), tmsv.TmsvParams(r=0.0)],
        ids=["pure", "lossy", "vacuum"])
    def test_identical_filters_give_finite_z(self, model):
        # identical filters leave the kernel Gram rank-deficient; the vacuum has
        # vanishing cross blocks
        fi, fs = step_pair()
        want = block_array(tmsv.covariance(model))
        for n in (1000, 200_000, 10**9):
            for seed in range(10):
                est = simulate(SimConfig(model, fi, fs, dt=0.02, horizon=6.0,
                                         n_realizations=n, seed=seed))
                z = (block_array(est.blocks) - want) / np.array(est.std_errors)
                assert np.all(np.abs(z) <= 5.0), (n, seed, z)


@pytest.fixture
def counted_draws(monkeypatch):
    """Sizes of every chisquare and standard_normal draw of the generators
    that np.random.default_rng makes while the test runs."""
    drawn = []
    default_rng = np.random.default_rng

    class CountingGenerator:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def chisquare(self, df):
            drawn.append(np.size(df))
            return self.rng.chisquare(df)

        def standard_normal(self, size):
            drawn.append(size)
            return self.rng.standard_normal(size)

    monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
    return drawn


class TestDrawCount:
    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_normal_draws_counts_every_draw(self, cfg, counted_draws):
        # ten variates, whatever the number of noise series or the rank of G
        est = simulate(cfg)
        assert est.normal_draws == sum(counted_draws) == 10


class TestConstantCost:
    def test_memory_does_not_grow_with_realizations(self):
        def traced_peak(n):
            tracemalloc.start()
            try:
                simulate(dataclasses.replace(PROJECTION_CONFIGS[2], n_realizations=n))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = traced_peak(200_000), traced_peak(800_000)
        assert abs(large - small) <= 2**20, (small, large)

    @pytest.mark.parametrize("n", [1000, 10**9, 10**30])
    def test_ten_variates_at_any_n(self, n, counted_draws):
        est = simulate(dataclasses.replace(PROJECTION_CONFIGS[0], n_realizations=n))
        assert est.normal_draws == sum(counted_draws) == 10
        assert np.all(np.isfinite(block_array(est.blocks))) and min(est.std_errors) > 0.0


# detuned filter pairs in every family order: the midpoint kernel sums carry
# a true discretization bias
DETUNED_PAIRS = {
    "step-step": (FilterSpec.step(1.0, 2.0), FilterSpec.step(0.3, 2.0)),
    "exp-exp": (FilterSpec.exponential(1.0, 1.0), FilterSpec.exponential(0.5, 1.0)),
    "step-exp": (FilterSpec.step(1.0, 2.0), FilterSpec.exponential(0.8, 1.0)),
    "exp-step": (FilterSpec.exponential(0.8, 1.0), FilterSpec.step(1.0, 2.0)),
}


class TestBiasDiagnostics:
    def test_identical_filters_have_no_bias(self):
        # the Riemann sums of |h|^2 over identical step windows are exact at
        # any dt, even for a fast carrier at coarse dt
        fi = FilterSpec.step(40.0, 2.0)
        fs = FilterSpec.step(40.0, 2.0)
        model = tmsv.TmsvParams(r=1.0)
        cfg = SimConfig(model, fi, fs, dt=0.04, horizon=6.0, n_realizations=100000, seed=31)
        est = simulate(cfg)
        want = tmsv.covariance(model)
        scale = max(abs(want.d_i), abs(want.d_s), abs(want.c11), abs(want.c12))
        assert max(abs(b) for b in est.bias_estimate) <= 1e-12 * scale
        assert not est.bias_warning

    @pytest.mark.parametrize("model_name", ["lossy-tmsv", "thermal"])
    @pytest.mark.parametrize("pair", DETUNED_PAIRS)
    def test_bias_matches_the_exact_discretization_error(self, pair, model_name):
        fi, fs = DETUNED_PAIRS[pair]
        ov = overlap_closed_form(fi, fs)
        if model_name == "thermal":
            model, closed = thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8, overlap=ov), thermal
        else:
            model, closed = tmsv.TmsvParams(r=0.8, eta_i=0.7, eta_s=0.9, overlap=ov), tmsv
        horizon = 10.0 if math.inf in (fi.end, fs.end) else 6.0
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=horizon, n_realizations=1000, seed=1)
        want = closed.covariance(model)
        true_bias = oracle_expectation(cfg) - np.array(
            [want.d_i, want.d_s, want.c11, want.c12])
        assert np.max(np.abs(true_bias)) > 1e-6
        bias = np.array(simulate(cfg).bias_estimate)
        assert np.max(np.abs(bias - true_bias)) <= 1e-3 * np.max(np.abs(true_bias))

    def test_fast_detuned_carrier_at_coarse_dt_triggers_warning(self):
        # a 40 rad carrier against a dc filter at dt = 0.04: the C11 bias
        # (about -5.3e-3) is twice the standard error of 1e6 realizations
        fi = FilterSpec.step(40.0, 2.0)
        fs = FilterSpec.step(0.0, 2.0)
        model = tmsv.TmsvParams(r=1.0, overlap=overlap_closed_form(fi, fs))
        cfg = SimConfig(model, fi, fs, dt=0.04, horizon=6.0, n_realizations=1000000, seed=31)
        est = simulate(cfg)
        assert est.bias_warning
        assert abs(est.bias_estimate[2]) > 1.5 * est.std_errors[2]

    def test_resolved_kernel_has_no_warning(self):
        fi, fs = step_pair()
        model = tmsv.TmsvParams(r=0.5)
        cfg = SimConfig(model, fi, fs, dt=0.01, horizon=6.0, n_realizations=20000, seed=37)
        assert not simulate(cfg).bias_warning


class TestConfigValidation:
    def test_dt_must_resolve_the_kernel(self):
        fi, fs = step_pair()
        with pytest.raises(ValueError, match="dt"):
            SimConfig(tmsv.TmsvParams(r=0.5), fi, fs, dt=0.1, horizon=6.0,
                      n_realizations=2000)

    def test_horizon_must_cover_the_windows(self):
        fi, fs = step_pair()
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(tmsv.TmsvParams(r=0.5), fi, fs, dt=0.02, horizon=4.0,
                      n_realizations=2000)

    def test_exponential_horizon_is_three_decay_times(self):
        # either family's time scale is its tau, so an exponential filter
        # needs the 3 tau of horizon a step window does, and no more
        fi = FilterSpec.exponential(1.0, 1.0)
        fs = FilterSpec.exponential(1.0, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(tmsv.TmsvParams(r=0.5), fi, fs, dt=0.02, horizon=2.9,
                      n_realizations=2000)
        assert SimConfig(tmsv.TmsvParams(r=0.5), fi, fs, dt=0.02, horizon=5.0,
                         n_realizations=2000).horizon == 5.0

    def test_filters_are_held_gated_at_the_horizon(self):
        # an exponential at a 3 tau horizon is held as its gated, unit-norm
        # kernel, so the sampled |h|^2 sums meet 1 as dt shrinks
        fi, fs = FilterSpec.exponential(1.0, 1.0), FilterSpec.step(0.0, 1.0)
        for dt in (0.02, 0.01, 0.005):
            cfg = SimConfig(tmsv.TmsvParams(r=0.5), fi, fs, dt=dt, horizon=3.0,
                            n_realizations=2000)
            assert (cfg.filter_i, cfg.filter_s) == (FilterSpec(1.0, 1.0, 3.0), fs)
            widths, (rk, ik, rl, il) = kernel_grid(cfg)
            for re, im in ((rk, ik), (rl, il)):
                assert np.sum((re**2 + im**2) / widths) == pytest.approx(1.0, abs=dt**2)

    @pytest.mark.parametrize("field, kwargs", [
        ("dt", dict(dt=math.nan)),
        ("horizon", dict(horizon=math.inf)),
        ("horizon", dict(horizon=math.nan)),
        ("seed", dict(seed=-1)),
        ("seed", dict(seed=1.5)),
        ("seed", dict(seed=True)),
        ("seed", dict(seed=False)),
        ("n_realizations", dict(n_realizations=2000.0)),
        ("n_realizations", dict(n_realizations=math.inf)),
        ("n_realizations", dict(n_realizations=math.nan)),
        ("n_realizations", dict(n_realizations=2500.5)),
    ])
    def test_non_finite_and_negative_inputs_name_the_field(self, field, kwargs):
        fi, fs = step_pair()
        args = dict(dt=0.02, horizon=6.0, n_realizations=2000) | kwargs
        with pytest.raises(ValueError, match=field):
            SimConfig(tmsv.TmsvParams(r=0.5), fi, fs, **args)

    def test_minimum_realizations(self):
        fi, fs = step_pair()
        with pytest.raises(ValueError, match="realizations"):
            SimConfig(tmsv.TmsvParams(r=0.5), fi, fs, dt=0.02, horizon=6.0,
                      n_realizations=10)

    def test_model_overlap_field_is_ignored_by_the_simulator(self):
        # the simulator convolves with the actual kernels; a wrong overlap
        # stored on the model must not change the estimate
        fi, fs = step_pair(omega_k=1.0, omega_l=0.0)
        right = tmsv.TmsvParams(r=0.5, overlap=overlap_closed_form(fi, fs))
        wrong = tmsv.TmsvParams(r=0.5, overlap=OverlapFactors(1.0, 0.0))
        cfg_r = SimConfig(right, fi, fs, 0.02, 6.0, 4000, seed=41)
        cfg_w = SimConfig(wrong, fi, fs, 0.02, 6.0, 4000, seed=41)
        assert simulate(cfg_r).blocks == simulate(cfg_w).blocks
