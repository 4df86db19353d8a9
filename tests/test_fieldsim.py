"""Monte Carlo oracle: consistency with the closed-form blocks, seed
determinism, convergence order, the drawn kernel projections against the
full-series contraction, error bars, independence of the thread count and
configuration validation."""

import dataclasses
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from filtered_tms import fieldsim, thermal, tmsv
from filtered_tms.fieldsim import SimConfig, simulate
from filtered_tms.filters import (
    FilterFamily,
    FilterSpec,
    OverlapFactors,
    overlap_closed_form,
)
from oracles import mix_then_contract, noise_stream

STEP = FilterFamily.STEP
EXP = FilterFamily.EXPONENTIAL


def step_pair(omega_k=1.0, omega_l=1.0, tau=2.0):
    return FilterSpec(STEP, omega_k, tau), FilterSpec(STEP, omega_l, tau)


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
        fi = FilterSpec(EXP, 1.0, 1.0)
        fs = FilterSpec(EXP, 0.5, 1.0)
        ov = overlap_closed_form(fi, fs)
        model = tmsv.TmsvParams(r=0.6, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=10.0, n_realizations=40000, seed=11)
        assert_within_5_se(simulate(cfg), tmsv.covariance(model))

    def test_thermal_exponential_filters(self):
        # C12 = -B L_f sinh 2r needs unequal populations and L_f > 0
        fi = FilterSpec(EXP, 1.0, 1.0)
        fs = FilterSpec(EXP, 0.3, 1.0)
        ov = overlap_closed_form(fi, fs)
        assert ov.l_f != 0.0
        model = thermal.ThermalParams(r=0.5, n_i=0.1, n_s=0.9, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=10.0, n_realizations=40000, seed=17)
        assert_within_5_se(simulate(cfg), thermal.covariance(model))

    def test_mixed_family_pair(self):
        # the Monte Carlo checks the mixed-family closed form end to end
        fi = FilterSpec(STEP, 1.0, 2.0)
        fs = FilterSpec(EXP, 0.8, 1.0)
        ov = overlap_closed_form(fi, fs)
        model = thermal.ThermalParams(r=0.6, n_i=0.5, n_s=0.1, overlap=ov)
        cfg = SimConfig(model, fi, fs, dt=0.01, horizon=10.0, n_realizations=40000, seed=19)
        assert_within_5_se(simulate(cfg), thermal.covariance(model))

    def test_mismatched_windows(self):
        fi = FilterSpec(STEP, 1.0, 2.0)
        fs = FilterSpec(STEP, 1.0, 3.0)
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
        fi, fs = step_pair(omega_k=1.0, omega_l=0.3, tau=1.0)
        ov = overlap_closed_form(fi, fs)
        model = tmsv.TmsvParams(r=0.5, overlap=ov)
        want = np.array([getattr(tmsv.covariance(model), k) for k in ("d_i", "d_s", "c11", "c12")])
        ns = (1000, 10000, 100000)
        mean_errors = []
        for n in ns:
            errs = []
            for seed in range(10):
                cfg = SimConfig(model, fi, fs, dt=0.02, horizon=3.0,
                                n_realizations=n, seed=1000 + seed)
                got = simulate(cfg).blocks
                est = np.array([got.d_i, got.d_s, got.c11, got.c12])
                errs.append(np.sqrt(np.mean((est - want) ** 2)))
            mean_errors.append(np.mean(errs))
        slope = np.polyfit(np.log(ns), np.log(mean_errors), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)


def kernel_grid(cfg):
    """Lag-cell widths and (rk, ik, rl, il) on the grid simulate uses."""
    support = max(f.tau if f.family is STEP else cfg.horizon
                  for f in (cfg.filter_i, cfg.filter_s))
    mids, widths = fieldsim._lag_grid(support, cfg.dt)
    return mids, widths, fieldsim._kernels(cfg, mids, widths)


def unit_power_columns(widths, kernels):
    """P: the four kernel columns over sqrt(cell width)."""
    return np.column_stack(kernels) / np.sqrt(widths)[:, None]


def lifted_noise(cfg, widths, kernels):
    """The simulator's draws z, lifted to full unit-normal series.

    With A = Q_A R_A, w = z Q_A^T holds the four projection normals w_s of
    every series and w A = z R_A; with P = Q R, each w_s lifts to the full
    series w_s Q^T, whose projection w_s Q^T P is w_s R.
    """
    q_a, _ = np.linalg.qr(fieldsim._output_map(cfg, widths, kernels))
    q, _ = np.linalg.qr(unit_power_columns(widths, kernels))
    draws = noise_stream(cfg.seed, 0, 4)

    def noise(batch, nb):
        w = (next(draws(batch, nb)) @ q_a.T).reshape(nb, -1, 4)
        for s in range(w.shape[1]):
            yield w[:, s] @ q.T
    return noise


def basis_noise(n_series, cells):
    """Full-series noise whose realization j is the j-th unit vector of all
    series' cells: summed over them, the block samples of the quadratic
    estimator give its exact expectation."""
    def noise(batch, nb):
        j = batch * fieldsim._BATCH + np.arange(nb)
        for s in range(n_series):
            series = np.zeros((nb, cells))
            hit = j // cells == s
            series[hit, j[hit] % cells] = 1.0
            yield series
    return noise


def oracle_expectation(cfg, widths, kernels):
    """(D_I, D_S, C11, C12) expected at cfg.dt, from mix_then_contract."""
    n_series = len(fieldsim._noise_powers(cfg.model))
    n = n_series * len(widths)
    return mix_then_contract(cfg, widths, kernels, n, basis_noise(n_series, len(widths)),
                             fieldsim._BATCH).sum(axis=0)


def n_batches(cfg):
    return -(-cfg.n_realizations // fieldsim._BATCH)


def drawn_samples(cfg, widths, kernels):
    """The simulator's block samples of all cfg.n_realizations, shape
    (n, 4): every _batch, concatenated in index order."""
    factor = fieldsim._output_factor(cfg, widths, kernels)
    return np.concatenate([fieldsim._batch(cfg, factor, b) for b in range(n_batches(cfg))],
                          axis=1).T


def recording_batch(monkeypatch, transform=lambda x: x):
    """Replace fieldsim._batch by a wrapper that applies transform to the
    samples and records each batch index; returns the recorded list."""
    seen = []
    batch = fieldsim._batch

    def recorded(cfg, factor, index):
        seen.append(index)
        return transform(batch(cfg, factor, index))

    monkeypatch.setattr(fieldsim, "_batch", recorded)
    return seen


def assert_same_samples(got, want):
    # relative to each block's scale: single C11/C12 products cross zero
    scale = np.max(np.abs(want), axis=0)
    assert np.all(np.max(np.abs(got - want), axis=0) <= 1e-12 * scale)


# lossy TMSV through mixed filters (both vacuum pairs), signal-only loss, and
# a thermal state; 5000 realizations leave a short last batch
PROJECTION_CONFIGS = [
    SimConfig(tmsv.TmsvParams(r=0.6, eta_i=0.9, eta_s=0.8), FilterSpec(STEP, 1.0, 2.0),
              FilterSpec(EXP, 1.0, 1.0), dt=0.02, horizon=10.0, n_realizations=5000, seed=12),
    SimConfig(tmsv.TmsvParams(r=0.9, eta_s=0.6), *step_pair(omega_l=0.5),
              dt=0.02, horizon=6.0, n_realizations=5000, seed=4),
    SimConfig(thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8), *step_pair(omega_l=0.0),
              dt=0.02, horizon=6.0, n_realizations=5000, seed=5),
]
PROJECTION_IDS = ["lossy-mixed", "signal-loss", "thermal"]
# identical filters repeat two of the four kernel columns: rank 2
IDENTICAL = SimConfig(tmsv.TmsvParams(r=0.5, eta_i=0.7), *step_pair(), dt=0.02, horizon=6.0,
                      n_realizations=5000, seed=6)


class TestProjectedContraction:
    """_batch draws the four outputs as z R_A instead of the series; fed
    the same draws lifted to full series, the direct mix-then-contract order
    in oracles.py must give the same samples."""

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_samples_match_mix_then_contract(self, cfg):
        _, widths, kernels = kernel_grid(cfg)
        n = cfg.n_realizations
        got = drawn_samples(cfg, widths, kernels)
        noise = lifted_noise(cfg, widths, kernels)
        assert_same_samples(got, mix_then_contract(cfg, widths, kernels, n, noise,
                                                   fieldsim._BATCH))

    @pytest.mark.parametrize("cfg", [IDENTICAL, PROJECTION_CONFIGS[0]],
                             ids=["identical-filters", "lossy-mixed"])
    def test_factor_reproduces_the_gram(self, cfg):
        _, widths, kernels = kernel_grid(cfg)
        p = unit_power_columns(widths, kernels)
        gram = p.T @ p
        tri = fieldsim._kernel_factor(widths, kernels)
        assert tri.shape == (4, 4)
        assert np.max(np.abs(tri.T @ tri - gram)) <= 1e-12 * np.max(np.abs(gram))

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_output_factor_reproduces_the_full_series_gram(self, cfg):
        # the outputs mixed from every series' full kernel columns: series
        # s, cell c is row (s, c) of the full map
        _, widths, kernels = kernel_grid(cfg)
        p = unit_power_columns(widths, kernels)
        powers = fieldsim._noise_powers(cfg.model)
        proj = np.zeros((len(powers), len(powers), len(widths), 4))
        for i, power in enumerate(powers):
            proj[i, i] = math.sqrt(power) * p
        full = np.column_stack(fieldsim._mix(cfg, [x.reshape(-1, 4) for x in proj]))
        gram = full.T @ full
        tri = fieldsim._output_factor(cfg, widths, kernels)
        assert tri.shape == (4, 4)
        assert np.max(np.abs(tri.T @ tri - gram)) <= 1e-12 * np.max(np.abs(gram))

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_expected_blocks_match_the_full_series_oracle(self, cfg):
        _, widths, kernels = kernel_grid(cfg)
        want = oracle_expectation(cfg, widths, kernels)
        got = fieldsim._expected_blocks(fieldsim._output_factor(cfg, widths, kernels))
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS, ids=PROJECTION_IDS)
    def test_block_means_match_full_series_draws(self, cfg):
        # two independent samples: the full-series oracle on its own stream
        cfg = dataclasses.replace(cfg, n_realizations=40000)
        _, widths, kernels = kernel_grid(cfg)
        n = cfg.n_realizations
        got = drawn_samples(cfg, widths, kernels)
        want = mix_then_contract(cfg, widths, kernels, n,
                                 noise_stream(cfg.seed, 9, len(widths)), fieldsim._BATCH)
        se = np.hypot(got.std(axis=0, ddof=1), want.std(axis=0, ddof=1)) / math.sqrt(n)
        assert np.all(np.abs(got.mean(axis=0) - want.mean(axis=0)) <= 5.0 * se)

    def test_analytic_standard_error_matches_bootstrap(self):
        # 200 resamples scatter the bootstrap error by about 5 % per block
        fi, fs = step_pair(omega_k=1.0, omega_l=0.0)
        model = thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8, overlap=overlap_closed_form(fi, fs))
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=6.0, n_realizations=20000, seed=9)
        _, widths, kernels = kernel_grid(cfg)
        n = cfg.n_realizations
        samples = drawn_samples(cfg, widths, kernels)
        boot_rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 91)))
        boot = np.array([samples[boot_rng.integers(0, n, size=n)].mean(axis=0)
                         for _ in range(200)])
        ratio = np.array(simulate(cfg).std_errors) / boot.std(axis=0, ddof=1)
        assert np.all(np.abs(ratio - 1.0) <= 0.2), ratio


class TestStreamedMoments:
    """simulate merges each batch's mean and M2 into running moments; they
    must equal the two-pass moments of the concatenated samples."""

    @staticmethod
    def two_pass(samples):
        n = len(samples)
        return samples.mean(axis=0), samples.std(axis=0, ddof=1) / math.sqrt(n)

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_moments_match_two_pass(self, cfg, monkeypatch):
        assert cfg.n_realizations % fieldsim._BATCH  # a short last batch
        _, widths, kernels = kernel_grid(cfg)
        mean, se = self.two_pass(drawn_samples(cfg, widths, kernels))
        seen = recording_batch(monkeypatch)
        est = simulate(cfg)
        assert sorted(seen) == list(range(n_batches(cfg)))
        got = np.array([est.blocks.d_i, est.blocks.d_s, est.blocks.c11, est.blocks.c12])
        np.testing.assert_allclose(got, mean, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(est.std_errors, se, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("index", [0, 1], ids=["full-batch", "short-last-batch"])
    def test_batch_moments_are_the_plain_expressions_bit_for_bit(self, index):
        # _batch and _moments work in place; they must round exactly as the
        # plain expressions on the same draws
        cfg = PROJECTION_CONFIGS[2]
        assert n_batches(cfg) == 2 and cfg.n_realizations % fieldsim._BATCH
        _, widths, kernels = kernel_grid(cfg)
        factor = fieldsim._output_factor(cfg, widths, kernels)
        nb = min(fieldsim._BATCH, cfg.n_realizations - index * fieldsim._BATCH)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 0, index)))
        xk, yk, xl, yl = (rng.standard_normal((nb, 4)) @ factor).T
        x = np.array([xk * xk + yk * yk, xl * xl + yl * yl,
                      xk * xl - yk * yl, xk * yl + yk * xl])
        assert fieldsim._batch(cfg, factor, index).tobytes() == x.tobytes()
        mean = x.mean(axis=1)
        got_nb, got_mean, got_m2 = fieldsim._moments(cfg, factor, index)
        assert got_nb == nb
        assert got_mean.tobytes() == mean.tobytes()
        assert got_m2.tobytes() == np.square(x - mean[:, None]).sum(axis=1).tobytes()

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS + [IDENTICAL],
                             ids=PROJECTION_IDS + ["identical-filters"])
    def test_standard_errors_survive_a_large_offset(self, cfg, monkeypatch):
        # an offset of 1e8 spreads leaves sum(x^2) - n mean^2 with no correct
        # digit in double precision; the merged M2 must not notice it
        _, widths, kernels = kernel_grid(cfg)
        samples = drawn_samples(cfg, widths, kernels)
        offset = 1e8 * samples.std(axis=0)
        seen = recording_batch(monkeypatch, lambda x: x + offset[:, None])
        _, se = self.two_pass(samples + offset)
        np.testing.assert_allclose(simulate(cfg).std_errors, se, rtol=1e-9, atol=0.0)
        assert sorted(seen) == list(range(n_batches(cfg)))

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


class TestDrawCount:
    @pytest.mark.parametrize("cfg", [
        dataclasses.replace(PROJECTION_CONFIGS[0], n_realizations=3000),
        dataclasses.replace(PROJECTION_CONFIGS[1], n_realizations=1000),
        dataclasses.replace(PROJECTION_CONFIGS[2], n_realizations=2500),
    ], ids=PROJECTION_IDS)
    def test_normal_draws_counts_every_draw(self, cfg, monkeypatch):
        # four normals per realization, whatever the number of noise series
        drawn, seeded = [], []
        default_rng = np.random.default_rng

        class CountingGenerator:
            def __init__(self, seed):
                seeded.append(seed.entropy[2])  # (seed, 0, batch index)
                self.rng = default_rng(seed)

            def standard_normal(self, size):
                drawn.append(math.prod(size))
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", CountingGenerator)
        est = simulate(cfg)
        assert est.normal_draws == sum(drawn) == 4 * cfg.n_realizations
        assert sorted(seeded) == list(range(n_batches(cfg)))


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs simulate sees, through its CPU-set lookup."""
    def set_cpus(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    return set_cpus


def simulate_with(set_cpus, cfg, workers):
    """simulate on `workers` CPUs, with a short switch interval so that the
    threads interleave at fine grain (five workers outnumber the cores of
    most test hosts)."""
    set_cpus(workers)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        return simulate(cfg)
    finally:
        sys.setswitchinterval(interval)


class TestThreads:
    """simulate draws its batches on parallel threads and merges them in
    index order: the estimate must not depend on the number of threads,
    and no thread may outlive the call, even when a batch fails."""

    # a multiple of _BATCH that spans two rounds of five workers, one with a
    # short last batch spanning two rounds of two, and one single batch
    @pytest.mark.parametrize("n", [
        (5 * fieldsim._ROUND + 3) * fieldsim._BATCH,
        (2 * fieldsim._ROUND + 1) * fieldsim._BATCH + 1000,
        1500,
    ], ids=["whole-batches", "short-last-batch", "single-batch"])
    def test_estimates_do_not_depend_on_the_thread_count(self, n, cpus, monkeypatch):
        cfg = dataclasses.replace(PROJECTION_CONFIGS[0], n_realizations=n)
        # Thread objects, not get_ident(): a thread that has ended may leave
        # its ident to one started after it
        drawers = set()

        def note_thread(x):
            drawers.add(threading.current_thread())
            return x

        recording_batch(monkeypatch, note_thread)
        results, threads = {}, {}
        for workers in (1, 2, 5):
            drawers.clear()
            results[workers] = simulate_with(cpus, cfg, workers)
            threads[workers] = len(drawers)
        assert threads[1] == 1
        for workers in (2, 5):
            assert threads[workers] >= min(workers, n_batches(cfg))
            # repr spells every float exactly: equal reprs are equal bits
            assert repr(results[workers]) == repr(results[1])

    def test_no_thread_outlives_simulate(self, cpus):
        before = threading.active_count()
        for workers in (2, 5):
            simulate_with(cpus, dataclasses.replace(IDENTICAL, n_realizations=40000), workers)
            assert threading.active_count() == before

    # the caller's share, a thread's share, and a batch past the first
    # round of two workers
    @pytest.mark.parametrize("failing", [0, 1, 2 * fieldsim._ROUND + 1])
    @pytest.mark.parametrize("workers", [2, 5])
    def test_a_failing_batch_raises_and_stops_every_thread(self, failing, workers, cpus,
                                                           monkeypatch):
        class Failure(RuntimeError):
            pass

        drawers = set()
        default_rng = np.random.default_rng

        class FailingGenerator:
            def __init__(self, seed):
                self.index = seed.entropy[2]  # (seed, 0, batch index)
                self.rng = default_rng(seed)

            def standard_normal(self, size):
                drawers.add(threading.current_thread())
                if self.index == failing:
                    raise Failure(self.index)
                return self.rng.standard_normal(size)

        monkeypatch.setattr(np.random, "default_rng", FailingGenerator)
        cfg = dataclasses.replace(IDENTICAL, n_realizations=(4 * fieldsim._ROUND + 1) * fieldsim._BATCH)
        before = threading.active_count()
        outcome = []

        def run():
            try:
                simulate_with(cpus, cfg, workers)
            except BaseException as exc:  # inspected below
                outcome.append(exc)

        runner = threading.Thread(target=run)
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "simulate hung after a failing batch"
        # a merged placeholder would raise a TypeError instead
        assert len(outcome) == 1 and type(outcome[0]) is Failure
        assert outcome[0].args == (failing,)
        for thread in drawers:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert threading.active_count() == before


# detuned filter pairs in every family order: the midpoint kernel sums carry
# a true discretization bias
DETUNED_PAIRS = {
    "step-step": (FilterSpec(STEP, 1.0, 2.0), FilterSpec(STEP, 0.3, 2.0)),
    "exp-exp": (FilterSpec(EXP, 1.0, 1.0), FilterSpec(EXP, 0.5, 1.0)),
    "step-exp": (FilterSpec(STEP, 1.0, 2.0), FilterSpec(EXP, 0.8, 1.0)),
    "exp-step": (FilterSpec(EXP, 0.8, 1.0), FilterSpec(STEP, 1.0, 2.0)),
}


class TestBiasDiagnostics:
    def test_identical_filters_have_no_bias(self):
        # the Riemann sums of |h|^2 over identical step windows are exact at
        # any dt, even for a fast carrier at coarse dt
        fi = FilterSpec(STEP, 40.0, 2.0)
        fs = FilterSpec(STEP, 40.0, 2.0)
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
        horizon = 10.0 if EXP in (fi.family, fs.family) else 6.0
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=horizon, n_realizations=1000, seed=1)
        _, widths, kernels = kernel_grid(cfg)
        want = closed.covariance(model)
        true_bias = oracle_expectation(cfg, widths, kernels) - np.array(
            [want.d_i, want.d_s, want.c11, want.c12])
        assert np.max(np.abs(true_bias)) > 1e-6
        bias = np.array(simulate(cfg).bias_estimate)
        assert np.max(np.abs(bias - true_bias)) <= 1e-3 * np.max(np.abs(true_bias))

    def test_fast_detuned_carrier_at_coarse_dt_triggers_warning(self):
        # a 40 rad carrier against a dc filter at dt = 0.04: the C11 bias
        # (about -5.3e-3) is twice the standard error of 1e6 realizations
        fi = FilterSpec(STEP, 40.0, 2.0)
        fs = FilterSpec(STEP, 0.0, 2.0)
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

    def test_exponential_needs_long_horizon(self):
        fi = FilterSpec(EXP, 1.0, 1.0)
        fs = FilterSpec(EXP, 1.0, 1.0)
        with pytest.raises(ValueError, match="horizon"):
            SimConfig(tmsv.TmsvParams(r=0.5), fi, fs, dt=0.02, horizon=5.0,
                      n_realizations=2000)

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
