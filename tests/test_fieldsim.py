"""Monte Carlo oracle: consistency with the closed-form blocks, seed
determinism, convergence order, the projected contraction against the
direct one, error bars and configuration validation."""

import math

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
from oracles import mix_then_contract

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
    kernels = (fieldsim._kernel_rows(cfg.filter_i, mids, widths)
               + fieldsim._kernel_rows(cfg.filter_s, mids, widths))
    return mids, widths, kernels


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


class TestProjectedContraction:
    """_contract projects each noise series onto the kernels before the
    squeezer and loss mix them; the direct mix-then-contract order in
    oracles.py must give the same per-realization samples."""

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS,
                             ids=["lossy-mixed", "signal-loss", "thermal"])
    def test_samples_match_mix_then_contract(self, cfg):
        _, widths, kernels = kernel_grid(cfg)
        n = cfg.n_realizations
        (got,) = fieldsim._contract(cfg, widths, [kernels], n, stream_tag=0)
        assert_same_samples(got, mix_then_contract(cfg, widths, kernels, n, 0, fieldsim._BATCH))

    @pytest.mark.parametrize("cfg", PROJECTION_CONFIGS[::2], ids=["lossy-mixed", "thermal"])
    def test_shared_draw_pilot_matches_two_contractions(self, cfg):
        mids, widths, coarse = kernel_grid(cfg)
        mids_f, widths_f = fieldsim._refine_grid(mids, widths)
        fine = (fieldsim._kernel_rows(cfg.filter_i, mids_f, widths_f)
                + fieldsim._kernel_rows(cfg.filter_s, mids_f, widths_f))
        lifted = tuple(np.repeat(row, 2) / 2.0 for row in coarse)
        n = 2100
        got_fine, got_coarse = fieldsim._contract(cfg, widths_f, [fine, lifted], n, stream_tag=1)
        for got, kernels in ((got_fine, fine), (got_coarse, lifted)):
            assert_same_samples(got, mix_then_contract(cfg, widths_f, kernels, n, 1,
                                                       fieldsim._BATCH))

    def test_analytic_standard_error_matches_bootstrap(self):
        # 200 resamples scatter the bootstrap error by about 5 % per block
        fi, fs = step_pair(omega_k=1.0, omega_l=0.0)
        model = thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8, overlap=overlap_closed_form(fi, fs))
        cfg = SimConfig(model, fi, fs, dt=0.02, horizon=6.0, n_realizations=20000, seed=9)
        _, widths, kernels = kernel_grid(cfg)
        (samples,) = fieldsim._contract(cfg, widths, [kernels], cfg.n_realizations, stream_tag=0)
        boot_rng = np.random.default_rng(np.random.SeedSequence(entropy=(cfg.seed, 91)))
        n = cfg.n_realizations
        boot = np.array([samples[boot_rng.integers(0, n, size=n)].mean(axis=0)
                         for _ in range(200)])
        ratio = np.array(simulate(cfg).std_errors) / boot.std(axis=0, ddof=1)
        assert np.all(np.abs(ratio - 1.0) <= 0.2), ratio


class TestBiasDiagnostics:
    def test_fast_carrier_at_coarse_dt_triggers_warning(self):
        # kernel phase error ~ (omega dt)^2/24 dominates the tight
        # statistical error of a long run
        fi = FilterSpec(STEP, 40.0, 2.0)
        fs = FilterSpec(STEP, 40.0, 2.0)
        model = tmsv.TmsvParams(r=1.0)
        cfg = SimConfig(model, fi, fs, dt=0.04, horizon=6.0, n_realizations=100000, seed=31)
        est = simulate(cfg)
        assert est.bias_warning
        assert max(abs(b) for b in est.bias_estimate) > max(est.std_errors)

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
