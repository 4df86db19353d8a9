"""Filter functions, transforms, and the overlap kernel closed forms."""

import cmath
import math

import numpy as np
import pytest

from filtered_tms.filters import (
    FilterFamily,
    FilterSpec,
    OverlapFactors,
    eval_freq,
    orthonormal_frequencies,
    overlap_closed_form,
    overlap_numeric,
    sample_time,
)
from oracles import overlap_closed_form_reference

STEP = FilterFamily.STEP
EXP = FilterFamily.EXPONENTIAL


def random_spec(rng, family):
    return FilterSpec(family, float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.1, 20.0)))


def eval_time(f, t):
    """h(t) at one time."""
    return complex(sample_time(f, np.array([t]))[0])


class TestEvalTime:
    def test_step_gated_before_zero(self):
        assert eval_time(FilterSpec(STEP, 1.0, 2.0), -0.5) == 0.0

    def test_step_value_inside_window(self):
        got = eval_time(FilterSpec(STEP, 1.0, 2.0), 1.0)
        assert got == pytest.approx(cmath.exp(-1j) / math.sqrt(2.0), abs=1e-15)
        assert got.real == pytest.approx(0.3820514243700898, abs=1e-12)
        assert got.imag == pytest.approx(-0.5950098395293859, abs=1e-12)

    def test_exponential_at_origin(self):
        assert eval_time(FilterSpec(EXP, 0.0, 2.0), 0.0) == pytest.approx(1.0)

    def test_unit_norm_both_families(self):
        rng = np.random.default_rng(11)
        for family in (STEP, EXP):
            for _ in range(100):
                f = random_spec(rng, family)
                ov = overlap_numeric(f, f, tol=1e-11)
                assert abs(ov.k_f - 1.0) <= 1e-8
                assert abs(ov.l_f) <= 1e-8


class TestEvalFreq:
    def test_step_resonance_is_sinc_limit(self):
        got = eval_freq(FilterSpec(STEP, 1.0, 2.0), 1.0)
        assert got == pytest.approx(math.sqrt(1.0 / math.pi), abs=1e-14)

    def test_exponential_resonance(self):
        got = eval_freq(FilterSpec(EXP, 1.0, 2.0), 1.0)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-14)

    def test_exponential_off_resonance_magnitude(self):
        got = eval_freq(FilterSpec(EXP, 1.0, 2.0), 1.5)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi) / (1.0 - 1j), abs=1e-14)
        assert abs(got) == pytest.approx(0.5641895835477563, abs=1e-12)

    def test_step_transform_matches_time_domain_integral(self):
        # independent check of the closed-form transform, including the
        # exp(i (omega - Omega) tau / 2) phase factor
        rng = np.random.default_rng(5)
        for _ in range(20):
            f = random_spec(rng, STEP)
            w = float(rng.uniform(-6.0, 6.0))
            n = 40000
            dt = f.tau / n
            ts = (np.arange(n) + 0.5) * dt
            vals = sample_time(f, ts) * np.exp(1j * w * ts)
            direct = vals.sum() * dt / math.sqrt(2.0 * math.pi)
            assert abs(direct - eval_freq(f, w)) < 1e-6

    @pytest.mark.parametrize("family", [STEP, EXP])
    def test_parseval(self, family):
        # frequency-domain norm vs the exact unit time-domain norm; finite
        # windows plus analytic tail bounds for the slowly decaying sinc^2
        rng = np.random.default_rng(7)
        for _ in range(10):
            f = random_spec(rng, family)
            half = 4000.0 / f.tau
            ws = np.linspace(f.omega - half, f.omega + half, 400001)
            dens = np.abs(eval_freq(f, ws)) ** 2
            if family is STEP:
                tail = 2.0 / (math.pi * half * f.tau)
            else:
                tail = 2.0 / (math.pi * f.tau * half)
            norm = float(np.trapezoid(dens, ws))
            assert abs(norm + tail - 1.0) < 1e-6


    @pytest.mark.parametrize("family", [STEP, EXP])
    def test_array_call_is_the_scalar_call_per_frequency(self, family):
        f = FilterSpec(family, 1.0, 2.0)
        ws = np.concatenate([np.linspace(-6.0, 8.0, 301), [1.0, 1.0 + 1e-5, 1.0 - 3e-5]])
        got = eval_freq(f, ws)
        want = np.array([eval_freq(f, w) for w in ws.tolist()])
        assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))
        assert isinstance(eval_freq(f, 0.5), complex)


class TestOverlapClosedForm:
    def test_identical_filters_give_unity(self):
        rng = np.random.default_rng(3)
        for family in (STEP, EXP):
            for _ in range(20):
                f = random_spec(rng, family)
                ov = overlap_closed_form(f, f)
                assert ov.k_f == pytest.approx(1.0, abs=1e-14)
                assert ov.l_f == pytest.approx(0.0, abs=1e-14)

    def test_step_worked_example(self):
        ov = overlap_closed_form(FilterSpec(STEP, 1.0, 2.0), FilterSpec(STEP, 0.0, 2.0))
        assert ov.k_f == pytest.approx(math.sin(2.0) / 2.0, abs=1e-15)
        assert ov.l_f == pytest.approx((1.0 - math.cos(2.0)) / 2.0, abs=1e-15)
        assert ov.k_f == pytest.approx(0.454649, abs=1e-6)
        assert ov.l_f == pytest.approx(0.708073, abs=1e-6)

    def test_exponential_worked_example(self):
        ov = overlap_closed_form(FilterSpec(EXP, 1.0, 1.0), FilterSpec(EXP, 1.0, 2.0))
        assert ov.k_f == pytest.approx(6.0 * math.sqrt(2.0) / 9.0, abs=1e-15)
        assert ov.l_f == pytest.approx(0.0, abs=1e-15)

    def test_mixed_family_rejected(self):
        with pytest.raises(ValueError, match="mixed"):
            overlap_closed_form(FilterSpec(STEP, 1.0, 2.0), FilterSpec(EXP, 1.0, 2.0))

    def test_overlap_bound_many_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            family = STEP if rng.uniform() < 0.5 else EXP
            a, b = random_spec(rng, family), random_spec(rng, family)
            ov = overlap_closed_form(a, b)
            assert ov.k_f**2 + ov.l_f**2 <= 1.0 + 1e-12

    def test_bound_saturated_only_by_identical_specs(self):
        a = FilterSpec(STEP, 1.0, 2.0)
        assert overlap_closed_form(a, a).k_f == 1.0
        close = FilterSpec(STEP, 1.0, 2.0001)
        ov = overlap_closed_form(a, close)
        assert ov.k_f**2 + ov.l_f**2 < 1.0

    @pytest.mark.parametrize("family", [STEP, EXP])
    def test_arrays_match_the_scalar_reference(self, family):
        rng = np.random.default_rng(23)
        n = 2000
        omega_i, omega_s = rng.uniform(-5.0, 5.0, (2, n))
        omega_s[::9] = omega_i[::9]  # matched frequencies
        omega_s[1::9] = omega_i[1::9] + rng.uniform(-1e-9, 1e-9, len(omega_s[1::9]))
        tau_i, tau_s = rng.uniform(0.1, 20.0, (2, n))
        tau_s[::4] = tau_i[::4]
        ov = overlap_closed_form(FilterSpec(family, omega_i, tau_i),
                                 FilterSpec(family, omega_s, tau_s))
        for i in range(n):
            want = overlap_closed_form_reference(FilterSpec(family, omega_i[i], tau_i[i]),
                                                 FilterSpec(family, omega_s[i], tau_s[i]))
            assert abs(ov.k_f[i] - want.k_f) <= 1e-15 * max(abs(want.k_f), 1.0)
            assert abs(ov.l_f[i] - want.l_f) <= 1e-15 * max(abs(want.l_f), 1.0)

    def test_integer_parameters_act_as_floats(self):
        # tau^2 tau^2 delta^2 = 1e26 would wrap around as a fixed-width integer
        for make in (lambda x: x, lambda x: np.array([x])):
            pair = [FilterSpec(EXP, make(w), make(100000)) for w in (0, 1000)]
            ov = overlap_closed_form(*pair)
            want = overlap_closed_form(*(FilterSpec(EXP, float(w), 1e5) for w in (0, 1000)))
            assert (np.ravel(ov.k_f)[0], np.ravel(ov.l_f)[0]) == (want.k_f, want.l_f)

    def test_scalar_pairs_give_floats(self):
        ov = overlap_closed_form(FilterSpec(STEP, 1.0, 2.0), FilterSpec(STEP, 0.0, 2.0))
        assert isinstance(ov.k_f, float) and isinstance(ov.l_f, float)

    def test_array_errors_name_the_first_bad_row(self):
        taus = np.array([2.0, 1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match=r"^tau must be positive, got 0\.0$") as error:
            FilterSpec(STEP, np.ones(4), taus)
        assert error.value.row == 2
        with pytest.raises(ValueError, match="must be finite") as error:
            FilterSpec(EXP, np.array([0.0, 1.0, math.nan]), np.ones(3))
        assert error.value.row == 2

    def test_step_small_detuning_continuity(self):
        # limit branch vs direct formula evaluated just outside the branch
        ti, ts = 2.0, 3.0
        tau, root = 2.0, math.sqrt(6.0)
        for delta in (1e-9, -1e-9):
            branch = overlap_closed_form(FilterSpec(STEP, delta, ti), FilterSpec(STEP, 0.0, ts))
            direct_k = math.sin(tau * delta) / (root * delta)
            direct_l = (1.0 - math.cos(tau * delta)) / (root * delta)
            assert abs(branch.k_f - direct_k) < 1e-9
            assert abs(branch.l_f - direct_l) < 1e-9
        exact_zero = overlap_closed_form(FilterSpec(STEP, 0.0, ti), FilterSpec(STEP, 0.0, ts))
        assert exact_zero.k_f == pytest.approx(tau / root, abs=1e-15)
        assert exact_zero.l_f == 0.0


class TestOverlapNumeric:
    def test_identical_step(self):
        f = FilterSpec(STEP, 1.0, 2.0)
        ov = overlap_numeric(f, f, tol=1e-11)
        assert ov.k_f == pytest.approx(1.0, abs=1e-10)
        assert ov.l_f == pytest.approx(0.0, abs=1e-10)

    def test_matches_closed_form_step(self):
        a, b = FilterSpec(STEP, 1.0, 2.0), FilterSpec(STEP, 0.0, 2.0)
        num, ref = overlap_numeric(a, b, tol=1e-10), overlap_closed_form(a, b)
        assert num.k_f == pytest.approx(ref.k_f, abs=1e-8)
        assert num.l_f == pytest.approx(ref.l_f, abs=1e-8)

    def test_matches_closed_form_exponential(self):
        a, b = FilterSpec(EXP, 1.5, 2.0), FilterSpec(EXP, 1.0, 2.0)
        num, ref = overlap_numeric(a, b, tol=1e-10), overlap_closed_form(a, b)
        assert num.k_f == pytest.approx(ref.k_f, abs=1e-8)
        assert num.l_f == pytest.approx(ref.l_f, abs=1e-8)

    def test_closed_form_vs_oracle_random_pairs(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            family = STEP if rng.uniform() < 0.5 else EXP
            tau_i, tau_s = rng.uniform(0.1, 20.0, size=2)
            omega = rng.uniform(-5.0, 5.0)
            delta = rng.uniform(0.0, 10.0)
            a = FilterSpec(family, float(omega), float(tau_i))
            b = FilterSpec(family, float(omega - delta), float(tau_s))
            num, ref = overlap_numeric(a, b, tol=1e-10), overlap_closed_form(a, b)
            assert abs(num.k_f - ref.k_f) <= 1e-7
            assert abs(num.l_f - ref.l_f) <= 1e-7

    def test_mixed_family_against_hand_integral(self):
        # conj(h_step) * h_exp integrates in closed form over the step window
        a = FilterSpec(STEP, 1.0, 2.0)
        b = FilterSpec(EXP, 0.4, 3.0)
        alpha = 1.0 / b.tau + 1j * (b.omega - a.omega)
        exact = math.sqrt(2.0 / (a.tau * b.tau)) * (1.0 - cmath.exp(-alpha * a.tau)) / alpha
        num = overlap_numeric(a, b, tol=1e-11)
        assert num.k_f == pytest.approx(exact.real, abs=1e-9)
        assert num.l_f == pytest.approx(exact.imag, abs=1e-9)

    def test_tolerance_range_enforced(self):
        f = FilterSpec(STEP, 1.0, 2.0)
        with pytest.raises(ValueError):
            overlap_numeric(f, f, tol=1e-2)
        with pytest.raises(ValueError):
            overlap_numeric(f, f, tol=1e-13)


class TestOrthonormalFrequencies:
    def test_grid_spacing(self):
        got = orthonormal_frequencies(FilterSpec(STEP, 1.0, 2.0), 1)
        assert got == pytest.approx([1.0 - math.pi, 1.0, 1.0 + math.pi])

    def test_zero_span(self):
        assert orthonormal_frequencies(FilterSpec(STEP, 1.0, 2.0), 0) == [1.0]

    def test_exponential_family_shares_the_grid(self):
        step_grid = orthonormal_frequencies(FilterSpec(STEP, 1.0, 2.0), 2)
        exp_grid = orthonormal_frequencies(FilterSpec(EXP, 1.0, 2.0), 2)
        assert exp_grid == step_grid

    def test_step_neighbors_are_orthogonal(self):
        base = FilterSpec(STEP, 1.0, 2.0)
        for omega in orthonormal_frequencies(base, 2):
            if omega == base.omega:
                continue
            ov = overlap_numeric(base, FilterSpec(STEP, omega, 2.0), tol=1e-10)
            assert abs(ov.k_f) < 1e-8
            assert abs(ov.l_f) < 1e-8


class TestValidation:
    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            FilterSpec(STEP, 1.0, 0.0)

    def test_omega_must_be_finite(self):
        with pytest.raises(ValueError):
            FilterSpec(STEP, math.inf, 1.0)

    def test_overlap_factors_bound(self):
        with pytest.raises(ValueError):
            OverlapFactors(0.9, 0.9)
