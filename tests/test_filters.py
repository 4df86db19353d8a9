"""Filter functions, transforms, and the overlap kernel closed forms."""

import cmath
import math
import warnings

import numpy as np
import pytest

from filtered_tms.filters import (
    FilterSpec,
    OverlapFactors,
    overlap_closed_form,
    sample_time,
)
from oracles import eval_freq, orthonormal_frequencies, overlap_mpmath, overlap_numeric

STEP = FilterSpec.step
EXP = FilterSpec.exponential
PAIRINGS = [(STEP, STEP), (STEP, EXP), (EXP, STEP), (EXP, EXP)]
PAIRING_IDS = ["step-step", "step-exp", "exp-step", "exp-exp"]
# an exponential gated at 2 to 20 decay times, the gate drawn per filter
GATED = "gated"
GATED_PAIRINGS = [(GATED, STEP), (STEP, GATED), (GATED, EXP), (EXP, GATED), (GATED, GATED)]
GATED_IDS = ["gated-step", "step-gated", "gated-exp", "exp-gated", "gated-gated"]


def make_spec(family, omega, tau, gate):
    """A filter of a family, or of decay time tau gated at gate * tau."""
    return FilterSpec(omega, tau, gate * tau) if family == GATED else family(omega, tau)


def random_spec(rng, family):
    return family(float(rng.uniform(-5.0, 5.0)), float(rng.uniform(0.1, 20.0)))


def eval_time(f, t):
    """h(t) at one time."""
    return complex(sample_time(f, np.array([t]))[0])


class TestEvalTime:
    def test_step_gated_before_zero(self):
        assert eval_time(FilterSpec.step(1.0, 2.0), -0.5) == 0.0

    def test_step_value_inside_window(self):
        got = eval_time(FilterSpec.step(1.0, 2.0), 1.0)
        assert got == pytest.approx(cmath.exp(-1j) / math.sqrt(2.0), abs=1e-15)
        assert got.real == pytest.approx(0.3820514243700898, abs=1e-12)
        assert got.imag == pytest.approx(-0.5950098395293859, abs=1e-12)

    def test_exponential_at_origin(self):
        assert eval_time(FilterSpec.exponential(0.0, 2.0), 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("family", [STEP, EXP])
    def test_kernels_are_sampled_on_their_support_bit_for_bit(self, family):
        # the same expression evaluated at every lag, then masked to the support;
        # |h / c|^2 integrates to tau for a step and to tau / 2 for an exponential
        rng = np.random.default_rng(17)
        for _ in range(20):
            f = random_spec(rng, family)
            ts = np.concatenate(([-0.0, 0.0, f.scale], rng.uniform(-5.0, 30.0, 500)))
            inside = (ts >= 0.0) & (ts <= f.end)
            norm = 1.0 if family is STEP else 0.5
            dense = (np.exp(-(1.0 / f.decay + 1j * f.omega) * ts)
                     * (1.0 / (math.sqrt(f.scale) * math.sqrt(norm))))
            got = sample_time(f, ts)
            assert got.tobytes() == np.where(inside, dense, 0.0).tobytes()
            assert np.zeros(int(np.sum(~inside)), complex).tobytes() == got[~inside].tobytes()

    def test_a_gated_exponential_is_zero_off_its_gate_and_has_unit_norm(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            tau = float(rng.uniform(0.1, 20.0))
            f = FilterSpec(float(rng.uniform(-5.0, 5.0)), tau, float(rng.uniform(2.0, 20.0)) * tau)
            ts = np.concatenate(([-1e-300, -0.0, 0.0, f.end, np.nextafter(f.end, math.inf)],
                                 rng.uniform(-f.end, 2.0 * f.end, 500)))
            h = sample_time(f, ts)
            off = (ts < 0.0) | (ts > f.end)
            assert np.all(h[off] == 0.0) and np.all(h[~off] != 0.0)
            ov = overlap_numeric(f, f, tol=1e-11)
            assert abs(ov.k_f - 1.0) <= 1e-10 and abs(ov.l_f) <= 1e-10
            assert overlap_closed_form(f, f) == OverlapFactors(1.0, 0.0)

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
        got = eval_freq(FilterSpec.step(1.0, 2.0), 1.0)
        assert got == pytest.approx(math.sqrt(1.0 / math.pi), abs=1e-14)

    def test_exponential_resonance(self):
        got = eval_freq(FilterSpec.exponential(1.0, 2.0), 1.0)
        assert got == pytest.approx(math.sqrt(2.0 / math.pi), abs=1e-14)

    def test_exponential_off_resonance_magnitude(self):
        got = eval_freq(FilterSpec.exponential(1.0, 2.0), 1.5)
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
            dt = f.scale / n
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
            half = 4000.0 / f.scale
            ws = np.linspace(f.omega - half, f.omega + half, 400001)
            dens = np.abs(eval_freq(f, ws)) ** 2
            if family is STEP:
                tail = 2.0 / (math.pi * half * f.scale)
            else:
                tail = 2.0 / (math.pi * f.scale * half)
            norm = float(np.trapezoid(dens, ws))
            assert abs(norm + tail - 1.0) < 1e-6


    @pytest.mark.parametrize("family", [STEP, EXP])
    def test_array_call_is_the_scalar_call_per_frequency(self, family):
        f = family(1.0, 2.0)
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

    @pytest.mark.parametrize("family", [STEP, EXP])
    @pytest.mark.parametrize("tau", [1e-320, 1e-300, 2.0, 1e200, 1e300])
    def test_identical_filters_give_one_at_any_time_scale(self, family, tau):
        # sqrt(tau_i tau_s) would overflow or underflow at the extremes, and
        # 1/tau overflows at 1e-320
        f = family(1.0, tau)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert overlap_closed_form(f, f) == OverlapFactors(1.0, 0.0)

    @pytest.mark.parametrize("tau_i, tau_s, omega_i, omega_s", [
        (4e304, 1.0, 100.0, -100.0),
        (1e300, 1e-300, 1.0, 1.0),
        (1e-300, 1e300, 0.0, 1e-290),
        (1e200, 3e199, 2e-200, -1e-200),
        (1e-320, 1e-300, 0.0, 0.0),
        (3e-310, 1e-320, 5.0, -5.0),
        (1e-320, 1e-320, 1.0, -1.0),
        (1e-320, 1e80, 0.0, 0.0),
    ])
    def test_extreme_exponential_pairs_are_finite_and_exact(self, tau_i, tau_s, omega_i,
                                                            omega_s):
        # tau_i^2 tau_s^2 delta^2 overflows for the first and second pairs;
        # 1/tau_i + 1/tau_s overflows for the last four, and tau_i/tau_s
        # underflows for the last
        fi, fs = FilterSpec.exponential(omega_i, tau_i), FilterSpec.exponential(omega_s, tau_s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ov = overlap_closed_form(fi, fs)
        want = overlap_mpmath(fi, fs)
        scale = max(abs(want.real), abs(want.imag))
        assert abs(ov.k_f - want.real) <= 1e-15 * scale
        assert abs(ov.l_f - want.imag) <= 1e-15 * scale

    @pytest.mark.parametrize("tau_i, tau_s, omega_i, omega_s", [
        (1e200, 1e200, 1e200, -1e200),
        (1e200, 1e300, 1e100, 0.0),
        (1e-300, 1e-300, 1e300, -1e300),
        (1e-308, 1e-308, 1e308, -1e308),
    ])
    def test_extreme_step_pairs_are_finite_and_exact(self, tau_i, tau_s, omega_i, omega_s):
        # tau delta overflows for the first pair, sqrt(tau_i tau_s) delta for
        # the first two, whose factors lie below the smallest subnormal;
        # omega_i - omega_s overflows for the last, whose tau delta is 2
        fi, fs = FilterSpec.step(omega_i, tau_i), FilterSpec.step(omega_s, tau_s)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ov = overlap_closed_form(fi, fs)
        want = overlap_mpmath(fi, fs)
        scale = max(abs(want.real), abs(want.imag))
        assert abs(ov.k_f - want.real) <= 1e-15 * scale + 2.0**-1074
        assert abs(ov.l_f - want.imag) <= 1e-15 * scale + 2.0**-1074

    @pytest.mark.parametrize("order", ["step-exp", "exp-step"])
    @pytest.mark.parametrize("tau_step, tau_exp, omega_step, omega_exp", [
        (1e-308, 1e-308, 1e308, -1e308),
        (1e20, 1e20, -1e308, 1e308),
        (1e300, 1e-300, 1.0, 1.0),
        (1e-320, 1e300, 0.0, 0.0),
    ])
    def test_extreme_mixed_pairs_are_finite_and_exact(self, order, tau_step, tau_exp,
                                                      omega_step, omega_exp):
        # omega_i - omega_s overflows for the first two pairs: the first's
        # tau delta is 2, the second's phase lies past the float range and
        # its overlap below the smallest subnormal; the step window is 1e600
        # decay times long for the third; the decay rate is 1e-620 of the
        # step's for the fourth
        pair = FilterSpec.step(omega_step, tau_step), FilterSpec.exponential(omega_exp, tau_exp)
        fi, fs = pair if order == "step-exp" else pair[::-1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ov = overlap_closed_form(fi, fs)
        want = overlap_mpmath(fi, fs)
        scale = max(abs(want.real), abs(want.imag))
        assert abs(ov.k_f - want.real) <= 1e-15 * scale + 2.0**-1074
        assert abs(ov.l_f - want.imag) <= 1e-15 * scale + 2.0**-1074

    def test_a_gate_keeps_the_root_of_the_norm_it_covers(self):
        # the gated filter is the endless one renormalized on [0, T], so
        # their overlap is sqrt of the endless filter's norm within the gate
        for tau, gate in ((1.0, 2.0), (2.0, 6.0), (0.5, 20.0), (3.0, 0.5)):
            want = math.sqrt(-math.expm1(-2.0 * gate))
            pair = FilterSpec.exponential(0.7, tau), FilterSpec(0.7, tau, gate * tau)
            for ov in (overlap_closed_form(*pair), overlap_closed_form(*pair[::-1])):
                assert ov.k_f == pytest.approx(want, rel=1e-15)
                assert ov.l_f == 0.0

    def test_step_worked_example(self):
        ov = overlap_closed_form(FilterSpec.step(1.0, 2.0), FilterSpec.step(0.0, 2.0))
        assert ov.k_f == pytest.approx(math.sin(2.0) / 2.0, abs=1e-15)
        assert ov.l_f == pytest.approx((1.0 - math.cos(2.0)) / 2.0, abs=1e-15)
        assert ov.k_f == pytest.approx(0.454649, abs=1e-6)
        assert ov.l_f == pytest.approx(0.708073, abs=1e-6)

    def test_exponential_worked_example(self):
        ov = overlap_closed_form(FilterSpec.exponential(1.0, 1.0), FilterSpec.exponential(1.0, 2.0))
        assert ov.k_f == pytest.approx(6.0 * math.sqrt(2.0) / 9.0, abs=1e-15)
        assert ov.l_f == pytest.approx(0.0, abs=1e-15)

    def test_mixed_family_worked_example(self):
        # matched frequencies: sqrt(2/(2*1)) (1 - exp(-2)) over the 2-long window
        step, expo = FilterSpec.step(1.0, 2.0), FilterSpec.exponential(1.0, 1.0)
        for ov in (overlap_closed_form(step, expo), overlap_closed_form(expo, step)):
            assert ov.k_f == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)
            assert ov.l_f == 0.0
            assert isinstance(ov.k_f, float) and isinstance(ov.l_f, float)

    @pytest.mark.parametrize("order", ["step-exp", "exp-step"])
    def test_mixed_arrays_match_the_quadrature_oracle(self, order):
        rng = np.random.default_rng(31 if order == "step-exp" else 37)
        n = 200
        omega_i, omega_s = rng.uniform(-5.0, 5.0, (2, n))
        omega_s[::7] = omega_i[::7]  # matched frequencies
        tau_i, tau_s = rng.uniform(0.1, 20.0, (2, n))
        fam_i, fam_s = (STEP, EXP) if order == "step-exp" else (EXP, STEP)
        ov = overlap_closed_form(fam_i(omega_i, tau_i),
                                 fam_s(omega_s, tau_s))
        for i in range(n):
            num = overlap_numeric(fam_i(omega_i[i], tau_i[i]),
                                  fam_s(omega_s[i], tau_s[i]), tol=1e-10)
            assert abs(ov.k_f[i] - num.k_f) <= 1e-9
            assert abs(ov.l_f[i] - num.l_f) <= 1e-9

    @pytest.mark.parametrize("omega_s, tau_step, tau_exp", [
        (1.0, 2.0, 1e5),     # zero detuning, slow decay: a tau_step -> 0
        (1.0, 1e-3, 1.0),    # short step window
        (1.0, 1e-3, 1e5),    # both: a tau_step = 1e-8
        (-999.0, 2.0, 1.0),  # large detuning
        (1001.0, 0.5, 50.0),
    ])
    def test_mixed_limits_match_the_quadrature_oracle(self, omega_s, tau_step, tau_exp):
        step, expo = FilterSpec.step(1.0, tau_step), FilterSpec.exponential(omega_s, tau_exp)
        num = overlap_numeric(step, expo, tol=1e-10)
        for ov, sign in ((overlap_closed_form(step, expo), 1.0),
                         (overlap_closed_form(expo, step), -1.0)):
            assert abs(ov.k_f - num.k_f) <= 1e-9
            assert abs(ov.l_f - sign * num.l_f) <= 1e-9

    def test_mixed_zero_detuning_has_no_cancellation(self):
        # (1 - exp(-x))/x = 1 - x/2 + x^2/6 - x^3/24 + ..., x = tau_step/tau_exp <= 1e-3
        for tau_step, tau_exp in ((2.0, 1e5), (1e-3, 1e5), (1e-3, 1.0), (1e-6, 1e3)):
            x = tau_step / tau_exp
            series = 1.0 - x / 2.0 * (1.0 - x / 3.0 * (1.0 - x / 4.0 * (1.0 - x / 5.0)))
            want = math.sqrt(2.0 / (tau_step * tau_exp)) * tau_step * series
            ov = overlap_closed_form(FilterSpec.step(3.0, tau_step),
                                     FilterSpec.exponential(3.0, tau_exp))
            assert ov.k_f == pytest.approx(want, rel=1e-14)
            assert ov.l_f == 0.0

    def test_mixed_orders_are_complex_conjugates(self):
        rng = np.random.default_rng(41)
        omega_i, omega_s = rng.uniform(-50.0, 50.0, (2, 500))
        tau_i, tau_s = 10.0 ** rng.uniform(-3.0, 5.0, (2, 500))
        ab = overlap_closed_form(FilterSpec.step(omega_i, tau_i),
                                 FilterSpec.exponential(omega_s, tau_s))
        ba = overlap_closed_form(FilterSpec.exponential(omega_s, tau_s),
                                 FilterSpec.step(omega_i, tau_i))
        np.testing.assert_allclose(ba.k_f, ab.k_f, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(ba.l_f, -ab.l_f, rtol=0.0, atol=1e-15)

    def test_mixed_pairs_obey_the_cauchy_schwarz_bound(self):
        # different mode shapes never saturate it
        rng = np.random.default_rng(43)
        n = 5000
        omega_i, omega_s = rng.uniform(-5.0, 5.0, (2, n))
        omega_s[::3] = omega_i[::3]
        tau_i, tau_s = 10.0 ** rng.uniform(-3.0, 5.0, (2, n))
        for fam_i, fam_s in ((STEP, EXP), (EXP, STEP)):
            ov = overlap_closed_form(fam_i(omega_i, tau_i),
                                     fam_s(omega_s, tau_s))
            assert np.all(ov.k_f**2 + ov.l_f**2 < 1.0)
        # the best step window for a given decay time stays below one
        tau = np.linspace(0.01, 10.0, 2000)
        ov = overlap_closed_form(FilterSpec.step(0.0, tau),
                                 FilterSpec.exponential(0.0, np.ones_like(tau)))
        assert 0.8 < ov.k_f.max() < 1.0

    def test_overlap_bound_many_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            family = STEP if rng.uniform() < 0.5 else EXP
            a, b = random_spec(rng, family), random_spec(rng, family)
            ov = overlap_closed_form(a, b)
            assert ov.k_f**2 + ov.l_f**2 <= 1.0 + 1e-12

    def test_bound_saturated_only_by_identical_specs(self):
        a = FilterSpec.step(1.0, 2.0)
        assert overlap_closed_form(a, a).k_f == 1.0
        close = FilterSpec.step(1.0, 2.0001)
        ov = overlap_closed_form(a, close)
        assert ov.k_f**2 + ov.l_f**2 < 1.0

    @pytest.mark.parametrize("family", [STEP, EXP])
    def test_arrays_match_the_scalar_reference(self, family):
        # the reference is the overlap integral at 50 digits
        rng = np.random.default_rng(23)
        n = 2000
        omega_i, omega_s = rng.uniform(-5.0, 5.0, (2, n))
        omega_s[::9] = omega_i[::9]  # matched frequencies
        omega_s[1::9] = omega_i[1::9] + rng.uniform(-1e-9, 1e-9, len(omega_s[1::9]))
        tau_i, tau_s = rng.uniform(0.1, 20.0, (2, n))
        tau_s[::4] = tau_i[::4]
        ov = overlap_closed_form(family(omega_i, tau_i),
                                 family(omega_s, tau_s))
        for i in range(n):
            want = overlap_mpmath(family(omega_i[i], tau_i[i]),
                                  family(omega_s[i], tau_s[i]))
            assert abs(ov.k_f[i] - want.real) <= 1e-15 * max(abs(want.real), 1.0)
            assert abs(ov.l_f[i] - want.imag) <= 1e-15 * max(abs(want.imag), 1.0)

    @pytest.mark.parametrize("fam_i, fam_s", PAIRINGS + GATED_PAIRINGS,
                             ids=PAIRING_IDS + GATED_IDS)
    def test_every_pairing_matches_the_integral_to_its_conditioning(self, fam_i, fam_s):
        # tau log-uniform on [1e-3, 1e3], a fifth of the pairs identical;
        # |delta| log-uniform on [1e-12, 1e3], a seventh of them zero.  The
        # phase tau delta carries its rounding into the overlap, by a part in
        # 1 + |delta| min(tau_i, tau_s) of it, and near a zero of a step pair's
        # overlap by a part of the overlap at zero detuning; a pair with a
        # gated exponential meets the bound without that part
        rng = np.random.default_rng(51 + (PAIRINGS + GATED_PAIRINGS).index((fam_i, fam_s)))
        n = 1000
        tau_i, tau_s = 10.0 ** rng.uniform(-3.0, 3.0, (2, n))
        tau_s[::5] = tau_i[::5]
        delta = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-12.0, 3.0, n)
        delta[::7] = 0.0
        omega_s = rng.uniform(-5.0, 5.0, n)
        omega_i = omega_s + delta
        gate_i, gate_s = rng.uniform(2.0, 20.0, (2, n))
        ov = overlap_closed_form(make_spec(fam_i, omega_i, tau_i, gate_i),
                                 make_spec(fam_s, omega_s, tau_s, gate_s))
        for i in range(n):
            want = overlap_mpmath(make_spec(fam_i, omega_i[i], tau_i[i], gate_i[i]),
                                  make_spec(fam_s, omega_s[i], tau_s[i], gate_s[i]))
            matched = overlap_mpmath(make_spec(fam_i, omega_s[i], tau_i[i], gate_i[i]),
                                     make_spec(fam_s, omega_s[i], tau_s[i], gate_s[i]))
            if GATED in (fam_i, fam_s):
                matched = 0.0
            phase = abs(omega_i[i] - omega_s[i]) * min(tau_i[i], tau_s[i])
            bound = 1e-14 * (max(abs(want.real), abs(want.imag)) * (1.0 + phase) + abs(matched))
            assert abs(ov.k_f[i] - want.real) <= bound, (tau_i[i], tau_s[i], omega_i[i], omega_s[i])
            assert abs(ov.l_f[i] - want.imag) <= bound, (tau_i[i], tau_s[i], omega_i[i], omega_s[i])

    def test_integer_parameters_act_as_floats(self):
        # tau^2 tau^2 delta^2 = 1e26 would wrap around as a fixed-width integer
        for make in (lambda x: x, lambda x: np.array([x])):
            pair = [FilterSpec.exponential(make(w), make(100000)) for w in (0, 1000)]
            ov = overlap_closed_form(*pair)
            want = overlap_closed_form(*(FilterSpec.exponential(float(w), 1e5) for w in (0, 1000)))
            assert (np.ravel(ov.k_f)[0], np.ravel(ov.l_f)[0]) == (want.k_f, want.l_f)

    def test_exponential_overlap_is_the_same_for_floats_and_arrays(self):
        # numpy's scalar and array arithmetic must round alike
        rng = np.random.default_rng(2024)
        for _ in range(4000):
            fi, fs = random_spec(rng, EXP), random_spec(rng, EXP)
            as_array = (FilterSpec.exponential(np.array([f.omega]), np.array([f.scale]))
                        for f in (fi, fs))
            got, want = overlap_closed_form(*as_array), overlap_closed_form(fi, fs)
            assert (got.k_f[0], got.l_f[0]) == (want.k_f, want.l_f)

    def test_scalar_pairs_give_floats(self):
        ov = overlap_closed_form(FilterSpec.step(1.0, 2.0), FilterSpec.step(0.0, 2.0))
        assert isinstance(ov.k_f, float) and isinstance(ov.l_f, float)

    def test_array_errors_name_the_first_bad_row(self):
        taus = np.array([2.0, 1.0, 0.0, -1.0])
        with pytest.raises(ValueError, match=r"^tau must be positive, got 0\.0$"):
            FilterSpec.step(np.ones(4), taus)
        with pytest.raises(ValueError, match="must be finite"):
            FilterSpec.exponential(np.array([0.0, 1.0, math.nan]), np.ones(3))

    def test_step_small_detuning_continuity(self):
        # tiny detunings against the direct formula, and the exact zero
        ti, ts = 2.0, 3.0
        tau, root = 2.0, math.sqrt(6.0)
        for delta in (1e-9, -1e-9):
            branch = overlap_closed_form(FilterSpec.step(delta, ti), FilterSpec.step(0.0, ts))
            direct_k = math.sin(tau * delta) / (root * delta)
            direct_l = (1.0 - math.cos(tau * delta)) / (root * delta)
            assert abs(branch.k_f - direct_k) < 1e-9
            assert abs(branch.l_f - direct_l) < 1e-9
        exact_zero = overlap_closed_form(FilterSpec.step(0.0, ti), FilterSpec.step(0.0, ts))
        assert exact_zero.k_f == pytest.approx(tau / root, abs=1e-15)
        assert exact_zero.l_f == 0.0


class TestOverlapNumeric:
    def test_identical_step(self):
        f = FilterSpec.step(1.0, 2.0)
        ov = overlap_numeric(f, f, tol=1e-11)
        assert ov.k_f == pytest.approx(1.0, abs=1e-10)
        assert ov.l_f == pytest.approx(0.0, abs=1e-10)

    def test_matches_closed_form_step(self):
        a, b = FilterSpec.step(1.0, 2.0), FilterSpec.step(0.0, 2.0)
        num, ref = overlap_numeric(a, b, tol=1e-10), overlap_closed_form(a, b)
        assert num.k_f == pytest.approx(ref.k_f, abs=1e-8)
        assert num.l_f == pytest.approx(ref.l_f, abs=1e-8)

    def test_matches_closed_form_exponential(self):
        a, b = FilterSpec.exponential(1.5, 2.0), FilterSpec.exponential(1.0, 2.0)
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
            a = family(float(omega), float(tau_i))
            b = family(float(omega - delta), float(tau_s))
            num, ref = overlap_numeric(a, b, tol=1e-10), overlap_closed_form(a, b)
            assert abs(num.k_f - ref.k_f) <= 1e-7
            assert abs(num.l_f - ref.l_f) <= 1e-7

    @pytest.mark.parametrize("fam_i, fam_s", GATED_PAIRINGS, ids=GATED_IDS)
    def test_gated_pairs_match_the_closed_form(self, fam_i, fam_s):
        # the window is the earlier gate end
        rng = np.random.default_rng(61 + GATED_PAIRINGS.index((fam_i, fam_s)))
        for _ in range(20):
            omega_i, omega_s = rng.uniform(-5.0, 5.0, 2)
            tau_i, tau_s = rng.uniform(0.1, 20.0, 2)
            gate_i, gate_s = rng.uniform(2.0, 20.0, 2)
            a = make_spec(fam_i, float(omega_i), float(tau_i), float(gate_i))
            b = make_spec(fam_s, float(omega_s), float(tau_s), float(gate_s))
            num, ref = overlap_numeric(a, b, tol=1e-10), overlap_closed_form(a, b)
            assert abs(num.k_f - ref.k_f) <= 1e-9
            assert abs(num.l_f - ref.l_f) <= 1e-9

    def test_mixed_family_against_hand_integral(self):
        # conj(h_step) * h_exp integrates in closed form over the step window
        a = FilterSpec.step(1.0, 2.0)
        b = FilterSpec.exponential(0.4, 3.0)
        alpha = 1.0 / b.scale + 1j * (b.omega - a.omega)
        exact = math.sqrt(2.0 / (a.scale * b.scale)) * (1.0 - cmath.exp(-alpha * a.scale)) / alpha
        num = overlap_numeric(a, b, tol=1e-11)
        assert num.k_f == pytest.approx(exact.real, abs=1e-9)
        assert num.l_f == pytest.approx(exact.imag, abs=1e-9)

    @pytest.mark.parametrize("tol", [1e-6, 1e-10])
    def test_exponential_window_holds_at_any_time_scale(self, tol):
        # the window ln(10/tol)/(1/tau_i + 1/tau_s) is the kernels' own decay
        # time, so the truncated tail stays below tol/10 for tau from 1e-12 to
        # 1e12; matched equal filters lose the most to truncation
        rng = np.random.default_rng(31)
        taus = [(t, t, 0.0) for t in (1e-12, 1.0, 1e12)]
        for _ in range(30):
            tau_i, tau_s = 10.0 ** rng.uniform(-12.0, 12.0, size=2)
            taus.append((tau_i, tau_s, rng.uniform(-3.0, 3.0) / math.sqrt(tau_i * tau_s)))
        for tau_i, tau_s, delta in taus:
            a = FilterSpec.exponential(float(delta), float(tau_i))
            b = FilterSpec.exponential(0.0, float(tau_s))
            num, ref = overlap_numeric(a, b, tol=tol), overlap_closed_form(a, b)
            assert abs(num.k_f - ref.k_f) <= tol / 2, (tau_i, tau_s, delta)
            assert abs(num.l_f - ref.l_f) <= tol / 2, (tau_i, tau_s, delta)

    def test_an_unresolvable_beat_is_a_convergence_failure(self):
        # |omega_i - omega_s| overflows: the panel seed is capped, and the
        # quadrature reports that it could not resolve the beat
        a, b = FilterSpec.exponential(1e308, 1e-3), FilterSpec.exponential(-1e308, 1e-3)
        with pytest.raises(ArithmeticError, match="^adaptive quadrature did not converge"):
            overlap_numeric(a, b)

    def test_a_detuned_long_filter_pair_integrates(self):
        # the window of tau_i = 4e304 beside tau_s = 1 is about 9 time units
        a, b = FilterSpec.exponential(100.0, 4e304), FilterSpec.exponential(-100.0, 1.0)
        num = overlap_numeric(a, b, tol=1e-3)
        # the closed form, divided through by tau_i^2 so that nothing overflows
        x = b.scale / a.scale
        den = (b.scale * 200.0) ** 2 + (1.0 + x) ** 2
        assert abs(num.k_f - 2.0 * math.sqrt(x) * (1.0 + x) / den) <= 1e-3
        assert abs(num.l_f - 2.0 * b.scale * math.sqrt(x) * 200.0 / den) <= 1e-3

    @pytest.mark.parametrize("fi, fs, panels", [
        (FilterSpec.step(1.0, 2.0), FilterSpec.step(1.0, 2.0), 16),
        (FilterSpec.step(1.0, 2.0), FilterSpec.step(0.0, 2.0), 64),
        (FilterSpec.step(1.0, 2.0), FilterSpec.exponential(1.0, 1.0), 62),
    ], ids=["identical steps", "detuned steps", "step and exponential"])
    def test_a_step_window_ends_without_a_jump(self, fi, fs, panels):
        # the step support is closed, so the last panel is as smooth as the
        # rest: no bisection down to the width floor at the window's end
        ov = overlap_numeric(fi, fs)
        assert ov.panels == panels
        assert ov.error_estimate <= 1e-10
        ref = overlap_closed_form(fi, fs)
        assert abs(ov.k_f - ref.k_f) <= 1e-10 and abs(ov.l_f - ref.l_f) <= 1e-10

    @pytest.mark.parametrize("fi, fs, k_f, l_f", [
        (FilterSpec.step(1.0, 2.0), FilterSpec.step(0.0, 2.0), 0.454649, None),
        # matched frequencies: sqrt(2/(2*1)) (1 - exp(-2)) over the step window
        (FilterSpec.step(1.0, 2.0), FilterSpec.exponential(1.0, 1.0), 1.0 - math.exp(-2.0), 0.0),
        (FilterSpec.exponential(1.0, 1.0), FilterSpec.step(1.0, 2.0), 1.0 - math.exp(-2.0), 0.0),
    ], ids=["detuned steps", "step and exponential", "exponential and step"])
    def test_the_default_tolerance_meets_the_closed_form(self, fi, fs, k_f, l_f):
        num, ref = overlap_numeric(fi, fs), overlap_closed_form(fi, fs)
        assert ref.k_f == pytest.approx(k_f, abs=1e-6 if l_f is None else 1e-15)
        assert l_f is None or ref.l_f == l_f
        assert abs(ref.k_f - num.k_f) < 1e-8 and abs(ref.l_f - num.l_f) < 1e-8

    @pytest.mark.parametrize("fi, fs, tol", [
        (FilterSpec.step(1.0, 2.0), FilterSpec.step(0.0, 2.0), 1e-10),
        (FilterSpec.exponential(1.0, 2.0), FilterSpec.exponential(0.3, 1.0), 1e-6),
        (FilterSpec.step(1.0, 2.0), FilterSpec.exponential(1.0, 1.0), 1e-8),
    ], ids=["step", "exponential", "mixed"])
    def test_the_error_estimate_is_within_tol(self, fi, fs, tol):
        ov = overlap_numeric(fi, fs, tol=tol)
        assert math.isfinite(ov.error_estimate) and 0.0 < ov.error_estimate <= tol
        assert type(ov.panels) is int and ov.panels > 0

    @pytest.mark.parametrize("omega_s", [1.0, 2.0], ids=["matched", "detuned"])
    def test_an_overflowing_truncation_window_is_a_value_error(self, omega_s):
        with pytest.raises(ValueError) as error:
            overlap_numeric(FilterSpec.exponential(1.0, 1e308),
                            FilterSpec.exponential(omega_s, 1e308))
        assert str(error.value) == ("the truncation window ln(10/tol) / (1/tau_i + 1/tau_s) is "
                                    "inf for tau_i=1e+308, tau_s=1e+308 and tol=1e-10")

    @pytest.mark.parametrize("fi, fs, tol", [
        (FilterSpec.exponential(100.0, 4e304), FilterSpec.exponential(-100.0, 1.0), 1e-3),
        (FilterSpec.exponential(1.0, 1e300), FilterSpec.exponential(1.0, 1e-300), 1e-10),
    ], ids=["detuned", "matched"])
    def test_extreme_time_constants_meet_the_closed_form_without_warnings(self, fi, fs, tol):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            num, ref = overlap_numeric(fi, fs, tol=tol), overlap_closed_form(fi, fs)
        assert ref.k_f > 0.0
        assert abs(ref.k_f - num.k_f) <= tol and abs(ref.l_f - num.l_f) <= tol

    def test_picosecond_filters_integrate_over_their_own_decay_time(self):
        f = FilterSpec.exponential(1.0, 1e-12)
        num, ref = overlap_numeric(f, f), overlap_closed_form(f, f)
        assert (ref.k_f, ref.l_f) == (1.0, 0.0)
        assert abs(ref.k_f - num.k_f) <= 1e-10 and abs(ref.l_f - num.l_f) <= 1e-10

    def test_tolerance_range_enforced(self):
        f = FilterSpec.step(1.0, 2.0)
        with pytest.raises(ValueError):
            overlap_numeric(f, f, tol=1e-2)
        with pytest.raises(ValueError):
            overlap_numeric(f, f, tol=1e-13)


class TestOrthonormalFrequencies:
    def test_grid_spacing(self):
        got = orthonormal_frequencies(FilterSpec.step(1.0, 2.0), 1)
        assert got == pytest.approx([1.0 - math.pi, 1.0, 1.0 + math.pi])

    def test_zero_span(self):
        assert orthonormal_frequencies(FilterSpec.step(1.0, 2.0), 0) == [1.0]

    def test_exponential_family_shares_the_grid(self):
        step_grid = orthonormal_frequencies(FilterSpec.step(1.0, 2.0), 2)
        exp_grid = orthonormal_frequencies(FilterSpec.exponential(1.0, 2.0), 2)
        assert exp_grid == step_grid

    def test_step_neighbors_are_orthogonal(self):
        base = FilterSpec.step(1.0, 2.0)
        for omega in orthonormal_frequencies(base, 2):
            if omega == base.omega:
                continue
            ov = overlap_numeric(base, FilterSpec.step(omega, 2.0), tol=1e-10)
            assert abs(ov.k_f) < 1e-8
            assert abs(ov.l_f) < 1e-8


class TestValidation:
    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            FilterSpec.step(1.0, 0.0)

    def test_omega_must_be_finite(self):
        with pytest.raises(ValueError):
            FilterSpec.step(math.inf, 1.0)

    def test_overlap_factors_bound(self):
        with pytest.raises(ValueError):
            OverlapFactors(0.9, 0.9)
