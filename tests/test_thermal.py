"""Thermal-input closed forms: covariance, entanglement window, squeezing
angle, weight ratio and optimized squeezing against numerical arbiters."""

import math

import numpy as np
import pytest

from filtered_tms import thermal, tmsv
from filtered_tms.filters import OverlapFactors
from filtered_tms.gaussian import (
    build_covariance,
    log_negativity,
    optimal_phase_sum,
    optimal_weight_ratio,
    optimized_squeezing,
    quadrature_variance,
    QuadratureSpec,
)
from oracles import (
    bisect_root,
    golden_min,
    random_thermal_params,
    same_or_close,
    thermal_landmarks_reference,
)


def params(r, n_i=0.0, n_s=0.0, k_f=1.0, l_f=0.0):
    return thermal.ThermalParams(r=r, n_i=n_i, n_s=n_s, overlap=OverlapFactors(k_f, l_f))


REF = dict(n_i=0.3, n_s=0.8, k_f=0.95, l_f=0.095)


def ref_params(r):
    return params(r, **REF)


def e_n_of(p):
    return log_negativity(thermal.covariance(p)).e_n


def nu_of(p):
    return log_negativity(thermal.covariance(p)).nu_minus


class TestCovariance:
    def test_vacuum_input_reduces_to_tmsv(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            r = float(rng.uniform(0.0, 2.0))
            k_f = float(rng.uniform(0.3, 1.0))
            got = thermal.covariance(params(r, 0.0, 0.0, k_f, 0.3 * math.sqrt(1 - k_f**2)))
            want = tmsv.covariance(
                tmsv.TmsvParams(r=r, overlap=OverlapFactors(k_f, 0.0))
            )
            assert got.d_i == pytest.approx(want.d_i, abs=1e-12)
            assert got.d_s == pytest.approx(want.d_s, abs=1e-12)
            assert got.c11 == pytest.approx(want.c11, abs=1e-12)
            assert got.c12 == 0.0

    def test_unsqueezed_thermal_blocks(self):
        b = thermal.covariance(params(0.0, 0.3, 0.8))
        assert (b.d_i, b.d_s, b.c11, b.c12) == (
            pytest.approx(1.6), pytest.approx(2.6), 0.0, 0.0)

    def test_reference_point_blocks(self):
        b = thermal.covariance(ref_params(0.5))
        assert b.d_i == pytest.approx(2.740469333112012, rel=1e-14)
        assert b.d_s == pytest.approx(3.740469333112012, rel=1e-14)
        assert b.c11 == pytest.approx(2.3445263813193837, rel=1e-14)
        assert b.c12 == pytest.approx(0.05582205669808057, rel=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            params(1.0, n_i=-0.1)
        with pytest.raises(ValueError):
            params(-1.0)


class TestCriticalPoints:
    def test_identical_filters_limit_branch(self):
        cp = thermal.critical_points(params(1.0, 0.5, 0.5))
        assert cp.r_lcf_en == pytest.approx(0.5 * math.acosh(1.25), rel=1e-12)
        assert cp.r_lcf_en == pytest.approx(0.346574, abs=1e-6)
        assert math.isinf(cp.r_ucf_en)
        root = bisect_root(lambda r: 0.5 - nu_of(params(r, 0.5, 0.5)), 1e-4, 3.0)
        assert cp.r_lcf_en == pytest.approx(root, abs=1e-9)

    def test_reference_window_against_bisection(self):
        cp = thermal.critical_points(ref_params(1.0))
        assert cp.r_lcf_en == pytest.approx(0.3772651481651858, rel=1e-10)
        assert cp.r_ucf_en == pytest.approx(1.4161166828003733, rel=1e-10)
        lo = bisect_root(lambda r: 0.5 - nu_of(ref_params(r)), 1e-4, 0.9)
        hi = bisect_root(lambda r: 0.5 - nu_of(ref_params(r)), 0.9, 4.0)
        assert cp.r_lcf_en == pytest.approx(lo, abs=1e-9)
        assert cp.r_ucf_en == pytest.approx(hi, abs=1e-9)

    def test_reference_squeezing_angle(self):
        cp = thermal.critical_points(ref_params(1.0))
        assert cp.zeta == pytest.approx(math.atan(-0.0475 / 1.995), rel=1e-12)
        assert cp.zeta == pytest.approx(-0.0238050, abs=1e-7)

    def test_zeta_vanishes_for_matched_populations_or_identical_filters(self):
        assert thermal.critical_points(params(1.0, 0.4, 0.4, 0.9, 0.2)).zeta == 0.0
        assert thermal.critical_points(params(1.0, 0.2, 0.9, 0.9, 0.0)).zeta == 0.0

    def test_empty_window_is_a_value(self):
        hot = params(1.0, 3.0, 2.5, 0.9, 0.1)
        cp = thermal.critical_points(hot)
        assert not cp.has_window
        assert math.isnan(cp.r_lcf_en)
        for r in np.linspace(0.01, 4.0, 40):
            assert e_n_of(params(r, 3.0, 2.5, 0.9, 0.1)) == 0.0

    def test_window_exactness_random_parameters(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            p = random_thermal_params(rng, require_window=True)
            cp = thermal.critical_points(p)
            inner = np.linspace(cp.r_lcf_en * 1.001, cp.r_ucf_en * 0.999, 100)
            for r in inner:
                q = thermal.ThermalParams(float(r), p.n_i, p.n_s, p.overlap)
                assert e_n_of(q) > 0.0
            for r in np.concatenate(
                [np.linspace(1e-4, cp.r_lcf_en * 0.999, 50),
                 np.linspace(cp.r_ucf_en * 1.001, cp.r_ucf_en * 2.0, 50)]
            ):
                q = thermal.ThermalParams(float(r), p.n_i, p.n_s, p.overlap)
                assert e_n_of(q) == 0.0

    def test_window_against_bisection_random_parameters(self):
        rng = np.random.default_rng(103)
        for _ in range(50):
            p = random_thermal_params(rng, require_window=True)
            cp = thermal.critical_points(p)

            def nu_gap(r):
                return 0.5 - nu_of(thermal.ThermalParams(float(r), p.n_i, p.n_s, p.overlap))

            mid = cp.r_max_en if math.isfinite(cp.r_max_en) else 0.5 * (cp.r_lcf_en + cp.r_ucf_en)
            lo = bisect_root(nu_gap, 1e-6, mid)
            hi = bisect_root(nu_gap, mid, max(4.0, 3.0 * cp.r_ucf_en))
            assert cp.r_lcf_en == pytest.approx(lo, abs=1e-6)
            assert cp.r_ucf_en == pytest.approx(hi, abs=1e-6)
            assert cp.r_lcf_en <= cp.r_max_en <= cp.r_ucf_en

    def test_window_shrinks_with_heating(self):
        lows, highs = [], []
        for n_i in np.linspace(0.0, 1.2, 7):
            cp = thermal.critical_points(params(1.0, float(n_i), 0.8, 0.95, 0.095))
            lows.append(cp.r_lcf_en)
            highs.append(cp.r_ucf_en)
        assert all(b >= a - 1e-12 for a, b in zip(lows, lows[1:]))
        finite = [h for h in highs if math.isfinite(h)]
        assert all(b <= a + 1e-12 for a, b in zip(finite, finite[1:]))

    def test_entanglement_maximum_against_golden_section(self):
        rng = np.random.default_rng(107)
        for _ in range(50):
            p = random_thermal_params(rng, require_window=True)
            cp = thermal.critical_points(p)
            argmax = golden_min(
                lambda r: -e_n_of(thermal.ThermalParams(float(r), p.n_i, p.n_s, p.overlap)),
                cp.r_lcf_en, cp.r_ucf_en,
            )
            assert abs(cp.r_max_en - argmax) <= 1e-5

    def test_optimized_variance_minimum_sits_at_the_entanglement_maximum(self):
        p = ref_params(1.0)
        cp = thermal.critical_points(p)
        argmin = golden_min(
            lambda r: thermal.optimized_squeezing_closed(ref_params(float(r))),
            1e-4, 2.5,
        )
        assert cp.r_max_en == pytest.approx(argmin, abs=1e-6)

    def test_equal_weight_squeezing_landmarks(self):
        p = ref_params(1.0)
        cp = thermal.critical_points(p)

        def eq_var(r):
            b = thermal.covariance(ref_params(float(r)))
            return 0.5 * (b.d_i + b.d_s) - math.hypot(b.c11, b.c12)

        argmin = golden_min(eq_var, 1e-4, 3.0)
        assert cp.r_max_sq == pytest.approx(argmin, abs=1e-6)
        lo = bisect_root(lambda r: eq_var(r) - 1.0, 1e-4, argmin)
        hi = bisect_root(lambda r: eq_var(r) - 1.0, argmin, 5.0)
        assert cp.r_lcf_sq == pytest.approx(lo, abs=1e-8)
        assert cp.r_ucf_sq == pytest.approx(hi, abs=1e-8)
        # with unequal populations the equal-weight window sits strictly
        # inside the entanglement window
        assert cp.r_lcf_sq > cp.r_lcf_en
        assert cp.r_ucf_sq < cp.r_ucf_en

    def test_optimized_squeezing_window_equals_entanglement_window(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            p = random_thermal_params(rng, require_window=True)
            cp = thermal.critical_points(p)
            for r_edge in (cp.r_lcf_en, cp.r_ucf_en):
                val = thermal.optimized_squeezing_closed(
                    thermal.ThermalParams(float(r_edge), p.n_i, p.n_s, p.overlap)
                )
                assert val == pytest.approx(1.0, abs=1e-8)

    def test_angle_consistency_with_numeric_phase_minimum(self):
        rng = np.random.default_rng(113)
        for _ in range(20):
            p = random_thermal_params(rng, require_window=False)
            if p.r < 0.05:
                continue
            blocks = thermal.covariance(p)
            v = build_covariance(blocks)
            ratio = optimal_weight_ratio(blocks)

            def var(phi):
                return quadrature_variance(
                    v, QuadratureSpec(phi_i=float(phi), phi_s=0.0, mu_i=ratio, mu_s=1.0)
                )

            target = optimal_phase_sum(blocks)
            argmin = golden_min(var, target - 1.5, target + 1.5, tol=1e-12)
            zeta = thermal.critical_points(p).zeta
            assert (math.pi - zeta) % (2 * math.pi) == pytest.approx(
                argmin % (2 * math.pi), abs=1e-6
            )

    def test_k_f_range_enforced(self):
        with pytest.raises(ValueError):
            thermal.critical_points(params(1.0, k_f=0.0))


class TestWeightRatio:
    def test_matched_populations_give_unity(self):
        assert thermal.weight_ratio(params(0.7, 0.4, 0.4, 0.9, 0.1)) == pytest.approx(
            1.0, abs=1e-14
        )

    def test_matches_general_optimizer(self):
        rng = np.random.default_rng(127)
        for _ in range(100):
            p = random_thermal_params(rng)
            if p.r < 1e-3:
                continue
            general = optimal_weight_ratio(thermal.covariance(p))
            assert thermal.weight_ratio(p) == pytest.approx(general, abs=1e-10)

    def test_reference_value_against_numeric_minimization(self):
        p = ref_params(1.0)
        blocks = thermal.covariance(p)
        v = build_covariance(blocks)
        phase = optimal_phase_sum(blocks)

        def var_of_log_ratio(lr):
            return quadrature_variance(
                v, QuadratureSpec(phi_i=phase, phi_s=0.0, mu_i=math.exp(lr), mu_s=1.0)
            )

        argmin = math.exp(golden_min(var_of_log_ratio, -3.0, 3.0, tol=1e-13))
        assert thermal.weight_ratio(p) == pytest.approx(argmin, abs=1e-8)

    def test_weights_equalize_at_large_squeezing(self):
        assert thermal.weight_ratio(ref_params(10.0)) == pytest.approx(1.0, abs=1e-6)

    def test_zero_squeezing_rejected(self):
        with pytest.raises(ValueError):
            thermal.weight_ratio(params(0.0, 0.3, 0.8))


class TestOptimizedSqueezing:
    def test_vacuum_input_sql(self):
        assert thermal.optimized_squeezing_closed(params(0.0)) == pytest.approx(1.0)

    def test_unsqueezed_thermal_value(self):
        got = thermal.optimized_squeezing_closed(params(0.0, 0.3, 0.8))
        assert got == pytest.approx(1.6, rel=1e-14)

    def test_boundary_returns_to_sql(self):
        cp = thermal.critical_points(ref_params(1.0))
        got = thermal.optimized_squeezing_closed(ref_params(cp.r_lcf_en))
        assert got == pytest.approx(1.0, abs=1e-8)

    def test_matches_general_optimizer(self):
        rng = np.random.default_rng(131)
        for _ in range(100):
            p = random_thermal_params(rng)
            general = optimized_squeezing(thermal.covariance(p))
            assert thermal.optimized_squeezing_closed(p) == pytest.approx(general, abs=1e-12)


class TestTmsvReduction:
    def test_all_outputs_match_tmsv_at_zero_population(self):
        rng = np.random.default_rng(137)
        for _ in range(50):
            r = float(rng.uniform(0.05, 2.0))
            k_f = float(rng.uniform(0.3, 0.999))
            tp = params(r, 0.0, 0.0, k_f)
            vp = tmsv.TmsvParams(r=r, overlap=OverlapFactors(k_f, 0.0))
            assert e_n_of(tp) == pytest.approx(
                log_negativity(tmsv.covariance(vp)).e_n, abs=1e-12
            )
            assert thermal.optimized_squeezing_closed(tp) == pytest.approx(
                tmsv.optimized_squeezing_closed(vp), abs=1e-12
            )
            assert thermal.weight_ratio(tp) == pytest.approx(
                tmsv.weight_ratio(vp), abs=1e-12
            )
            cp_t = thermal.critical_points(tp)
            cp_v = tmsv.critical_points(vp)
            assert cp_t.r_lcf_en == pytest.approx(0.0, abs=1e-7)
            assert cp_t.r_ucf_en == pytest.approx(cp_v.r_ucf_en, rel=1e-9)
            assert cp_t.r_max_en == pytest.approx(cp_v.r_max_en, rel=1e-9)
            assert cp_t.r_max_sq == pytest.approx(cp_v.r_max_sq, rel=1e-9)


# (n_i, n_s, K_f, L_f) on every branch of the landmark closed forms
LANDMARK_CASES = {
    "K_f zero": (0.3, 0.7, 0.0, 0.1),
    "K_f negative": (0.3, 0.7, -0.5, 0.1),
    "K_f in (0, 1)": (0.3, 0.7, 0.95, 0.1),
    "K_f one": (0.3, 0.7, 1.0, 0.0),
    "K_f past one": (0.3, 0.7, 1.05, 0.0),
    "den below its limit at K_f < 1": (0.3, 0.7, 1.0 - 1e-14, 0.0),
    "rad negative": (3.0, 2.5, 0.9, 0.1),
    "ch_u below one": (4.0, 0.5, 0.1, 0.0),
    "disc negative": (2.0, 0.0, 0.75, 0.56),
    # identical filters at vacuum input: t_u = 1, an unbounded r_ucf_sq
    "t at one": (0.0, 0.0, 1.0, 0.0),
}

FIELDS = ("r_lcf_en", "r_ucf_en", "r_max_en", "r_lcf_sq", "r_ucf_sq", "r_max_sq", "zeta")


def branch_values(n_i, n_s, kf, lf):
    """The quantities the landmark branches test, in plain floats."""
    a, b = n_i + n_s + 1.0, n_i - n_s
    q = a * a * kf * kf + b * b * lf * lf
    den = a * a * (1.0 - kf * kf) - b * b * lf * lf
    rad = a * a - den * (q - b * b + 1.0)
    ch_u = (a + math.sqrt(rad)) / den if rad >= 0.0 and den != 0.0 else math.nan
    disc = q - a * a + 1.0
    t_u = (math.sqrt(q) + math.sqrt(disc)) / (a + 1.0) if disc >= 0.0 else math.nan
    return dict(den=den, rad=rad, ch_u=ch_u, disc=disc, t_u=t_u)


class TestArrayLandmarks:
    """``landmarks`` over arrays against the scalar reference, point by point."""

    @staticmethod
    def reference(a, b, kf, lf):
        try:
            cp = thermal_landmarks_reference(a, b, kf, lf)
        except ValueError:
            return [math.nan] * 6 + [math.atan2(b * lf, a * kf)], False
        return [getattr(cp, f) for f in FIELDS], cp.has_window

    def check(self, n_i, n_s, kf, lf):
        a, b = n_i + n_s + 1.0, n_i - n_s
        cp = thermal.landmarks(a, b, kf, lf)
        got = np.column_stack([getattr(cp, f) for f in FIELDS])
        for i, point in enumerate(zip(a.tolist(), b.tolist(), kf.tolist(), lf.tolist())):
            want, has_window = self.reference(*point)
            assert cp.has_window[i] == has_window, point
            assert all(same_or_close(g, w, 1e-15) for g, w in zip(got[i].tolist(), want)), (
                point, got[i], want)

    def test_every_branch_in_one_call(self):
        self.check(*(np.array(col) for col in zip(*LANDMARK_CASES.values())))
        # the cases reach the branches they are named after
        v = {name: branch_values(*case) for name, case in LANDMARK_CASES.items()}
        kf = LANDMARK_CASES["den below its limit at K_f < 1"][2]
        assert kf < 1.0 and 0.0 < v["den below its limit at K_f < 1"]["den"] < 1e-12
        assert v["rad negative"]["den"] > 1e-12 and v["rad negative"]["rad"] < 0.0
        assert v["ch_u below one"]["rad"] >= 0.0 and v["ch_u below one"]["ch_u"] < 1.0
        assert v["disc negative"]["disc"] < 0.0 and v["disc negative"]["ch_u"] >= 1.0
        assert v["t at one"]["t_u"] == 1.0

    def test_random_points(self):
        rng = np.random.default_rng(43)
        n = 4000
        n_i, n_s = rng.uniform(0.0, 3.0, (2, n))
        kf = rng.uniform(-0.1, 1.1, n)
        kf[::7] = 1.0
        lf = rng.uniform(0.0, 1.0, n) * np.sqrt(np.maximum(1.0 - kf**2, 0.0))
        lf[::5] = 0.0
        self.check(n_i, n_s, kf, lf)

    def test_overflowing_occupation_is_an_error_for_its_row(self):
        a = np.array([2.0, 3.0, 1e200, 1e300])
        with pytest.raises(OverflowError) as error:
            thermal.landmarks(a, np.zeros(4), np.full(4, 0.9), np.zeros(4))
        assert error.value.row == 2

    def test_scalar_critical_points_are_python_floats(self):
        for n_i, n_s, kf, lf in LANDMARK_CASES.values():
            if kf > 1.0:
                continue  # no ThermalParams exists past the Cauchy-Schwarz bound
            p = params(1.0, n_i, n_s, kf, lf)
            try:
                cp = thermal_landmarks_reference(p.a, p.b, kf, lf)
            except ValueError as exc:
                with pytest.raises(ValueError) as error:
                    thermal.critical_points(p)
                assert str(error.value) == str(exc)
                continue
            got = thermal.critical_points(p)
            assert type(got.has_window) is bool and got.has_window == cp.has_window
            for name in FIELDS:
                assert type(getattr(got, name)) is float
                assert same_or_close(getattr(got, name), getattr(cp, name), 1e-15)
