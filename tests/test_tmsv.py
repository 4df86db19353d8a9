"""TMSV closed forms: covariance blocks, critical points, weight ratio and
optimized squeezing, each checked against numerical extremization."""

import math

import numpy as np
import pytest

from filtered_tms import tmsv
from filtered_tms.filters import OverlapFactors
from filtered_tms.gaussian import (
    build_covariance,
    log_negativity,
    optimal_weight_ratio,
    optimized_squeezing,
)
from oracles import (
    bisect_root,
    golden_min,
    random_tmsv_params,
    same_or_close,
    tmsv_landmarks_reference,
)


def params(r, eta_i=1.0, eta_s=1.0, k_f=1.0, l_f=0.0):
    return tmsv.TmsvParams(r=r, eta_i=eta_i, eta_s=eta_s, overlap=OverlapFactors(k_f, l_f))


def e_n_of(r, eta_i=1.0, eta_s=1.0, k_f=1.0):
    return log_negativity(tmsv.covariance(params(r, eta_i, eta_s, k_f))).e_n


def nu_of(r, eta_i=1.0, eta_s=1.0, k_f=1.0):
    return log_negativity(tmsv.covariance(params(r, eta_i, eta_s, k_f))).nu_minus


def equal_weight_variance(r, eta_i, eta_s, k_f):
    b = tmsv.covariance(params(r, eta_i, eta_s, k_f))
    return 0.5 * (b.d_i + b.d_s) - math.hypot(b.c11, b.c12)


class TestCovariance:
    def test_vacuum_at_zero_squeezing(self):
        b = tmsv.covariance(params(0.0))
        assert (b.d_i, b.d_s, b.c11, b.c12) == (1.0, 1.0, 0.0, 0.0)

    def test_ideal_blocks_at_r_one(self):
        b = tmsv.covariance(params(1.0))
        assert b.d_i == pytest.approx(math.cosh(2.0), rel=1e-15)
        assert b.d_s == pytest.approx(math.cosh(2.0), rel=1e-15)
        assert b.c11 == pytest.approx(math.sinh(2.0), rel=1e-15)
        assert b.c12 == 0.0

    def test_lossy_filtered_blocks(self):
        b = tmsv.covariance(params(1.0, 0.9, 0.98, 0.95))
        s2 = math.sinh(1.0) ** 2
        assert b.d_i == pytest.approx(1.0 + 1.8 * s2, rel=1e-14)
        assert b.d_s == pytest.approx(1.0 + 1.96 * s2, rel=1e-14)
        assert b.c11 == pytest.approx(
            math.sqrt(0.882) * 0.95 * math.sinh(2.0), rel=1e-14
        )
        assert b.c12 == 0.0

    def test_l_f_has_no_effect(self):
        with_l = tmsv.covariance(params(0.8, 0.9, 0.7, 0.8, l_f=0.5))
        without = tmsv.covariance(params(0.8, 0.9, 0.7, 0.8, l_f=0.0))
        assert with_l == without

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            params(-0.1)
        with pytest.raises(ValueError):
            params(1.0, eta_i=-0.1)
        with pytest.raises(ValueError):
            params(1.0, eta_s=1.3)

    @pytest.mark.parametrize("etas", [(0.0, 0.7), (0.8, 0.0), (0.0, 0.0)])
    def test_full_loss_gives_a_product_state(self, etas):
        b = tmsv.covariance(params(1.2, *etas, k_f=0.9))
        assert (b.c11, b.c12) == (0.0, 0.0)
        assert log_negativity(b).e_n == 0.0


class TestCriticalPoints:
    def test_cutoff_and_maximum_for_equal_efficiencies(self):
        cp = tmsv.critical_points(params(1.0, k_f=0.95))
        assert cp.r_ucf_en == pytest.approx(math.atanh(0.95), rel=1e-14)
        assert cp.r_ucf_en == pytest.approx(1.83178, abs=1e-5)
        assert cp.r_max_en == pytest.approx(0.5 * math.atanh(0.95), rel=1e-12)

    def test_identical_filters_give_unbounded_landmarks(self):
        cp = tmsv.critical_points(params(1.0))
        assert math.isinf(cp.r_ucf_en)
        assert math.isinf(cp.r_max_sq)
        assert math.isinf(cp.r_ucf_sq)
        assert math.isinf(cp.r_max_en)

    def test_vanishing_overlap_rejected(self):
        with pytest.raises(ValueError):
            tmsv.critical_points(params(1.0, k_f=0.0))

    @pytest.mark.parametrize("k_f", [0.9, 1.0])
    def test_full_loss_has_no_landmarks(self, k_f):
        # a product state: no division by zero below K_f = 1, and no
        # unbounded window at K_f = 1
        with pytest.raises(ValueError, match="requires? eta_i eta_s > 0"):
            tmsv.critical_points(params(1.0, 0.0, 0.9, k_f=k_f))
        with pytest.raises(ValueError, match="requires? eta_i eta_s > 0"):
            tmsv.weight_ratio(params(1.0, 0.9, 0.0, k_f=k_f))

    def test_equal_weight_squeezing_extremum(self):
        cp = tmsv.critical_points(params(1.0, 0.9, 0.98, 0.95))
        assert cp.r_max_sq == pytest.approx(0.9115141328757781, rel=1e-10)
        assert cp.r_ucf_sq == pytest.approx(2.0 * cp.r_max_sq, rel=1e-15)
        argmin = golden_min(
            lambda r: equal_weight_variance(r, 0.9, 0.98, 0.95), 1e-4, 4.0
        )
        assert cp.r_max_sq == pytest.approx(argmin, abs=1e-6)

    def test_equal_weight_sql_crossing_at_twice_the_extremum(self):
        cp = tmsv.critical_points(params(1.0, 0.6, 0.9, 0.8))
        crossing = bisect_root(
            lambda r: equal_weight_variance(r, 0.6, 0.9, 0.8) - 1.0,
            cp.r_max_sq, 6.0,
        )
        assert cp.r_ucf_sq == pytest.approx(crossing, abs=1e-8)

    def test_entanglement_maximum_against_golden_section(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            p = random_tmsv_params(rng)
            cp = tmsv.critical_points(p)
            argmax = golden_min(
                lambda r: -e_n_of(r, p.eta_i, p.eta_s, p.overlap.k_f),
                1e-5, cp.r_ucf_en * (1.0 - 1e-9),
            )
            assert abs(cp.r_max_en - argmax) <= 1e-5

    def test_optimized_variance_shares_the_entanglement_maximum(self):
        p = params(1.0, 0.9, 0.98, 0.95)
        cp = tmsv.critical_points(p)
        argmin = golden_min(
            lambda r: tmsv.optimized_squeezing_closed(
                params(r, 0.9, 0.98, 0.95)
            ),
            1e-4, 2.0 * cp.r_ucf_en,
        )
        assert cp.r_max_en == pytest.approx(argmin, abs=1e-6)

    def test_invariants_between_landmarks(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            p = random_tmsv_params(rng)
            cp = tmsv.critical_points(p)
            assert 0.0 < cp.r_max_en < cp.r_ucf_en
            assert cp.r_ucf_sq == pytest.approx(2.0 * cp.r_max_sq, rel=1e-14)
            eq = tmsv.TmsvParams(p.r, p.eta_i, p.eta_i, p.overlap)
            cp_eq = tmsv.critical_points(eq)
            assert cp_eq.r_ucf_en == pytest.approx(cp_eq.r_ucf_sq, rel=1e-12)
            assert cp_eq.r_max_en == pytest.approx(cp_eq.r_max_sq, rel=1e-12)


class TestEntanglementProfile:
    def test_bell_shape_is_unimodal(self):
        for k_f in (0.5, 0.8, 0.95):
            cp = tmsv.critical_points(params(1.0, 0.9, 0.98, k_f))
            rs = np.linspace(0.0, 1.2 * cp.r_ucf_en, 400)
            en = np.array([e_n_of(r, 0.9, 0.98, k_f) for r in rs])
            k = int(np.argmax(en))
            rising = np.diff(en[: k + 1])
            falling = np.diff(en[k:])
            assert np.all(rising >= -1e-9)
            assert np.all(falling <= 1e-9)

    def test_cutoff_exactness(self):
        for k_f in (0.5, 0.8, 0.95):
            r_ucf = math.atanh(k_f)
            assert e_n_of(r_ucf * (1.0 - 1e-6), k_f=k_f) > 0.0
            assert e_n_of(r_ucf * (1.0 + 1e-6), k_f=k_f) == 0.0

    def test_cutoff_is_efficiency_independent(self):
        for k_f in (0.5, 0.8, 0.95):
            roots = []
            for eta_i in (0.6, 0.9, 1.0):
                for eta_s in (0.6, 0.9, 1.0):
                    roots.append(
                        bisect_root(
                            lambda r: 0.5 - nu_of(r, eta_i, eta_s, k_f),
                            0.5 * math.atanh(k_f), 5.0 * math.atanh(k_f),
                            tol=1e-12,
                        )
                    )
            assert max(roots) - min(roots) <= 1e-9
            assert roots[0] == pytest.approx(math.atanh(k_f), abs=1e-9)

    def test_entanglement_decreases_with_loss(self):
        rs = np.linspace(0.1, 1.5, 8)
        etas = (1.0, 0.9, 0.7, 0.5)
        for r in rs:
            vals = [e_n_of(r, eta, 0.95, 0.9) for eta in etas]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            vals = [e_n_of(r, 0.9, eta, 0.9) for eta in etas]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))

    def test_squeezing_and_entanglement_share_the_boundary(self):
        rng = np.random.default_rng(71)
        for _ in range(20):
            p = random_tmsv_params(rng)
            cp = tmsv.critical_points(p)
            for r in np.linspace(1e-3, 1.5 * cp.r_ucf_en, 60):
                en = e_n_of(r, p.eta_i, p.eta_s, p.overlap.k_f)
                sq = tmsv.optimized_squeezing_closed(
                    params(r, p.eta_i, p.eta_s, p.overlap.k_f)
                )
                if en > 1e-9:
                    assert sq < 1.0
                elif en == 0.0 and abs(r - cp.r_ucf_en) > 1e-6:
                    assert sq >= 1.0 - 1e-9


class TestWeightRatio:
    def test_symmetric_efficiencies_give_unity(self):
        for r in (0.2, 0.7, 1.4):
            assert tmsv.weight_ratio(params(r, 0.8, 0.8, 0.9)) == pytest.approx(1.0, abs=1e-14)

    def test_worked_value(self):
        assert tmsv.weight_ratio(params(1.0, 0.6, 0.9, 0.95)) == pytest.approx(
            1.1769427192376822, rel=1e-10
        )

    def test_cutoff_ratio_is_efficiency_root(self):
        r_ucf = math.atanh(0.95)
        got = tmsv.weight_ratio(params(r_ucf, 0.9, 0.98, 0.95))
        assert got == pytest.approx(math.sqrt(0.98 / 0.9), abs=1e-12)

    def test_matches_general_optimizer(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            p = random_tmsv_params(rng)
            general = optimal_weight_ratio(tmsv.covariance(p))
            assert tmsv.weight_ratio(p) == pytest.approx(general, abs=1e-10)

    def test_zero_squeezing_rejected(self):
        with pytest.raises(ValueError):
            tmsv.weight_ratio(params(0.0))


class TestOptimizedSqueezing:
    def test_sql_at_zero_squeezing(self):
        assert tmsv.optimized_squeezing_closed(params(0.0)) == 1.0

    def test_ideal_tmsv_value(self):
        got = tmsv.optimized_squeezing_closed(params(0.5))
        assert got == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_boundary_returns_to_sql(self):
        got = tmsv.optimized_squeezing_closed(params(math.atanh(0.95), k_f=0.95))
        assert got == pytest.approx(1.0, abs=1e-9)

    def test_matches_general_optimizer(self):
        rng = np.random.default_rng(79)
        for _ in range(100):
            p = random_tmsv_params(rng)
            general = optimized_squeezing(tmsv.covariance(p))
            assert tmsv.optimized_squeezing_closed(p) == pytest.approx(general, abs=1e-12)

    def test_blocks_stay_physical_across_parameters(self):
        rng = np.random.default_rng(83)
        for _ in range(200):
            build_covariance(tmsv.covariance(random_tmsv_params(rng)))


# (K_f, eta_i, eta_s) on every branch of the landmark closed forms
LANDMARK_CASES = {
    "K_f zero": (0.0, 0.9, 0.8),
    "K_f negative": (-0.3, 1.0, 1.0),
    "K_f in (0, 1)": (0.95, 0.9, 0.98),
    "K_f in (0, 1), unequal efficiencies": (0.6, 0.3, 0.9),
    "K_f one": (1.0, 0.9, 0.98),
    "K_f past one": (1.02, 1.0, 1.0),
    "full idler loss": (0.9, 0.0, 0.8),
    "full signal loss at K_f one": (1.0, 0.7, 0.0),
    "equal efficiencies at K_f one": (1.0, 0.6, 0.6),
    # t rounds to 1 one ulp below K_f = 1, so r_max_en is unbounded
    "t at one": (float(np.nextafter(1.0, 0.0)), 1.0, 1.0),
}


class TestArrayLandmarks:
    """``landmarks`` over arrays against the scalar reference, point by point."""

    @staticmethod
    def reference(kf, ei, es):
        try:
            cp = tmsv_landmarks_reference(kf, ei, es)
        except ValueError:
            return [math.nan] * 4
        return [cp.r_ucf_en, cp.r_max_en, cp.r_max_sq, cp.r_ucf_sq]

    def check(self, kf, ei, es):
        cp = tmsv.landmarks(kf, ei, es)
        got = np.column_stack([cp.r_ucf_en, cp.r_max_en, cp.r_max_sq, cp.r_ucf_sq])
        for point, row in zip(zip(kf, ei, es), got.tolist()):
            want = self.reference(*point)
            assert all(same_or_close(g, w, 1e-15) for g, w in zip(row, want)), (point, row, want)

    def test_every_branch_in_one_call(self):
        kf, ei, es = (np.array(col) for col in zip(*LANDMARK_CASES.values()))
        self.check(kf, ei, es)
        # the cases reach the branches they are named after
        cp = tmsv.landmarks(kf, ei, es)
        t_at_one = list(LANDMARK_CASES).index("t at one")
        assert kf[t_at_one] < 1.0 and math.isinf(cp.r_max_en[t_at_one])

    def test_random_points(self):
        rng = np.random.default_rng(41)
        n = 4000
        kf = rng.uniform(-0.1, 1.1, n)
        kf[::7] = 1.0
        ei, es = rng.uniform(0.0, 1.0, (2, n))
        ei[::11], es[::13] = 0.0, ei[::13]
        self.check(kf, ei, es)

    def test_scalar_critical_points_are_python_floats(self):
        for kf, ei, es in LANDMARK_CASES.values():
            if kf > 1.0:
                continue  # no TmsvParams exists past the Cauchy-Schwarz bound
            p = params(1.0, ei, es, kf)
            try:
                cp = tmsv_landmarks_reference(kf, ei, es)
            except ValueError as exc:
                with pytest.raises(ValueError) as error:
                    tmsv.critical_points(p)
                assert str(error.value) == str(exc)
                continue
            got = tmsv.critical_points(p)
            for name in ("r_ucf_en", "r_max_en", "r_max_sq", "r_ucf_sq"):
                assert type(getattr(got, name)) is float
                assert same_or_close(getattr(got, name), getattr(cp, name), 1e-15)
