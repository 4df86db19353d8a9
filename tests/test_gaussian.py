"""Covariance assembly, entanglement measure, purity, Wigner, loss map and
the hybrid-quadrature optimizer, each against an independent route."""

import math

import numpy as np
import pytest

from filtered_tms import gaussian, thermal, tmsv
from filtered_tms.filters import OverlapFactors
from filtered_tms.gaussian import (
    CovarianceBlocks,
    CovarianceMatrix,
    apply_loss,
    build_covariance,
    log_negativity,
    optimal_weight_ratio,
    optimized_squeezing,
    purity,
    squeezing_angle,
)
from oracles import (
    QuadratureSpec,
    block_matrix,
    each_reference,
    loss_product,
    min_variance_numeric,
    nu_min_eigen,
    optimal_phase_sum,
    purity_det,
    quadrature_variance,
    random_thermal_params,
    random_tmsv_params,
    thermal_squeezing_angle,
    wigner,
)

VACUUM = CovarianceBlocks(1.0, 1.0, 0.0, 0.0)
# positive on the vacuum and symplectic floors, yet D_I D_S < C11^2 + C12^2
NOT_POSITIVE = (171.47297251559812, 1.2232526919428026, 13.547087488177969, 26.860624875854423)


def tmsv_blocks(r, eta_i=1.0, eta_s=1.0, k_f=1.0):
    return tmsv.covariance(
        tmsv.TmsvParams(r=r, eta_i=eta_i, eta_s=eta_s, overlap=OverlapFactors(k_f, 0.0))
    )


def random_blocks(rng) -> CovarianceBlocks:
    """Random physical blocks from either model, with or without loss."""
    if rng.uniform() < 0.5:
        blocks = tmsv.covariance(random_tmsv_params(rng))
    else:
        blocks = thermal.covariance(random_thermal_params(rng))
    if rng.uniform() < 0.3:
        v = apply_loss(
            build_covariance(blocks), float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.3, 1.0))
        )
        blocks = v.blocks()
    return blocks


class TestBuildCovariance:
    def test_vacuum_is_half_identity(self):
        v = build_covariance(VACUUM)
        assert np.allclose(v.entries, np.eye(4) / 2.0, atol=1e-15)

    def test_pure_tmsv_at_r_one(self):
        b = CovarianceBlocks(math.cosh(2.0), math.cosh(2.0), math.sinh(2.0), 0.0)
        v = build_covariance(b)
        assert np.linalg.det(v.entries) == pytest.approx(1.0 / 16.0, abs=1e-12)

    def test_filtered_tmsv_determinant(self):
        b = CovarianceBlocks(3.7622, 3.7622, 3.44552, 0.0)
        v = build_covariance(b)
        expected = (3.44552**2 - 3.7622 * 3.7622) ** 2 / 16.0
        assert np.linalg.det(v.entries) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(0.32562452280538473, rel=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CovarianceBlocks(math.nan, 1.0, 0.0, 0.0)

    def test_rejects_below_vacuum_floor(self):
        with pytest.raises(ValueError, match="vacuum floor"):
            build_covariance(CovarianceBlocks(0.9, 1.0, 0.0, 0.0))

    @pytest.mark.parametrize("side", ["d_i", "d_s"])
    def test_the_vacuum_floor_is_one_less_1e_10(self, side):
        # 1e-9 below one is below the floor; 1e-11 below one is rounding
        vacuum = {"d_i": 1.0, "d_s": 1.0, "c11": 0.0, "c12": 0.0}
        with pytest.raises(ValueError, match="below the vacuum floor"):
            gaussian.check_blocks(CovarianceBlocks(**{**vacuum, side: 1.0 - 1e-9}))
        gaussian.check_blocks(CovarianceBlocks(**{**vacuum, side: 1.0 - 1e-11}))

    def test_rejects_unphysical_correlations(self):
        with pytest.raises(ValueError):
            build_covariance(CovarianceBlocks(1.0, 1.0, 0.9, 0.0))

    def test_matrix_below_vacuum_floor_rejected(self):
        with pytest.raises(ValueError, match="vacuum floor"):
            CovarianceMatrix(0.05 * np.eye(4))

    def test_matrix_below_symplectic_floor_rejected(self):
        with pytest.raises(ValueError, match="non-physical covariance matrix"):
            CovarianceMatrix(block_matrix(1.0, 1.0, 0.9, 0.0))

    def test_matrix_not_positive_definite_rejected(self):
        assert np.linalg.eigvalsh(block_matrix(*NOT_POSITIVE))[0] < 0.0
        with pytest.raises(ValueError, match="positive definite"):
            CovarianceMatrix(block_matrix(*NOT_POSITIVE))
        with pytest.raises(ValueError, match="positive definite"):
            build_covariance(CovarianceBlocks(*NOT_POSITIVE))

    def test_stack_with_a_non_physical_matrix_is_rejected(self):
        stack = np.stack([np.eye(4) / 2.0, block_matrix(*NOT_POSITIVE), np.eye(4) / 2.0])
        with pytest.raises(ValueError, match="positive definite"):
            CovarianceMatrix(stack)
        blocks = CovarianceBlocks(*(np.array([v, x, v]) for v, x in zip(
            (1.0, 1.0, 0.0, 0.0), NOT_POSITIVE)))
        with pytest.raises(ValueError, match="positive definite"):
            build_covariance(blocks)

    def test_symmetric_state_at_large_squeezing_is_physical(self):
        # Sigma^2 - 4 det V is 0 in exact arithmetic and rounds to -3.7e-9,
        # half an ulp of Sigma^2 ~ 3e7
        b = tmsv.covariance(tmsv.TmsvParams(
            r=2.870307320319334, overlap=OverlapFactors(0.7259595423422445, 0.0)))
        v = build_covariance(b)
        assert optimized_squeezing(v.blocks()) / 2 == pytest.approx(nu_min_eigen(v), rel=1e-9)
        stack = build_covariance(CovarianceBlocks(*(np.full(3, x) for x in (
            b.d_i, b.d_s, b.c11, b.c12))))
        assert np.array_equal(stack.entries, np.broadcast_to(v.entries, (3, 4, 4)))
        assert nu_min_eigen(v, transposed=False) >= 0.5 - 1e-10

    def test_matrix_requires_block_structure(self):
        m = np.eye(4) / 2.0
        m[0, 1] = m[1, 0] = 0.2
        with pytest.raises(ValueError, match="block structure"):
            CovarianceMatrix(m)

    def test_matrix_is_immutable(self):
        v = build_covariance(VACUUM)
        with pytest.raises((ValueError, AttributeError)):
            v.entries[0, 0] = 3.0


class TestLogNegativity:
    def test_vacuum_separable(self):
        assert optimized_squeezing(VACUUM) / 2 == pytest.approx(0.5, abs=1e-15)
        assert log_negativity(VACUUM) == 0.0

    def test_ideal_tmsv_gives_two_r(self):
        assert log_negativity(tmsv_blocks(0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_entanglement_vanishes_at_filter_cutoff(self):
        r = math.atanh(0.95)
        assert log_negativity(tmsv_blocks(r, k_f=0.95)) == pytest.approx(0.0, abs=1e-8)

    def test_closed_form_matches_eigenvalue_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            v = build_covariance(random_blocks(rng))
            assert optimized_squeezing(v.blocks()) / 2 == pytest.approx(nu_min_eigen(v), abs=1e-10)

    def test_equals_minus_log_of_the_optimized_squeezing(self):
        # nu~- = s_q_opt / 2 for every block-structured state
        rng = np.random.default_rng(29)
        for _ in range(2000):
            blocks = apply_loss(thermal.covariance(random_thermal_params(rng)),
                                float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.05, 1.0)))
            e_n = log_negativity(blocks)
            s_q_opt = optimized_squeezing(blocks)
            assert e_n == max(0.0, -np.log(s_q_opt))
            want = max(0.0, -math.log(2.0 * nu_min_eigen(build_covariance(blocks))))
            assert e_n == pytest.approx(want, rel=0.0, abs=1e-10)

    def test_untransposed_eigenvalue_matches_the_oracle(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            blocks = random_blocks(rng)
            want = nu_min_eigen(build_covariance(blocks), transposed=False)
            assert gaussian._nu_minus(blocks) == pytest.approx(want, rel=1e-10)

    def test_physicality_invariant(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            v = build_covariance(random_blocks(rng))
            assert nu_min_eigen(v, transposed=False) >= 0.5 - 1e-10


class TestPurity:
    def test_vacuum_is_pure(self):
        assert purity(VACUUM) == pytest.approx(1.0, abs=1e-12)

    def test_identical_filter_tmsv_is_pure(self):
        assert purity(tmsv_blocks(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_filtered_tmsv_worked_value(self):
        got = purity(tmsv_blocks(1.0, k_f=0.95))
        exact = 1.0 / (1.0 + (1.0 - 0.95**2) * math.sinh(2.0) ** 2)
        assert got == pytest.approx(exact, rel=1e-12)
        assert got == pytest.approx(0.4381110429103579, rel=1e-10)

    def test_closed_form_matches_determinant_route(self):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            v = build_covariance(random_blocks(rng))
            closed = purity(v.blocks())
            assert abs(closed - purity_det(v)) <= 1e-10 * max(1.0, closed)

    def test_degenerate_matrix_rejected(self):
        v = build_covariance(VACUUM)
        broken = object.__new__(CovarianceMatrix)
        object.__setattr__(broken, "entries", v.entries * 1e-8)
        with pytest.raises(ValueError):
            purity(broken.blocks())


class TestWigner:
    def test_vacuum_origin(self):
        v = build_covariance(VACUUM)
        assert wigner(v, np.zeros(4)) == pytest.approx(4.0 / math.pi**2, abs=1e-14)

    def test_vacuum_displaced(self):
        v = build_covariance(VACUUM)
        got = wigner(v, np.array([1.0, 0.0, 0.0, 0.0]))
        assert got == pytest.approx(4.0 / math.pi**2 * math.exp(-1.0), abs=1e-12)
        assert got == pytest.approx(0.1490959, abs=1e-7)

    def test_pure_tmsv_origin(self):
        v = build_covariance(tmsv_blocks(0.5))
        assert wigner(v, np.zeros(4)) == pytest.approx(4.0 / math.pi**2, abs=1e-12)

    def test_normalization_integral(self):
        # this Wigner convention carries displaced-parity normalization: the
        # density integrates to 4, i.e. W/4 has unit mass.  Gauss-Legendre
        # quadrature over the (whitened) 8-sigma box; the batch density is
        # spot-checked against wigner() so the two routes stay tied together
        rng = np.random.default_rng(13)
        nodes, weights = np.polynomial.legendre.leggauss(24)
        ygrid = np.stack(np.meshgrid(*[8.0 * nodes] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
        ywts = np.einsum("i,j,k,l->ijkl", *[8.0 * weights] * 4).ravel()
        for _ in range(10):
            v = build_covariance(random_blocks(rng))
            chol = np.linalg.cholesky(v.entries)
            pts = ygrid @ chol.T
            vinv = np.linalg.inv(v.entries)
            pref = 1.0 / (math.pi**2 * math.sqrt(np.linalg.det(v.entries)))
            dens = pref * np.exp(-0.5 * np.einsum("ni,ij,nj->n", pts, vinv, pts))
            for k in rng.integers(0, len(pts), size=8):
                assert dens[k] == pytest.approx(wigner(v, pts[k]), rel=1e-12)
            total = float(np.sum(dens * ywts)) * float(np.linalg.det(chol))
            assert abs(total / 4.0 - 1.0) <= 1e-4

    def test_singular_matrix_rejected(self):
        v = build_covariance(VACUUM)
        broken = object.__new__(CovarianceMatrix)
        object.__setattr__(broken, "entries", np.zeros((4, 4)))
        with pytest.raises(ValueError):
            wigner(broken, np.zeros(4))


class TestApplyLoss:
    def test_unit_efficiency_is_identity(self):
        v = build_covariance(tmsv_blocks(0.7))
        assert np.allclose(apply_loss(v, 1.0, 1.0).entries, v.entries, atol=1e-15)

    def test_full_loss_gives_vacuum(self):
        v = build_covariance(tmsv_blocks(1.2))
        assert np.allclose(apply_loss(v, 0.0, 0.0).entries, np.eye(4) / 2.0, atol=1e-15)

    def test_commutes_with_filtering(self):
        # loss applied after identical-filter covariance equals the lossy
        # closed-form blocks, here and for random parameters below
        lossless = build_covariance(tmsv_blocks(1.0, k_f=0.95))
        lossy = apply_loss(lossless, 0.9, 0.98)
        direct = build_covariance(tmsv_blocks(1.0, eta_i=0.9, eta_s=0.98, k_f=0.95))
        assert np.max(np.abs(lossy.entries - direct.entries)) <= 1e-12

    def test_loss_map_equivalence_random(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            r = float(rng.uniform(0.05, 2.0))
            k_f = float(rng.uniform(0.2, 1.0))
            ei, es = rng.uniform(0.2, 1.0, size=2)
            lossless = build_covariance(tmsv_blocks(r, k_f=k_f))
            lossy = apply_loss(lossless, float(ei), float(es))
            direct = build_covariance(tmsv_blocks(r, float(ei), float(es), k_f))
            assert np.max(np.abs(lossy.entries - direct.entries)) <= 1e-12

    @pytest.mark.parametrize("etas", [(0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.37, 0.81)])
    def test_block_map_equals_the_matrix_product(self, etas):
        # bit for bit on the upper triangle, which holds the blocks (zeros
        # only up to sign: the product writes +0 where the block matrix holds
        # -C11 = -0); the product's lower triangle (e_s C) e_i may differ from
        # (e_i C) e_s in the last bit, while the block matrix is symmetric
        rng = np.random.default_rng(59)
        states = [tmsv_blocks(0.7, k_f=0.9), random_blocks(rng), random_blocks(rng),
                  thermal.covariance(thermal.ThermalParams(
                      r=0.6, n_i=0.8, n_s=0.2, overlap=OverlapFactors(0.9, 0.3)))]
        for b in states:
            want = loss_product(b, *etas)
            for got in (build_covariance(apply_loss(b, *etas)),
                        apply_loss(build_covariance(b), *etas)):
                assert np.array_equal(np.triu(got.entries), np.triu(want))
                assert np.array_equal(got.entries, got.entries.T)

    def test_block_map_over_a_stack(self):
        rng = np.random.default_rng(61)
        states = [random_blocks(rng) for _ in range(50)]
        eta_i, eta_s = rng.uniform(0.0, 1.0, size=(2, 50))
        eta_i[:5], eta_s[5:10] = 1.0, 0.0
        blocks = CovarianceBlocks(*(np.array([getattr(b, f) for b in states])
                                    for f in ("d_i", "d_s", "c11", "c12")))
        want = np.array([loss_product(b, ei, es)
                         for b, ei, es in zip(states, eta_i.tolist(), eta_s.tolist())])
        lossy = apply_loss(blocks, eta_i, eta_s)
        assert isinstance(lossy, CovarianceBlocks)
        for got in (build_covariance(lossy), apply_loss(build_covariance(blocks), eta_i, eta_s)):
            assert np.array_equal(np.triu(got.entries), np.triu(want))
            assert np.array_equal(got.entries, np.swapaxes(got.entries, -1, -2))

    def test_unit_efficiency_returns_the_same_blocks_bitwise(self):
        # n_i > n_s with L_f = 0 gives C12 = -0.0, which must survive
        rng = np.random.default_rng(67)
        states = [thermal.covariance(thermal.ThermalParams(r=0.9, n_i=0.7, n_s=0.1)),
                  tmsv_blocks(1.3, 0.8, 0.6, 0.95)] + [random_blocks(rng) for _ in range(20)]
        for b in states:
            got = apply_loss(b, 1.0, 1.0)
            for f in ("d_i", "d_s", "c11", "c12"):
                assert np.float64(getattr(got, f)).tobytes() == np.float64(
                    getattr(b, f)).tobytes(), (b, f)

    def test_rejects_out_of_range_efficiency(self):
        v = build_covariance(VACUUM)
        with pytest.raises(ValueError):
            apply_loss(v, 1.2, 1.0)
        with pytest.raises(ValueError):
            apply_loss(v, 0.5, -0.1)
        with pytest.raises(ValueError, match=r"eta_i must lie in \[0, 1\], got 1.5"):
            apply_loss(VACUUM, 1.5, 1.0)


class TestQuadratureVariance:
    def test_vacuum_reaches_sql_for_any_spec(self):
        v = build_covariance(VACUUM)
        rng = np.random.default_rng(2)
        for _ in range(50):
            q = QuadratureSpec(*rng.uniform(-3.0, 3.0, size=2), *rng.uniform(0.1, 10.0, size=2))
            assert quadrature_variance(v, q) == pytest.approx(1.0, abs=1e-12)

    def test_squeezed_and_antisqueezed_phases(self):
        v = build_covariance(tmsv_blocks(0.5))
        squeezed = quadrature_variance(v, QuadratureSpec(phi_i=math.pi / 2, phi_s=math.pi / 2))
        anti = quadrature_variance(v, QuadratureSpec(phi_i=0.0, phi_s=0.0))
        assert squeezed == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert anti == pytest.approx(math.exp(1.0), abs=1e-12)

    def test_block_formula_equivalence(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            b = random_blocks(rng)
            v = build_covariance(b)
            phi_i, phi_s = rng.uniform(-4.0, 4.0, size=2)
            mu_i, mu_s = rng.uniform(0.1, 5.0, size=2)
            got = quadrature_variance(v, QuadratureSpec(phi_i, phi_s, mu_i, mu_s))
            phase = phi_i + phi_s
            want = (
                mu_i**2 * b.d_i + mu_s**2 * b.d_s
                + 2.0 * mu_i * mu_s * (math.cos(phase) * b.c11 + math.sin(phase) * b.c12)
            ) / (mu_i**2 + mu_s**2)
            assert got == pytest.approx(want, rel=1e-12)

    def test_rescaling_invariance(self):
        v = build_covariance(tmsv_blocks(0.8, 0.7, 0.9, 0.9))
        base = quadrature_variance(v, QuadratureSpec(0.3, 1.1, 2.0, 0.7))
        for c in (1e-3, 1.0, 1e3):
            scaled = quadrature_variance(v, QuadratureSpec(0.3, 1.1, 2.0 * c, 0.7 * c))
            assert abs(scaled - base) <= 1e-12

    def test_rejects_non_positive_weights(self):
        with pytest.raises(ValueError):
            QuadratureSpec(0.0, 0.0, 0.0, 1.0)


class TestWeightOptimization:
    def test_symmetric_state_ratio_is_one(self):
        assert optimal_weight_ratio(tmsv_blocks(0.9)) == pytest.approx(1.0, abs=1e-14)
        b = thermal.covariance(thermal.ThermalParams(r=0.7, n_i=0.4, n_s=0.4))
        assert optimal_weight_ratio(b) == pytest.approx(1.0, abs=1e-14)

    def test_lossy_tmsv_worked_value(self):
        got = optimal_weight_ratio(tmsv_blocks(1.0, 0.6, 0.9, 0.95))
        assert got == pytest.approx(1.1769427192376822, rel=1e-10)

    def test_uncorrelated_state_rejected(self):
        with pytest.raises(ValueError, match="uncorrelated"):
            optimal_weight_ratio(VACUUM)

    def test_vacuum_optimized_variance_is_sql(self):
        assert optimized_squeezing(VACUUM) == pytest.approx(1.0, abs=1e-15)

    def test_ideal_tmsv_optimized_variance(self):
        got = optimized_squeezing(tmsv_blocks(0.5))
        assert got == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_minimizer_soundness_random_probes(self):
        rng = np.random.default_rng(43)
        b = tmsv_blocks(1.0, 0.9, 0.98, 0.95)
        v = build_covariance(b)
        best = optimized_squeezing(b)
        probes = rng.uniform(-4.0, 4.0, size=(10000, 2))
        weights = rng.uniform(0.05, 20.0, size=(10000, 2))
        for (phi_i, phi_s), (mu_i, mu_s) in zip(probes, weights):
            assert best <= quadrature_variance(
                v, QuadratureSpec(phi_i, phi_s, mu_i, mu_s)
            ) + 1e-12

    def test_analytic_argmin_attains_minimum(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            b = random_blocks(rng)
            if b.correlation_strength() < 1e-6:
                continue
            v = build_covariance(b)
            q = QuadratureSpec(
                phi_i=optimal_phase_sum(b), phi_s=0.0,
                mu_i=optimal_weight_ratio(b), mu_s=1.0,
            )
            assert quadrature_variance(v, q) == pytest.approx(
                optimized_squeezing(b), abs=1e-9
            )

    def test_matches_numeric_two_dim_minimizer(self):
        rng = np.random.default_rng(53)
        for _ in range(25):
            b = random_blocks(rng)
            if b.correlation_strength() < 1e-6:
                continue
            num, _, rho = min_variance_numeric(b, n_phi=512)
            assert optimized_squeezing(b) == pytest.approx(num, abs=1e-8)
            assert optimal_weight_ratio(b) == pytest.approx(rho, abs=1e-6)

    def test_squeezing_angle_conventions(self):
        assert squeezing_angle(tmsv_blocks(0.8)) == 0.0
        p = thermal.ThermalParams(r=0.5, n_i=0.3, n_s=0.8, overlap=OverlapFactors(0.95, 0.095))
        b = thermal.covariance(p)
        assert squeezing_angle(b) == pytest.approx(thermal_squeezing_angle(p), abs=1e-14)
        assert -math.pi / 2 < squeezing_angle(b) <= math.pi / 2

    @pytest.mark.parametrize("c12", [0.5, -0.5])
    def test_squeezing_angle_is_plus_a_quarter_turn_at_c11_zero(self, c12):
        # atan2 gives -pi/2 or +pi/2 here, and both ends fold to +pi/2
        assert squeezing_angle(CovarianceBlocks(2.0, 2.0, 0.0, c12)) == math.pi / 2


class TestEach:
    FORMULAS = {
        "sinh^2": lambda r: math.sinh(r) ** 2,
        "sinh 2r": lambda r: math.sinh(2.0 * r),
        "cosh 2r": lambda r: math.cosh(2.0 * r),
    }

    @pytest.mark.parametrize("name", sorted(FORMULAS))
    def test_bits_equal_the_per_element_reference(self, name):
        # 4000 draws from 300 values, with -0.0 beside 0.0: every value repeats
        rng = np.random.default_rng(17)
        pool = np.concatenate([rng.uniform(0.0, 20.0, 298), [0.0, -0.0]])
        x = rng.choice(pool, size=4000)
        fn = self.FORMULAS[name]
        for shape in ((4000,), (40, 100)):
            got, want = gaussian._each(fn, x.reshape(shape)), each_reference(fn, x.reshape(shape))
            assert got.shape == want.shape and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert gaussian._each(fn, 0.7) == each_reference(fn, 0.7)

    @pytest.mark.parametrize("x", [[0.1, 800.0, 400.0], [400.0, 3.0, 800.0, 400.0],
                                   [1.0, 2.0, 1.0, 900.0, 2.0, 400.0]])
    def test_an_error_is_the_reference_error(self, x):
        fn = self.FORMULAS["cosh 2r"]
        with pytest.raises(OverflowError) as want:
            each_reference(fn, np.array(x))
        with pytest.raises(OverflowError) as got:
            gaussian._each(fn, np.array(x))
        assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
