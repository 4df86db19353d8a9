"""Bell function values, the multistart maximizer and its grid oracle."""

import math
from collections import Counter

import numpy as np
import pytest
from scipy.optimize import minimize

from filtered_tms import bell, thermal, tmsv
from filtered_tms.bell import (
    BellMaxConfig,
    DisplacementSettings,
    bell_grid_max,
    bell_max,
    bell_max_stack,
    bell_value,
    _BellEvaluator,
)
from filtered_tms.filters import OverlapFactors
from filtered_tms.gaussian import CovarianceMatrix, apply_loss, build_covariance, log_negativity
from oracles import bell_max_reference, random_thermal_params

ZERO = DisplacementSettings(*([0.0] * 8))


def tmsv_matrix(r, eta_i=1.0, eta_s=1.0, k_f=1.0):
    return build_covariance(
        tmsv.covariance(
            tmsv.TmsvParams(r=r, eta_i=eta_i, eta_s=eta_s, overlap=OverlapFactors(k_f, 0.0))
        )
    )


VACUUM = tmsv_matrix(0.0)


def restricted_bw_max(v, seed=0, restarts=40):
    """Max |B| over the origin-plus-displaced settings family (4 dof).

    The classic restricted search: both parties' first setting is pinned at
    the phase-space origin and only the second settings vary.
    """
    ev = _BellEvaluator(v)
    rng = np.random.default_rng(seed)
    best = -1.0
    for k in range(restarts):
        x0 = np.zeros(4) if k == 0 else rng.normal(scale=1.0, size=4)
        res = minimize(
            lambda y: -abs(
                float(ev.bell(np.array([[0.0, 0.0, y[0], y[1], 0.0, 0.0, y[2], y[3]]]))[0])
            ),
            x0,
            method="Nelder-Mead",
            options={"maxfev": 4000, "fatol": 1e-13, "xatol": 1e-11},
        )
        best = max(best, -res.fun)
    return best


class TestBellValue:
    def test_vacuum_at_origin_settings(self):
        assert bell_value(VACUUM, ZERO) == pytest.approx(2.0, abs=1e-14)

    def test_far_displacements_decay_to_zero(self):
        far = DisplacementSettings(*([30.0] * 8))
        assert abs(bell_value(VACUUM, far)) < 1e-300 or abs(bell_value(VACUUM, far)) < 1e-6

    def test_pure_tmsv_at_origin_settings(self):
        assert bell_value(tmsv_matrix(0.8), ZERO) == pytest.approx(2.0, abs=1e-12)

    def test_separable_states_respect_the_chsh_bound(self):
        rng = np.random.default_rng(7)
        product_thermal = build_covariance(
            thermal.covariance(thermal.ThermalParams(r=0.0, n_i=0.4, n_s=1.1))
        )
        settings = rng.uniform(-3.0, 3.0, size=(2000, 8))
        for v in (VACUUM, product_thermal):
            assert np.all(np.abs(bell_value(v, settings)) <= 2.0 + 1e-9)

    def test_a_settings_array_gives_each_row_its_value(self):
        v = tmsv_matrix(0.8, 0.9, 0.95, k_f=0.97)
        settings = np.random.default_rng(13).normal(size=(50, 8))
        values = bell_value(v, settings)
        assert values.shape == (50,)
        assert values.tolist() == [bell_value(v, DisplacementSettings(*row)) for row in settings]
        assert isinstance(bell_value(v, ZERO), float)

    @pytest.mark.parametrize("settings, message", [
        (np.zeros(8), "settings must be an (N, 8) array, got shape (8,)"),
        (np.zeros((3, 7)), "settings must be an (N, 8) array, got shape (3, 7)"),
        (np.full((2, 8), np.nan), "displacement settings must be finite"),
    ])
    def test_bad_settings_array_is_named(self, settings, message):
        with pytest.raises(ValueError) as err:
            bell_value(VACUUM, settings)
        assert str(err.value) == message

    def test_joint_point_assembly(self):
        s = DisplacementSettings(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        pts = s.joint_points()
        assert pts[0].tolist() == [1.0, 2.0, 5.0, 6.0]
        assert pts[1].tolist() == [1.0, 2.0, 7.0, 8.0]
        assert pts[2].tolist() == [3.0, 4.0, 5.0, 6.0]
        assert pts[3].tolist() == [3.0, 4.0, 7.0, 8.0]


class TestBellMax:
    def test_vacuum_maximum_is_two(self):
        res = bell_max(VACUUM, BellMaxConfig(seed=5))
        assert res.b_max == pytest.approx(2.0, abs=1e-6)
        assert res.converged
        grid_val, _ = bell_grid_max(VACUUM)
        assert grid_val <= 2.0 + 1e-9

    def test_optimizer_soundness_random_states(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            p = random_thermal_params(rng)
            v = build_covariance(thermal.covariance(p))
            res = bell_max(v, BellMaxConfig(n_restarts=32, seed=17))
            probes = rng.normal(scale=1.5, size=(100000, 8))
            probed = float(np.max(np.abs(bell_value(v, probes))))
            assert res.b_max >= probed - 1e-9

    def test_agrees_with_grid_oracle_on_tmsv(self):
        v = tmsv_matrix(0.6)
        res = bell_max(v, BellMaxConfig(seed=23))
        grid_val, _ = bell_grid_max(v, points_per_dim=5, levels=14)
        assert res.b_max >= grid_val - 1e-9
        assert res.b_max == pytest.approx(grid_val, abs=2e-3)

    def test_setting_relabeling_symmetry(self):
        v = tmsv_matrix(0.7, k_f=0.97)
        res = bell_max(v, BellMaxConfig(seed=29))
        s = res.settings
        swapped = DisplacementSettings(
            s.q_i1, s.p_i1, s.q_i0, s.p_i0, s.q_s0, s.p_s0, s.q_s1, s.p_s1
        )
        # swapping one party's settings permutes the CHSH corners; the
        # maximal |B| over settings is invariant, checked via re-optimization
        # seeded at the swapped optimum
        res_swapped = minimize(
            lambda y: -abs(bell_value(v, DisplacementSettings(*y))),
            swapped.as_array(),
            method="Nelder-Mead",
            options={"maxfev": 4000, "fatol": 1e-13, "xatol": 1e-11},
        )
        assert -res_swapped.fun == pytest.approx(res.b_max, abs=1e-6)

    def test_seed_determinism_is_bitwise(self):
        v = tmsv_matrix(0.9, 0.9, 0.98, 0.95)
        a = bell_max(v, BellMaxConfig(n_restarts=24, seed=31))
        b = bell_max(v, BellMaxConfig(n_restarts=24, seed=31))
        assert a.b_max == b.b_max
        assert a.settings == b.settings
        assert a.converged == b.converged

    def test_nonconvergence_is_reported_not_raised(self):
        v = tmsv_matrix(0.9)
        res = bell_max(v, BellMaxConfig(n_restarts=4, max_evals=60, seed=3))
        assert isinstance(res.converged, bool)

    def test_full_family_tmsv_scan(self):
        # the unrestricted eight-parameter maximum grows monotonically with
        # r and saturates near 2.3245; the classic origin-pinned family
        # saturates near 2.19 instead
        values = {}
        for r in (0.4, 0.8, 1.4, 2.0):
            values[r] = bell_max(tmsv_matrix(r), BellMaxConfig(seed=37)).b_max
        assert values[0.4] < values[0.8] < values[1.4] < values[2.0]
        assert values[2.0] == pytest.approx(2.3242, abs=2e-3)
        assert restricted_bw_max(tmsv_matrix(2.0), seed=41) == pytest.approx(2.19, abs=5e-3)

    def test_nonlocality_implies_entanglement_on_a_thermal_grid(self):
        for n_i in (0.0, 0.2, 0.6):
            for r in (0.2, 0.6, 1.0, 1.6):
                p = thermal.ThermalParams(
                    r=r, n_i=n_i, n_s=0.3, overlap=OverlapFactors(0.95, 0.095)
                )
                v = build_covariance(thermal.covariance(p))
                res = bell_max(v, BellMaxConfig(n_restarts=24, seed=43))
                if res.b_max > 2.0 + 1e-6:
                    assert log_negativity(v).e_n > 0.0

    def test_separable_lossy_state_stays_local(self):
        # beyond the entanglement cutoff the state is separable and the
        # maximum cannot exceed the local bound
        r = math.atanh(0.8) * 1.2
        v = tmsv_matrix(r, 0.85, 0.9, k_f=0.8)
        assert log_negativity(v).e_n == 0.0
        res = bell_max(v, BellMaxConfig(seed=47))
        assert res.b_max <= 2.0 + 1e-6

    def test_loss_shrinks_the_nonlocal_region(self):
        r = 0.8
        clean = bell_max(tmsv_matrix(r), BellMaxConfig(n_restarts=24, seed=53)).b_max
        lossy_v = apply_loss(tmsv_matrix(r), 0.6, 0.6)
        lossy = bell_max(lossy_v, BellMaxConfig(n_restarts=24, seed=53)).b_max
        assert lossy < clean


def mixed_states():
    """TMSV, thermal and lossy thermal states, two of each, as one stack."""
    rng = np.random.default_rng(61)
    mats = []
    for k in range(6):
        r, k_f = rng.uniform(0.2, 1.8), rng.uniform(0.85, 1.0)
        if k < 2:
            mats.append(tmsv_matrix(r, *rng.uniform(0.6, 1.0, size=2), k_f=k_f).entries)
            continue
        p = thermal.ThermalParams(r=r, n_i=rng.uniform(0.0, 1.0), n_s=rng.uniform(0.0, 1.0),
                                  overlap=OverlapFactors(k_f, 0.05 * (1.0 - k_f)))
        v = build_covariance(thermal.covariance(p))
        mats.append((apply_loss(v, *rng.uniform(0.6, 1.0, size=2)) if k >= 4 else v).entries)
    return CovarianceMatrix(np.array(mats))


# at 12 restarts and 900 evaluations, states 0 and 1 each have a restart that
# stalled 3e-6 to 7e-6 below the best, just outside the agreement band
BUDGETS = {"1 restart": (1, 2000), "5 restarts, 60 evals": (5, 60), "24 restarts": (24, 2000),
           "12 restarts, 900 evals": (12, 900)}
SEEDS = [3, 101, 7, 2**31 - 1, 0, 55]


@pytest.fixture(scope="module")
def reference_moves():
    """How often the reference searches of ``references`` took each move and
    each stop, summed over restarts and steps."""
    return Counter()


@pytest.fixture(scope="module")
def references(reference_moves):
    """The per-state reference search at every budget: {budget: [(b_max,
    settings, converged, evaluations, restarts_agreeing)]}."""
    v = mixed_states()
    return {name: [bell_max_reference(CovarianceMatrix(m), n_r, evals, seed=s,
                                      tally=reference_moves)
                   for m, s in zip(v.entries, SEEDS)]
            for name, (n_r, evals) in BUDGETS.items()}


@pytest.fixture(params=[4096, 24], ids=["one pass", "passes of 24 rows"])
def stack_rows(request, monkeypatch):
    """Restarts pass through the lockstep array at most _STACK_ROWS rows at
    a time; exercise both one pass and many small ones."""
    monkeypatch.setattr(bell, "_STACK_ROWS", request.param)


def same_as_reference(res, ref):
    b_max, settings, converged, evaluations, agreeing = ref
    return (np.float64(res.b_max).tobytes() == np.float64(b_max).tobytes()
            and res.settings.as_array().tobytes() == settings.tobytes()
            and res.converged is converged
            and (res.evaluations, res.restarts_agreeing) == (evaluations, agreeing))


class TestBellMaxStack:
    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_stack_is_bit_identical_to_the_per_state_search(self, budget, references,
                                                           stack_rows):
        n_r, evals = BUDGETS[budget]
        v = mixed_states()
        found = bell_max_stack(v, SEEDS, BellMaxConfig(n_r, evals))
        assert len(found) == len(SEEDS)
        for res, ref in zip(found, references[budget]):
            assert same_as_reference(res, ref)
            assert res.n_restarts_used == n_r

    @pytest.mark.parametrize("budget", sorted(BUDGETS))
    def test_one_matrix_is_bit_identical_to_the_per_state_search(self, budget, references):
        n_r, evals = BUDGETS[budget]
        for m, seed, ref in zip(mixed_states().entries, SEEDS, references[budget]):
            v = CovarianceMatrix(m)
            assert same_as_reference(bell_max(v, BellMaxConfig(n_r, evals, seed=seed)), ref)
            [alone] = bell_max_stack(v, [seed], BellMaxConfig(n_r, evals))
            assert same_as_reference(alone, ref)

    def test_the_pinned_cases_take_every_move_and_both_stops(self, references, reference_moves):
        # the bit-identity tests above guard every branch of the step only if
        # the reference cases they pin take each of them
        assert len(references) == len(BUDGETS)
        assert set(reference_moves) == {
            "expansion", "reflection", "outside contraction", "inside contraction", "shrink",
            "settled", "budget exhausted"}
        assert min(reference_moves.values()) >= 1

    def test_spread_is_within_f_tol_exactly_when_the_top_restart_settled(self):
        # with one restart, converged is whether that restart settled
        seen = set()
        for n_r, evals in ((1, 2000), (1, 60), (1, 300)):
            cfg = BellMaxConfig(n_r, evals)
            for res in bell_max_stack(mixed_states(), SEEDS, cfg):
                assert res.spread >= 0.0
                assert (res.spread <= cfg.f_tol) is res.converged
                seen.add(res.converged)
        assert seen == {True, False}

    def test_one_seed_per_matrix(self):
        with pytest.raises(ValueError, match="need one seed per matrix, got 1 for 6"):
            bell_max_stack(mixed_states(), [0])

    def test_bad_seed_is_rejected_before_any_restart_runs(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a restart ran")

        monkeypatch.setattr(bell, "_batched_nelder_mead", fail)
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            bell_max_stack(mixed_states(), [1, 2, 3, 4, 5, -1])


class TestBellMaxConfig:
    @pytest.mark.parametrize("fields, message", [
        ({"seed": -1}, "seed must be a non-negative integer, got -1"),
        ({"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
        ({"n_restarts": 8.0}, "n_restarts must be an integer, got 8.0"),
        ({"max_evals": "2000"}, "max_evals must be an integer, got '2000'"),
        ({"f_tol": -1e-12}, "f_tol must be finite and >= 0, got -1e-12"),
        ({"f_tol": math.nan}, "f_tol must be finite and >= 0, got nan"),
        ({"f_tol": math.inf}, "f_tol must be finite and >= 0, got inf"),
        ({"n_restarts": 0}, "n_restarts must be at least 1, got 0"),
        ({"max_evals": 49}, "max_evals must be at least 50, got 49"),
    ])
    def test_bad_field_is_named(self, fields, message):
        with pytest.raises(ValueError) as err:
            BellMaxConfig(**fields)
        assert str(err.value) == message

    def test_numpy_integers_and_zero_tolerance_are_accepted(self):
        cfg = BellMaxConfig(n_restarts=np.int64(2), max_evals=np.int32(60), f_tol=0.0,
                            seed=np.uint32(7))
        assert bell_max(VACUUM, cfg).n_restarts_used == 2
