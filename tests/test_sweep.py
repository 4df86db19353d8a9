"""Whole-grid sweep evaluation against per-point references: the spectral
oracle of each point's 4x4 matrix, the one-point case ``evaluate_point``,
the first failing point of a point-by-point loop, and the scalar model
blocks that the Bell optimizer receives."""

import math

import numpy as np
import pytest

from filtered_tms import bell, gaussian, sweep, thermal, tmsv
from filtered_tms.filters import FilterFamily, FilterSpec, OverlapFactors
from filtered_tms.sweep import (
    AxisSpec,
    ConfigError,
    SweepConfig,
    _point_seeds,
    _point_state,
    critical_columns,
    evaluate_point,
    run_sweep,
)
from oracles import (
    loss_product,
    nu_min_eigen,
    overlap_closed_form_reference,
    thermal_landmarks_reference,
    tmsv_landmarks_reference,
)

ALL = ("e_n", "s_q_opt", "purity", "zeta", "weight_ratio", "critical_points")

# mixed grids: an r = 0 row, a K_f = 1 column, thermal input with L_f != 0,
# lossy thermal input (all rows, and an eta axis mixing lossy and lossless
# rows) and a step-filter axis
GRIDS = {
    "tmsv_lossy": SweepConfig(
        "tmsv", ALL, {"eta_i": 0.9, "eta_s": 0.98},
        axis1=AxisSpec("k_f", 0.8, 1.0, 9), axis2=AxisSpec("r", 0.0, 3.0, 13)),
    "thermal_lf": SweepConfig(
        "thermal", ALL, {"n_i": 0.3, "n_s": 0.7, "l_f": 0.1},
        axis1=AxisSpec("k_f", 0.5, 0.99, 8), axis2=AxisSpec("r", 0.0, 3.0, 13)),
    "thermal_lossy": SweepConfig(
        "thermal", ALL[:5], {"n_i": 0.3, "n_s": 0.7, "l_f": 0.05, "eta_i": 0.9, "eta_s": 0.8},
        axis1=AxisSpec("k_f", 0.8, 0.99, 5), axis2=AxisSpec("r", 0.0, 2.5, 11)),
    "thermal_eta_axis": SweepConfig(
        "thermal", ALL[:5], {"n_i": 0.2, "n_s": 0.5, "k_f": 0.95},
        axis1=AxisSpec("eta_i", 0.5, 1.0, 6), axis2=AxisSpec("r", 0.0, 2.0, 9)),
    "step_filter": SweepConfig(
        "tmsv", ALL, {"omega_k": 1.0, "tau_i": 2.0, "tau_s": 2.0},
        axis1=AxisSpec("omega_l", -4.0, 6.0, 41), axis2=AxisSpec("r", 0.0, 2.0, 5),
        family="step"),
}


def grid_points(cfg):
    """(params dict, row) per sweep row, as a point-by-point loop sees them."""
    cols, rows = run_sweep(cfg)
    axes = [a.name for a in (cfg.axis1, cfg.axis2) if a is not None]
    for row in rows:
        yield {**cfg.fixed, **dict(zip(axes, row))}, dict(zip(cols, row))


def scalar_point(cfg, params):
    """Model params and blocks of one point through the scalar public API,
    with the overlap from the scalar reference."""
    get = lambda name, default: params.get(name, default)
    if cfg.family:
        fam = FilterFamily(cfg.family)
        ov = overlap_closed_form_reference(
            FilterSpec(fam, get("omega_k", 1.0), get("tau_i", 2.0)),
            FilterSpec(fam, get("omega_l", 1.0), get("tau_s", 2.0)))
    else:
        ov = OverlapFactors(get("k_f", 1.0), get("l_f", 0.0))
    eta_i, eta_s = get("eta_i", 1.0), get("eta_s", 1.0)
    if cfg.model == "tmsv":
        p = tmsv.TmsvParams(r=params["r"], eta_i=eta_i, eta_s=eta_s, overlap=ov)
        return p, tmsv.covariance(p)
    p = thermal.ThermalParams(r=params["r"], n_i=get("n_i", 0.0), n_s=get("n_s", 0.0), overlap=ov)
    blocks = thermal.covariance(p)
    if eta_i < 1.0 or eta_s < 1.0:
        v = gaussian.apply_loss(gaussian.build_covariance(blocks), eta_i, eta_s)
        blocks = v.blocks()
    return p, blocks


def or_nan(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return math.nan


def pattern(x: float) -> str:
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf") if math.isinf(x) else "finite"


class TestSpectralOracle:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_every_row_matches_the_exported_matrix(self, name):
        cfg = GRIDS[name]
        for params, row in grid_points(cfg):
            p, blocks = scalar_point(cfg, params)
            v = gaussian.build_covariance(blocks)
            want = {
                "e_n": max(0.0, -math.log(2.0 * nu_min_eigen(v))),
                "s_q_opt": float(np.linalg.eigvalsh(2.0 * v.entries)[0]),
                "purity": 1.0 / (4.0 * math.sqrt(np.linalg.det(v.entries))),
                "zeta": gaussian.squeezing_angle(blocks),
                "weight_ratio": or_nan(gaussian.optimal_weight_ratio, blocks),
            }
            if "critical_points" in cfg.outputs:
                args = ((p.overlap.k_f, p.eta_i, p.eta_s) if cfg.model == "tmsv" else
                        (p.a, p.b, p.overlap.k_f, p.overlap.l_f))
                find = (tmsv_landmarks_reference if cfg.model == "tmsv" else
                        thermal_landmarks_reference)
                cp = or_nan(find, *args)
                for c in critical_columns(cfg.model):
                    want[c] = getattr(cp, c) if not isinstance(cp, float) else math.nan
            for col, w in want.items():
                if col not in row:
                    continue
                got = row[col]
                assert pattern(got) == pattern(w), (name, params, col, got, w)
                if math.isfinite(w):
                    assert got == pytest.approx(w, rel=1e-9, abs=1e-12), (name, params, col)


@pytest.fixture(params=[4096, 5], ids=["one block", "blocks of 5 rows"])
def block_rows(request, monkeypatch):
    """Grids pass through the array code in blocks of rows; exercise both a
    single block and many small ones."""
    monkeypatch.setattr(sweep, "_BLOCK_ROWS", request.param)


class TestOnePointCase:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_rows_are_bit_equal_to_evaluate_point(self, name, block_rows):
        cfg = GRIDS[name]
        for params, row in grid_points(cfg):
            res = evaluate_point(cfg.model, params, cfg.outputs, family=cfg.family)
            assert res.keys() <= row.keys()
            for col, want in res.items():
                assert np.float64(row[col]).tobytes() == np.float64(want).tobytes(), (
                    name, params, col, row[col], want)

    def test_bell_rows_are_bit_equal_to_evaluate_point(self, block_rows):
        cfg = SweepConfig("thermal", ("bell_max", "e_n"), {"n_i": 0.3, "k_f": 0.95},
                          axis1=AxisSpec("r", 0.4, 1.2, 3), axis2=AxisSpec("eta_i", 0.8, 1.0, 2),
                          seed=11, bell_restarts=6)
        seeds = _point_seeds(11, 6)
        for i, (params, row) in enumerate(grid_points(cfg)):
            res = evaluate_point(cfg.model, params, cfg.outputs, seed=seeds[i], bell_restarts=6)
            assert res == {"bell_max": row["bell_max"], "e_n": row["e_n"]}


ERROR_CASES = {
    "k_f past one": (
        SweepConfig("tmsv", ("e_n",), {}, axis1=AxisSpec("r", 0.0, 1.0, 5),
                    axis2=AxisSpec("k_f", 0.9, 1.1, 11)),
        ConfigError, "overlap (1.02, 0.0) violates the Cauchy-Schwarz bound"),
    "tmsv eta_i below zero": (
        SweepConfig("tmsv", ("e_n", "purity"), {}, axis1=AxisSpec("eta_i", 1.0, -0.1, 12)),
        ConfigError, "eta_i must lie in [0, 1], got -0.1"),
    "thermal critical points with loss": (
        SweepConfig("thermal", ("e_n", "critical_points"), {"n_i": 0.2},
                    axis1=AxisSpec("eta_s", 1.0, 0.8, 5)),
        ConfigError, "critical_points for the thermal model are closed forms at unit "
                     "detection efficiency; drop the output or set eta_i = eta_s = 1"),
    # the first failing row fails an earlier check than a later row does
    "eta_s above one before k_f past one": (
        SweepConfig("tmsv", ("e_n", "purity"), {}, axis1=AxisSpec("eta_s", 1.4, 0.2, 7),
                    axis2=AxisSpec("k_f", 0.95, 1.05, 3)),
        ConfigError, "eta_s must lie in [0, 1], got 1.4"),
    # ... and a later check than a later row does
    "lossy critical points before Cauchy-Schwarz": (
        SweepConfig("thermal", ("e_n", "purity", "critical_points"), {"n_i": 0.3},
                    axis1=AxisSpec("eta_i", 1.0, 0.5, 6), axis2=AxisSpec("k_f", 0.98, 1.02, 3)),
        ConfigError, "critical_points for the thermal model are closed forms at unit "
                     "detection efficiency; drop the output or set eta_i = eta_s = 1"),
    "thermal eta_i above one": (
        SweepConfig("thermal", ("e_n",), {"r": 1.0}, axis1=AxisSpec("eta_i", 0.5, 1.5, 3)),
        ConfigError, "eta_i must lie in [0, 1], got 1.5"),
    "negative occupation before negative r": (
        SweepConfig("thermal", ("e_n",), {"n_s": 0.2}, axis1=AxisSpec("n_i", 0.5, -0.5, 5),
                    axis2=AxisSpec("r", 1.0, -1.0, 3)),
        ConfigError, "n_i must be finite and >= 0, got -0.25"),
    "cancellation at large squeezing": (
        SweepConfig("tmsv", ("e_n", "s_q_opt", "purity"), {}, axis1=AxisSpec("r", 0.0, 12.0, 13)),
        ValueError, "blocks assemble to a non-physical covariance matrix"),
    "overflow": (
        SweepConfig("thermal", ("e_n",), {}, axis1=AxisSpec("r", 300.0, 800.0, 6)),
        OverflowError, "(34, 'Numerical result out of range')"),
    "non-positive filter time": (
        SweepConfig("tmsv", ("e_n",), {"omega_k": 1.0}, axis1=AxisSpec("tau_s", 1.0, -1.0, 5),
                    family="step"),
        ValueError, "tau must be positive, got 0.0"),
}


class TestFirstFailingPoint:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_error_names_the_first_failing_point(self, case, block_rows):
        cfg, kind, message = ERROR_CASES[case]
        with pytest.raises(kind) as grid_error:
            run_sweep(cfg)
        assert type(grid_error.value) is kind
        assert str(grid_error.value) == message
        # the same error as a point-by-point loop in row order
        axes = [a for a in (cfg.axis1, cfg.axis2) if a is not None]
        values = [a.grid() for a in axes]
        points = ([(v1,) for v1 in values[0]] if len(axes) == 1 else
                  [(v1, v2) for v2 in values[1] for v1 in values[0]])
        for point in points:
            params = {**cfg.fixed, **{a.name: float(v) for a, v in zip(axes, point)}}
            try:
                evaluate_point(cfg.model, params, cfg.outputs, family=cfg.family)
            except Exception as exc:
                assert (type(exc), str(exc)) == (kind, message)
                break
        else:
            pytest.fail("no point fails on its own")


def reference_blocks(model, fixed, k_f, r):
    """(D_I, D_S, C11, C12) by the model formulas in scalar math, with the
    loss map as the 4x4 product E V E + (I - E^2)/2."""
    if model == "tmsv":
        ei, es = fixed["eta_i"], fixed["eta_s"]
        s2 = math.sinh(r) ** 2
        return [1.0 + 2.0 * ei * s2, 1.0 + 2.0 * es * s2,
                math.sqrt(ei * es) * k_f * math.sinh(2.0 * r), 0.0]
    a, b = fixed["n_i"] + fixed["n_s"] + 1.0, fixed["n_i"] - fixed["n_s"]
    ch, sh = math.cosh(2.0 * r), math.sinh(2.0 * r)
    blocks = [b + a * ch, -b + a * ch, a * k_f * sh, -b * 0.0 * sh]
    if "eta_i" not in fixed:
        return blocks
    m = loss_product(gaussian.CovarianceBlocks(*blocks), fixed["eta_i"], fixed["eta_s"])
    return [2.0 * m[0, 0], 2.0 * m[2, 2], 2.0 * m[0, 2], 2.0 * m[0, 3]]


class TestBellInputs:
    @pytest.mark.parametrize("model", ["tmsv", "thermal", "lossy_thermal"])
    def test_array_blocks_equal_scalar_blocks_bitwise(self, model):
        k, r = np.meshgrid(np.linspace(0.8, 1.0, 81), np.linspace(0.0, 3.0, 121))
        k, r = k.ravel(), r.ravel()
        fixed = {"tmsv": {"eta_i": 0.9, "eta_s": 0.98}, "thermal": {"n_i": 0.37, "n_s": 0.81},
                 "lossy_thermal": {"n_i": 0.37, "n_s": 0.81, "eta_i": 0.9, "eta_s": 0.8}}[model]
        kind = "tmsv" if model == "tmsv" else "thermal"
        grid = {"k_f": k, "r": r, **{n: np.full(k.size, v) for n, v in fixed.items()}}
        _, blocks, _, _ = _point_state(kind, grid, None)
        got = np.column_stack([blocks.d_i, blocks.d_s, blocks.c11, blocks.c12])
        cfg = SweepConfig(kind, ("e_n",), fixed)
        scalar = np.array([
            [b.d_i, b.d_s, b.c11, b.c12]
            for b in (scalar_point(cfg, {**fixed, "k_f": kf, "r": rr})[1]
                      for kf, rr in zip(k.tolist(), r.tolist()))
        ])
        reference = np.array([reference_blocks(kind, fixed, kf, rr)
                              for kf, rr in zip(k.tolist(), r.tolist())])
        assert got.tobytes() == scalar.tobytes()
        # signed zeros aside (C12 = +-0 assemble the same matrix)
        assert np.array_equal(got, reference)
        assert np.all((got == reference) & (np.signbit(got) == np.signbit(reference))
                      | (got == 0.0))

    def test_bell_sweep_row_equals_bell_max_at_its_seed(self):
        cfg = SweepConfig("tmsv", ("bell_max",), {"k_f": 0.97}, axis1=AxisSpec("r", 0.3, 1.5, 4),
                          seed=21, bell_restarts=8)
        seeds = _point_seeds(21, 4)
        for i, (params, row) in enumerate(grid_points(cfg)):
            _, blocks = scalar_point(cfg, params)
            res = bell.bell_max(gaussian.build_covariance(blocks),
                                bell.BellMaxConfig(n_restarts=8, seed=seeds[i]))
            assert np.float64(row["bell_max"]).tobytes() == np.float64(res.b_max).tobytes()

    def test_bell_points_get_their_grid_seeds(self, block_rows, monkeypatch):
        seen = []
        real = bell.bell_max_stack

        def spy(v, seeds, cfg):
            seen.extend(seeds)
            return real(v, seeds, cfg)

        monkeypatch.setattr(bell, "bell_max_stack", spy)
        run_sweep(SweepConfig("tmsv", ("bell_max",), {}, axis1=AxisSpec("r", 0.2, 1.4, 7),
                              seed=33, bell_restarts=1))
        assert seen == _point_seeds(33, 7)

    @pytest.mark.parametrize("stack_rows", [4096, 16, 1])
    def test_bell_rows_do_not_depend_on_the_restart_rows_per_pass(self, stack_rows,
                                                                  monkeypatch):
        cfg = SweepConfig("thermal", ("bell_max",), {"n_i": 0.2, "k_f": 0.97},
                          axis1=AxisSpec("r", 0.3, 1.5, 5), seed=8, bell_restarts=6)
        want = run_sweep(cfg)
        monkeypatch.setattr(bell, "_STACK_ROWS", stack_rows)
        assert np.array(run_sweep(cfg)[1]).tobytes() == np.array(want[1]).tobytes()


class TestBellRunsLast:
    def test_a_cheap_check_fails_before_the_optimizer_runs(self, block_rows, monkeypatch):
        calls = []
        real = bell.bell_max_stack

        def spy(v, seeds, cfg):
            calls.append(len(seeds))
            return real(v, seeds, cfg)

        monkeypatch.setattr(bell, "bell_max_stack", spy)
        cfg = SweepConfig("thermal", ("bell_max", "critical_points"), {"n_i": 0.2, "k_f": 0.95},
                          axis1=AxisSpec("eta_i", 1.0, 0.8, 20), bell_restarts=16)
        with pytest.raises(ConfigError, match="critical_points for the thermal model"):
            run_sweep(cfg)
        assert calls == []

    def test_point_outputs_keep_their_listed_order(self):
        res = evaluate_point("tmsv", {"r": 0.5}, ("bell_max", "e_n"), bell_restarts=2)
        assert list(res) == ["bell_max", "e_n"]


class TestFullLoss:
    @pytest.mark.parametrize("axis", ["eta_i", "eta_s"])
    def test_tmsv_efficiency_axis_ending_at_zero_sweeps(self, axis):
        cfg = SweepConfig("tmsv", ("e_n", "purity", "critical_points"), {"k_f": 0.95},
                          axis1=AxisSpec(axis, 1.0, 0.0, 5))
        columns, rows = run_sweep(cfg)
        last = dict(zip(columns, rows[-1]))
        assert last[axis] == 0.0
        # full loss on one side leaves a product state: no entanglement and
        # no window to bound
        assert last["e_n"] == 0.0
        assert all(math.isnan(last[c]) for c in critical_columns("tmsv"))
        assert all(dict(zip(columns, row))["e_n"] > 0.0 for row in rows[:-1])
