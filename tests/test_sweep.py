"""Whole-grid sweep evaluation against per-point references: the spectral
oracle of each point's 4x4 matrix, the one-point case (a request without
axes), the first failing point of a point-by-point loop, and the scalar
model blocks that the Bell optimizer receives."""

import functools
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from filtered_tms import bell, cli, gaussian, sweep, thermal, tmsv
from filtered_tms.filters import OverlapFactors
from filtered_tms.sweep import (
    CRITICAL_COLUMNS,
    FAMILIES,
    AxisSpec,
    SweepConfig,
    _point_seeds,
    point_state,
    run_sweep,
)
from oracles import (
    bell_max_reference,
    csv_text_reference,
    landmark_mismatches,
    landmarks_by_search,
    landmarks_mpmath,
    loss_product,
    nu_min_eigen,
    overlap_mpmath,
    search_mismatches,
)

ALL = ("e_n", "s_q_opt", "purity", "zeta", "weight_ratio", "critical_points")

# mixed grids: an r = 0 row, a K_f = 1 column, thermal input with L_f != 0,
# lossy thermal input (all rows, and an eta axis mixing lossy and lossless
# rows), a step-filter axis and a step idler beside an exponential signal
GRIDS = {
    "tmsv_lossy": SweepConfig(
        "tmsv", ALL, {"eta_i": 0.9, "eta_s": 0.98},
        axis1=AxisSpec("k_f", 0.8, 1.0, 9), axis2=AxisSpec("r", 0.0, 3.0, 13)),
    "thermal_lf": SweepConfig(
        "thermal", ALL, {"n_i": 0.3, "n_s": 0.7, "l_f": 0.1},
        axis1=AxisSpec("k_f", 0.5, 0.99, 8), axis2=AxisSpec("r", 0.0, 3.0, 13)),
    "thermal_lossy": SweepConfig(
        "thermal", ALL, {"n_i": 0.3, "n_s": 0.7, "l_f": 0.05, "eta_i": 0.9, "eta_s": 0.8},
        axis1=AxisSpec("k_f", 0.8, 0.99, 5), axis2=AxisSpec("r", 0.0, 2.5, 11)),
    "thermal_eta_axis": SweepConfig(
        "thermal", ALL[:5], {"n_i": 0.2, "n_s": 0.5, "k_f": 0.95},
        axis1=AxisSpec("eta_i", 0.5, 1.0, 6), axis2=AxisSpec("r", 0.0, 2.0, 9)),
    "step_filter": SweepConfig(
        "tmsv", ALL, {"omega_k": 1.0, "tau_i": 2.0, "tau_s": 2.0},
        axis1=AxisSpec("omega_l", -4.0, 6.0, 41), axis2=AxisSpec("r", 0.0, 2.0, 5),
        families=("step", "step")),
    "mixed_filter": SweepConfig(
        "tmsv", ALL + ("k_f", "l_f"), {"r": 0.8, "omega_k": 1.0, "tau_i": 2.0, "eta_s": 0.9},
        axis1=AxisSpec("omega_l", -4.0, 6.0, 21), axis2=AxisSpec("tau_s", 0.5, 4.0, 4),
        families=("step", "exponential")),
}


def grid_points(cfg):
    """(params dict, row) per sweep row, as a point-by-point loop sees them."""
    cols, rows, _, _ = run_sweep(cfg)
    axes = [a.name for a in (cfg.axis1, cfg.axis2) if a is not None]
    for row in rows:
        yield {**cfg.fixed, **dict(zip(axes, row))}, dict(zip(cols, row))


def point_outputs(cfg):
    """The outputs of a request without axes, by column name."""
    columns, table, _, _ = run_sweep(cfg)
    return dict(zip(columns, table[0].tolist()))


def scalar_point(cfg, params):
    """Model params and blocks of one point through the scalar public API,
    with the overlap integral rounded from 50 digits."""
    get = lambda name, default: params.get(name, default)
    if cfg.families != (None, None):
        fam_i, fam_s = (FAMILIES[name] for name in cfg.families)
        ov = overlap_mpmath(fam_i(get("omega_k", 1.0), get("tau_i", 2.0)),
                            fam_s(get("omega_l", 1.0), get("tau_s", 2.0)))
        ov = OverlapFactors(float(ov.real), float(ov.imag))
    else:
        ov = OverlapFactors(get("k_f", 1.0), get("l_f", 0.0))
    eta_i, eta_s = get("eta_i", 1.0), get("eta_s", 1.0)
    if cfg.model == "tmsv":
        p = tmsv.TmsvParams(r=params["r"], eta_i=eta_i, eta_s=eta_s, overlap=ov)
        return p, tmsv.covariance(p)
    p = thermal.ThermalParams(r=params["r"], n_i=get("n_i", 0.0), n_s=get("n_s", 0.0),
                              overlap=ov, eta_i=eta_i, eta_s=eta_s)
    return p, thermal.covariance(p)


def or_nan(fn, *args):
    try:
        return fn(*args)
    except ValueError:
        return math.nan


def pattern(x: float) -> str:
    return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf") if math.isinf(x) else "finite"


# once per state: a grid's rows share a few
_search = functools.cache(landmarks_by_search)
_landmarks = functools.cache(landmarks_mpmath)


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
                "k_f": p.overlap.k_f,
                "l_f": p.overlap.l_f,
            }
            for col, w in want.items():
                if col not in row:
                    continue
                got = row[col]
                assert pattern(got) == pattern(w), (name, params, col, got, w)
                if math.isfinite(w):
                    assert got == pytest.approx(w, rel=1e-9, abs=1e-12), (name, params, col)
            if "critical_points" not in cfg.outputs:
                continue
            state = p.n_i, p.n_s, p.overlap.k_f, p.overlap.l_f, p.eta_i, p.eta_s
            assert landmark_mismatches(row, _landmarks(*state)) == [], (name, params)
            if cfg.model == "thermal" and (p.eta_i, p.eta_s) != (1.0, 1.0):
                assert search_mismatches(row, _search(*state)) == [], (name, params)


class TestOnePointCase:
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_rows_are_bit_equal_to_one_point_evaluations(self, name):
        cfg = GRIDS[name]
        for params, row in grid_points(cfg):
            res = point_outputs(replace(cfg, fixed=params, axis1=None, axis2=None))
            assert res.keys() <= row.keys()
            for col, want in res.items():
                assert np.float64(row[col]).tobytes() == np.float64(want).tobytes(), (
                    name, params, col, row[col], want)

    def test_bell_rows_are_bit_equal_to_one_point_evaluations(self):
        cfg = SweepConfig("thermal", ("bell_max", "e_n"), {"n_i": 0.3, "k_f": 0.95},
                          axis1=AxisSpec("r", 0.4, 1.2, 3), axis2=AxisSpec("eta_i", 0.8, 1.0, 2),
                          seed=11, bell_restarts=6)
        seeds = _point_seeds(11, 6)
        for i, (params, row) in enumerate(grid_points(cfg)):
            res = point_outputs(replace(cfg, fixed=params, axis1=None, axis2=None,
                                        seed=seeds[i]))
            assert res == {"bell_max": row["bell_max"], "e_n": row["e_n"]}

    @pytest.mark.parametrize("model, fixed, family", [
        ("tmsv", {}, None),
        ("thermal", {"n_i": 0.3, "n_s": 0.7, "l_f": 0.1, "eta_s": 0.8}, None),
        ("tmsv", {"omega_k": 1.0, "tau_i": 2.0, "tau_s": 3.0}, "step"),
        ("thermal", {"n_i": 0.2, "omega_k": 0.5, "tau_i": 1.5}, "exponential"),
    ], ids=["defaults", "thermal", "step filters", "exponential filters"])
    def test_a_request_without_axes_is_a_one_by_one_grid(self, model, fixed, family):
        axis1 = AxisSpec("omega_l", 0.7, 0.7, 1) if family else AxisSpec("k_f", 0.9, 0.9, 1)
        point = SweepConfig(model, ALL, {**fixed, "r": 0.8, axis1.name: 0.7 if family else 0.9},
                            families=(family, family))
        grid = SweepConfig(model, ALL, fixed, axis1=axis1, axis2=AxisSpec("r", 0.8, 0.8, 1),
                           families=(family, family))
        p_cols, p_table, p_blocks, p_searches = run_sweep(point)
        g_cols, g_table, g_blocks, g_searches = run_sweep(grid)
        assert g_cols == [axis1.name, "r"] + p_cols
        assert p_table.shape == (1, len(p_cols))
        assert p_table.tobytes() == g_table[:, 2:].tobytes()
        for name in ("d_i", "d_s", "c11", "c12"):
            assert getattr(p_blocks, name).tobytes() == getattr(g_blocks, name).tobytes()
        assert p_searches is g_searches is None

    def test_a_point_bell_search_is_seeded_by_the_request(self):
        cfg = SweepConfig("tmsv", ("bell_max",), {"r": 0.7}, seed=12, bell_restarts=4)
        _, table, blocks, (search,) = run_sweep(cfg)
        v = gaussian.build_covariance(gaussian.CovarianceBlocks(
            *(float(getattr(blocks, n)[0]) for n in ("d_i", "d_s", "c11", "c12"))))
        want = bell.bell_max(v, bell.BellMaxConfig(n_restarts=4, seed=12))
        assert search == want
        assert table[0, 0] == want.b_max

ERROR_CASES = {
    "k_f past one": (
        SweepConfig("tmsv", ("e_n",), {}, axis1=AxisSpec("r", 0.0, 1.0, 5),
                    axis2=AxisSpec("k_f", 0.9, 1.1, 11)),
        ValueError, "overlap (1.02, 0.0) violates the Cauchy-Schwarz bound"),
    "tmsv eta_i below zero": (
        SweepConfig("tmsv", ("e_n", "purity"), {}, axis1=AxisSpec("eta_i", 1.0, -0.1, 12)),
        ValueError, "eta_i must lie in [0, 1], got -0.1"),
    # the first failing row fails an earlier check than a later row does
    "eta_s above one before k_f past one": (
        SweepConfig("tmsv", ("e_n", "purity"), {}, axis1=AxisSpec("eta_s", 1.4, 0.2, 7),
                    axis2=AxisSpec("k_f", 0.95, 1.05, 3)),
        ValueError, "eta_s must lie in [0, 1], got 1.4"),
    "thermal eta_i above one": (
        SweepConfig("thermal", ("e_n",), {"r": 1.0}, axis1=AxisSpec("eta_i", 0.5, 1.5, 3)),
        ValueError, "eta_i must lie in [0, 1], got 1.5"),
    "negative occupation before negative r": (
        SweepConfig("thermal", ("e_n",), {"n_s": 0.2}, axis1=AxisSpec("n_i", 0.5, -0.5, 5),
                    axis2=AxisSpec("r", 1.0, -1.0, 3)),
        ValueError, "n_i must be finite and >= 0, got -0.25"),
    "overflow": (
        SweepConfig("thermal", ("e_n",), {}, axis1=AxisSpec("r", 300.0, 800.0, 6)),
        OverflowError, "(34, 'Numerical result out of range')"),
    # sinh^4 r, in D_x, passes the float range near r = 178
    "tmsv overflow": (
        SweepConfig("tmsv", ("zeta",), {"k_f": 0.9}, axis1=AxisSpec("r", 1.0, 200.0, 3)),
        OverflowError, "(34, 'Numerical result out of range')"),
    "non-positive filter time": (
        SweepConfig("tmsv", ("e_n",), {"omega_k": 1.0}, axis1=AxisSpec("tau_s", 1.0, -1.0, 5),
                    families=("step", "step")),
        ValueError, "tau must be positive, got 0.0"),
}


class TestFirstFailingPoint:
    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_error_names_the_first_failing_point(self, case):
        cfg, kind, message = ERROR_CASES[case]
        with pytest.raises(kind) as grid_error:
            run_sweep(cfg)
        assert type(grid_error.value) is kind
        # the error of a point-by-point loop in row order, named by its row
        # and axis values
        axes = [a for a in (cfg.axis1, cfg.axis2) if a is not None]
        values = [a.grid() for a in axes]
        points = ([(v1,) for v1 in values[0]] if len(axes) == 1 else
                  [(v1, v2) for v2 in values[1] for v1 in values[0]])
        for row, point in enumerate(points):
            params = {**cfg.fixed, **{a.name: float(v) for a, v in zip(axes, point)}}
            try:
                run_sweep(replace(cfg, fixed=params, axis1=None, axis2=None))
            except Exception as exc:
                assert (type(exc), str(exc)) == (kind, message)
                at = ", ".join(f"{a.name}={float(v)!r}" for a, v in zip(axes, point))
                assert str(grid_error.value) == f"grid row {row} ({at}): {message}"
                break
        else:
            pytest.fail("no point fails on its own")

    @pytest.mark.parametrize("fixed, kind, message", [
        ({"eta_i": -0.1}, ValueError, "eta_i must lie in [0, 1], got -0.1"),
        ({"r": 300.0}, OverflowError, "(34, 'Numerical result out of range')"),
    ], ids=["eta_i below zero", "overflow"])
    def test_a_point_error_is_raised_as_is(self, fixed, kind, message, monkeypatch):
        # no failure search and no "grid row" prefix
        monkeypatch.setattr(sweep, "_first_failure", lambda *a: pytest.fail("a search ran"))
        with pytest.raises(kind) as error:
            run_sweep(SweepConfig("thermal", ("e_n",), fixed))
        assert (type(error.value), str(error.value)) == (kind, message)


class TestGridWideErrors:
    # which parameters are given fails a request as a whole, when it is
    # built: no point is named
    @pytest.mark.parametrize("model, fixed, family, axis2, message", [
        ("tmsv", {"n_i": 0.2}, None, None, "thermal occupations are not tmsv parameters"),
        ("tmsv", {"omega_k": 1.0}, None, None,
         "filter parameters require --family (or --family-i and --family-s)"),
        ("tmsv", {"k_f": 0.9, "tau_i": 2.0}, "step", None,
         "give either (k_f, l_f) or filter parameters, not both"),
        ("thermal", {"k_f": 0.9}, "step", None,
         "--family (or --family-i/--family-s) given without filter parameters"),
        ("tmsv", {"r": 0.5}, None, None, "'r' is both an axis and a fixed parameter"),
        ("tmsv", {"k_f": 0.9}, None, AxisSpec("k_f", 0.8, 1.0, 2),
         "'k_f' is both an axis and a fixed parameter"),
        ("tmsv", {}, None, AxisSpec("r", 0.0, 2.0, 2), "axis1 and axis2 must differ"),
    ])
    def test_the_error_names_no_point(self, model, fixed, family, axis2, message):
        with pytest.raises(ValueError) as error:
            SweepConfig(model, ("e_n",), fixed, axis1=AxisSpec("r", 0.0, 1.0, 3), axis2=axis2,
                        families=(family, family))
        assert str(error.value) == message

    @pytest.mark.parametrize("name", ["k_f", "l_f"])
    def test_an_overlap_axis_is_not_an_output(self, name):
        # the output would repeat the axis column
        with pytest.raises(ValueError) as error:
            SweepConfig("tmsv", ("e_n", name), {}, axis1=AxisSpec(name, 0.0, 0.5, 3))
        assert str(error.value) == f"{name!r} is both an axis and an output"

    @pytest.mark.parametrize("families, message", [
        (("gauss", "step"), "family_i must be one of ('step', 'exponential'), got 'gauss'"),
        (("step", "Step"), "family_s must be one of ('step', 'exponential'), got 'Step'"),
    ], ids=["idler", "signal"])
    def test_a_bad_family_is_named(self, families, message):
        with pytest.raises(ValueError) as error:
            SweepConfig("tmsv", ("e_n",), {"omega_k": 1.0}, families=families)
        assert str(error.value) == message

    def test_a_failing_grid_checks_its_names_once(self, monkeypatch):
        # when its request is built: the failure search runs no name check
        calls = []
        real = sweep._check_names
        monkeypatch.setattr(sweep, "_check_names", lambda *a: calls.append(a) or real(*a))
        cfg = replace(ERROR_CASES["k_f past one"][0])
        with pytest.raises(ValueError, match=r"^grid row 30 \(r=0\.0, k_f=1\.02\): "):
            run_sweep(cfg)
        assert len(calls) == 1


class TestFailureSearch:
    def test_an_early_failure_costs_few_rows_past_the_grid(self, monkeypatch):
        rows = []
        real = thermal.covariance

        def spy(p):
            rows.append(np.size(p.r))
            return real(p)

        monkeypatch.setattr(thermal, "covariance", spy)
        # r = 0, 80, 160, 240 by 25 000 K_f values: row 3, at r = 240, is the
        # first whose D_x (about sinh^4 r) passes the float range
        cfg = SweepConfig("tmsv", ("e_n",), {}, axis1=AxisSpec("r", 0.0, 240.0, 4),
                          axis2=AxisSpec("k_f", 0.5, 0.9, 25_000))
        with pytest.raises(OverflowError, match=r"^grid row 3 \(r=240\.0, k_f=0\.5\): "
                                                r"\(34, 'Numerical result out of range'\)$"):
            run_sweep(cfg)
        n = 100_000
        assert rows[0] == n
        assert sum(rows) < n + 64

    # first failing rows at, before and after the ends of the doubling runs
    # (rows 0, 1:3, 3:7, 7:15, ...) and of the grid
    @pytest.mark.parametrize("n, failing", [
        (1, {0}), (2, {0}), (2, {1}), (3, {2}), (4, {3}), (5, {4}), (8, {7}), (9, {8}),
        (16, set(range(16))), (17, {16}), (100, {1}), (100, {2}), (100, {3}), (100, {6}),
        (100, {7}), (100, {31}), (100, {62}), (100, {63}), (100, {64}), (100, {99}),
        (100, {3, 99}), (100, {50, 51, 52}),
    ])
    def test_the_error_is_the_first_failing_row_alone(self, n, failing):
        runs = []

        def evaluate(lo, hi):
            assert 0 <= lo < hi <= n
            runs.append((lo, hi))
            bad = sorted(failing.intersection(range(lo, hi)))
            if bad:
                # a run's error differs from a row's, and both kinds are searched
                kind = OverflowError if hi - lo == 1 else (ValueError, ArithmeticError)[lo % 2]
                raise kind(f"rows {lo}:{hi} fail at {bad}")

        first = min(failing)
        with pytest.raises(OverflowError) as error:
            sweep._first_failure(evaluate, n, lambda row: f"x={row}")
        assert type(error.value) is OverflowError
        assert str(error.value) == (f"grid row {first} (x={first}): "
                                    f"rows {first}:{first + 1} fail at [{first}]")
        assert runs[-1] == (first, first + 1)
        assert sum(hi - lo for lo, hi in runs) <= 3 * (first + 1)

    @pytest.mark.parametrize("n", [1, 2, 5, 64, 100])
    def test_returns_when_no_row_fails_alone(self, n):
        runs = []

        def evaluate(lo, hi):
            runs.append((lo, hi))
            if hi - lo > 1:
                raise ValueError("only runs fail")

        assert sweep._first_failure(evaluate, n, str) is None
        assert all(0 <= lo < hi <= n for lo, hi in runs)


class TestLossyThermalLandmarks:
    """Grids that mix lossy and lossless thermal rows get the landmarks of
    every row; each row is checked against the search oracle."""

    @pytest.mark.parametrize("cfg", [
        SweepConfig("thermal", ("e_n", "critical_points"),
                    {"n_i": 0.2, "n_s": 0.5, "k_f": 0.95, "l_f": 0.05},
                    axis1=AxisSpec("eta_s", 1.0, 0.8, 5)),
        SweepConfig("thermal", ("e_n", "purity", "critical_points"), {"n_i": 0.3, "eta_s": 0.7},
                    axis1=AxisSpec("eta_i", 1.0, 0.5, 6), axis2=AxisSpec("k_f", 0.9, 0.99, 3)),
    ], ids=["eta_s axis", "eta_i by k_f"])
    def test_rows_match_the_search_oracle(self, cfg):
        for params, row in grid_points(cfg):
            get = lambda name: params.get(name, sweep._DEFAULTS[name])
            want = _search(*(get(n) for n in ("n_i", "n_s", "k_f", "l_f", "eta_i", "eta_s")))
            assert search_mismatches(row, want) == [], params


class TestLargeSqueezing:
    def test_ideal_tmsv_ladder_is_exact(self):
        # D_I D_S - C11^2 subtracts numbers near e^{4r}; D_x from the model does not
        cfg = SweepConfig("tmsv", ("e_n", "s_q_opt", "purity"), {},
                          axis1=AxisSpec("r", 0.0, 12.0, 13))
        columns, table, _, _ = run_sweep(cfg)
        r, e_n, s_q_opt, purity = table.T
        assert columns == ["r", "e_n", "s_q_opt", "purity"]
        assert e_n[0] == 0.0 and s_q_opt[0] == 1.0
        assert np.allclose(e_n[1:], 2.0 * r[1:], rtol=1e-12, atol=0.0)
        assert np.allclose(s_q_opt, np.exp(-2.0 * r), rtol=1e-12, atol=0.0)
        assert np.all(purity == 1.0)

    def test_overflow_names_its_row(self):
        cfg = ERROR_CASES["tmsv overflow"][0]
        with pytest.raises(OverflowError, match=r"^grid row 2 \(r=200\.0\): "
                                                r"\(34, 'Numerical result out of range'\)$"):
            run_sweep(cfg)
        # rows 0 and 1 pass: row 2 is the first to fail
        assert len(run_sweep(replace(cfg, axis1=AxisSpec("r", 1.0, 100.5, 2)))[1]) == 2


def count_matrices(monkeypatch) -> list:
    """Record the leading shape of every CovarianceMatrix built from now on."""
    shapes = []
    real = gaussian.CovarianceMatrix.__init__

    def spy(self, entries):
        shapes.append(np.shape(entries)[:-2])
        real(self, entries)

    monkeypatch.setattr(gaussian.CovarianceMatrix, "__init__", spy)
    return shapes


class TestNoMatrixStack:
    def test_closed_form_outputs_build_no_matrix(self, monkeypatch, tmp_path):
        shapes = count_matrices(monkeypatch)
        for name in sorted(GRIDS):
            run_sweep(GRIDS[name])
        assert cli.main(["point", "--model", "thermal", "--r", "0.7", "--n-i", "0.3",
                         "--k-f", "0.9", "--outputs", ",".join(ALL),
                         "--out", str(tmp_path / "point.json")]) == 0
        assert shapes == []

    def test_bell_max_builds_one_stack_per_sweep(self, monkeypatch, tmp_path):
        shapes = count_matrices(monkeypatch)
        cfg = SweepConfig("tmsv", ALL + ("bell_max",), {"eta_s": 0.9},
                          axis1=AxisSpec("r", 0.2, 1.4, 7), bell_restarts=1)
        run_sweep(cfg)
        assert shapes == [(7,)]
        shapes.clear()
        assert cli.main(["point", "--model", "tmsv", "--r", "0.7", "--outputs", "bell_max,e_n",
                         "--restarts", "1", "--out", str(tmp_path / "point.json")]) == 0
        assert shapes == [(1,)]


class TestOneSqueezingPass:
    def test_e_n_and_s_q_opt_take_one_whole_grid_pass_each(self, monkeypatch):
        calls = []
        real = gaussian.optimized_squeezing

        def spy(blocks):
            calls.append(np.shape(blocks.d_i))
            return real(blocks)

        monkeypatch.setattr(gaussian, "optimized_squeezing", spy)
        cfg = SweepConfig("thermal", ("e_n", "s_q_opt"), {"n_i": 0.3, "eta_s": 0.9},
                          axis1=AxisSpec("r", 0.0, 3.0, 13))
        _, table, _, _ = run_sweep(cfg)
        # log_negativity's pass, then s_q_opt's own: none per point
        assert calls == [(13,), (13,)]
        n = len(table)
        blocks = point_state({"r": table[:, 0], "n_i": np.full(n, 0.3),
                              "eta_s": np.full(n, 0.9)})[1]
        assert table[:, 1].tobytes() == gaussian.log_negativity(blocks).tobytes()
        assert table[:, 2].tobytes() == real(blocks).tobytes()


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
        _, blocks = point_state(grid)
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
        if kind == "thermal":
            # the model forms D - 1 = 2 eta (n + A sinh^2 r), not B + A cosh 2r - 1
            # through the loss map: the two agree to rounding
            assert np.all(np.abs(got - reference) <= 4e-15 * np.abs(reference))
            return
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

    def test_bell_points_get_their_grid_seeds(self, monkeypatch):
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


# the Bell maxima bench/run.py checks its tmsv sweep against, to 1e-6; the
# rows at r = 1.5, 1.6, 1.9 and 2.0 are restarts that stalled short of the
# true maximum, so only a bit-identical search keeps them
BENCH_SWEEP = json.loads(
    (Path(__file__).parents[1] / "bench" / "bell_references.json").read_text())["tmsv_sweep"]


class TestBenchBellSweep:
    # the master seeds the benchmark's bell workload draws at its seeds 1 and 2
    @pytest.mark.parametrize("seed", [1114088974, 641987627])
    def test_rows_equal_the_reference_search_at_their_seeds(self, seed):
        cfg = SweepConfig("tmsv", ("bell_max",), {}, axis1=AxisSpec("r", 0.1, 2.0, 20),
                          seed=seed, bell_restarts=16)
        _, table, _, _ = run_sweep(cfg)
        assert len(table) == len(BENCH_SWEEP)
        for (r, b_max), point_seed, stored in zip(table, _point_seeds(seed, 20), BENCH_SWEEP):
            _, blocks = point_state({"r": float(r)})
            want = bell_max_reference(gaussian.build_covariance(blocks), 16, seed=point_seed)[0]
            assert np.float64(b_max).tobytes() == np.float64(want).tobytes(), r
            assert abs(b_max - stored) <= 1e-6, r


class TestBellRunsLast:
    def test_a_cheap_check_fails_before_the_optimizer_runs(self, monkeypatch):
        calls = []
        real = bell.bell_max_stack

        def spy(v, seeds, cfg):
            calls.append(len(seeds))
            return real(v, seeds, cfg)

        monkeypatch.setattr(bell, "bell_max_stack", spy)
        cfg = SweepConfig("thermal", ("bell_max", "critical_points"), {"n_i": 0.2, "k_f": 0.95},
                          axis1=AxisSpec("eta_i", 0.9, 1.85, 20), bell_restarts=16)
        with pytest.raises(ValueError, match="eta_i must lie in"):
            run_sweep(cfg)
        assert calls == []

    def test_a_failing_last_point_stops_the_optimizer_of_a_large_grid(self, monkeypatch):
        calls = []

        def spy(v, seeds, cfg):
            calls.append(len(seeds))
            raise AssertionError("the optimizer ran on a failing grid")

        monkeypatch.setattr(bell, "bell_max_stack", spy)
        # 4098 rows; only the last, K_f = 1.0002, breaks the Cauchy-Schwarz bound
        cfg = SweepConfig("tmsv", ("bell_max",), {"r": 0.5},
                          axis1=AxisSpec("k_f", -1.0, 1.0002, 4098), bell_restarts=1)
        with pytest.raises(ValueError) as error:
            run_sweep(cfg)
        assert type(error.value) is ValueError
        assert str(error.value) == ("grid row 4097 (k_f=1.0002): "
                                    "overlap (1.0002, 0.0) violates the Cauchy-Schwarz bound")
        assert calls == []

    def test_point_outputs_keep_their_listed_order(self):
        res = point_outputs(SweepConfig("tmsv", ("bell_max", "e_n"), {"r": 0.5},
                                        bell_restarts=2))
        assert list(res) == ["bell_max", "e_n"]


class TestFullLoss:
    @pytest.mark.parametrize("axis", ["eta_i", "eta_s"])
    def test_tmsv_efficiency_axis_ending_at_zero_sweeps(self, axis):
        cfg = SweepConfig("tmsv", ("e_n", "purity", "critical_points"), {"k_f": 0.95},
                          axis1=AxisSpec(axis, 1.0, 0.0, 5))
        columns, rows, _, _ = run_sweep(cfg)
        last = dict(zip(columns, rows[-1]))
        assert last[axis] == 0.0
        # full loss on one side leaves a product state: no entanglement and
        # no window to bound
        assert last["e_n"] == 0.0
        assert all(math.isnan(last[c]) for c in CRITICAL_COLUMNS)
        assert all(dict(zip(columns, row))["e_n"] > 0.0 for row in rows[:-1])


def csv_text(columns, table) -> str:
    """The whole CSV text of a table: its chunks, joined."""
    return "".join(sweep.csv_chunks(columns, table))


def bits(*values) -> np.ndarray:
    """Float64 values from their int64 bit patterns."""
    return np.array(values, dtype=np.int64).view(np.float64)


# a -0.0 beside 0.0, nan with three payloads and both signs, +-inf, subnormals
# (one repeated), an all-equal column and values that repeat down a column
EDGE_TABLE = np.column_stack([
    [0.0, -0.0, 0.0, -0.0, 1.5, 1.5],
    np.concatenate([[math.nan, -math.nan], bits(0x7FF8000000000001, -0x0007FFFFFFFFFFFF),
                    [math.nan, 2.0]]),
    [math.inf, -math.inf, math.inf, 1e308, -1e-308, -math.inf],
    np.concatenate([bits(1, 2, 1, 0x000FFFFFFFFFFFFF), [2.2250738585072014e-308, 5e-324]]),
    np.full(6, 0.1 + 0.2),
    [1 / 3, 2 / 3, 1 / 3, 1e16, 1e-5, 123456789.125],
])


class TestCsvText:
    @pytest.mark.parametrize("table", [
        EDGE_TABLE, EDGE_TABLE[:1], EDGE_TABLE[:, :1], EDGE_TABLE[2:3, 3:4],
        np.full((5, 3), -0.0),
    ], ids=["edge values", "one row", "one column", "one cell", "all equal"])
    def test_bytes_equal_the_per_row_writer(self, table):
        columns = [f"c{j}" for j in range(table.shape[1])]
        assert csv_text(columns, table) == csv_text_reference(columns, table.tolist())

    def test_edge_values_are_spelled_apart(self):
        lines = csv_text(list("abcdef"), EDGE_TABLE).splitlines()
        assert [line.split(",")[0] for line in lines] == ["a", "0.0", "-0.0", "0.0", "-0.0",
                                                          "1.5", "1.5"]
        assert [line.split(",")[1] for line in lines[1:]] == ["nan"] * 5 + ["2.0"]
        assert lines[1].split(",")[3] == "5e-324"

    @pytest.mark.parametrize("cfg", [
        SweepConfig("tmsv", ("e_n", "s_q_opt"), {"eta_i": 0.9, "eta_s": 0.98},
                    axis1=AxisSpec("k_f", 0.8, 1.0, 81), axis2=AxisSpec("r", 0.0, 3.0, 121)),
        SweepConfig("thermal", ("e_n", "s_q_opt", "purity", "zeta", "weight_ratio",
                                "critical_points"), {"n_i": 0.3, "n_s": 0.6},
                    axis1=AxisSpec("k_f", 0.8, 1.0, 41), axis2=AxisSpec("r", 0.0, 3.0, 31)),
        SweepConfig("tmsv", ("bell_max", "e_n", "critical_points", "weight_ratio"),
                    {"eta_s": 0.9}, axis1=AxisSpec("r", 0.0, 1.5, 4),
                    axis2=AxisSpec("k_f", 0.9, 1.0, 2), seed=4, bell_restarts=3),
    ], ids=["readme grid", "thermal landmarks", "bell_max"])
    def test_sweep_outputs_equal_the_per_row_writer(self, cfg):
        columns, table, _, _ = run_sweep(cfg)
        assert table.shape == (cfg.axis1.count * cfg.axis2.count, len(columns))
        rows = table.tolist()
        assert csv_text(columns, table) == csv_text_reference(columns, rows)

    @pytest.mark.parametrize("n", [0, 1, sweep.CSV_CHUNK_ROWS - 1, sweep.CSV_CHUNK_ROWS,
                                   sweep.CSV_CHUNK_ROWS + 1, 3 * sweep.CSV_CHUNK_ROWS + 5])
    @pytest.mark.parametrize("width", [1, EDGE_TABLE.shape[1]])
    def test_chunks_hold_whole_rows_and_join_to_the_per_row_writer(self, n, width):
        # every third row an edge row, in turn; between them values that
        # recur across chunks (as a grid line's do) and values that do not
        rng = np.random.default_rng(n + width)
        table = EDGE_TABLE[np.arange(n) // 3 % len(EDGE_TABLE), :width]
        table[1::3] = rng.choice([-0.0, 0.25, 1e-300], size=(len(table[1::3]), width))
        table[2::3] = rng.normal(size=(len(table[2::3]), width))
        columns = [f"c{j}" for j in range(width)]
        chunks = list(sweep.csv_chunks(columns, table))
        assert "".join(chunks) == csv_text_reference(columns, table.tolist())
        assert chunks[0] == ",".join(columns) + "\n"
        full, rest = divmod(n, sweep.CSV_CHUNK_ROWS)
        want = [sweep.CSV_CHUNK_ROWS] * full + ([rest] if rest else [])
        assert [chunk.count("\n") for chunk in chunks[1:]] == want
        assert all(chunk.endswith("\n") for chunk in chunks)
