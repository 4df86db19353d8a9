"""CLI surface: subcommands, exit codes, CSV/JSON determinism and the
figure-recipe sweeps."""

import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import filtered_tms
from filtered_tms import bell, sweep
from filtered_tms.cli import main
from filtered_tms.filters import FilterFamily, FilterSpec, overlap_closed_form
from filtered_tms.gaussian import build_covariance
from filtered_tms.sweep import format_number
from oracles import bell_max_reference


# the child process runs the same package the in-process tests import
_PKG_ROOT = str(Path(filtered_tms.__file__).parents[1])


def run_cli(*args):
    path = os.pathsep.join(filter(None, [_PKG_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "filtered_tms.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


class TestPoint:
    def test_ideal_tmsv_point(self, capsys):
        code, out, _ = run_inproc(
            "point", "--model", "tmsv", "--r", "0.5", "--k-f", "1",
            "--eta-i", "1", "--eta-s", "1", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "results", "diagnostics"}
        assert payload["results"]["e_n"] == pytest.approx(1.0, abs=1e-9)
        assert payload["results"]["purity"] == pytest.approx(1.0, abs=1e-9)
        assert payload["results"]["s_q_opt"] == pytest.approx(0.367879, abs=1e-6)

    def test_zero_squeezing_point(self, capsys):
        code, out, _ = run_inproc("point", "--model", "tmsv", "--r", "0", capsys=capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["e_n"] == 0.0
        assert res["purity"] == pytest.approx(1.0)
        assert res["s_q_opt"] == pytest.approx(1.0)

    def test_point_csv_format(self, capsys):
        code, out, _ = run_inproc(
            "point", "--model", "tmsv", "--r", "0.5", "--format", "csv",
            "--outputs", "e_n,purity", capsys=capsys,
        )
        assert code == 0
        header, row = out.splitlines()
        assert header == "e_n,purity"
        e_n, p = (float(x) for x in row.split(","))
        assert e_n == pytest.approx(1.0, abs=1e-9)
        assert p == pytest.approx(1.0, abs=1e-9)

    def test_thermal_point_echoes_blocks(self, capsys):
        code, out, _ = run_inproc(
            "point", "--model", "thermal", "--r", "0.5", "--n-i", "0.3",
            "--n-s", "0.8", "--k-f", "0.95", "--l-f", "0.095", capsys=capsys,
        )
        assert code == 0
        blocks = json.loads(out)["results"]["blocks"]
        assert blocks["d_i"] == pytest.approx(2.740469333112012, rel=1e-12)
        assert blocks["d_s"] == pytest.approx(3.740469333112012, rel=1e-12)
        assert blocks["c11"] == pytest.approx(2.3445263813193837, rel=1e-12)
        assert blocks["c12"] == pytest.approx(0.05582205669808057, rel=1e-12)

    def test_invalid_parameter_exits_two_with_json_error(self):
        code, out, err = run_cli("point", "--model", "tmsv", "--r", "-1")
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"]

    def test_thermal_efficiency_above_one_exits_two(self, capsys):
        code, out, err = run_inproc("point", "--model", "thermal", "--r", "1",
                                    "--eta-i", "1.5", capsys=capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[-1]) == {"error": "eta_i must lie in [0, 1], got 1.5"}

    def test_unknown_flag_exits_two(self):
        code, _, _ = run_cli("point", "--model", "tmsv", "--bogus", "1")
        assert code == 2

    def test_unwritable_output_path_exits_two(self):
        code, _, err = run_cli("point", "--model", "tmsv", "--r", "0.5",
                               "--out", "/nonexistent-dir/x.json")
        assert code == 2
        assert json.loads(err.splitlines()[-1])["error"]


class TestSweep:
    def test_degenerate_sweep_matches_point(self, capsys, tmp_path):
        out_path = tmp_path / "one.csv"
        code, _, _ = run_inproc(
            "sweep", "--model", "tmsv", "--axis1", "r=0.5:0.5:1",
            "--outputs", "e_n,s_q_opt,purity", "--out", str(out_path), capsys=capsys,
        )
        assert code == 0
        header, row = out_path.read_text().splitlines()
        assert header == "r,e_n,s_q_opt,purity"
        vals = [float(x) for x in row.split(",")]
        assert vals[0] == 0.5
        assert vals[1] == pytest.approx(1.0, abs=1e-9)
        assert vals[2] == pytest.approx(math.exp(-1.0), abs=1e-9)
        assert vals[3] == pytest.approx(1.0, abs=1e-9)

    def test_byte_identical_reruns_and_jobs(self, tmp_path):
        args = ["sweep", "--model", "thermal", "--axis1", "r=0:2:11",
                "--axis2", "n_i=0:1:5", "--n-s", "0.8", "--k-f", "0.95",
                "--l-f", "0.095", "--outputs", "e_n,zeta,weight_ratio",
                "--seed", "9"]
        paths = [tmp_path / f"{k}.csv" for k in range(3)]
        main(args + ["--out", str(paths[0])])
        main(args + ["--out", str(paths[1])])
        main(args + ["--out", str(paths[2]), "--jobs", "4"])
        blobs = [p.read_bytes() for p in paths]
        assert blobs[0] == blobs[1] == blobs[2]

    def test_bell_sweep_is_schedule_independent(self, tmp_path):
        # per-point seeds derive from (master seed, grid index); --jobs is
        # accepted and cannot change the optimizer outcome
        args = ["sweep", "--model", "tmsv", "--axis1", "r=0.2:0.8:4",
                "--outputs", "bell_max", "--restarts", "8", "--seed", "5"]
        a, b = tmp_path / "serial.csv", tmp_path / "threads.csv"
        main(args + ["--out", str(a)])
        main(args + ["--out", str(b), "--jobs", "4"])
        assert a.read_bytes() == b.read_bytes()
        rows = a.read_text().splitlines()[1:]
        assert all(float(line.split(",")[1]) >= 2.0 - 1e-9 for line in rows)

    def test_bell_sweep_runs_on_the_calling_thread(self, tmp_path, monkeypatch):
        threads = []
        real = bell.bell_max_stack

        def spy(v, seeds, cfg):
            threads.extend([threading.get_ident()] * len(seeds))
            return real(v, seeds, cfg)

        monkeypatch.setattr(bell, "bell_max_stack", spy)
        code = main(["sweep", "--model", "tmsv", "--axis1", "r=0.2:0.8:5", "--outputs",
                     "bell_max", "--restarts", "2", "--jobs", "4",
                     "--out", str(tmp_path / "b.csv")])
        assert code == 0
        assert threads == [threading.get_ident()] * 5

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_rejected(self, jobs, capsys):
        code, out, err = run_inproc("sweep", "--model", "tmsv", "--axis1", "r=0:1:3",
                                    "--outputs", "e_n", "--jobs", jobs, capsys=capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[-1]) == {"error": f"jobs must be at least 1, got {jobs}"}

    def test_axis2_is_the_outer_loop(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        main(["sweep", "--model", "tmsv", "--axis1", "r=0:1:3",
              "--axis2", "k_f=0.8:1:2", "--outputs", "e_n",
              "--out", str(out_path)])
        lines = out_path.read_text().splitlines()
        rs = [float(line.split(",")[0]) for line in lines[1:]]
        ks = [float(line.split(",")[1]) for line in lines[1:]]
        assert rs == [0.0, 0.5, 1.0, 0.0, 0.5, 1.0]
        assert ks == [0.8, 0.8, 0.8, 1.0, 1.0, 1.0]

    def test_csv_round_trip_reevaluates(self, tmp_path):
        out_path = tmp_path / "grid.csv"
        main(["sweep", "--model", "tmsv", "--axis1", "r=0.05:2:40",
              "--k-f", "0.9", "--eta-i", "0.85", "--outputs",
              "e_n,s_q_opt,purity,weight_ratio", "--out", str(out_path)])
        lines = out_path.read_text().splitlines()
        header = lines[0].split(",")
        rng = np.random.default_rng(0)
        from filtered_tms.sweep import evaluate_point

        for k in rng.integers(1, len(lines), size=10):
            cells = lines[k].split(",")
            parsed = dict(zip(header, (float(c) for c in cells)))
            res = evaluate_point(
                "tmsv", {"r": parsed["r"], "k_f": 0.9, "eta_i": 0.85},
                ("e_n", "s_q_opt", "purity", "weight_ratio"),
            )
            for name, want in res.items():
                assert format_number(want) == cells[header.index(name)]

    def test_filter_axis_recomputes_overlap(self, tmp_path):
        # detuning sweep of the signal filter center: entanglement must
        # peak exactly where the centers match
        out_path = tmp_path / "fig2a.csv"
        main(["sweep", "--model", "tmsv", "--axis1", "omega_l=-4:6:501",
              "--omega-k", "1", "--tau-i", "2", "--tau-s", "2", "--r", "1",
              "--family", "step", "--outputs", "e_n", "--out", str(out_path)])
        lines = out_path.read_text().splitlines()[1:]
        omegas = np.array([float(line.split(",")[0]) for line in lines])
        en = np.array([float(line.split(",")[1]) for line in lines])
        assert omegas[int(np.argmax(en))] == pytest.approx(1.0, abs=1e-9)
        assert en.max() == pytest.approx(2.0, abs=1e-9)

    def test_sweep_traverses_separable_regions(self, tmp_path):
        out_path = tmp_path / "window.csv"
        main(["sweep", "--model", "thermal", "--axis1", "r=0:3:31",
              "--n-i", "0.3", "--n-s", "0.8", "--k-f", "0.95", "--l-f", "0.095",
              "--outputs", "e_n,critical_points,weight_ratio", "--out", str(out_path)])
        lines = out_path.read_text().splitlines()
        assert lines[0].split(",")[:3] == ["r", "e_n", "r_lcf_en"]
        first = lines[1].split(",")
        assert float(first[1]) == 0.0           # separable at r = 0
        assert math.isnan(float(first[-1]))     # weight ratio undefined at r = 0

    def test_entanglement_zero_contour_follows_the_overlap_cutoff(self, tmp_path):
        # 2-D (k_f, r) grid: along each k_f column the last entangled row
        # must straddle r = atanh(k_f)
        out_path = tmp_path / "contour.csv"
        main(["sweep", "--model", "tmsv", "--axis1", "r=0.01:3:160",
              "--axis2", "k_f=0.8:0.98:7", "--eta-i", "0.9", "--eta-s", "0.98",
              "--outputs", "e_n", "--out", str(out_path)])
        lines = out_path.read_text().splitlines()[1:]
        data = np.array([[float(x) for x in line.split(",")] for line in lines])
        dr = data[1, 0] - data[0, 0]
        for k_f in np.unique(data[:, 1]):
            rows = data[data[:, 1] == k_f]
            entangled = rows[rows[:, 2] > 0.0]
            boundary = entangled[:, 0].max()
            assert boundary == pytest.approx(math.atanh(k_f), abs=1.5 * dr)

    def test_lossy_thermal_sweep_uses_the_numeric_path(self, tmp_path):
        out_path = tmp_path / "lossy.csv"
        code = main(["sweep", "--model", "thermal", "--axis1", "r=0.2:1.4:7",
                     "--n-i", "0.2", "--n-s", "0.5", "--k-f", "0.95",
                     "--eta-i", "0.8", "--eta-s", "0.9",
                     "--outputs", "e_n,s_q_opt,purity", "--out", str(out_path)])
        assert code == 0
        lines = out_path.read_text().splitlines()[1:]
        from filtered_tms import gaussian, thermal
        from filtered_tms.filters import OverlapFactors

        for line in lines:
            r, e_n, s_q, pur = (float(x) for x in line.split(","))
            p = thermal.ThermalParams(r=r, n_i=0.2, n_s=0.5,
                                      overlap=OverlapFactors(0.95, 0.0))
            v = gaussian.apply_loss(
                gaussian.build_covariance(thermal.covariance(p)), 0.8, 0.9)
            assert e_n == pytest.approx(gaussian.log_negativity(v).e_n, abs=1e-12)
            assert s_q == pytest.approx(
                gaussian.optimized_squeezing(v.blocks()), abs=1e-12)
            assert pur == pytest.approx(gaussian.purity(v), abs=1e-12)

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_inproc(
            "sweep", "--model", "tmsv", "--axis1", "r=0:1:3",
            "--outputs", "e_n", "--format", "json", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"params", "results", "diagnostics"}
        assert payload["results"]["columns"] == ["r", "e_n"]
        assert payload["results"]["rows"][2][1] == pytest.approx(2.0, abs=1e-9)
        assert payload["diagnostics"]["n_points"] == 3

    def test_unbounded_landmarks_round_trip_in_csv(self, tmp_path):
        out_path = tmp_path / "cp.csv"
        main(["sweep", "--model", "tmsv", "--axis1", "k_f=0.9:1:3",
              "--outputs", "critical_points", "--out", str(out_path)])
        lines = out_path.read_text().splitlines()
        last = dict(zip(lines[0].split(","), lines[-1].split(",")))
        assert last["k_f"] == "1.0"
        assert math.isinf(float(last["r_ucf_en"]))
        assert math.isinf(float(last["r_max_sq"]))

    def test_family_without_filter_params_rejected(self):
        code, _, err = run_cli("sweep", "--model", "tmsv", "--axis1", "r=0:1:5",
                               "--family", "step", "--outputs", "e_n")
        assert code == 2
        assert "filter" in json.loads(err.splitlines()[-1])["error"]

    def test_overlap_and_filter_params_conflict(self):
        code, _, _ = run_cli("sweep", "--model", "tmsv", "--axis1", "omega_l=0:1:3",
                             "--family", "step", "--k-f", "0.9", "--outputs", "e_n")
        assert code == 2

    def test_thermal_critical_points_need_unit_efficiency(self):
        code, _, err = run_cli("point", "--model", "thermal", "--r", "1",
                               "--n-i", "0.3", "--eta-i", "0.9",
                               "--outputs", "critical_points")
        assert code == 2
        assert "efficiency" in json.loads(err.splitlines()[-1])["error"]

    def test_unknown_axis_rejected(self):
        code, _, _ = run_cli("sweep", "--model", "tmsv", "--axis1", "bogus=0:1:5",
                             "--outputs", "e_n")
        assert code == 2

    def test_svg_heatmap_written(self, tmp_path):
        svg_path = tmp_path / "grid.svg"
        main(["sweep", "--model", "tmsv", "--axis1", "r=0:2:12",
              "--axis2", "k_f=0.8:1:8", "--outputs", "e_n",
              "--out", str(tmp_path / "grid.csv"), "--svg", str(svg_path)])
        text = svg_path.read_text()
        assert text.startswith("<svg")
        assert text.count("<rect") >= 12 * 8
        assert "e_n" in text and "k_f" in text

    def test_svg_needs_two_axes(self):
        code, _, _ = run_cli("sweep", "--model", "tmsv", "--axis1", "r=0:1:5",
                             "--outputs", "e_n", "--svg", "/tmp/x.svg")
        assert code == 2


class TestBellCommand:
    def test_vacuum_bell(self, capsys):
        code, out, _ = run_inproc(
            "bell", "--model", "tmsv", "--r", "0", "--restarts", "16",
            "--seed", "4", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["results"]["b_max"] == pytest.approx(2.0, abs=1e-6)
        assert payload["diagnostics"]["converged"] is True

    def test_nonlocal_tmsv(self, capsys):
        code, out, _ = run_inproc(
            "bell", "--model", "tmsv", "--r", "0.8", "--restarts", "24",
            "--seed", "4", capsys=capsys,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["results"]["b_max"] > 2.0
        assert len(payload["results"]["settings"]) == 8

    def test_separable_thermal_stays_local(self, capsys):
        code, out, _ = run_inproc(
            "bell", "--model", "thermal", "--r", "0.2", "--n-i", "0.5",
            "--n-s", "0.5", "--restarts", "24", "--seed", "4", capsys=capsys,
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["results"]["b_max"] <= 2.0 + 1e-6

    def test_cost_counts_match_the_reference_search(self, capsys):
        argv = ("bell", "--model", "thermal", "--r", "0.8", "--n-i", "0.1", "--n-s", "0.4",
                "--k-f", "0.95", "--l-f", "0.095", "--eta-s", "0.9", "--restarts", "12",
                "--max-evals", "900", "--seed", "6")
        code, first, _ = run_inproc(*argv, capsys=capsys)
        assert code == 0
        blocks = sweep.point_blocks("thermal", {"r": 0.8, "n_i": 0.1, "n_s": 0.4, "k_f": 0.95,
                                                "l_f": 0.095, "eta_s": 0.9})
        ref = bell_max_reference(build_covariance(blocks), 12, 900, seed=6)
        diag = json.loads(first)["diagnostics"]
        assert (diag["evaluations"], diag["restarts_agreeing"]) == ref[3:]
        assert diag["converged"] is ref[2]
        assert run_inproc(*argv, capsys=capsys)[1] == first

    @pytest.mark.parametrize("max_evals, converged", [("2000", True), ("60", False)])
    def test_spread_is_reported_and_rerun_byte_identical(self, max_evals, converged, capsys):
        # one restart: converged is whether it settled, i.e. spread <= f_tol
        argv = ("bell", "--model", "tmsv", "--r", "0.8", "--k-f", "0.97", "--restarts", "1",
                "--max-evals", max_evals, "--seed", "3")
        code, first, _ = run_inproc(*argv, capsys=capsys)
        assert code == 0
        diag = json.loads(first)["diagnostics"]
        assert diag["converged"] is converged
        assert (0.0 <= diag["spread"] <= bell.BellMaxConfig().f_tol) is converged
        assert run_inproc(*argv, capsys=capsys)[1] == first

    @pytest.mark.parametrize("argv", [
        ("bell", "--model", "tmsv", "--r", "0.8"),
        ("sweep", "--model", "tmsv", "--axis1", "r=0.2:0.8:3", "--outputs", "bell_max"),
        ("point", "--model", "tmsv", "--r", "0.8", "--outputs", "e_n,bell_max"),
    ], ids=["bell", "sweep", "point"])
    def test_negative_seed_is_named(self, argv, capsys):
        code, out, err = run_inproc(*argv, "--seed", "-1", "--restarts", "2", capsys=capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err.splitlines()[-1]) == {
            "error": "seed must be a non-negative integer, got -1"}


class TestValidateCommand:
    def test_tmsv_validation_report(self, capsys):
        code, out, _ = run_inproc(
            "validate", "--model", "tmsv", "--r", "1", "--family", "step",
            "--tau-i", "2", "--tau-s", "2", "--omega-k", "1", "--omega-l", "1",
            "--dt", "0.02", "--horizon", "6", "--n-real", "20000", "--seed", "8",
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        rows = payload["results"]["blocks"]
        assert [r["block"] for r in rows] == ["d_i", "d_s", "c11", "c12"]
        assert all(r["pass_5_sigma"] for r in rows)
        assert rows[0]["analytic"] == pytest.approx(math.cosh(2.0))
        assert payload["results"]["all_pass"] is True
        diag = payload["diagnostics"]
        assert (diag["lag_cells"], diag["pilot_realizations"]) == (100, 2000)
        # 4 lossless series, 4 kernel columns per run, 8 in the pilot
        assert diag["normal_draws"] == 20000 * 4 * 4 + 2000 * 8 * 4

    def test_counts_are_reported_and_reruns_are_byte_identical(self, capsys):
        # exponential kernels span the whole horizon; the pilot is capped at n
        argv = ("validate", "--model", "thermal", "--r", "0.4", "--n-i", "0.2",
                "--family", "exponential", "--tau-i", "1", "--tau-s", "1",
                "--omega-k", "1", "--omega-l", "0.5", "--dt", "0.02",
                "--horizon", "10", "--n-real", "1500", "--seed", "3")
        code, first, _ = run_inproc(*argv, capsys=capsys)
        assert code == 0
        diag = json.loads(first)["diagnostics"]
        assert (diag["lag_cells"], diag["pilot_realizations"]) == (500, 1500)
        assert diag["normal_draws"] == 1500 * 4 * 4 + 1500 * 8 * 4
        assert run_inproc(*argv, capsys=capsys)[1] == first

    def test_mixed_family_validation(self, capsys):
        code, out, _ = run_inproc(
            "validate", "--model", "tmsv", "--r", "0.6", "--family-i", "step",
            "--family-s", "exponential", "--tau-i", "2", "--tau-s", "1",
            "--omega-k", "1", "--omega-l", "1", "--dt", "0.02", "--horizon", "10",
            "--n-real", "20000", "--seed", "12", capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["params"]["family_s"] == "exponential"
        assert payload["results"]["all_pass"] is True
        ov = overlap_closed_form(FilterSpec(FilterFamily.STEP, 1.0, 2.0),
                                 FilterSpec(FilterFamily.EXPONENTIAL, 1.0, 1.0))
        assert (payload["results"]["k_f"], payload["results"]["l_f"]) == (ov.k_f, ov.l_f)

    def test_bad_dt_exits_two(self):
        code, _, err = run_cli(
            "validate", "--model", "tmsv", "--r", "1", "--family", "step",
            "--tau-i", "2", "--tau-s", "2", "--omega-k", "1", "--omega-l", "1",
            "--dt", "0.5", "--horizon", "6", "--n-real", "20000",
        )
        assert code == 2
        assert "dt" in json.loads(err.splitlines()[-1])["error"]

    def test_negative_seed_exits_two(self):
        code, _, err = run_cli(
            "validate", "--model", "tmsv", "--r", "1", "--family", "step",
            "--tau-i", "2", "--tau-s", "2", "--omega-k", "1", "--omega-l", "1",
            "--dt", "0.02", "--horizon", "6", "--n-real", "2000", "--seed", "-1",
        )
        assert code == 2
        assert "seed" in json.loads(err.splitlines()[-1])["error"]


class TestOverlapCommand:
    def test_same_family_reports_difference(self, capsys):
        code, out, _ = run_inproc(
            "overlap", "--family", "step", "--tau-i", "2", "--tau-s", "2",
            "--omega-k", "1", "--omega-l", "0", capsys=capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["closed_form"]["k_f"] == pytest.approx(0.454649, abs=1e-6)
        assert res["abs_difference"]["k_f"] < 1e-8
        assert res["abs_difference"]["l_f"] < 1e-8

    @pytest.mark.parametrize("order", [("step", "exponential", "2", "1"),
                                       ("exponential", "step", "1", "2")])
    def test_mixed_family_reports_difference(self, order, capsys):
        fam_i, fam_s, tau_i, tau_s = order
        code, out, _ = run_inproc(
            "overlap", "--family-i", fam_i, "--family-s", fam_s,
            "--tau-i", tau_i, "--tau-s", tau_s, "--omega-k", "1", "--omega-l", "1",
            capsys=capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert (payload["params"]["family_i"], payload["params"]["family_s"]) == (fam_i, fam_s)
        res = payload["results"]
        # matched frequencies: sqrt(2/(2*1)) (1 - exp(-2)) over the step window
        assert res["closed_form"]["k_f"] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)
        assert res["closed_form"]["l_f"] == 0.0
        assert res["abs_difference"]["k_f"] < 1e-8
        assert res["abs_difference"]["l_f"] < 1e-8

    @pytest.mark.parametrize("command, argv", [
        ("overlap", ("--tau-i", "2", "--tau-s", "1", "--omega-k", "1", "--omega-l", "1")),
        ("validate", ("--model", "tmsv", "--tau-i", "2", "--tau-s", "1", "--omega-k", "1",
                      "--omega-l", "1", "--dt", "0.02", "--horizon", "10", "--n-real", "100")),
    ])
    def test_missing_family_names_the_command(self, command, argv, capsys):
        code, out, err = run_inproc(command, "--family-i", "step", *argv, capsys=capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err) == {
            "error": f"{command} requires --family (or --family-i/--family-s)"}


class TestParserReuse:
    """One parser serves every ``main`` call of a process: a sequence of
    in-process calls gives what each command gives in a fresh process."""

    @staticmethod
    def inproc(capsys, args):
        try:
            code = main(list(args))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    def test_command_sequence_matches_fresh_processes(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps at the terminal width
        grid = ["sweep", "--model", "tmsv", "--axis1", "r=0:1.5:4", "--axis2", "k_f=0.9:1:3",
                "--outputs", "e_n,s_q_opt"]
        point = ["point", "--model", "thermal", "--r", "0.7", "--n-i", "0.2",
                 "--outputs", "e_n,purity,critical_points"]
        sequence = [
            grid + ["--svg", "{dir}/grid.svg"],
            grid,
            point + ["--format", "csv"],
            point,
            ["sweep", "--model", "tmsv", "--outputs", "e_n"],  # --axis1 missing: exit 2
            ["point", "--model", "tmsv", "--r", "0.3"],
        ]
        fresh_dir, inproc_dir = tmp_path / "fresh", tmp_path / "inproc"
        fresh_dir.mkdir()
        inproc_dir.mkdir()
        codes = []
        for args in sequence:
            fresh = run_cli(*(a.format(dir=fresh_dir) for a in args))
            got = self.inproc(capsys, [a.format(dir=inproc_dir) for a in args])
            assert got == fresh, args
            codes.append(got[0])
            if "--svg" in args:
                svg = inproc_dir / "grid.svg"
                assert svg.read_bytes() == (fresh_dir / "grid.svg").read_bytes()
                svg.unlink()  # the next sweep has no --svg and must not write one
        assert codes == [0, 0, 0, 0, 2, 0]
        assert not (inproc_dir / "grid.svg").exists()

    def test_parser_is_built_once(self, capsys, monkeypatch):
        from filtered_tms import cli

        builds = []
        monkeypatch.setattr(cli, "_parser", cli.functools.cache(
            lambda: builds.append(1) or cli.build_parser()))
        for _ in range(3):
            assert main(["point", "--model", "tmsv", "--r", "0.3"]) == 0
        assert builds == [1]


class TestEntryPoint:
    def test_module_invocation(self):
        code, out, _ = run_cli("point", "--model", "tmsv", "--r", "0.3")
        assert code == 0
        assert json.loads(out)["results"]["e_n"] == pytest.approx(0.6, abs=1e-9)

    @pytest.mark.parametrize("argv", [
        ("point", "--model", "tmsv", "--r", "10", "--k-f", "1", "--outputs", "purity"),
        ("bell", "--model", "tmsv", "--r", "10", "--k-f", "1", "--restarts", "2"),
        ("sweep", "--model", "tmsv", "--axis1", "r=9:11:3", "--k-f", "1", "--outputs", "purity"),
    ], ids=["point", "bell", "sweep"])
    def test_stderr_holds_only_the_json_error_line(self, argv):
        # points at r ~ 10 meet the large-squeezing rounding checks; no numpy
        # warning may precede the error line
        code, _, err = run_cli(*argv)
        if code == 0:
            assert err == ""
        else:
            assert code == 2
            lines = err.splitlines()
            assert len(lines) == 1, err
            assert set(json.loads(lines[0])) == {"error"}
