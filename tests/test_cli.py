"""CLI surface: subcommands, exit codes, CSV/JSON determinism and the
figure-recipe sweeps."""

import dataclasses
import json
import math
import os
import resource
import stat
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import filtered_tms
from filtered_tms import bell, fieldsim, sweep, thermal
from filtered_tms.cli import main
from filtered_tms.filters import FilterSpec, overlap_closed_form
from filtered_tms.gaussian import build_covariance
from filtered_tms.sweep import SweepConfig
from oracles import (
    bell_max_reference,
    csv_text_reference,
    landmarks_by_search,
    overlap_mpmath,
    search_mismatches,
)


# the child process runs the same package the in-process tests import
_PKG_ROOT = str(Path(filtered_tms.__file__).parents[1])


def run_cli(*args, preexec_fn=None):
    path = os.pathsep.join(filter(None, [_PKG_ROOT, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "filtered_tms.cli", *args],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
        preexec_fn=preexec_fn,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_inproc(*args, capsys=None):
    code = main(list(args))
    out, err = capsys.readouterr() if capsys else ("", "")
    return code, out, err


def strict_json(text: str):
    """json.loads that rejects the non-standard Infinity, -Infinity and NaN."""
    def reject(token):
        raise ValueError(f"non-standard JSON number {token}")
    return json.loads(text, parse_constant=reject)


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

    @pytest.mark.parametrize("r", range(1, 13))
    def test_ideal_tmsv_ladder_is_exact(self, r, capsys):
        code, out, _ = run_inproc(
            "point", "--model", "tmsv", "--r", str(r), "--k-f", "1",
            "--eta-i", "1", "--eta-s", "1", capsys=capsys,
        )
        assert code == 0
        res = json.loads(out)["results"]
        assert res["e_n"] == pytest.approx(2.0 * r, rel=1e-12, abs=0.0)
        assert res["s_q_opt"] == pytest.approx(math.exp(-2.0 * r), rel=1e-12, abs=0.0)
        assert res["purity"] == 1.0

    def test_point_evaluates_the_model_once(self, capsys, monkeypatch):
        calls = []
        real = thermal.covariance

        def spy(p):
            calls.append(p)
            return real(p)

        monkeypatch.setattr(thermal, "covariance", spy)
        code, out, _ = run_inproc(
            "point", "--model", "thermal", "--r", "0.5", "--n-i", "0.3", "--eta-s", "0.9",
            "--outputs", "purity,e_n", capsys=capsys,
        )
        assert code == 0 and len(calls) == 1
        res = json.loads(out)["results"]
        assert list(res) == ["purity", "e_n", "blocks"]
        assert list(res["blocks"]) == ["d_i", "d_s", "c11", "c12"]

    def test_zero_squeezing_point(self, capsys):
        code, out, _ = run_inproc("point", "--model", "tmsv", "--r", "0", capsys=capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert res["e_n"] == 0.0
        assert res["purity"] == pytest.approx(1.0)
        assert res["s_q_opt"] == pytest.approx(1.0)

    def test_bell_max_point_reports_its_search_under_the_bell_names(self, capsys):
        state = ("--model", "thermal", "--r", "0.8", "--n-i", "0.1", "--k-f", "0.95")
        search = ("--restarts", "12", "--seed", "4")
        code, out, _ = run_inproc("point", *state, *search, "--outputs", "bell_max,e_n",
                                  capsys=capsys)
        assert code == 0
        point = json.loads(out)
        code, out, _ = run_inproc("bell", *state, *search, capsys=capsys)
        assert code == 0
        alone = json.loads(out)
        assert point["results"]["bell_max"] == alone["results"]["b_max"]
        assert list(point["diagnostics"]) == [
            "converged", "evaluations", "restarts_agreeing", "spread", "iterations"]
        assert point["diagnostics"] == alone["diagnostics"]
        # nothing searched, nothing to report
        code, out, _ = run_inproc("point", *state, *search, capsys=capsys)
        assert code == 0 and json.loads(out)["diagnostics"] == {}

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

    @pytest.mark.parametrize("argv", [
        ("--model", "thermal", "--r", "0.5", "--n-i", "0.3", "--n-s", "0.8", "--k-f", "0.95",
         "--l-f", "0.095", "--outputs", "e_n,s_q_opt,purity,zeta,critical_points,bell_max"),
        ("--model", "tmsv", "--r", "0", "--outputs",
         "e_n,s_q_opt,purity,zeta,weight_ratio,critical_points,bell_max"),
        ("--model", "tmsv", "--r", "3", "--eta-s", "0.9", "--outputs", "critical_points,e_n"),
    ], ids=["thermal", "separable", "tmsv landmarks"])
    def test_point_csv_equals_the_per_row_writer(self, argv, capsys):
        code, out, _ = run_inproc("point", "--format", "csv", "--restarts", "4", *argv,
                                  capsys=capsys)
        assert code == 0
        params = {k[2:].replace("-", "_"): float(v) for k, v in zip(argv[2:-2:2], argv[3:-2:2])}
        outputs = tuple(argv[-1].split(","))
        columns, table, _, _ = sweep.run_sweep(
            SweepConfig(argv[1], outputs, params, bell_restarts=4))
        results = dict(zip(columns, table[0].tolist()))
        cols = sweep.output_columns(outputs)
        assert out == csv_text_reference(cols, [[results[c] for c in cols]])

    def test_long_identical_filters_overlap_fully(self):
        # tau_i tau_s = 1e400 overflows; K_f = 1 at any tau, so e_n = 2r
        results = []
        for tau in ("2", "1e200"):
            code, out, err = run_cli("point", "--model", "tmsv", "--r", "1", "--family", "step",
                                     "--tau-i", tau, "--tau-s", tau, "--outputs", "e_n")
            assert (code, err) == (0, "")
            results.append(json.loads(out)["results"])
        assert results[0]["e_n"] == 2.0
        assert results[1] == results[0]

    @pytest.mark.parametrize("filters, e_n", [
        (("--family", "exponential", "--tau-i", "1e-320", "--tau-s", "1e-320"), 2.0),
        (("--family", "step", "--tau-i", "1e200", "--tau-s", "1e200", "--omega-k", "1e200",
          "--omega-l=-1e200"), 0.0),
        *((("--family", family, "--tau-i", "1", "--tau-s", "1", "--omega-k", "1e308",
            "--omega-l=-1e308"), 0.0) for family in ("step", "exponential")),
    ], ids=["subnormal exponential pair", "step pair whose tau delta overflows",
            "step pair whose detuning overflows", "exponential pair whose detuning overflows"])
    def test_extreme_filter_pairs_exit_zero_without_warnings(self, filters, e_n):
        # 1/tau overflows for the first pair, tau (omega_k - omega_l) for the
        # second, omega_k - omega_l for the last two
        code, out, err = run_cli("point", "--model", "tmsv", *filters, "--outputs", "e_n")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["e_n"] == e_n

    def test_a_tiny_step_detuning_keeps_its_squeezing_angle(self):
        # tau delta = 1e-8: L_f = 4.56e-9, which 1 - cos(tau delta) rounds to 0;
        # the expected angle is that of the 50-digit overlap integral
        code, out, err = run_cli("point", "--model", "thermal", "--r", "0.5", "--n-i", "0.5",
                                 "--n-s", "0.1", "--family", "step",
                                 "--tau-i", "12.083589948944022", "--tau-s", "14.352750905020518",
                                 "--omega-k", "8.228244752217506e-10", "--omega-l", "0",
                                 "--outputs", "zeta")
        assert (code, err) == (0, "")
        assert json.loads(out)["results"]["zeta"] == pytest.approx(1.2428341948168357e-09,
                                                                   rel=1e-12)

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

    def test_missing_output_directory_names_the_given_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "x.json"
        code, out, err = run_inproc("point", "--model", "tmsv", "--r", "0.5",
                                    "--out", str(path), capsys=capsys)
        assert code == 2
        assert out == ""
        msg = json.loads(err.splitlines()[-1])["error"]
        assert "No such file or directory" in msg and repr(str(path)) in msg
        assert ".tmp-" not in msg
        assert list(tmp_path.iterdir()) == []


POINT = ("point", "--model", "thermal", "--r", "0.5", "--n-i", "0.3")


@pytest.fixture
def umask_027():
    old = os.umask(0o027)
    try:
        yield
    finally:
        os.umask(old)


class TestOutputFile:
    def test_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        # a reader holds the FIFO open first, so the writer's open cannot block
        fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            assert main([*POINT, "--out", str(fifo)]) == 0
            data = os.read(fd, 1 << 16).decode()
        finally:
            os.close(fd)
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert main(list(POINT)) == 0
        assert data == capsys.readouterr().out

    def test_new_file_mode_follows_the_umask(self, umask_027, tmp_path):
        path = tmp_path / "new.json"
        assert main([*POINT, "--out", str(path)]) == 0
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o640
        assert [p.name for p in tmp_path.iterdir()] == ["new.json"]

    def test_existing_file_keeps_its_mode(self, umask_027, tmp_path):
        path = tmp_path / "old.json"
        path.write_text("stale\n")
        os.chmod(path, 0o644)
        assert main([*POINT, "--out", str(path)]) == 0
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o644
        assert json.loads(path.read_text())["results"]["e_n"] > 0.0

    def test_symlink_target_is_written_and_the_link_kept(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("stale\n")
        link.symlink_to(target.name)
        assert main([*POINT, "--out", str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["results"]["e_n"] > 0.0


# a 2-D sweep of more rows than one CSV chunk holds
BIG_SWEEP = ("sweep", "--model", "tmsv", "--axis1", "k_f=0.8:1:51", "--axis2", "r=0:3:50",
             "--outputs", "e_n,s_q_opt")


class TestChunkedOutput:
    def test_stdout_a_file_and_a_fifo_get_the_same_bytes(self, capsys, tmp_path):
        assert 51 * 50 > sweep.CSV_CHUNK_ROWS
        assert main(list(BIG_SWEEP)) == 0
        stdout = capsys.readouterr().out.encode()
        path = tmp_path / "grid.csv"
        assert main([*BIG_SWEEP, "--out", str(path)]) == 0
        fifo = tmp_path / "grid.fifo"
        os.mkfifo(fifo)
        received = []

        def read():
            # open blocks until the writer opens; read returns once it closes
            with open(fifo, "rb") as fh:
                received.append(fh.read())

        # a daemon, so a writer that never opens the FIFO cannot hang the run
        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        try:
            assert main([*BIG_SWEEP, "--out", str(fifo)]) == 0
        finally:
            reader.join(timeout=30)
        assert not reader.is_alive()
        assert stdout == path.read_bytes() == received[0]
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        columns, table, _, _ = sweep.run_sweep(SweepConfig(
            "tmsv", ("e_n", "s_q_opt"), axis1=sweep.AxisSpec("k_f", 0.8, 1.0, 51),
            axis2=sweep.AxisSpec("r", 0.0, 3.0, 50)))
        assert stdout.decode() == csv_text_reference(columns, table.tolist())

    def test_a_sweep_that_fails_writes_no_file(self, capsys, tmp_path):
        path = tmp_path / "grid.csv"
        code, out, err = run_inproc("sweep", "--model", "tmsv", "--axis1", "eta_i=0.5:1.5:3",
                                    "--out", str(path), capsys=capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"].startswith("grid row 2 (eta_i=1.5)")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("error", [OSError(28, "No space left on device"), MemoryError()],
                             ids=["disk full", "out of memory"])
    @pytest.mark.parametrize("existing", [False, True], ids=["new file", "existing file"])
    def test_a_write_that_fails_midway_leaves_no_partial_file(self, error, existing,
                                                               monkeypatch, capsys, tmp_path):
        real = sweep.csv_chunks

        def fail_after_the_first_rows(columns, table):
            chunks = real(columns, table)
            yield next(chunks)
            yield next(chunks)
            raise error

        monkeypatch.setattr(sweep, "csv_chunks", fail_after_the_first_rows)
        path = tmp_path / "grid.csv"
        if existing:
            path.write_text("stale\n")
        argv = [*BIG_SWEEP, "--out", str(path)]
        code, out, err = run_inproc(*argv, capsys=capsys)
        assert (code, out) == (2, "")
        want = str(error) if isinstance(error, OSError) else f"out of memory: {error}"
        assert json.loads(err) == {"error": want}
        assert [p.name for p in tmp_path.iterdir()] == (["grid.csv"] if existing else [])
        if existing:
            assert path.read_text() == "stale\n"


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
        for k in rng.integers(1, len(lines), size=10):
            cells = lines[k].split(",")
            parsed = dict(zip(header, (float(c) for c in cells)))
            columns, table, _, _ = sweep.run_sweep(SweepConfig(
                "tmsv", ("e_n", "s_q_opt", "purity", "weight_ratio"),
                {"r": parsed["r"], "k_f": 0.9, "eta_i": 0.85},
            ))
            res = dict(zip(columns, table[0].tolist()))
            for name, want in res.items():
                assert repr(float(want)) == cells[header.index(name)]

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
            assert e_n == pytest.approx(gaussian.log_negativity(v.blocks()), abs=1e-12)
            assert s_q == pytest.approx(
                gaussian.optimized_squeezing(v.blocks()), abs=1e-12)
            assert pur == pytest.approx(gaussian.purity(v.blocks()), abs=1e-12)

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

    @pytest.mark.parametrize("argv, params", [
        (("--axis1", "omega_l=0:1:2", "--family-i", "step", "--family-s", "exponential"),
         {"fixed": {}, "family_i": "step", "family_s": "exponential",
          "axis1": {"name": "omega_l", "start": 0.0, "stop": 1.0, "count": 2}, "axis2": None}),
        (("--r", "0.5", "--axis1", "k_f=0.8:1:3", "--axis2", "eta_i=0.5:1:2"),
         {"fixed": {"r": 0.5}, "family_i": None, "family_s": None,
          "axis1": {"name": "k_f", "start": 0.8, "stop": 1.0, "count": 3},
          "axis2": {"name": "eta_i", "start": 0.5, "stop": 1.0, "count": 2}}),
    ], ids=["families", "two axes"])
    def test_sweep_json_params_give_the_families_and_axes(self, argv, params, capsys):
        code, out, _ = run_inproc("sweep", "--model", "tmsv", *argv, "--format", "json",
                                  capsys=capsys)
        assert code == 0
        assert strict_json(out)["params"] == {"model": "tmsv", "outputs": ["e_n"], **params,
                                              "seed": 0}

    @pytest.mark.parametrize("argv", [
        ("--model", "tmsv", "--eta-i", "0.9", "--eta-s", "0.98", "--axis1", "k_f=0.8:1:5",
         "--axis2", "r=0:3:4", "--outputs", "e_n,s_q_opt"),
        ("--model", "thermal", "--n-i", "0.3", "--n-s", "0.6", "--axis1", "k_f=0.8:1:5",
         "--axis2", "r=0:3:3", "--outputs", "e_n,s_q_opt,purity,zeta,weight_ratio,critical_points"),
        ("--model", "tmsv", "--eta-s", "0.9", "--axis1", "r=0:1.5:4", "--axis2", "k_f=0.9:1:2",
         "--outputs", "bell_max,e_n,critical_points,weight_ratio", "--seed", "4",
         "--restarts", "3"),
    ], ids=["readme grid", "thermal landmarks", "bell_max"])
    def test_sweep_json_stdout_equals_its_out_file(self, argv, capsys, tmp_path):
        out_path = tmp_path / "sweep.json"
        assert main(["sweep", *argv, "--format", "json", "--out", str(out_path)]) == 0
        code, out, _ = run_inproc("sweep", *argv, "--format", "json", capsys=capsys)
        assert code == 0
        assert out == out_path.read_text()
        assert out.startswith('{\n  "params": {')
        # the rows are the CSV's round-trip decimals, read back as floats;
        # inf and nan, which JSON lacks, keep the CSV's spelling as strings
        assert main(["sweep", *argv]) == 0
        header, *lines = capsys.readouterr().out.splitlines()
        want = {"columns": header.split(","),
                "rows": [[float(c) if math.isfinite(float(c)) else c for c in line.split(",")]
                         for line in lines]}
        assert json.dumps(json.loads(out)["results"]) == json.dumps(want)

    def test_sweep_json_spells_inf_and_nan_as_strings(self, capsys):
        # no window at k_f = 0 (nan); the upper cutoff diverges at k_f = 1 (inf)
        code, out, _ = run_inproc(
            "sweep", "--model", "thermal", "--n-i", "0.3", "--n-s", "0.7",
            "--axis1", "k_f=0:1:3", "--outputs", "critical_points", "--format", "json",
            capsys=capsys)
        assert code == 0
        rows = strict_json(out)["results"]["rows"]
        cells = [c for row in rows for c in row]
        assert "inf" in cells and "nan" in cells
        assert all(isinstance(c, float) or c in ("inf", "nan") for c in cells)

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

    def test_lossy_thermal_critical_points(self, tmp_path):
        out_path = tmp_path / "lossy_cp.csv"
        assert main(["sweep", "--model", "thermal", "--n-i", "0.3", "--n-s", "0.7",
                     "--eta-i", "0.9", "--eta-s", "0.8", "--axis1", "k_f=0.85:0.999:81",
                     "--outputs", "critical_points", "--out", str(out_path)]) == 0
        header, *lines = out_path.read_text().splitlines()
        assert header == ",".join(("k_f",) + sweep.CRITICAL_COLUMNS)
        assert len(lines) == 81
        windows = 0
        for line in lines[::10]:
            k_f, *got = (float(x) for x in line.split(","))
            want = landmarks_by_search(0.3, 0.7, k_f, 0.0, 0.9, 0.8)
            windows += not math.isnan(want["r_lcf_en"])
            assert search_mismatches(dict(zip(sweep.CRITICAL_COLUMNS, got)), want) == [], k_f
        assert windows >= 3

    @pytest.mark.parametrize("axes, code, error", [
        # D_x, about sinh^4 r, passes the float range at r = 240
        (("--axis1", "r=0:240:4", "--axis2", "k_f=0.5:0.9:3"), 3,
         "numerical failure: grid row 3 (r=240.0, k_f=0.5): "
         "(34, 'Numerical result out of range')"),
        (("--axis1", "r=0:1:3", "--axis2", "k_f=0.9:1.1:5"), 2,
         "grid row 9 (r=0.0, k_f=1.05): overlap (1.05, 0.0) violates the Cauchy-Schwarz bound"),
    ], ids=["overflow", "k_f past one"])
    def test_the_first_failing_point_is_named(self, axes, code, error, capsys):
        got, out, err = run_inproc("sweep", "--model", "tmsv", "--outputs", "e_n", *axes,
                                   capsys=capsys)
        assert (got, out) == (code, "")
        assert err.splitlines() == [json.dumps({"error": error})]

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

    def test_svg_needs_two_axes(self, capsys, monkeypatch, tmp_path):
        # refused before the grid, Bell maxima included, is evaluated
        calls = []
        monkeypatch.setattr(sweep, "run_sweep", lambda cfg: calls.append(cfg))
        code, out, err = run_inproc(
            "sweep", "--model", "tmsv", "--axis1", "r=0.1:2:40", "--outputs", "bell_max",
            "--restarts", "32", "--svg", str(tmp_path / "x.svg"),
            "--out", str(tmp_path / "x.csv"), capsys=capsys)
        assert calls == []
        assert code == 2
        assert out == ""
        assert err.splitlines() == [json.dumps({"error": "--svg needs a 2-D sweep (axis1 and axis2)"})]
        assert list(tmp_path.iterdir()) == []


# a thermal state behind a lossy signal detector, less its squeezing
LOSSY_THERMAL = ("--model", "thermal", "--n-i", "0.1", "--n-s", "0.4", "--k-f", "0.95",
                 "--l-f", "0.095", "--eta-s", "0.9")


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
        # a search whose best restart runs out of the default budget unsettled
        argv = ("bell", *LOSSY_THERMAL, "--r", "1.3", "--restarts", "12", "--seed", "6")
        code, first, _ = run_inproc(*argv, capsys=capsys)
        assert code == 0
        _, blocks = sweep.point_state({"r": 1.3, "n_i": 0.1, "n_s": 0.4, "k_f": 0.95,
                                       "l_f": 0.095, "eta_s": 0.9})
        steps = []
        ref = bell_max_reference(build_covariance(blocks), 12, seed=6, steps=steps)
        diag = json.loads(first)["diagnostics"]
        assert ref[2] is False and diag["spread"] > bell.F_TOL
        assert (diag["evaluations"], diag["restarts_agreeing"]) == ref[3:]
        assert diag["iterations"] == len(steps)
        assert diag["converged"] is ref[2]
        assert run_inproc(*argv, capsys=capsys)[1] == first

    @pytest.mark.parametrize("r, converged", [("0.8", True), ("1.3", False)])
    def test_spread_is_reported_and_rerun_byte_identical(self, r, converged, capsys):
        # one restart: converged is whether it settled within the default
        # budget, i.e. spread <= F_TOL
        argv = ("bell", *LOSSY_THERMAL, "--r", r, "--restarts", "1", "--seed", "3")
        code, first, _ = run_inproc(*argv, capsys=capsys)
        assert code == 0
        diag = json.loads(first)["diagnostics"]
        assert diag["converged"] is converged
        assert (0.0 <= diag["spread"] <= bell.F_TOL) is converged
        assert run_inproc(*argv, capsys=capsys)[1] == first

    def test_max_evals_is_not_an_option(self, capsys):
        code, out, err = run_inproc("bell", "--model", "tmsv", "--r", "0.8",
                                    "--max-evals", "900", capsys=capsys)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": "unrecognized arguments: --max-evals 900"}

    @pytest.mark.parametrize("argv, message", [
        (("bell", "--model", "nope", "--r", "0.8"),
         "argument --model: invalid choice: 'nope' (choose from 'tmsv', 'thermal')"),
        (("bell", "--r", "0.8"), "the following arguments are required: --model"),
        (("point", "--model", "nope"),
         "argument --model: invalid choice: 'nope' (choose from 'tmsv', 'thermal')"),
        (("validate", "--r", "0.8"),
         "the following arguments are required: --model, --dt, --horizon, --n-real"),
        # only point and sweep have a --format
        (("bell", "--model", "tmsv", "--r", "0.8", "--format", "json"),
         "unrecognized arguments: --format json"),
        (("validate", "--model", "tmsv", "--r", "0.5", "--family", "step", "--tau-i", "2",
          "--tau-s", "2", "--omega-k", "1", "--omega-l", "0", "--dt", "0.02", "--horizon", "6",
          "--n-real", "2000", "--format", "json"), "unrecognized arguments: --format json"),
        # the overlap kernel is point's and sweep's k_f and l_f
        (("overlap", "--family", "step", "--tau-i", "2", "--tau-s", "2", "--omega-k", "1",
          "--omega-l", "0"), "argument command: invalid choice: 'overlap' "
                             "(choose from 'point', 'sweep', 'bell', 'validate')"),
    ], ids=["bell unknown model", "bell missing model", "point unknown model",
            "validate missing model", "bell format", "validate format", "no overlap command"])
    def test_usage_errors_are_one_json_line(self, argv, message, capsys):
        code, out, err = run_inproc(*argv, capsys=capsys)
        assert code == 2
        assert out == ""
        (line,) = err.splitlines()
        assert json.loads(line) == {"error": message}

    def test_help_still_prints_help(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["bell", "--help"])
        assert exit_.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith("usage: filtered-tms bell") and err == ""

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


# the README's three validate commands
README_VALIDATE = [
    ("validate", "--model", "thermal", "--r", "0.5", "--n-i", "0.3", "--n-s", "0.8",
     "--family", "step", "--tau-i", "2", "--tau-s", "2", "--omega-k", "1", "--omega-l", "0",
     "--dt", "0.01", "--horizon", "6", "--n-real", "200000", "--seed", "42"),
    ("validate", "--model", "thermal", "--r", "0.5", "--n-i", "0.3", "--n-s", "0.8",
     "--eta-i", "0.8", "--eta-s", "0.7", "--family-i", "exponential", "--family-s", "step",
     "--tau-i", "2", "--tau-s", "2", "--omega-k", "1", "--omega-l", "0",
     "--dt", "0.01", "--horizon", "20", "--n-real", "200000", "--seed", "5"),
    ("validate", "--model", "tmsv", "--r", "0.6", "--family-i", "step",
     "--family-s", "exponential", "--tau-i", "2", "--tau-s", "1", "--omega-k", "1",
     "--omega-l", "1", "--dt", "0.02", "--horizon", "10", "--n-real", "50000", "--seed", "3"),
]


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
        assert set(diag) == {"bias_estimate", "bias_warning", "chain_residual", "lag_cells",
                             "normal_draws", "truncation"}
        # the realizations' second moments: 4 chi-squares and 6 normals
        assert (diag["lag_cells"], diag["normal_draws"]) == (100, 10)

    def test_counts_are_reported_and_reruns_are_byte_identical(self, capsys):
        # exponential kernels span the whole horizon
        argv = ("validate", "--model", "thermal", "--r", "0.4", "--n-i", "0.2",
                "--family", "exponential", "--tau-i", "1", "--tau-s", "1",
                "--omega-k", "1", "--omega-l", "0.5", "--dt", "0.02",
                "--horizon", "10", "--n-real", "1500", "--seed", "3")
        code, first, _ = run_inproc(*argv, capsys=capsys)
        assert code == 0
        diag = json.loads(first)["diagnostics"]
        assert (diag["lag_cells"], diag["normal_draws"]) == (500, 10)
        assert run_inproc(*argv, capsys=capsys)[1] == first

    def test_a_billion_realizations_draw_what_two_hundred_thousand_do(self, capsys):
        runs = {}
        for n in ("200000", "1000000000"):
            code, out, _ = run_inproc(*README_VALIDATE[0][:-4], "--n-real", n, "--seed", "42",
                                      capsys=capsys)
            assert code == 0
            runs[n] = strict_json(out)
            assert runs[n]["results"]["all_pass"] is True
        small, large = (runs[n]["diagnostics"] for n in runs)
        assert (large["lag_cells"], large["normal_draws"]) == (
            small["lag_cells"], small["normal_draws"]) == (200, 10)

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
        ov = overlap_closed_form(FilterSpec.step(1.0, 2.0),
                                 FilterSpec.exponential(1.0, 1.0))
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


    @pytest.mark.parametrize("argv", [
        ("--model", "tmsv", "--r", "0.0", "--family", "step", "--omega-l", "0"),
        ("--model", "tmsv", "--r", "1.0", "--family", "step", "--omega-l", "1"),
        ("--model", "thermal", "--r", "0.5", "--n-i", "0.3", "--n-s", "0.8", "--family", "step",
         "--omega-l", "0"),
        ("--model", "thermal", "--r", "0.5", "--n-i", "0.3", "--n-s", "0.8", "--eta-i", "0.8",
         "--eta-s", "0.7", "--family-i", "exponential", "--family-s", "step", "--omega-l", "0"),
    ], ids=["vacuum", "tmsv", "thermal", "lossy thermal mixed"])
    def test_chain_residual_vanishes(self, argv, capsys):
        # the Richardson limit of the chain, exact and free of sampling noise,
        # meets the closed form; criterion 9's configs and a lossy thermal one
        code, out, _ = run_inproc(
            "validate", *argv, "--tau-i", "2", "--tau-s", "2", "--omega-k", "1",
            "--dt", "0.01", "--horizon", "20", "--n-real", "1000", capsys=capsys)
        assert code == 0
        payload = strict_json(out)
        scale = max(abs(row["analytic"]) for row in payload["results"]["blocks"])
        residual = payload["diagnostics"]["chain_residual"]
        assert len(residual) == 4
        assert max(abs(x) for x in residual) <= 1e-7 * scale

    def test_lossy_thermal_validation_passes(self, capsys):
        code, out, _ = run_inproc(
            "validate", "--model", "thermal", "--r", "0.5", "--n-i", "0.3", "--n-s", "0.8",
            "--eta-i", "0.8", "--eta-s", "0.7", "--family", "step", "--tau-i", "2",
            "--tau-s", "2", "--omega-k", "1", "--omega-l", "0", "--dt", "0.01",
            "--horizon", "6", "--n-real", "200000", "--seed", "42", capsys=capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["results"]["all_pass"] is True
        assert all(abs(row["z"]) <= 5.0 for row in payload["results"]["blocks"])
        # the analytic blocks are the model's lossy thermal blocks
        ov = overlap_closed_form(FilterSpec.step(1.0, 2.0),
                                 FilterSpec.step(0.0, 2.0))
        want = thermal.covariance(thermal.ThermalParams(0.5, 0.3, 0.8, ov, 0.8, 0.7))
        assert [row["analytic"] for row in payload["results"]["blocks"]] == [
            want.d_i, want.d_s, want.c11, want.c12]

    @pytest.mark.parametrize("block", range(4), ids=["d_i", "d_s", "c11", "c12"])
    def test_a_chain_off_by_1e_6_of_the_scale_fails(self, block, monkeypatch, capsys):
        # the sampled blocks still pass their z check; only the chain's
        # Richardson limit is off, by ten times the tolerance
        simulate = fieldsim.simulate

        def shifted(cfg):
            est = simulate(cfg)
            limit = list(est.richardson_limit)
            limit[block] += 1e-6 * max(1.0, *map(abs, limit))
            return dataclasses.replace(est, richardson_limit=tuple(limit))

        monkeypatch.setattr(fieldsim, "simulate", shifted)
        code, out, _ = run_inproc(*README_VALIDATE[0][:-4], "--n-real", "20000", "--seed", "8",
                                  capsys=capsys)
        assert code == 0
        payload = strict_json(out)
        assert all(row["pass_5_sigma"] for row in payload["results"]["blocks"])
        scale = max(abs(row["analytic"]) for row in payload["results"]["blocks"])
        assert abs(payload["diagnostics"]["chain_residual"][block]) > 5e-7 * scale
        assert payload["results"]["all_pass"] is False

    @pytest.mark.parametrize("argv", README_VALIDATE, ids=["thermal", "lossy-mixed", "tmsv-mixed"])
    def test_readme_commands_pass(self, argv, capsys):
        code, out, _ = run_inproc(*argv, capsys=capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["results"]["all_pass"] is True
        scale = max(abs(row["analytic"]) for row in payload["results"]["blocks"])
        assert max(map(abs, payload["diagnostics"]["chain_residual"])) <= 1e-7 * scale

    def test_an_exponential_filter_validates_at_six_decay_times(self, capsys):
        # the horizon rule is 3 tau for either family; the gated pair is checked
        code, out, _ = run_inproc(
            "validate", "--model", "thermal", "--r", "0.4", "--n-i", "0.2",
            "--family", "exponential", "--tau-i", "1", "--tau-s", "1", "--omega-k", "1",
            "--omega-l", "0.5", "--dt", "0.02", "--horizon", "6", "--n-real", "200000",
            "--seed", "3", capsys=capsys)
        assert code == 0
        payload = strict_json(out)
        assert payload["results"]["all_pass"] is True
        assert max(map(abs, payload["diagnostics"]["chain_residual"])) <= 1e-8

    def test_the_mixed_chain_residual_does_not_depend_on_the_horizon(self, capsys):
        # the README's mixed command: the exponential idler is sampled gated
        # at the horizon and checked against that gated pair's closed form
        residuals = {}
        for horizon in ("12", "20", "30"):
            argv = list(README_VALIDATE[1])
            argv[argv.index("--horizon") + 1] = horizon
            code, out, _ = run_inproc(*argv, capsys=capsys)
            assert code == 0
            residuals[horizon] = strict_json(out)["diagnostics"]["chain_residual"]
            assert max(map(abs, residuals[horizon])) <= 1e-11, (horizon, residuals[horizon])
        assert abs(residuals["20"][0] - residuals["30"][0]) <= 1e-13

    @pytest.mark.parametrize("argv", [
        README_VALIDATE[0],
        ("validate", "--model", "tmsv", "--r", "0.5", "--eta-i", "0.7", "--family", "step",
         "--tau-i", "2", "--tau-s", "2", "--omega-k", "1", "--omega-l", "1", "--dt", "0.02",
         "--horizon", "6", "--n-real", "200000", "--seed", "6"),
        README_VALIDATE[1],
        README_VALIDATE[2],
        ("validate", "--model", "thermal", "--r", "0.4", "--n-i", "0.2", "--eta-s", "0.9",
         "--family", "exponential", "--tau-i", "1", "--tau-s", "1.5", "--omega-k", "1",
         "--omega-l", "0.5", "--dt", "0.02", "--horizon", "6", "--n-real", "2000"),
    ], ids=["step", "identical steps", "lossy-mixed", "tmsv-mixed", "exponential"])
    def test_truncation_is_what_the_gate_takes_off(self, argv, capsys):
        code, out, _ = run_inproc(*argv, capsys=capsys)
        assert code == 0
        payload = strict_json(out)
        p = payload["params"]
        state = {n: p[n] for n in ("r", "n_i", "n_s", "eta_i", "eta_s") if n in p}
        pair = sweep.filter_pair(p["family_i"], p["family_s"], p["omega_k"], p["omega_l"],
                                 p["tau_i"], p["tau_s"])
        gated = [FilterSpec(f.omega, f.decay, min(f.end, p["horizon"])) for f in pair]
        blocks = [sweep.point_state({**state, "k_f": ov.k_f, "l_f": ov.l_f})[1]
                  for ov in (overlap_closed_form(*pair), overlap_closed_form(*gated))]
        names = ("d_i", "d_s", "c11", "c12")
        rows = payload["results"]["blocks"]
        assert [row["analytic"] for row in rows] == [float(getattr(blocks[1], n)) for n in names]
        truncation = payload["diagnostics"]["truncation"]
        assert truncation == [float(getattr(blocks[0], n)) - float(getattr(blocks[1], n))
                              for n in names]
        if p["family_i"] == p["family_s"] == "step":
            assert truncation == [0.0] * 4
        else:
            assert max(map(abs, truncation)) > 0.0

    @pytest.mark.parametrize("command", ["validate", "sweep"])
    def test_occupations_are_not_tmsv_parameters(self, command, capsys):
        extra = {"validate": ("--family", "step", "--tau-i", "2", "--tau-s", "2", "--omega-k",
                              "1", "--omega-l", "1", "--dt", "0.02", "--horizon", "6",
                              "--n-real", "2000"),
                 "sweep": ("--axis1", "r=0:1:3")}[command]
        code, _, err = run_inproc(command, "--model", "tmsv", "--n-i", "0.2", *extra,
                                  capsys=capsys)
        assert code == 2
        assert json.loads(err.splitlines()[-1]) == {
            "error": "thermal occupations are not tmsv parameters"}

    @pytest.mark.parametrize("overlap, families", [
        (("--k-f", "0.5"), ("--family", "step")),
        (("--l-f", "0.3"), ("--family-i", "step", "--family-s", "exponential")),
    ], ids=["k_f, one family", "l_f, a family per filter"])
    def test_overlap_beside_filters_exits_two(self, overlap, families, capsys):
        # as point and sweep do: the filters fix (K_f, L_f)
        code, out, err = run_inproc(
            "validate", "--model", "tmsv", "--r", "1", *overlap, *families,
            "--tau-i", "2", "--tau-s", "2", "--omega-k", "1", "--omega-l", "1",
            "--dt", "0.02", "--horizon", "20", "--n-real", "2000", capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [json.dumps(
            {"error": "give either (k_f, l_f) or filter parameters, not both"})]


# the errors of a family pair given in part, and of families without filters
HALF_PAIR = "filter parameters require --family (or --family-i and --family-s)"
ORPHAN_FAMILY = "--family (or --family-i/--family-s) given without filter parameters"
# filter flags for a mixed pair, and every command with the flags it needs
# beside the state and filter flags
FILTERS = ("--tau-i", "1.5", "--tau-s", "2", "--omega-k", "1", "--omega-l", "0.3")
COMMANDS = {
    "point": ("point", "--outputs", "e_n,k_f,l_f"),
    "sweep": ("sweep", "--axis1", "eta_i=0.5:1:3", "--outputs", "e_n,k_f,l_f"),
    "bell": ("bell", "--restarts", "2"),
    "validate": ("validate", "--dt", "0.02", "--horizon", "20", "--n-real", "1000"),
}
# the README's detuning sweep, with a step idler and an exponential signal
MIXED_SWEEP = ("sweep", "--model", "tmsv", "--axis1", "omega_l=-4:6:501", "--omega-k", "1",
               "--tau-i", "2", "--tau-s", "2", "--r", "1", "--family-i", "step",
               "--family-s", "exponential", "--outputs", "e_n,k_f,l_f")


def csv_rows(out: str) -> tuple[list[str], np.ndarray]:
    header, *lines = out.splitlines()
    return header.split(","), np.array([[float(x) for x in line.split(",")] for line in lines])


class TestFamilyPairs:
    """``--family-i``/``--family-s`` reach every command and override
    ``--family``; the overlap kernel is the outputs ``k_f`` and ``l_f``."""

    @pytest.mark.parametrize("families", [
        ("--family", "exponential"),
        ("--family-i", "exponential", "--family-s", "step"),
        ("--family-i", "step", "--family-s", "exponential"),
    ], ids=["one family", "exponential idler", "step idler"])
    def test_overlap_is_the_point_commands_closed_form(self, families, capsys):
        state = ("--model", "thermal", "--r", "0.5", "--n-i", "0.3", *families, *FILTERS)
        code, out, _ = run_inproc("point", *state, "--outputs", "k_f,l_f", capsys=capsys)
        assert code == 0
        want = json.loads(out)["results"]
        code, out, _ = run_inproc("validate", *state, "--dt", "0.02", "--horizon", "20",
                                  "--n-real", "1000", capsys=capsys)
        assert code == 0
        res = json.loads(out)["results"]
        assert (res["k_f"], res["l_f"]) == (want["k_f"], want["l_f"])

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_the_per_filter_flags_override_family(self, command, capsys):
        argv = (*COMMANDS[command], "--model", "tmsv", "--r", "0.6", *FILTERS)
        runs = [run_inproc(*argv, *families, capsys=capsys) for families in (
            ("--family-i", "step", "--family-s", "exponential"),
            ("--family", "step", "--family-s", "exponential"),
            ("--family", "exponential", "--family-i", "step"),
            ("--family", "step", "--family-i", "step", "--family-s", "exponential"),
        )]
        assert runs[0][0] == 0 and runs[0][2] == ""
        assert all(run == runs[0] for run in runs)
        assert run_inproc(*argv, "--family", "step", capsys=capsys)[1] != runs[0][1]
        params = json.loads(runs[0][1] if command != "sweep" else run_inproc(
            *argv, "--family-i", "step", "--family-s", "exponential", "--format", "json",
            capsys=capsys)[1])["params"]
        assert "family" not in params
        assert (params["family_i"], params["family_s"]) == ("step", "exponential")

    @pytest.mark.parametrize("half", [("--family-i", "step"), ("--family-s", "exponential")],
                             ids=["idler only", "signal only"])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_a_half_given_family_pair_is_one_error(self, command, half, capsys):
        code, out, err = run_inproc(*COMMANDS[command], "--model", "tmsv", *half, *FILTERS,
                                    capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [json.dumps({"error": HALF_PAIR})]

    def test_a_mixed_detuning_sweep_is_the_closed_form_row_by_row(self, capsys):
        code, out, _ = run_inproc(*MIXED_SWEEP, capsys=capsys)
        assert code == 0
        columns, table = csv_rows(out)
        assert columns == ["omega_l", "e_n", "k_f", "l_f"] and len(table) == 501
        step = FilterSpec.step(1.0, 2.0)
        for omega_l, _, k_f, l_f in table:
            ov = overlap_closed_form(step, FilterSpec.exponential(omega_l, 2.0))
            assert (k_f, l_f) == (ov.k_f, ov.l_f), omega_l

    def test_a_mixed_detuning_sweep_meets_the_stated_bound(self, capsys):
        # the README's bound on the kernel: 1e-14 max(|K_f|, |L_f|) (1 + |delta| min(tau))
        code, out, _ = run_inproc(*MIXED_SWEEP, capsys=capsys)
        assert code == 0
        step = FilterSpec.step(1.0, 2.0)
        for omega_l, _, k_f, l_f in csv_rows(out)[1]:
            want = overlap_mpmath(step, FilterSpec.exponential(omega_l, 2.0))
            bound = 1e-14 * max(abs(want.real), abs(want.imag)) * (1.0 + abs(1.0 - omega_l) * 2.0)
            assert abs(k_f - want.real) <= bound and abs(l_f - want.imag) <= bound, omega_l


# SweepConfig's request errors: state flags and the message each gives
REQUEST_ERRORS = {
    "occupation on tmsv": (("--model", "tmsv", "--n-i", "0.2"),
                           "thermal occupations are not tmsv parameters"),
    "filters without family": (("--model", "tmsv", "--omega-k", "1"), HALF_PAIR),
    "filters with one family": (("--model", "tmsv", "--omega-k", "1", "--family-s", "step"),
                                HALF_PAIR),
    "k_f beside filters": (("--model", "tmsv", "--k-f", "0.9", "--tau-i", "2",
                            "--family", "step"),
                           "give either (k_f, l_f) or filter parameters, not both"),
    "family without filters": (("--model", "thermal", "--k-f", "0.9", "--family", "step"),
                               ORPHAN_FAMILY),
    "signal family without filters": (("--model", "tmsv", "--family-s", "step"),
                                      ORPHAN_FAMILY),
    "no restarts": (("--model", "tmsv", "--restarts", "0"),
                    "n_restarts must be at least 1, got 0"),
}
GRID_COMMANDS = {
    "point": ("point", "--outputs", "bell_max"),
    "bell": ("bell",),
    "sweep": ("sweep", "--axis1", "eta_i=0.5:1:3", "--outputs", "bell_max"),
}


class TestOneRequest:
    """``point``, ``bell`` and ``sweep`` build one checked request, so a
    bad request gives each the same message, before any state is built."""

    @pytest.mark.parametrize("command", sorted(GRID_COMMANDS))
    @pytest.mark.parametrize("case", sorted(REQUEST_ERRORS))
    def test_every_grid_command_names_the_same_error(self, case, command, capsys, monkeypatch):
        monkeypatch.setattr(sweep, "point_state", lambda *a: pytest.fail("a state was built"))
        flags, message = REQUEST_ERRORS[case]
        code, out, err = run_inproc(*GRID_COMMANDS[command], *flags, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [json.dumps({"error": message})]

    @pytest.mark.parametrize("outputs, message", [
        ("foo", f"unknown output 'foo'; choose from {sweep.OUTPUTS}"),
        (",", "at least one output is required"),
        ("e_n,e_n", "'e_n' is given twice as an output"),
    ], ids=["unknown", "empty", "repeated"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_point_rejects_bad_outputs(self, outputs, message, fmt, capsys):
        code, out, err = run_inproc("point", "--model", "tmsv", "--r", "0.5", "--outputs",
                                    outputs, "--format", fmt, capsys=capsys)
        assert (code, out) == (2, "")
        assert err.splitlines() == [json.dumps({"error": message})]

    def test_a_linear_algebra_failure_exits_three(self, capsys, monkeypatch):
        def fail(cfg):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(sweep, "run_sweep", fail)
        code, out, err = run_inproc("point", "--model", "tmsv", capsys=capsys)
        assert (code, out) == (3, "")
        assert err.splitlines() == [json.dumps({"error": "numerical failure: Singular matrix"})]


class TestParserReuse:
    """One parser serves every ``main`` call of a process: a sequence of
    in-process calls gives what each command gives in a fresh process."""

    def test_command_sequence_matches_fresh_processes(self, capsys, tmp_path):
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
            got = run_inproc(*(a.format(dir=inproc_dir) for a in args), capsys=capsys)
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

    @pytest.mark.parametrize("argv", [
        ("sweep", "--model", "tmsv", "--axis1", "k_f=0.8:1:1000000",
         "--axis2", "r=0:3:1000000", "--outputs", "e_n"),
        ("validate", "--model", "tmsv", "--r", "0.5", "--family", "step", "--tau-i", "2",
         "--tau-s", "2", "--omega-k", "1", "--omega-l", "1", "--dt", "1e-9", "--horizon", "6",
         "--n-real", "2000"),
    ], ids=["sweep", "validate"])
    def test_a_request_too_large_for_memory_is_a_request_error(self, argv, tmp_path):
        # 2 GB of address space: numpy's request (7.28 TiB for the sweep's
        # table, 14.9 GiB for validate's lag grid) fails at once, so nothing is
        # allocated, and no output file is left
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (2_000_000 * 1024,) * 2)

        code, out, err = run_cli(*argv, "--out", str(tmp_path / "out"), preexec_fn=limit)
        assert (code, out) == (2, "")
        (line,) = err.splitlines()
        assert json.loads(line)["error"].startswith("out of memory: Unable to allocate ")
        assert list(tmp_path.iterdir()) == []
